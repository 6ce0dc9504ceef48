"""Pairing of computed spectra with quantization predictions.

Predictions and eigenvalues sit on curves with spacing of order hbar,
so greedy nearest-neighbor assignment (ascending distance, each
computed eigenvalue used at most once) coincides with the optimal
assignment in practice.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .operators import read_only


@dataclass(frozen=True, slots=True)
class MatchedPair:
    k: int
    computed: complex
    predicted: complex
    distance: float


@dataclass(frozen=True, eq=False, slots=True)
class Pairs:
    """Matched pairs sorted by k, as indices into the arrays matched.

    Pair i matches the prediction pred_values[j] for the quantum number
    pred_ks[j], j = pred_index[i], with the eigenvalue
    candidates[eig_index[i]].  Every array is read-only, and the three
    matched are held as pair_spectra got them, not copied: the pairs of
    a run add two indices each.  ks, computed, predicted and distances
    gather their values on demand; len() counts the pairs, and iterating
    yields them as MatchedPair records of Python numbers.
    """

    candidates: np.ndarray
    pred_ks: np.ndarray
    pred_values: np.ndarray
    eig_index: np.ndarray
    pred_index: np.ndarray

    def __len__(self):
        return len(self.eig_index)

    def __iter__(self):
        return map(MatchedPair, self.ks.tolist(), self.computed.tolist(),
                   self.predicted.tolist(), self.distances.tolist())

    @property
    def ks(self):
        return self.pred_ks[self.pred_index]

    @property
    def computed(self):
        return self.candidates[self.eig_index]

    @property
    def predicted(self):
        return self.pred_values[self.pred_index]

    @property
    def distances(self):
        """|computed - predicted|, rounded as pair_spectra ranked them."""
        diff = self.computed - self.predicted
        return np.hypot(diff.real, diff.imag)


@dataclass(frozen=True)
class PairingSummary:
    max_dist: float
    mean_dist: float
    count_in_window: int
    hausdorff_pred_to_computed: float | None


def pair_spectra(computed, ks, predicted):
    """Match the predicted points (ks[j], predicted[j]) to computed
    eigenvalues.

    Returns Pairs of min(len(computed), len(ks)) entries; each computed
    eigenvalue and each prediction is used at most once.
    """
    computed = _held(computed, complex)
    ks = _held(ks, int)
    predicted = _held(predicted, complex)
    # dist[j, i] = |computed[i] - predicted[j]|.  np.hypot rounds like
    # Python's abs(complex); np.abs on complex differs in the last bit.
    diff = computed[None, :] - predicted[:, None]
    dist = np.hypot(diff.real, diff.imag)
    # A stable sort of the row-major distances orders candidates by
    # (distance, j, i): ties keep their flat index j * len(computed) + i.
    # An empty side leaves no candidate.
    order = np.argsort(dist, axis=None, kind="stable")
    used_pred = [False] * len(predicted)
    used_comp = [False] * len(computed)
    js, cs = [], []
    want = min(len(predicted), len(computed))
    for flat in order.tolist():
        j, i = divmod(flat, len(computed))
        if used_pred[j] or used_comp[i]:
            continue
        used_pred[j] = used_comp[i] = True
        js.append(j)
        cs.append(i)
        if len(js) == want:
            break
    js, cs = np.array(js, dtype=int), np.array(cs, dtype=int)
    by_k = np.argsort(ks[js], kind="stable")
    return Pairs(candidates=computed, pred_ks=ks, pred_values=predicted,
                 eig_index=read_only(cs[by_k]),
                 pred_index=read_only(js[by_k]))


def _held(a, dtype):
    """a as a read-only array of dtype: itself when it is one, else a
    copy."""
    a = np.asarray(a, dtype=dtype)
    return a if not a.flags.writeable else read_only(a.copy())


def directed_hausdorff(points, targets):
    """max over points of the distance to the nearest target (complex
    sequences); 0.0 without points, None without targets."""
    if len(points) == 0:
        return 0.0
    if len(targets) == 0:
        return None
    targets = np.asarray(targets, dtype=complex)
    return float(max(np.abs(targets - complex(z)).min() for z in points))


def summarize_pairs(pairs, predicted, computed_in_window):
    """Pair distances, the in-window count and the directed Hausdorff
    distance from the predicted values to the computed ones."""
    dists = pairs.distances
    return PairingSummary(
        max_dist=float(dists.max()) if len(dists) else 0.0,
        mean_dist=float(dists.mean()) if len(dists) else 0.0,
        count_in_window=len(computed_in_window),
        hausdorff_pred_to_computed=directed_hausdorff(
            predicted, computed_in_window),
    )
