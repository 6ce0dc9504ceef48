"""Pairing of computed spectra with quantization predictions.

Predictions and eigenvalues sit on curves with spacing of order hbar,
so greedy nearest-neighbor assignment (ascending distance, each
computed eigenvalue used at most once) coincides with the optimal
assignment in practice; the optimal variant is kept behind a flag for
stress tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError


@dataclass(frozen=True)
class MatchedPair:
    k: int
    computed: complex
    predicted: complex
    distance: float


@dataclass(frozen=True)
class PairingSummary:
    max_dist: float
    mean_dist: float
    count_in_window: int
    hausdorff_pred_to_computed: float | None

    def to_json_dict(self):
        return {
            "max_dist": self.max_dist,
            "mean_dist": self.mean_dist,
            "count_in_window": self.count_in_window,
            "hausdorff_pred_to_computed": self.hausdorff_pred_to_computed,
        }


def _greedy_pairs(computed, predictions):
    # dist[j, i] = |computed[i] - predictions[j]|.  np.hypot rounds like
    # Python's abs(complex); np.abs on complex differs in the last bit.
    diff = np.array(computed)[None, :] \
        - np.array([z for _, z in predictions])[:, None]
    dist = np.hypot(diff.real, diff.imag)
    # A stable sort of the row-major distances orders candidates by
    # (distance, j, i): ties keep their flat index j * len(computed) + i.
    order = np.argsort(dist, axis=None, kind="stable")
    used_pred = [False] * len(predictions)
    used_comp = [False] * len(computed)
    pairs = []
    want = min(len(predictions), len(computed))
    for flat in order.tolist():
        j, i = divmod(flat, len(computed))
        if used_pred[j] or used_comp[i]:
            continue
        used_pred[j] = used_comp[i] = True
        k, lam_p = predictions[j]
        pairs.append(MatchedPair(k=k, computed=computed[i], predicted=lam_p,
                                 distance=float(dist[j, i])))
        if len(pairs) == want:
            break
    pairs.sort(key=lambda p: p.k)
    return pairs


def _optimal_pairs(computed, predictions):
    from scipy.optimize import linear_sum_assignment

    cost = np.empty((len(predictions), len(computed)))
    for j, (_, lam_p) in enumerate(predictions):
        cost[j] = np.abs(np.asarray(computed) - lam_p)
    rows, cols = linear_sum_assignment(cost)
    pairs = [
        MatchedPair(k=predictions[j][0], computed=complex(computed[i]),
                    predicted=complex(predictions[j][1]),
                    distance=float(cost[j, i]))
        for j, i in zip(rows, cols)
    ]
    pairs.sort(key=lambda p: p.k)
    return pairs


def pair_spectra(computed, predictions, method="greedy"):
    """Match predicted points (k, lambda') to computed eigenvalues.

    Returns at most min(len(computed), len(predictions)) MatchedPair
    entries; each computed eigenvalue is used at most once.
    """
    computed = [complex(z) for z in computed]
    predictions = [(int(k), complex(z)) for k, z in predictions]
    if not computed or not predictions:
        return []
    if method == "greedy":
        return _greedy_pairs(computed, predictions)
    if method == "optimal":
        return _optimal_pairs(computed, predictions)
    raise ConfigError(f"unknown pairing method {method!r}")


def directed_hausdorff(predictions, computed):
    """max over predictions of the distance to the nearest computed value."""
    if not predictions:
        return 0.0
    if not computed:
        return None
    comp = np.asarray([complex(z) for z in computed])
    return float(max(np.abs(comp - complex(z)).min() for _, z in predictions))


def summarize_pairs(pairs, predictions, computed_in_window):
    dists = [p.distance for p in pairs]
    return PairingSummary(
        max_dist=float(max(dists)) if dists else 0.0,
        mean_dist=float(np.mean(dists)) if dists else 0.0,
        count_in_window=len(computed_in_window),
        hausdorff_pred_to_computed=directed_hausdorff(predictions,
                                                      computed_in_window),
    )
