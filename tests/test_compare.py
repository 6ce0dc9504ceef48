import numpy as np
import pytest

from semispec import ConfigError, MatchedPair, pair_spectra
from semispec.compare import directed_hausdorff, summarize_pairs


def reference_greedy_pairs(computed, predictions):
    """The loop the vectorized greedy pairing replaced: every (distance, j,
    i) candidate as a Python tuple, sorted, then taken greedily."""
    cands = []
    for j, (k, lam_p) in enumerate(predictions):
        for i, lam_c in enumerate(computed):
            cands.append((abs(lam_c - lam_p), j, i))
    cands.sort(key=lambda t: (t[0], t[1], t[2]))
    used_pred = set()
    used_comp = set()
    pairs = []
    for dist, j, i in cands:
        if j in used_pred or i in used_comp:
            continue
        used_pred.add(j)
        used_comp.add(i)
        k, lam_p = predictions[j]
        pairs.append(MatchedPair(k=k, computed=complex(computed[i]),
                                 predicted=complex(lam_p),
                                 distance=float(dist)))
    pairs.sort(key=lambda p: p.k)
    return pairs


class TestGreedyPairing:
    def test_basic_match(self):
        computed = [0.0 + 0j, 1.0 + 0j, 2.0 + 0j]
        predictions = [(0, 0.01 + 0j), (1, 1.02 + 0j), (2, 1.97 + 0j)]
        pairs = pair_spectra(computed, predictions)
        assert [p.k for p in pairs] == [0, 1, 2]
        assert pairs[0].distance == pytest.approx(0.01)
        assert pairs[2].distance == pytest.approx(0.03)

    def test_each_computed_used_once(self):
        computed = [0.0 + 0j]
        predictions = [(0, 0.1 + 0j), (1, 0.2 + 0j)]
        pairs = pair_spectra(computed, predictions)
        assert len(pairs) == 1
        assert pairs[0].k == 0

    def test_empty_inputs(self):
        assert pair_spectra([], [(0, 1.0 + 0j)]) == []
        assert pair_spectra([1.0 + 0j], []) == []

    def test_greedy_matches_optimal_on_separated_data(self, rng):
        xs = np.arange(12) * 1.0
        computed = [complex(x, 0.001 * x) for x in xs]
        predictions = [(k, complex(x + 0.01 * rng.uniform(-1, 1), 0.0))
                       for k, x in enumerate(xs)]
        greedy = pair_spectra(computed, predictions, method="greedy")
        optimal = pair_spectra(computed, predictions, method="optimal")
        assert [(p.k, p.computed) for p in greedy] \
            == [(p.k, p.computed) for p in optimal]

    @pytest.mark.parametrize("n_pred,n_comp", [(1, 1), (7, 30), (30, 7),
                                                (40, 40), (120, 150)])
    def test_matches_reference_loop_bit_for_bit(self, rng, n_pred, n_comp):
        # Half the points sit on a coarse lattice, so many distances tie
        # exactly and the (distance, j, i) tie order decides the pairing.
        def points(n):
            lattice = rng.integers(-3, 4, size=(n, 2)) * 0.25
            smooth = rng.normal(size=(n, 2))
            pick = rng.random(n) < 0.5
            xy = np.where(pick[:, None], lattice, smooth)
            return [complex(x, y) for x, y in xy]

        computed = points(n_comp)
        predictions = list(enumerate(points(n_pred)))
        got = pair_spectra(computed, predictions)
        want = reference_greedy_pairs(computed, predictions)
        assert len(got) == min(n_pred, n_comp)
        assert got == want
        assert [p.distance.hex() for p in got] \
            == [p.distance.hex() for p in want]

    def test_unknown_method(self):
        with pytest.raises(ConfigError):
            pair_spectra([0j], [(0, 0j)], method="random")


class TestSummary:
    def test_mean_le_max(self, rng):
        computed = [complex(x, rng.uniform(-0.1, 0.1)) for x in range(10)]
        predictions = [(k, complex(k, 0.0)) for k in range(10)]
        pairs = pair_spectra(computed, predictions)
        summary = summarize_pairs(pairs, predictions, computed)
        assert summary.mean_dist <= summary.max_dist
        assert summary.count_in_window == 10

    def test_directed_hausdorff(self):
        predictions = [(0, 0.0 + 0j), (1, 1.0 + 0j)]
        computed = [0.1 + 0j, 1.05 + 0j, 7.0 + 0j]
        assert directed_hausdorff(predictions, computed) == pytest.approx(0.1)
        assert directed_hausdorff([], computed) == 0.0
        assert directed_hausdorff(predictions, []) is None

    def test_window_filter_only_shrinks_max(self, rng):
        # dropping edge eigenvalues cannot make the worst pair worse
        predictions = [(k, complex(0.1 * k, 0.0)) for k in range(20)]
        computed = [complex(0.1 * k + rng.uniform(0, 0.004 * (1 + k)), 0.0)
                    for k in range(20)]
        all_pairs = pair_spectra(computed, predictions)
        windowed = [z for z in computed if z.real <= 1.0]
        win_pairs = pair_spectra(windowed, predictions)
        assert max(p.distance for p in win_pairs) \
            <= max(p.distance for p in all_pairs)
