import numpy as np
import pytest

from semispec import (ActionMap, CircleSymbol, ConfigError, CriticalLevelError,
                      ExperimentConfig, InversionError, PlaneSymbol, Rectangle,
                      parse_circle, predict_spectrum, pullback_action_angle)
from semispec.action import DEFAULT_NODES
from semispec.experiments import (FIGURE_SYMBOLS, build_action_map,
                                  default_rect, prediction_rule)

COS = {(1, 0): 0.5, (-1, 0): 0.5}


def circle_map(f_coeffs, q_terms, eps):
    return ActionMap(CircleSymbol(f_coeffs=f_coeffs, q_terms=q_terms)
                     .cylinder_map(eps))


def oscillator_map(q_coeffs, eps):
    sym = PlaneSymbol(f_coeffs={(2, 0): 1.0, (0, 2): 1.0},
                      q_coeffs=q_coeffs, epsilon=eps)
    return ActionMap(pullback_action_angle(sym))


def fig1_map(eps):
    return circle_map((0.0, 1.0), {**COS, (0, 2): 1.0}, eps)


def fold_map():
    # f = I^3 - I folds at I = 1/sqrt(3), where f = -0.3849
    return ActionMap(parse_circle("I^3 - I + i*epsilon*cos(theta)")
                     .cylinder_map(0.05))


class CountingCylinder:
    """A cylinder map that counts its evaluations on the grid: a fused
    value_and_dI call counts as two, one of p and one of dp/dI."""

    def __init__(self, cyl):
        self.cyl = cyl
        self.calls = 0

    def __getattr__(self, name):
        return getattr(self.cyl, name)

    def value(self, theta, I):
        self.calls += 1
        return self.cyl.value(theta, I)

    def value_and_dI(self, theta, I):
        self.calls += 2
        return self.cyl.value_and_dI(theta, I)


def figure_predictions(model, symbol, N=66, num_nodes=DEFAULT_NODES):
    """principal_exact prediction of a figure symbol, with its action map
    (cylinder wrapped in CountingCylinder) and the quantized action of
    each point."""
    cfg = ExperimentConfig(model=model, symbol=symbol, N=N, delta=0.5)
    am = build_action_map(cfg)
    am.num_nodes = num_nodes
    rect = default_rect(cfg, am)
    am.cyl = CountingCylinder(am.cyl)
    rule = prediction_rule(cfg)
    pred = predict_spectrum(am, cfg.hbar_value(), rule, "principal_exact",
                            rect)
    half = 0.5 if rule == "line_maslov" else 0.0
    return am, pred, [cfg.hbar_value() * (k + half) for k, _ in pred.points]


FIGURE_MAPS = sorted({(model, symbol)
                      for model, symbol, _ in FIGURE_SYMBOLS.values()})


SECTION4_MAPS = {
    "cos+I2": lambda eps: fig1_map(eps),
    "cos+I3": lambda eps: circle_map((0.0, 1.0), {**COS, (0, 3): 1.0}, eps),
    "x2": lambda eps: oscillator_map({(2, 0): 1.0}, eps),
    "x2+x3": lambda eps: oscillator_map({(2, 0): 1.0, (3, 0): 1.0}, eps),
    "x4": lambda eps: oscillator_map({(4, 0): 1.0}, eps),
}


class TestLevelSet:
    def test_theta_independent_level(self):
        am = fig1_map(0.0)
        loop = am.solve_level_set(0.7)
        assert np.abs(loop - 0.7).max() <= 1e-13

    def test_closed_form_cos_level(self):
        # oracle: I + i*eps*cos(theta) = E solves to I = E - i*eps*cos(theta)
        am = circle_map((0.0, 1.0), COS, 0.1)
        loop = am.solve_level_set(0.7)
        oracle = 0.7 - 0.1j * np.cos(am.thetas())
        assert np.abs(loop - oracle).max() <= 1e-11

    def test_harmonic_level(self):
        am = oscillator_map({}, 0.0)
        loop = am.solve_level_set(1.0)
        assert np.abs(loop - 0.5).max() <= 1e-13

    def test_residuals_within_tolerance(self):
        am = fig1_map(0.15)
        E = 0.6 + 0.02j
        loop = am.solve_level_set(E)
        vals = np.array([complex(am.cyl.value(t, I))
                         for t, I in zip(am.thetas(), loop)])
        assert np.abs(vals - E).max() <= 1e-12 * (1 + abs(E))

    def test_near_critical_level_error(self):
        am = circle_map((0.0, 0.0, 1.0), {}, 0.0)  # f = I^2, critical at I=0
        with pytest.raises(CriticalLevelError):
            am.solve_level_set(1e-22)


@pytest.fixture
def fallbacks(monkeypatch):
    """Energies of every continuation fallback, one array per call."""
    calls = []
    original = ActionMap._continue_levels

    def recording(self, energies, seeds, num_nodes):
        calls.append(energies.copy())
        return original(self, energies, seeds, num_nodes)

    monkeypatch.setattr(ActionMap, "_continue_levels", recording)
    return calls


@pytest.fixture
def refinements(monkeypatch):
    """Shapes of every loop grid handed to a doubled grid."""
    calls = []
    original = ActionMap._interpolate

    def recording(levels):
        calls.append(levels.shape)
        return original(levels)

    monkeypatch.setattr(ActionMap, "_interpolate", staticmethod(recording))
    return calls


def grid_levels(am, energies, start=None):
    """Checked loops on the grid of ``start`` (by default the energies'
    real seeds on num_nodes), without refinement."""
    energies = np.atleast_1d(np.asarray(energies, dtype=complex))
    if start is None:
        start = am._seed_grid(energies)
    _, [(_, levels)] = am._settle(energies, start, max_nodes=start.shape[0])
    return levels


class TestGridSolve:
    @pytest.mark.parametrize("model,symbol", FIGURE_MAPS)
    def test_grid_matches_continuation(self, model, symbol, fallbacks):
        cfg = ExperimentConfig(model=model, symbol=symbol, N=66, delta=0.5)
        am = build_action_map(cfg)
        pred = predict_spectrum(am, cfg.hbar_value(), "circle_k",
                                "averaged_first_order", default_rect(cfg, am))
        energies = pred.values()
        assert energies.size >= 20
        grid = grid_levels(am, energies)
        assert not fallbacks
        seeds = np.array([am.cyl.seed_action(e.real) for e in energies],
                         dtype=complex)
        chain = am._continue_levels(energies, seeds, am.num_nodes)
        assert np.abs(grid - chain).max() <= 1e-11

    def test_branch_check_sends_one_energy_to_continuation(self, fallbacks):
        # the far root of I + i*eps*(cos(theta) + I^2) = E sits near i/eps:
        # nodes started there leave the branch of node 0 in one column only
        am = fig1_map(0.1)
        energies = np.array([0.3 + 0.01j, 0.45 + 0.02j, 0.6 + 0.03j])
        start = grid_levels(am, energies)
        fallbacks.clear()
        start[100:140, 1] = 10j
        levels = grid_levels(am, energies, start=start)
        assert len(fallbacks) == 1
        assert fallbacks[0].tolist() == [energies[1]]
        chain = am._continue_levels(energies[1:2], start[0, 1:2],
                                    am.num_nodes)
        assert np.array_equal(levels[:, 1], chain[:, 0])
        assert np.abs(levels[:, [0, 2]] - start[:, [0, 2]]).max() <= 1e-12

    def test_single_inversion_matches_batch(self):
        am = fig1_map(0.12)
        targets = np.linspace(0.1, 0.7, 41)
        batch = am._invert_batch(targets)
        for i in (0, 17, 40):
            assert abs(am.invert_action(targets[i]) - batch[i]) <= 1e-15

    def test_refined_batch_matches_single(self, refinements):
        # near the fold 0.47, 0.48 and 0.484 refine to 512, 1024 and 2048
        # nodes inside one batch; each must equal its own inversion
        am = fold_map()
        targets = np.array([0.3, 0.47, 0.2, 0.484, 0.48, 0.1])
        batch = am._invert_batch(targets)
        assert refinements[0] == (am.num_nodes, 3)
        for t, g in zip(targets, batch):
            assert abs(am.invert_action(t) - g) <= 1e-15

    def test_interpolation_keeps_band_limited_loops(self):
        # exp(3i theta) - 2 cos(5 theta) + cos(16 theta) on 32 nodes, with
        # its Nyquist mode split evenly, is the same loop on 64 nodes
        def loop(m):
            t = 2 * np.pi * np.arange(m) / m
            return np.exp(3j * t) - 2 * np.cos(5 * t) + np.cos(16 * t)

        fine = ActionMap._interpolate(np.stack([loop(32), 2j * loop(32)], 1))
        assert fine.shape == (64, 2)
        assert np.abs(fine[:, 0] - loop(64)).max() <= 1e-13
        assert np.abs(fine[:, 1] - 2j * loop(64)).max() <= 1e-13

    def test_closure_tolerance_scales_with_loop_size(self):
        # f = I^3 - I folds at I = 1/sqrt(3), next to the target 0.5: the
        # inversion misses, and must say so, not fail the closure check of
        # a loop with |I| ~ 400 whose wrap-around gap (1.25e-10) is
        # rounding relative to its size
        am = fold_map()
        with pytest.raises(InversionError):
            am.invert_action(0.5)
        E = -64162567.75188988 - 3.48462792e-07j
        seed = np.array([am.cyl.seed_action(E.real)], dtype=complex)
        loop = am._continue_levels(np.array([E]), seed, am.num_nodes)[:, 0]
        assert np.abs(loop).max() > 400
        assert abs(am.action_integral(E) - loop.mean()) <= 1e-10


class TestActionIntegral:
    def test_linear_f(self):
        assert fig1_map(0.0).action_integral(0.7) == pytest.approx(0.7)

    def test_linear_f_slope_two(self):
        am = circle_map((0.0, 2.0), {**COS, (0, 2): 1.0}, 0.0)
        assert abs(am.action_integral(0.7) - 0.35) <= 1e-12

    def test_cos_term_averages_out(self):
        am = circle_map((0.0, 1.0), COS, 0.1)
        assert abs(am.action_integral(0.7) - 0.7) <= 1e-12

    def test_disc_area_action(self):
        assert oscillator_map({}, 0.0).action_integral(1.0) \
            == pytest.approx(0.5)

    def test_quadrature_convergence_all_section4_symbols(self):
        # analytic periodic integrand: the starting 128 nodes already meet
        # the Fourier-tail check here, so 512 nodes move nothing
        for name, factory in SECTION4_MAPS.items():
            for eps in (0.1, 0.2):
                coarse = factory(eps)
                fine_map = factory(eps)
                fine_map.num_nodes = 512
                E = 0.5 if name.startswith("cos") else 1.0
                a = coarse.action_integral(E)
                b = fine_map.action_integral(E)
                assert abs(a - b) <= 1e-11, (name, eps)


    def test_independent_of_call_history(self):
        # f = I^3 - I has three real roots near E = 0.1: the seed of a
        # query must come from the query alone, not from earlier queries
        def cubic_map():
            return circle_map((0.0, -1.0, 0.0, 1.0), COS, 0.05)

        fresh, used = cubic_map(), cubic_map()
        used.action_integral(2.0)
        for E in (0.1, 0.1 + 0.01j, -0.3):
            assert used.action_integral(E) == fresh.action_integral(E)
        assert abs(fresh.action_integral(0.1) + 0.1006) <= 1e-4
        used.invert_action(-1.1)
        for I in (1.1, 0.05):
            assert used.invert_action(I) == fresh.invert_action(I)


class TestInversion:
    def test_identity_at_eps_zero(self):
        assert fig1_map(0.0).invert_action(0.5) == pytest.approx(0.5)

    def test_line_inverse_is_doubling(self):
        assert oscillator_map({}, 0.0).invert_action(0.5) == pytest.approx(1.0)

    def test_first_order_shift(self):
        # perturbation oracle: g(I) ~ I + i*eps*qbar(I); the Newton value
        # must agree within O(eps^2)
        g = fig1_map(0.1).invert_action(0.5)
        assert abs(g - (0.5 + 0.025j)) <= 0.01

    def test_inverse_consistency(self, rng):
        am = fig1_map(0.12)
        for I in rng.uniform(0.2, 0.7, size=10):
            E = am.invert_action(I)
            assert abs(am.action_integral(E) - I) <= 1e-10
        for e_re in rng.uniform(0.2, 0.7, size=10):
            E = complex(e_re, 0.01 * e_re)
            I = am.action_integral(E)
            assert abs(am.invert_action(I) - E) <= 1e-10

    def test_derivative_matches_finite_differences(self):
        am = fig1_map(0.1)
        E = 0.55 + 0.03j
        step = 1e-5
        fd = (am.action_integral(E + step) - am.action_integral(E - step)) \
            / (2 * step)
        d = am.action_derivative(E)
        assert abs(d - fd) <= 1e-6 * abs(d)

    def test_eps_squared_order_of_averaged_shift(self):
        # |g_eps(I) - (I + i eps qbar(I))| = O(eps^2): fitted slope >= 1.9
        eps_values = (0.02, 0.04, 0.08)
        for factory, I in ((fig1_map, 0.5),
                           (lambda e: circle_map((0.0, 1.0),
                                                 {(1, 1): 0.5, (-1, 1): 0.5},
                                                 e), 0.5)):
            gaps = []
            for eps in eps_values:
                am = factory(eps)
                avg = am.averaged_value(I)
                gaps.append(abs(am.invert_action(I) - avg))
            slope = np.polyfit(np.log(eps_values), np.log(gaps), 1)[0]
            assert slope >= 1.9

    def test_reality_at_eps_zero(self, rng):
        am = fig1_map(0.0)
        for I in rng.uniform(0.1, 0.8, size=8):
            assert abs(am.invert_action(I).imag) <= 1e-12

    def test_fold_boundary(self):
        # on the branch through the fold the action peaks near 0.4842, at
        # E = -0.384 (a scan of E over [-0.40, -0.33] x [-0.06, 0.06]i):
        # 0.484 has an inverse, 0.49 and 0.5 have none and must fail
        # fast (measured: 2,112 and 1,136 evaluations)
        am = fold_map()
        g = am.invert_action(0.484)
        assert abs(am.action_integral(g) - 0.484) <= 1e-10
        am.cyl = CountingCylinder(am.cyl)
        for target in (0.49, 0.5):
            am.cyl.calls = 0
            with pytest.raises(InversionError):
                am.invert_action(target)
            assert am.cyl.calls <= 3000

    def test_fold_target_refines_to_accuracy(self):
        # the 128-node loop of 0.484 has a Fourier tail of 1.5e-4, and its
        # loops resolve only at 2048 nodes (tail 1.4e-10): the inverse must
        # meet the action of a 4096-node reference, where an inversion that
        # keeps the under-resolved loop misses it by 5e-6 (1.3e-7 at 256)
        g = fold_map().invert_action(0.484)
        fine = fold_map()
        fine.num_nodes = 4096
        assert abs(fine.action_integral(g) - 0.484) <= 1e-12

    def test_fold_level_set_is_refined(self):
        # the 128-node loop of g misses its target by 5.1e-6; the refined
        # loop, on 2*pi*j/loop.size, meets it as action_integral does
        am = fold_map()
        g = am.invert_action(0.484)
        loop = am.solve_level_set(g)
        assert loop.size > am.num_nodes
        assert abs(loop.mean() - 0.484) <= 1e-12

    @pytest.mark.parametrize("model,symbol", FIGURE_MAPS)
    def test_evaluations_per_block(self, model, symbol, fallbacks,
                                   monkeypatch):
        # one fused value_and_dI (two evaluations) per bordered Newton
        # step and one to confirm convergence, whose p_I also serves the
        # Jacobian check: measured at most 8 per block of 32 targets (4
        # for x^2 + xi^2 + i*epsilon*x^2)
        blocks = []
        original = ActionMap._invert_block

        def recording(self, targets):
            blocks.append(targets.size)
            return original(self, targets)

        monkeypatch.setattr(ActionMap, "_invert_block", recording)
        am, pred, _ = figure_predictions(model, symbol)
        assert len(pred.points) >= 50
        assert not fallbacks
        assert am.cyl.calls <= 10 * len(blocks)

    @pytest.mark.parametrize("N", (66, 132))
    @pytest.mark.parametrize("model,symbol", FIGURE_MAPS)
    def test_predictions_match_finer_grid(self, model, symbol, N, fallbacks,
                                          refinements):
        # every figure loop is resolved on the starting grid: no target is
        # refined or continued, and 1024 nodes move no point by more than
        # rounding (measured at most 1.0e-14 against 256 nodes)
        _, coarse, _ = figure_predictions(model, symbol, N)
        _, fine, _ = figure_predictions(model, symbol, N, num_nodes=1024)
        assert not fallbacks
        assert not refinements
        assert [k for k, _ in coarse.points] == [k for k, _ in fine.points]
        assert np.abs(coarse.values() - fine.values()).max() <= 1e-13

    @pytest.mark.parametrize("model,symbol", FIGURE_MAPS)
    def test_predictions_meet_quantized_action(self, model, symbol):
        # worst case measured 2.5e-13 (I + i*epsilon*(cos(theta) + I^3))
        am, pred, actions = figure_predictions(model, symbol)
        for (_, g), action in zip(pred.points, actions):
            assert abs(am.action_integral(g) - action) <= 5e-13


class TestPredictions:
    def test_circle_exact_spectrum_at_eps_zero(self):
        am = fig1_map(0.0)
        rect = Rectangle(-0.5, 0.5, -0.1, 0.1)
        pred = predict_spectrum(am, 1.0 / 66, "circle_k", "principal_exact", rect)
        for k, lam in pred.points:
            assert abs(lam - k / 66) <= 1e-12

    def test_line_maslov_at_eps_zero(self):
        am = oscillator_map({}, 0.0)
        rect = Rectangle(0.0, 1.0, -0.1, 0.1)
        pred = predict_spectrum(am, 1.0 / 66, "line_maslov", "principal_exact",
                                rect)
        assert pred.points
        for k, lam in pred.points:
            assert abs(lam - (2 * k + 1) / 66) <= 1e-11

    def test_averaged_circle_closed_form(self):
        hbar = 1.0 / 66
        eps = hbar ** 0.5
        am = fig1_map(eps)
        rect = Rectangle(-0.8, 0.8, -0.05, 0.15)
        pred = predict_spectrum(am, hbar, "circle_k", "averaged_first_order",
                                rect)
        assert pred.points
        for k, lam in pred.points:
            assert lam == hbar * k + 1j * eps * (hbar * k) ** 2

    def test_floquet_offset_shifts_quantized_action(self):
        am = fig1_map(0.1)
        hbar = 0.05
        rect = Rectangle(-0.5, 0.5, -0.1, 0.1)
        shifted = predict_spectrum(am, hbar, "circle_k", "principal_exact",
                                   rect, floquet_offset=0.02)
        for k, lam in shifted.points:
            assert abs(lam - am.invert_action(hbar * k - 0.02)) <= 1e-10

    def test_prediction_serialization(self):
        am = fig1_map(0.0)
        rect = Rectangle(-0.2, 0.2, -0.1, 0.1)
        pred = predict_spectrum(am, 0.1, "circle_k", "principal_exact", rect)
        lines = pred.to_csv().strip().split("\n")
        assert lines[0] == "k,re,im,rule,mode"
        assert len(lines) == len(pred.points) + 1
        d = pred.to_json_dict()
        assert d["rule"] == "circle_k"
        assert len(d["points"]) == len(pred.points)

    def test_rect_filters_points(self):
        am = fig1_map(0.0)
        wide = predict_spectrum(am, 0.1, "circle_k", "principal_exact",
                                Rectangle(-0.5, 0.5, -0.1, 0.1))
        narrow = predict_spectrum(am, 0.1, "circle_k", "principal_exact",
                                  Rectangle(-0.2, 0.2, -0.1, 0.1))
        assert len(narrow.points) < len(wide.points)
        ks = {k for k, _ in narrow.points}
        assert ks == {k for k, lam in wide.points
                      if -0.2 <= lam.real <= 0.2}

    def test_bad_rule_and_mode(self):
        am = fig1_map(0.0)
        rect = Rectangle(-0.2, 0.2, -0.1, 0.1)
        with pytest.raises(ConfigError):
            predict_spectrum(am, 0.1, "torus", "principal_exact", rect)
        with pytest.raises(ConfigError):
            predict_spectrum(am, 0.1, "circle_k", "exactish", rect)

    def test_contains_is_elementwise(self):
        # the array form decides every point as the scalar chained
        # comparisons do, edges (closed) and NaN included
        rect = Rectangle(-0.5, 0.25, -0.1, 0.125)
        re = np.array([-0.5, 0.25, -0.5000001, 0.2500001, 0.0, np.nan])
        im = np.array([-0.1, 0.125, 0.0, 0.0, np.nan, 0.0])
        z = (re[:, None] + 1j * im[None, :]).ravel()
        mask = rect.contains(z)
        assert mask.shape == z.shape
        assert mask.tolist() == [bool(-0.5 <= v.real <= 0.25
                                      and -0.1 <= v.imag <= 0.125)
                                 for v in z]
        assert rect.contains(0.25 + 0.125j) and not rect.contains(1.0)

    def test_empty_rectangle_rejected(self):
        with pytest.raises(ConfigError):
            Rectangle(0.5, 0.5, -0.1, 0.1)


class TestOscillatorChart:
    def test_positive_actions_only_on_line(self):
        am = oscillator_map({(2, 0): 1.0}, 0.1)
        rect = Rectangle(0.0, 0.5, -0.1, 0.2)
        pred = predict_spectrum(am, 1.0 / 20, "circle_k", "principal_exact",
                                rect)
        assert all(k >= 1 for k, _ in pred.points)

    def test_complex_oscillator_closed_form(self):
        # x^2 + xi^2 + i*eps*x^2 = (1+i*eps) x^2 + xi^2 has action
        # E / (2 sqrt(1+i*eps)), so g(I) = 2 sqrt(1+i*eps) I exactly
        eps = 0.123
        am = oscillator_map({(2, 0): 1.0}, eps)
        root = np.sqrt(1 + 1j * eps)
        for I in (0.2, 0.5, 0.9):
            assert abs(am.invert_action(I) - 2 * root * I) <= 1e-11
