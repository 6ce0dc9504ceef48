import numpy as np
import pytest

from semispec import (ActionMap, CircleSymbol, ConfigError, CriticalLevelError,
                      ExperimentConfig, InversionError, PlaneSymbol, Rectangle,
                      parse_circle, predict_spectrum, pullback_action_angle)
from semispec.experiments import FIGURE_SYMBOLS, build_action_map, default_rect

COS = {(1, 0): 0.5, (-1, 0): 0.5}


def circle_map(f_coeffs, q_terms, eps, **kw):
    return ActionMap(CircleSymbol(f_coeffs=f_coeffs, q_terms=q_terms)
                     .cylinder_map(eps), **kw)


def oscillator_map(q_coeffs, eps, **kw):
    sym = PlaneSymbol(f_coeffs={(2, 0): 1.0, (0, 2): 1.0},
                      q_coeffs=q_coeffs, epsilon=eps)
    return ActionMap(pullback_action_angle(sym), **kw)


def fig1_map(eps, **kw):
    return circle_map((0.0, 1.0), {**COS, (0, 2): 1.0}, eps, **kw)


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

    def recording(self, energies, seeds):
        calls.append(energies.copy())
        return original(self, energies, seeds)

    monkeypatch.setattr(ActionMap, "_continue_levels", recording)
    return calls


class TestGridSolve:
    @pytest.mark.parametrize("model,symbol", sorted(
        {(model, symbol) for model, symbol, _ in FIGURE_SYMBOLS.values()}))
    def test_grid_matches_continuation(self, model, symbol, fallbacks):
        cfg = ExperimentConfig(model=model, symbol=symbol, N=66, delta=0.5)
        am = build_action_map(cfg)
        pred = predict_spectrum(am, cfg.hbar_value(), "circle_k",
                                "averaged_first_order", default_rect(cfg, am))
        energies = pred.values()
        assert energies.size >= 20
        grid = am._solve_levels(energies)
        assert not fallbacks
        seeds = np.array([am.cyl.seed_action(e.real) for e in energies],
                         dtype=complex)
        chain = am._continue_levels(energies, seeds)
        assert np.abs(grid - chain).max() <= 1e-11

    def test_branch_check_sends_one_energy_to_continuation(self, fallbacks):
        # the far root of I + i*eps*(cos(theta) + I^2) = E sits near i/eps:
        # nodes started there leave the branch of node 0 in one column only
        am = fig1_map(0.1)
        energies = np.array([0.3 + 0.01j, 0.45 + 0.02j, 0.6 + 0.03j])
        start = am._solve_levels(energies)
        fallbacks.clear()
        start[100:140, 1] = 10j
        levels = am._solve_levels(energies, start=start)
        assert len(fallbacks) == 1
        assert fallbacks[0].tolist() == [energies[1]]
        chain = am._continue_levels(energies[1:2], start[0, 1:2])
        assert np.array_equal(levels[:, 1], chain[:, 0])
        assert np.abs(levels[:, [0, 2]] - start[:, [0, 2]]).max() <= 1e-12

    def test_single_inversion_matches_batch(self):
        am = fig1_map(0.12)
        targets = np.linspace(0.1, 0.7, 41)
        batch = am._invert_batch(targets)
        for i in (0, 17, 40):
            assert abs(am.invert_action(targets[i]) - batch[i]) <= 1e-12

    def test_closure_tolerance_scales_with_loop_size(self):
        # f = I^3 - I folds at I = 1/sqrt(3), next to the target 0.5: the
        # inversion misses, and must say so, not fail the closure check of
        # a loop with |I| ~ 400 whose wrap-around gap (1.25e-10) is
        # rounding relative to its size
        am = ActionMap(parse_circle("I^3 - I + i*epsilon*cos(theta)")
                       .cylinder_map(0.05))
        with pytest.raises(InversionError):
            am.invert_action(0.5)
        E = -64162567.75188988 - 3.48462792e-07j
        seed = np.array([am.cyl.seed_action(E.real)], dtype=complex)
        loop = am._continue_levels(np.array([E]), seed)[:, 0]
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
        # analytic periodic integrand: 256 nodes is far past the knee
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
