import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semispec import (BranchCutError, CircleSymbol, ConfigError, DomainError,
                      PlaneSymbol, eval_circle, eval_plane, parse_symbol,
                      pt_symmetry_check, theta_average)

COS = {(1, 0): 0.5, (-1, 0): 0.5}  # cos(theta) as exponential pair


def fig1_circle():
    # f = I, q = cos(theta) + I^2
    return CircleSymbol(f_coeffs=(0.0, 1.0), q_terms={**COS, (0, 2): 1.0})


def plane(q_coeffs):
    return PlaneSymbol(q_coeffs=q_coeffs)


class TestEvalCircle:
    def test_eps_zero_reduces_to_f(self):
        assert eval_circle(fig1_circle(), 0.0, 1.0, 0.0) == 1.0

    def test_real_point(self):
        assert eval_circle(fig1_circle(), 0.0, 1.0, 0.1) == pytest.approx(1 + 0.2j)

    def test_scalar_arithmetic_oracle(self):
        # oracle: direct cmath arithmetic, independent of the term loop
        theta, I, eps = math.pi / 2, 2.0, 0.1
        oracle = I + 1j * eps * (cmath.cos(theta) + I ** 2)
        got = eval_circle(fig1_circle(), theta, I, eps)
        assert abs(got - oracle) <= 1e-14
        assert got == pytest.approx(2 + 0.4j, abs=1e-12)

    def test_complex_theta_continuation(self):
        sym = CircleSymbol(f_coeffs=(0.0, 1.0), q_terms=COS)
        theta = 0.3 + 0.2j
        oracle = 0.5 + 1j * 0.1 * cmath.cos(theta)
        assert abs(eval_circle(sym, theta, 0.5, 0.1) - oracle) <= 1e-14

    def test_nan_rejected(self):
        with pytest.raises(DomainError):
            eval_circle(fig1_circle(), float("nan"), 1.0, 0.1)


class TestEvalPlane:
    def test_eps_zero(self):
        assert eval_plane(plane({(2, 0): 1.0}), 1.0, 0.0, 0.0) == 1.0

    def test_simple(self):
        assert eval_plane(plane({(2, 0): 1.0}), 1.0, 1.0, 0.1) == pytest.approx(2 + 0.1j)

    def test_horner_oracle(self):
        # oracle: Horner evaluation written independently of the monomial sum
        def horner(x, xi, eps):
            f = x * x + xi * xi
            q = ((x * x) * x) * x  # x^4
            return f + 1j * eps * q

        x, xi, eps = 0.5, -0.5, 0.123
        got = eval_plane(plane({(4, 0): 1.0}), x, xi, eps)
        assert abs(got - horner(x, xi, eps)) <= 1e-15
        assert got == pytest.approx(0.5 + 0.0076875j, abs=1e-12)

    def test_inf_rejected(self):
        with pytest.raises(DomainError):
            eval_plane(plane({(2, 0): 1.0}), float("inf"), 0.0, 0.1)


coeff = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False)


@st.composite
def circle_symbols(draw):
    f = tuple(draw(st.lists(coeff, min_size=1, max_size=3)))
    q = {}
    for n in range(draw(st.integers(0, 2)) + 1):
        c0 = draw(coeff)
        if c0:
            q[(0, n)] = complex(c0)
        for m in (1, 2):
            ccos, csin = draw(coeff), draw(coeff)
            if ccos or csin:
                q[(m, n)] = (ccos - 1j * csin) / 2.0
                q[(-m, n)] = (ccos + 1j * csin) / 2.0
    return CircleSymbol(f_coeffs=f, q_terms=q)


class TestLinearityAndRealness:
    @settings(max_examples=25, deadline=None)
    @given(circle_symbols(), circle_symbols(), coeff, coeff, coeff)
    def test_eval_linear_in_coefficients(self, s1, s2, a, theta, I):
        eps = 0.2
        f_sum = tuple(x + y for x, y in
                      zip(*(list(s.f_coeffs) + [0.0] * (3 - len(s.f_coeffs))
                            for s in (s1, s2))))
        q_sum = dict(s1.q_terms)
        for k, v in s2.q_terms.items():
            q_sum[k] = q_sum.get(k, 0.0) + v
        both = CircleSymbol(f_coeffs=f_sum, q_terms=q_sum)
        lhs = eval_circle(both, theta, I, eps)
        rhs = eval_circle(s1, theta, I, eps) + eval_circle(s2, theta, I, eps)
        scale = 1.0 + abs(lhs) + abs(rhs)
        assert abs(lhs - rhs) <= 1e-12 * scale

    @settings(max_examples=25, deadline=None)
    @given(circle_symbols(), coeff, coeff)
    def test_imag_part_is_eps_times_real_q(self, sym, theta, I):
        eps = 0.3
        val = eval_circle(sym, theta, I, eps)
        q = sym.q_value(theta, I)
        scale = 1.0 + abs(val)
        assert abs(q.imag) <= 1e-12 * scale
        assert abs(val.imag - eps * q.real) <= 1e-12 * scale


class TestThetaAverage:
    def test_cos_plus_I2(self):
        assert theta_average(fig1_circle()) == (0.0, 0.0, 1.0)

    def test_cos_plus_I3(self):
        sym = CircleSymbol(f_coeffs=(0.0, 1.0), q_terms={**COS, (0, 3): 1.0})
        assert theta_average(sym) == (0.0, 0.0, 0.0, 1.0)

    def test_pure_oscillation(self):
        sym = CircleSymbol(f_coeffs=(0.0, 1.0),
                           q_terms={(1, 0): -0.5j, (-1, 0): 0.5j})  # sin
        assert theta_average(sym) == (0.0,)

    def test_matches_trapezoid_quadrature(self, rng):
        # oracle: 256-point trapezoid average of q over theta
        sym = CircleSymbol(
            f_coeffs=(0.0, 1.0),
            q_terms={**COS, (0, 2): 1.0, (2, 1): 0.25 - 0.5j, (-2, 1): 0.25 + 0.5j})
        avg = theta_average(sym)
        thetas = 2 * np.pi * np.arange(256) / 256
        for I in rng.uniform(-2, 2, size=20):
            quad = np.mean([sym.q_value(t, I) for t in thetas])
            exact = sum(c * I ** n for n, c in enumerate(avg))
            assert abs(quad - exact) <= 1e-12 * (1 + abs(exact))


class TestPullback:
    def test_f_part_is_twice_action(self, rng):
        # oracle: cos^2 + sin^2 = 1, checked at 100 random complex points
        cyl = plane({}).cylinder_map(0.0)
        for _ in range(100):
            theta = complex(rng.uniform(-3, 3), rng.uniform(-0.5, 0.5))
            I = complex(rng.uniform(0.05, 2.0), rng.uniform(-0.5, 0.5))
            val = complex(cyl.value(theta, I))
            assert abs(val - 2 * I) <= 1e-12 * (1 + abs(val))

    def test_q_x_squared_point(self):
        cyl = plane({(2, 0): 1.0}).cylinder_map(1.0)
        # q-hat at theta=0, I=0.5: x = sqrt(1) = 1, so q = 1 (on top of f = 2I)
        val = complex(cyl.value(0.0, 0.5))
        assert val == pytest.approx(1.0 + 1j)

    def test_theta_average_of_pulled_back_x2(self, rng):
        # oracle: 256-point trapezoid of (2I) cos^2(theta) equals I
        sym = plane({(2, 0): 1.0})
        cyl = sym.cylinder_map(1.0)
        thetas = 2 * np.pi * np.arange(256) / 256
        for I in rng.uniform(0.1, 2.0, size=10):
            qhat = (np.array([complex(cyl.value(t, I)) for t in thetas]) - 2 * I) / 1j
            assert abs(np.mean(qhat) - I) <= 1e-12 * (1 + I)
        assert sym.q_average_coeffs() == (0.0, 1.0)

    def test_level_set_identity(self):
        cyl = plane({}).cylinder_map(0.0)
        for E in (0.25, 1.0, 3.5):
            for theta in (0.0, 0.7, 2.9):
                assert abs(complex(cyl.value(theta, E / 2.0)) - E) <= 1e-14 * (1 + E)

    def test_branch_cut_rejected(self):
        cyl = plane({(2, 0): 1.0}).cylinder_map(0.1)
        with pytest.raises(BranchCutError):
            cyl.value(0.0, -0.3)
        with pytest.raises(BranchCutError):
            cyl.value(0.0, 0.0)


class TestFusedEvaluation:
    """value_and_dI against the scalar evaluators and central differences
    of value, at random complex (theta, I)."""

    @staticmethod
    def _check(cyl, p_oracle, rng):
        h = 1e-5
        for _ in range(20):
            theta = complex(rng.uniform(-3, 3), rng.uniform(-0.3, 0.3))
            I = complex(rng.uniform(0.2, 1.5), rng.uniform(-0.3, 0.3))
            p, dp = (complex(v) for v in cyl.value_and_dI(theta, I))
            assert abs(p - p_oracle(theta, I)) <= 1e-13 * (1 + abs(p))
            fd = (complex(cyl.value(theta, I + h))
                  - complex(cyl.value(theta, I - h))) / (2 * h)
            assert abs(dp - fd) <= 1e-8 * (1 + abs(dp))

    def test_circle(self, rng):
        sym = CircleSymbol(f_coeffs=(0.3, -1.0, 0.0, 1.0),
                           q_terms={**COS, (0, 2): 1.0, (2, 1): 0.5 - 0.25j,
                                    (-2, 1): 0.5 + 0.25j})
        self._check(sym.cylinder_map(0.2),
                    lambda t, I: eval_circle(sym, t, I, 0.2), rng)

    def test_oscillator(self, rng):
        sym = plane({(2, 0): 1.0, (3, 0): 0.5, (1, 2): -0.7, (0, 4): 0.2,
                     (1, 0): 0.3})

        def oracle(theta, I):
            r = cmath.sqrt(2 * I)
            return eval_plane(sym, r * cmath.cos(theta), -r * cmath.sin(theta),
                              0.15)

        self._check(sym.cylinder_map(0.15), oracle, rng)

    def test_broadcasts_nodes_against_energies(self):
        # a column of nodes against a grid of loops, as the action layer
        # calls it, matches the scalar call at every cell
        cyl = plane({(2, 0): 1.0, (0, 3): 1.0}).cylinder_map(0.1)
        thetas = np.linspace(0.0, 6.0, 7)[:, None]
        I = np.linspace(0.3, 0.9, 21).reshape(7, 3) + 0.01j
        grid = cyl.value_and_dI(thetas, I)
        assert grid[0].shape == grid[1].shape == (7, 3)
        for j in range(7):
            for b in range(3):
                cell = cyl.value_and_dI(thetas[j, 0], I[j, b])
                for g, c in zip(grid, cell):
                    assert abs(g[j, b] - complex(c)) <= 1e-15 * abs(g[j, b])


class TestPTSymmetryCheck:
    @staticmethod
    def _substitution_oracle(sym, eps, rng):
        # conj(p(-x, xi)) == p(x, xi) at 100 random complex points
        worst = 0.0
        for _ in range(100):
            x = complex(rng.uniform(-2, 2), rng.uniform(-1, 1))
            xi = complex(rng.uniform(-2, 2), rng.uniform(-1, 1))
            # conjugating the symbol of a real-analytic p: p, evaluated at
            # conjugate arguments, conjugated
            lhs = eval_plane(sym, -x.conjugate(), xi.conjugate(),
                             eps).conjugate()
            rhs = eval_plane(sym, x, xi, eps)
            worst = max(worst, abs(lhs - rhs) / (1 + abs(rhs)))
        return worst <= 1e-12

    def test_x_cubed_symmetric(self, rng):
        sym = plane({(3, 0): 1.0})
        assert pt_symmetry_check(sym) is True
        assert self._substitution_oracle(sym, 0.2, rng) is True

    def test_x_squared_not_symmetric(self, rng):
        sym = plane({(2, 0): 1.0})
        assert pt_symmetry_check(sym) is False
        assert self._substitution_oracle(sym, 0.2, rng) is False

    def test_selfadjoint_case(self):
        assert pt_symmetry_check(plane({})) is True

    def test_mixed(self, rng):
        sym = plane({(1, 1): 1.0, (3, 0): -0.5})
        assert pt_symmetry_check(sym) is True
        assert self._substitution_oracle(sym, 0.1, rng) is True


class TestValidation:
    def test_unpaired_q_rejected(self):
        with pytest.raises(ConfigError):
            CircleSymbol(f_coeffs=(0.0, 1.0), q_terms={(1, 0): 1.0})

    def test_non_real_theta_independent_term(self):
        # a term with m = 0 is its own partner: its coefficient must be real
        with pytest.raises(ConfigError,
                           match="theta-independent term in I\\^1 has the "
                                 "non-real coefficient") as exc:
            parse_symbol("I + epsilon*I", "circle")
        assert "partner" not in str(exc.value)

    def test_conjugate_pairing_symmetrized(self):
        sym = CircleSymbol(f_coeffs=(0.0, 1.0), q_terms=COS)
        assert sym.q_terms[(1, 0)] == sym.q_terms[(-1, 0)].conjugate()

    def test_plane_f_pinned(self):
        for text in ("x^2 + i*epsilon*x", "x^2 + 2*xi^2 + i*epsilon*x"):
            with pytest.raises(ConfigError, match="exactly x\\^2 \\+ xi\\^2"):
                parse_symbol(text, "line")
        # a zero term left by the f/q split is dropped before the comparison
        assert parse_symbol("x^2 + xi^2 + 1e-15*i", "line").q_coeffs == {}

    @pytest.mark.parametrize("build", [
        lambda: CircleSymbol(f_coeffs=(0.0, 1.0), q_terms={(0, -1): 1.0}),
        lambda: PlaneSymbol(q_coeffs={(-1, 0): 1.0}),
        lambda: PlaneSymbol(q_coeffs={(1, -2): 1.0}),
    ], ids=["circle", "plane-x", "plane-xi"])
    def test_negative_powers_rejected(self, build):
        with pytest.raises(ConfigError, match="negative"):
            build()

    def test_f_trailing_zeros_trimmed(self):
        sym = CircleSymbol(f_coeffs=(0.0, 1.0, 0.0), q_terms={})
        assert sym.f_coeffs == (0.0, 1.0)
