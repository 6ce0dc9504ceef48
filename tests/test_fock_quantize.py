import itertools
import math

import numpy as np
import pytest

from semispec import ConfigError, PlaneSymbol, ladder, quantize_plane, weyl_monomial
from semispec.experiments import (FIGURE_SYMBOLS, ExperimentConfig,
                                  build_operator, pt_checks)


def plane(q_coeffs):
    return PlaneSymbol(q_coeffs=q_coeffs)


def parity_matrix(dim):
    """diag((-1)^alpha), the Fock-index parity operator, as a dense matrix."""
    return np.diag((-1.0) ** np.arange(dim)).astype(complex)


def symmetrized_orderings(x_op, xi_op, m, n):
    """Brute-force Weyl ordering: average over all distinct interleavings
    of m position factors and n momentum factors."""
    dim = x_op.shape[0]
    total = np.zeros((dim, dim), dtype=complex)
    words = set(itertools.permutations("x" * m + "p" * n))
    for word in words:
        prod = np.eye(dim, dtype=complex)
        for ch in word:
            prod = prod @ (x_op if ch == "x" else xi_op)
        total += prod
    return total / len(words)


class TestLadder:
    def test_entries_d3(self):
        lp = ladder(3, 1.0)
        assert lp.a[0, 1] == 1.0
        assert lp.a[1, 2] == pytest.approx(math.sqrt(2))
        assert np.count_nonzero(lp.a) == 2

    def test_commutator_on_leading_block(self):
        for hbar in (1.0, 0.1):
            lp = ladder(6, hbar)
            comm = lp.a @ lp.a_dag - lp.a_dag @ lp.a
            lead = comm[:5, :5]
            assert np.abs(lead - hbar * np.eye(5)).max() <= 1e-14

    def test_oscillator_diagonal_d5(self):
        lp = ladder(5, 0.1)
        x, xi = lp.position(), lp.momentum()
        h = x @ x + xi @ xi
        diag = np.diag(h).real
        assert diag[:4] == pytest.approx([0.1, 0.3, 0.5, 0.7], abs=1e-15)
        off = h - np.diag(np.diag(h))
        assert np.abs(off).max() <= 1e-15

    def test_position_matrix_element(self):
        lp = ladder(4, 1.0)
        x = lp.position()
        assert x[0, 1] == pytest.approx(math.sqrt(0.5))

    def test_xy_commutator(self):
        lp = ladder(7, 0.3)
        x, xi = lp.position(), lp.momentum()
        comm = x @ xi - xi @ x
        assert np.abs(comm[:6, :6] - 0.3j * np.eye(6)).max() <= 1e-14

    def test_dim_guard(self):
        with pytest.raises(ConfigError):
            ladder(1, 1.0)


class TestWeylOrdering:
    def test_xy_is_half_anticommutator(self):
        lp = ladder(6, 1.0)
        x, xi = lp.position(), lp.momentum()
        got = weyl_monomial(x, xi, 1, 1)
        assert np.allclose(got, 0.5 * (x @ xi + xi @ x), atol=1e-15)

    def test_x2y_average_of_three_orderings(self):
        # trailing deg=3 rows/cols are truncation-polluted: products of
        # truncated ladders disagree there, so compare the clean block
        lp = ladder(6, 1.0)
        x, xi = lp.position(), lp.momentum()
        got = weyl_monomial(x, xi, 2, 1)
        oracle = (x @ x @ xi + x @ xi @ x + xi @ x @ x) / 3.0
        assert np.allclose(got[:3, :3], oracle[:3, :3], atol=1e-13)

    def test_mccoy_equals_full_symmetrization_low_degrees(self):
        # all monomials with m+n <= 6 at dimension 12; trailing deg
        # rows/cols are truncation-polluted and excluded
        dim = 12
        lp = ladder(dim, 0.37)
        x, xi = lp.position(), lp.momentum()
        for m in range(0, 7):
            for n in range(0, 7 - m):
                deg = m + n
                keep = dim - deg
                got = weyl_monomial(x, xi, m, n)[:keep, :keep]
                oracle = symmetrized_orderings(x, xi, m, n)[:keep, :keep]
                scale = max(1.0, np.abs(oracle).max())
                assert np.abs(got - oracle).max() <= 1e-12 * scale, (m, n)

    def test_monomial_parity_under_transpose_is_exact(self):
        # X^T = X and Xi^T = -Xi, so Op(x^m xi^n)^T = (-1)^n Op(x^m xi^n)
        lp = ladder(14, 0.37)
        x, xi = lp.position(), lp.momentum()
        for m in range(5):
            for n in range(5):
                got = weyl_monomial(x, xi, m, n)
                assert np.array_equal(got, (-1) ** n * got.T), (m, n)


class TestQuantizePlane:
    def test_harmonic_oscillator_exact(self):
        N, hbar = 66, 1.0 / 66
        op = quantize_plane(plane({}), 0.0, hbar, N)
        expected = hbar * (2 * np.arange(N + 1) + 1)
        off = op.matrix - np.diag(np.diag(op.matrix))
        assert np.abs(off).max() <= 1e-14
        assert np.abs(np.diag(op.matrix).real - expected).max() <= 1e-14
        assert np.abs(np.diag(op.matrix).imag).max() <= 1e-14

    def test_eps_zero_hermitian(self):
        op = quantize_plane(plane({(3, 0): 1.0, (1, 1): 0.5}), 0.0, 0.1, 12)
        m = op.matrix
        assert np.abs(m - m.conj().T).max() <= 1e-13

    def test_padding_sufficiency(self):
        sym = plane({(4, 0): 1.0, (2, 0): 0.5})
        # N=16 assembles at the dimension N=14 would with two extra rows
        a = quantize_plane(sym, 0.2, 0.05, 14).matrix
        b = quantize_plane(sym, 0.2, 0.05, 16).matrix[:15, :15]
        assert np.abs(a - b).max() <= 1e-13 * (1 + np.abs(a).max())

    def test_parity_commutation_even_symbols(self):
        for q in ({(2, 0): 1.0}, {(4, 0): 1.0}, {(2, 2): 0.5, (0, 4): 1.0}):
            op = quantize_plane(plane(q), 0.15, 0.1, 10)
            d = parity_matrix(op.dimension)
            m = op.matrix
            comm = m @ d - d @ m
            assert np.abs(comm).max() <= 1e-13 * (1 + np.abs(m).max()), q

    def test_pt_conjugation_identity(self):
        # f even, q odd in x: D conj(M) D == M holds entrywise
        op = quantize_plane(plane({(3, 0): 1.0}), 0.3, 1.0 / 20, 20)
        d = parity_matrix(op.dimension)
        m = op.matrix
        assert np.abs(d @ m.conj() @ d - m).max() <= 1e-15 * (1 + np.abs(m).max())

    @pytest.mark.parametrize("symbol", [
        "x^2 + xi^2 + i*epsilon*x^2", "x^2 + xi^2 + i*epsilon*x^3",
        "x^2 + xi^2 + i*epsilon*(x^2 + x^3)", "x^2 + xi^2 + i*epsilon*x^4"])
    def test_pt_defect_matches_dense_parity(self, symbol):
        # pt_checks flips signs instead of multiplying by D: same bits
        cfg = ExperimentConfig(model="line", symbol=symbol, N=33, delta=0.5)
        sym, op = build_operator(cfg)
        d = parity_matrix(op.dimension)
        m = op.matrix
        dense = np.linalg.norm(d @ m.conj() @ d - m) / np.linalg.norm(m)
        assert pt_checks(sym, op)["conjugation_defect"] == dense

    @pytest.mark.parametrize("name", ["figure07", "figure08"])
    def test_figure_matrices_exactly_symmetric(self, name):
        # the products alone missed M == M.T in 30 and 46 entries at N=66
        model, symbol, _ = FIGURE_SYMBOLS[name]
        cfg = ExperimentConfig(model=model, symbol=symbol, N=66, delta=0.5)
        m = build_operator(cfg)[1].matrix
        assert np.array_equal(m, m.T)

    def test_basis_metadata(self):
        sym = plane({(3, 0): 1.0})
        op = quantize_plane(sym, 0.1, 0.2, 9)
        assert op.basis.kind == "fock"
        assert op.basis.N == 9
        assert op.dimension == 10

    def test_degree_guard(self):
        with pytest.raises(ConfigError):
            quantize_plane(plane({(9, 0): 1.0}), 0.1, 0.1, 5)

    def test_bad_N(self):
        with pytest.raises(ConfigError):
            quantize_plane(plane({}), 0.0, 0.1, 0)
