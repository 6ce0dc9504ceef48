import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semispec import (CircleSymbol, ConfigError, DomainError,
                      TruncatedOperator, TruncationError, quantize_circle)

COS = {(1, 0): 0.5, (-1, 0): 0.5}


def shift_matrix(N, m):
    """Quantization of the pure phase e^{i m theta}: e_l -> e_{l+m}.

    Oracle: the symmetric-ordering integral collapses for x-independent
    symbols; the pure phase acts as multiplication, a unit shift in the
    Fourier basis (closed form, no midpoint factor since a(I) = 1).
    """
    dim = 2 * N + 1
    out = np.zeros((dim, dim), dtype=complex)
    for l in range(-N, N + 1):
        if -N <= l + m <= N:
            out[l + m + N, l + N] = 1.0
    return out


class TestExamples:
    def test_f_alpha_I_is_diagonal(self):
        alpha, hbar, N = 1.0, 1.0 / 8, 8
        sym = CircleSymbol(f_coeffs=(0.0, alpha), q_terms={})
        op = quantize_circle(sym, 0.0, hbar, N)
        expected = np.diag(hbar * np.arange(-N, N + 1)).astype(complex)
        assert np.array_equal(op.matrix, expected)

    def test_cos_theta_off_diagonals(self):
        # derived oracle: cos = (e^{i theta} + e^{-i theta})/2, each pure
        # phase quantizes to a closed-form shift
        N = 4
        sym = CircleSymbol(f_coeffs=(0.0,), q_terms=COS)
        op = quantize_circle(sym, 1.0, 1.0, N)
        oracle = 1j * 0.5 * (shift_matrix(N, 1) + shift_matrix(N, -1))
        assert np.allclose(op.matrix, oracle, atol=0, rtol=0)

    @pytest.mark.parametrize("m", [9, 10**20])
    def test_far_fourier_index_couples_nothing(self, m):
        # e^{+-i m theta} with |m| > 2N moves every index out of [-N, N],
        # however large m is; |m| = 2N still couples the two corners
        N, hbar = 4, 0.25
        f_only = np.diag(hbar * np.arange(-N, N + 1)).astype(complex)
        far = CircleSymbol(f_coeffs=(0.0, 1.0),
                           q_terms={(m, 0): 0.5, (-m, 0): 0.5})
        assert np.array_equal(quantize_circle(far, 1.0, hbar, N).matrix,
                              f_only)
        corner = CircleSymbol(f_coeffs=(0.0, 1.0),
                              q_terms={(2 * N, 0): 0.5, (-2 * N, 0): 0.5})
        m_corner = quantize_circle(corner, 1.0, hbar, N).matrix
        assert m_corner[-1, 0] == m_corner[0, -1] == 0.5j

    def test_midpoint_entries_exp_theta_times_I(self):
        # term e^{i theta} I at hbar=1, N=1: entry (l+1, l) = l + 1/2
        sym = CircleSymbol(f_coeffs=(0.0,), q_terms={(1, 1): 1.0, (-1, 1): 1.0})
        op = quantize_circle(sym, 1.0, 1.0, 1)
        m = op.matrix
        assert m[1, 0] == 1j * (-0.5)   # l = -1
        assert m[2, 1] == 1j * 0.5      # l = 0

    def test_product_symmetrization_oracle(self):
        # derived oracle: for the bilinear term e^{i theta} * I, the
        # midpoint rule coincides with (Op(e^{i theta})Op(I) +
        # Op(I)Op(e^{i theta}))/2
        N, hbar = 5, 0.3
        sym = CircleSymbol(f_coeffs=(0.0,), q_terms={(1, 1): 1.0, (-1, 1): 1.0})
        op = quantize_circle(sym, 1.0, hbar, N)
        diag_I = np.diag(hbar * np.arange(-N, N + 1)).astype(complex)
        up, down = shift_matrix(N, 1), shift_matrix(N, -1)
        sym_prod = 0.5 * (up @ diag_I + diag_I @ up) \
            + 0.5 * (down @ diag_I + diag_I @ down)
        # the symmetrized product differs from the midpoint rule only where
        # truncation clips one factor (corner couplings), hence the inner
        # slice; agreement is exact up to one rounding of hbar*(l + 1/2)
        oracle = 1j * sym_prod
        inner = slice(1, 2 * N)
        assert np.allclose(op.matrix[inner, inner], oracle[inner, inner],
                           atol=1e-15, rtol=1e-15)

    def test_midpoint_values_exact_floats(self):
        hbar, N = 1.0 / 7, 6
        sym = CircleSymbol(f_coeffs=(0.0,),
                           q_terms={(2, 3): 0.5, (-2, 3): 0.5})
        op = quantize_circle(sym, 1.0, hbar, N)
        for l in range(-N, N - 1):
            expected = 1j * 0.5 * (hbar * (l + 1.0)) ** 3
            assert op.matrix[l + 2 + N, l + N] == expected


coeff = st.floats(min_value=-2.0, max_value=2.0, allow_nan=False)


@st.composite
def circle_symbols(draw):
    f = tuple(draw(st.lists(coeff, min_size=1, max_size=3)))
    q = {}
    for n in range(2):
        c0 = draw(coeff)
        if c0:
            q[(0, n)] = complex(c0)
        for m in (1, 2, 3):
            ccos, csin = draw(coeff), draw(coeff)
            if ccos or csin:
                q[(m, n)] = (ccos - 1j * csin) / 2.0
                q[(-m, n)] = (ccos + 1j * csin) / 2.0
    return CircleSymbol(f_coeffs=f, q_terms=q)


class TestInvariants:
    @settings(max_examples=30, deadline=None)
    @given(circle_symbols())
    def test_band_structure(self, sym):
        N = 6
        op = quantize_circle(sym, 0.37, 0.2, N)
        band = sym.max_fourier_index
        for j in range(2 * N + 1):
            for k in range(2 * N + 1):
                if abs(j - k) > band:
                    assert op.matrix[j, k] == 0

    @settings(max_examples=30, deadline=None)
    @given(circle_symbols())
    def test_eps_zero_hermitian(self, sym):
        op = quantize_circle(sym, 0.0, 0.15, 7)
        m = op.matrix
        assert np.abs(m - m.conj().T).max() <= 1e-14 * (1 + np.abs(m).max())

    @settings(max_examples=30, deadline=None)
    @given(circle_symbols())
    def test_adjoint_covariance(self, sym):
        # conj of the full symbol is f - i*eps*q (q real on the cylinder),
        # so quantize(sym, -eps) must equal quantize(sym, eps)^H
        eps, hbar, N = 0.23, 0.11, 6
        a = quantize_circle(sym, eps, hbar, N).matrix
        b = quantize_circle(sym, -eps, hbar, N).matrix
        assert np.abs(b - a.conj().T).max() <= 1e-14 * (1 + np.abs(a).max())

    def test_eps_zero_theta_independent_f_is_diagonal(self):
        sym = CircleSymbol(f_coeffs=(1.0, 2.0, 3.0), q_terms=COS)
        m = quantize_circle(sym, 0.0, 0.1, 5).matrix
        assert np.array_equal(m, np.diag(np.diag(m)))


class TestErrors:
    def test_degenerate_truncation(self):
        sym = CircleSymbol(f_coeffs=(0.0, 1.0), q_terms=COS)
        with pytest.raises(TruncationError):
            quantize_circle(sym, 0.1, 0.1, 0)

    def test_small_N_without_coupling(self):
        sym = CircleSymbol(f_coeffs=(0.0, 1.0), q_terms={})
        with pytest.raises(ConfigError):
            quantize_circle(sym, 0.0, 0.1, 0)

    def test_bad_hbar(self):
        sym = CircleSymbol(f_coeffs=(0.0, 1.0), q_terms={})
        with pytest.raises(ConfigError):
            quantize_circle(sym, 0.0, 0.0, 4)

    def test_non_contiguous_matrix(self):
        op = quantize_circle(CircleSymbol(f_coeffs=(0.0, 1.0), q_terms=COS),
                             0.1, 0.25, 4)
        kwargs = dict(basis=op.basis, hbar=op.hbar)
        m = op.matrix.T
        assert not m.flags.c_contiguous
        got = TruncatedOperator(matrix=m, **kwargs)
        ref = TruncatedOperator(matrix=np.ascontiguousarray(m), **kwargs)
        assert np.array_equal(got.matrix, ref.matrix)
        assert got.matrix_fingerprint() == ref.matrix_fingerprint()

    def test_infinite_imaginary_part(self):
        op = quantize_circle(CircleSymbol(f_coeffs=(0.0, 1.0), q_terms=COS),
                             0.1, 0.25, 4)
        m = op.matrix.copy()
        m[1, 2] = complex(0.0, float("-inf"))
        with pytest.raises(DomainError):
            TruncatedOperator(matrix=m, basis=op.basis, hbar=op.hbar)


class TestSerialization:
    def test_json_round_trip(self):
        sym = CircleSymbol(f_coeffs=(0.0, 1.0), q_terms={**COS, (0, 2): 1.0})
        op = quantize_circle(sym, 0.1, 1.0 / 9, 9)
        back = TruncatedOperator.from_json(op.to_json())
        assert np.array_equal(back.matrix, op.matrix)
        assert back.basis == op.basis
        assert back.hbar == op.hbar

    def test_csv_interleaved(self):
        sym = CircleSymbol(f_coeffs=(0.0, 1.0), q_terms=COS)
        op = quantize_circle(sym, 0.5, 1.0, 1)
        lines = op.to_csv().strip().split("\n")
        assert len(lines) == 3
        row0 = [float(v) for v in lines[0].split(",")]
        assert len(row0) == 6
        assert row0[0] == op.matrix[0, 0].real
        assert row0[1] == op.matrix[0, 0].imag

    def test_matrix_immutable(self):
        sym = CircleSymbol(f_coeffs=(0.0, 1.0), q_terms={})
        op = quantize_circle(sym, 0.0, 0.5, 3)
        with pytest.raises(ValueError):
            op.matrix[0, 0] = 5.0
