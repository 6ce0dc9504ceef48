import numpy as np
import pytest

from semispec import (ConfigError, DomainError, SolverError, eigenvalues,
                      eigenvalues_of, quantize_plane, PlaneSymbol)


def charpoly_leverrier(m):
    """Characteristic polynomial coefficients by the trace recurrence
    (independent of any QR machinery)."""
    n = m.shape[0]
    eye = np.eye(n, dtype=complex)
    coeffs = [1.0 + 0j]
    mk = np.zeros_like(m)
    for k in range(1, n + 1):
        mk = m @ (mk + coeffs[-1] * eye)
        coeffs.append(-np.trace(mk) / k)
    return np.array(coeffs)


def companion_roots(m):
    """Oracle eigenvalues: Leverrier-Faddeev charpoly, roots via the
    companion matrix (platform routine, independent of the in-house QR)."""
    return np.roots(charpoly_leverrier(m))


def hausdorff(a, b):
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    d = np.abs(a[:, None] - b[None, :])
    return max(d.min(axis=0).max(), d.min(axis=1).max())


def random_complex(rng, n):
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


class TestExamples:
    def test_diagonal(self):
        res = eigenvalues(np.diag([1.0, 2.0j, -3.0]).astype(complex))
        assert res.eigenvalues == ((-3 + 0j), 2j, (1 + 0j))

    def test_nilpotent_jordan_block(self):
        res = eigenvalues([[0.0, 1.0], [0.0, 0.0]])
        assert res.eigenvalues == (0j, 0j)

    def test_one_by_one(self):
        res = eigenvalues([[2.5 - 1j]])
        assert res.eigenvalues == ((2.5 - 1j),)

    def test_charpoly_companion_oracle(self, rng):
        for _ in range(10):
            m = random_complex(rng, 6)
            mine = eigenvalues(m).eigenvalues
            oracle = companion_roots(m)
            assert hausdorff(mine, oracle) <= 1e-8 * np.linalg.norm(m)


class TestInvariants:
    def test_similarity_invariance(self, rng):
        n = 50
        m = random_complex(rng, n)
        # random similarity with condition number <= 10
        q1, _ = np.linalg.qr(random_complex(rng, n))
        q2, _ = np.linalg.qr(random_complex(rng, n))
        svals = np.exp(np.linspace(-0.5 * np.log(10), 0.5 * np.log(10), n))
        s = q1 @ np.diag(svals) @ q2
        sim = s @ m @ np.linalg.inv(s)
        a = eigenvalues(m).eigenvalues
        b = eigenvalues(sim).eigenvalues
        assert hausdorff(a, b) <= 1e-8 * np.linalg.norm(m)

    def test_conjugation_covariance(self, rng):
        m = random_complex(rng, 12)
        a = np.array(eigenvalues(m).eigenvalues)
        b = np.array(eigenvalues(m.conj()).eigenvalues)
        assert hausdorff(a.conj(), b) <= 1e-10 * np.linalg.norm(m)

    def test_trace_consistency(self, rng):
        for n in (5, 12, 30):
            m = random_complex(rng, n)
            lams = np.array(eigenvalues(m).eigenvalues)
            assert abs(lams.sum() - np.trace(m)) \
                <= 1e-10 * n * np.linalg.norm(m)

    def test_determinant_consistency(self, rng):
        for n in (4, 11, 20):
            m = random_complex(rng, n)
            lams = np.array(eigenvalues(m).eigenvalues)
            det = np.linalg.det(m)  # LU-based platform determinant
            assert abs(np.prod(lams) - det) <= 1e-6 * abs(det)

    def test_hermitian_real_spectrum(self, rng):
        m = random_complex(rng, 25)
        h = (m + m.conj().T) / 2
        lams = np.array(eigenvalues(h).eigenvalues)
        assert np.abs(lams.imag).max() <= 1e-12 * np.linalg.norm(h)

    def test_sorted_by_re_then_im(self, rng):
        lams = eigenvalues(random_complex(rng, 15)).eigenvalues
        keys = [(z.real, z.imag) for z in lams]
        assert keys == sorted(keys)


class TestDiagnostics:
    def test_schur_backward_error(self, rng):
        m = random_complex(rng, 20)
        res = eigenvalues(m)
        assert res.tolerance <= 1e-13
        assert len(res.residuals) == 20

    def test_eigenvector_residuals(self, rng):
        m = random_complex(rng, 15)
        res = eigenvalues(m, compute_vectors=True)
        assert max(res.residuals) <= 1e-12

    def test_numpy_engine_agrees(self, rng):
        m = random_complex(rng, 18)
        a = eigenvalues(m, engine="qr").eigenvalues
        b = eigenvalues(m, engine="numpy").eigenvalues
        assert hausdorff(a, b) <= 1e-10 * np.linalg.norm(m)
        assert eigenvalues(m, engine="numpy").engine == "numpy"

    def test_fingerprint_tracks_input(self, rng):
        m = random_complex(rng, 6)
        assert eigenvalues(m).source_fingerprint \
            == eigenvalues(m.copy()).source_fingerprint
        assert eigenvalues(m).source_fingerprint \
            != eigenvalues(m + 1e-12).source_fingerprint

    def test_csv_format(self, rng):
        res = eigenvalues(random_complex(rng, 3))
        lines = res.to_csv().strip().split("\n")
        assert lines[0] == "re,im,residual"
        assert len(lines) == 4
        float(lines[1].split(",")[0])


class TestErrors:
    def test_non_square(self):
        with pytest.raises(ConfigError):
            eigenvalues(np.zeros((2, 3)))

    def test_empty(self):
        with pytest.raises(ConfigError):
            eigenvalues(np.zeros((0, 0)))

    def test_nan_entries(self):
        m = np.eye(3, dtype=complex)
        m[1, 1] = float("nan")
        with pytest.raises(DomainError):
            eigenvalues(m)

    def test_nonconvergence_carries_partial_form(self, rng):
        m = random_complex(rng, 12)
        with pytest.raises(SolverError) as exc:
            eigenvalues(m, max_iter_factor=0)
        assert exc.value.partial is not None
        assert exc.value.partial.shape == (12, 12)

    def test_unknown_engine(self, rng):
        with pytest.raises(ConfigError):
            eigenvalues(random_complex(rng, 3), engine="magma")


class TestOperatorEntry:
    def test_truncated_operator_spectrum(self):
        sym = PlaneSymbol(f_coeffs={(2, 0): 1.0, (0, 2): 1.0}, q_coeffs={},
                          epsilon=0.0)
        op = quantize_plane(sym, 0.25, 8)
        res = eigenvalues_of(op)
        expected = 0.25 * (2 * np.arange(9) + 1)
        assert np.abs(np.array(res.eigenvalues) - expected).max() <= 1e-13
        assert res.source_fingerprint == op.matrix_fingerprint()
