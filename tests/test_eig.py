import numpy as np
import pytest

from semispec import (ConfigError, DomainError, SolverError, eig,
                      eigenvalues, eigenvalues_of, quantize_plane, PlaneSymbol)
from semispec.experiments import ExperimentConfig, build_operator

U = np.finfo(float).eps
FIG1 = "I + i*epsilon*(cos(theta) + I^2)"


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


def condition_numbers(m):
    """Eigenvalues and kappa_j = ||y_j|| ||x_j|| / |y_j^H x_j|, with the
    left eigenvectors taken as the rows of the inverse eigenvector matrix."""
    vals, right = np.linalg.eig(m)
    left = np.linalg.inv(right)
    return vals, np.linalg.norm(left, axis=1) * np.linalg.norm(right, axis=0)


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

    def test_infinite_imaginary_part(self):
        m = np.eye(3, dtype=complex)
        m[0, 2] = complex(0.0, float("inf"))
        with pytest.raises(DomainError):
            eigenvalues(m)

    @pytest.mark.parametrize("view", [lambda m: m.T, lambda m: m[::2, ::2]],
                             ids=["transpose", "strided"])
    def test_non_contiguous_input(self, rng, view):
        m = view(random_complex(rng, 24))
        assert not m.flags.c_contiguous
        res = eigenvalues(m)
        ref = eigenvalues(np.ascontiguousarray(m))
        assert np.array_equal(res.eigenvalues, ref.eigenvalues)
        assert np.array_equal(res.residuals, ref.residuals)
        assert res.source_fingerprint == ref.source_fingerprint

    def test_shift_budget_exhaustion(self, rng):
        # this matrix needs 226 shifts in 136 sweeps: a budget of 180
        # fails only when a multishift sweep counts each of its shifts
        m = random_complex(rng, 60)
        with pytest.raises(SolverError, match="within 180 shifts") as exc:
            eigenvalues(m, max_iter_factor=3)
        assert exc.value.partial.shape == (60, 60)

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


class TestMultishift:
    """Windows above eig.MULTISHIFT_MIN rows take multishift sweeps."""

    @staticmethod
    def check_schur(a):
        n = a.shape[0]
        t, q = eig._schur(a)
        norm = np.linalg.norm(a)
        assert np.linalg.norm(q @ t @ q.conj().T - a) / norm <= 10 * n * U
        assert not np.tril(t, -1).any()
        assert np.linalg.norm(q.conj().T @ q - np.eye(n)) <= 10 * n * U
        return t

    def test_hessenberg_leaves_tridiagonal_alone(self):
        cfg = ExperimentConfig(model="circle", symbol=FIG1, N=66, delta=0.5)
        m = build_operator(cfg)[1].matrix
        h, qt = eig._hessenberg(m)
        assert np.array_equal(h, m)
        assert np.array_equal(qt, np.eye(m.shape[0]))

    @pytest.mark.parametrize("n", [60, 120, 200])
    def test_random_schur_form(self, rng, n):
        self.check_schur(random_complex(rng, n))

    def test_hermitian_real_spectrum(self, rng):
        m = random_complex(rng, 100)
        h = (m + m.conj().T) / 2
        self.check_schur(h)
        lams = np.array(eigenvalues(h).eigenvalues)
        assert np.abs(lams.imag).max() <= 1e-12 * np.linalg.norm(h)

    def test_exact_zero_subdiagonal_mid_window(self, rng):
        n = 120
        m = np.triu(random_complex(rng, n), -1)
        m[n // 2, n // 2 - 1] = 0.0
        t = self.check_schur(m)
        # the two diagonal blocks keep their own spectra
        top = np.linalg.eigvals(m[:n // 2, :n // 2])
        assert hausdorff(np.diag(t)[:n // 2], top) <= 1e-8 * np.linalg.norm(m)

    @pytest.mark.parametrize("n", [60, 120, 200])
    def test_agrees_with_numpy_engine(self, rng, n):
        m = random_complex(rng, n)
        mine = eigenvalues(m)
        ref = eigenvalues(m, engine="numpy")
        ref_vals = np.array(ref.eigenvalues)
        kappa_vals, kappa = condition_numbers(m)
        norm = np.linalg.norm(m)
        for z in mine.eigenvalues:
            j = int(np.argmin(np.abs(ref_vals - z)))
            kap = kappa[int(np.argmin(np.abs(kappa_vals - ref_vals[j])))]
            tol = 10 * kap * (mine.tolerance + ref.residuals[j] + U) * norm
            assert abs(ref_vals[j] - z) <= tol

    def test_figure_matrix_takes_multishift_path(self, monkeypatch):
        calls = []
        sweep = eig._multishift_sweep

        def counting(h, qt, lo, hi, shifts, work):
            calls.append(len(shifts))
            return sweep(h, qt, lo, hi, shifts, work)

        monkeypatch.setattr(eig, "_multishift_sweep", counting)
        cfg = ExperimentConfig(model="circle", symbol=FIG1, N=66, delta=0.5)
        _, op = build_operator(cfg)
        res = eigenvalues_of(op)
        assert calls and max(calls) == 133 // eig.ROWS_PER_SHIFT
        assert res.tolerance <= 10 * 133 * U

    @pytest.mark.parametrize("step", [9, 13])
    def test_batched_step_equals_one_by_one(self, rng, step):
        n, ns = 40, 4
        h = np.triu(random_complex(rng, n), -1)
        qt = np.eye(n, dtype=complex)
        shifts = rng.standard_normal(ns) + 1j * rng.standard_normal(ns)
        work = np.empty((2, ns * n), dtype=complex)
        steps = list(eig._chain_steps(0, n - 1, ns))
        for pmin, pmax, entering in steps[:step]:
            mu = None if entering is None else shifts[entering]
            eig._chain_step(h, qt, 0, n - 1, pmin, pmax, mu, work)
        pmin, pmax, entering = steps[step]
        assert pmax - pmin == 3 * eig.BULGE_SPACING  # four bulges at once
        h1, qt1 = h.copy(), qt.copy()
        mu = None if entering is None else shifts[entering]
        eig._chain_step(h1, qt1, 0, n - 1, pmin, pmax, mu, work)
        for p in range(pmax, pmin - 1, -eig.BULGE_SPACING):
            eig._chain_step(h, qt, 0, n - 1, p, p,
                            mu if p == pmin else None, work)
        assert np.abs(h1 - h).max() <= 1e-13
        assert np.abs(qt1 - qt).max() <= 1e-13

    def test_zero_pair_rotates_by_identity(self, rng):
        n = 20
        h = np.triu(random_complex(rng, n), -1)
        h[5, 4] = 0.0  # with H[6, 4] = 0 a bulge at row 5 has nothing left
        expected = h.copy()
        qt = np.eye(n, dtype=complex)
        eig._chain_step(h, qt, 0, n - 1, 5, 5, None,
                        np.empty((2, n), dtype=complex))
        assert np.array_equal(h, expected)
        assert np.array_equal(qt, np.eye(n))

    def test_solve_leaves_scipy_linalg_unimported(self, run_python):
        # importing scipy.linalg costs about 0.3 s and 22 MB of RSS
        script = (
            "import sys\n"
            "import numpy as np\n"
            "from semispec import eigenvalues\n"
            "rng = np.random.default_rng(5)\n"
            "m = rng.standard_normal((100, 100))"
            " + 1j * rng.standard_normal((100, 100))\n"
            "assert eigenvalues(m).tolerance < 1e-12\n"
            "print('scipy.linalg' in sys.modules)\n")
        assert run_python(script).strip() == "False"
