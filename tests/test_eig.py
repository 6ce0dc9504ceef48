import math

import numpy as np
import pytest

from semispec import (ConfigError, DomainError, SolverError, eig,
                      eigenvalues, eigenvalues_of, quantize_plane, PlaneSymbol)
from semispec.experiments import (FIGURE_SYMBOLS, ExperimentConfig,
                                  build_operator)

U = np.finfo(float).eps
FIG1 = "I + i*epsilon*(cos(theta) + I^2)"
FIGURE07 = "x^2 + xi^2 + i*epsilon*(x^2 + x^3)"


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


def assert_agrees_with_numpy_engine(m):
    """Every qr eigenvalue lies within 10 kappa (residuals + u) ||M||_F of
    its nearest numpy eigenvalue; returns the qr result."""
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
    return mine


def givens(a, b):
    """G = [[conj c, conj s], [-s, c]] and r >= 0 with G @ [a, b] = [r, 0]."""
    r = math.hypot(abs(a), abs(b))
    if r == 0.0:
        return np.eye(2, dtype=complex), 0.0
    c, s = a / r, b / r
    return np.array([[c.conjugate(), s.conjugate()], [-s, c]]), r


def givens_sweep(h, u, lo, hi, mu):
    """Reference shifted QR step on [lo, hi] by Givens rotations: each
    zeroes one subdiagonal entry of H - mu, with r >= 0 on the diagonal of
    R, and is applied as 2x2 products on a row pair and a column pair."""
    idx = np.arange(lo, hi + 1)
    h[idx, idx] -= mu
    rots = []
    for k in range(lo, hi):
        g, r = givens(complex(h[k, k]), complex(h[k + 1, k]))
        h[k:k + 2, k + 1:] = g @ h[k:k + 2, k + 1:]
        h[k, k] = r
        h[k + 1, k] = 0.0
        rots.append(g.conj())
    for k, gc in enumerate(rots, lo):
        stop = min(k + 2, hi) + 1
        h[:stop, k:k + 2] = h[:stop, k:k + 2] @ gc.T
        u[k:k + 2] = gc @ u[k:k + 2]
    h[idx, idx] += mu


@pytest.fixture
def schur_inputs(monkeypatch):
    """A copy of every matrix eig._schur is handed, in order."""
    calls = []
    schur = eig._schur

    def recording(a, **kwargs):
        calls.append(a.copy())
        return schur(a, **kwargs)

    monkeypatch.setattr(eig, "_schur", recording)
    return calls


@pytest.fixture
def sweep_shifts(monkeypatch):
    """The shift count of every multishift sweep, in order."""
    calls = []
    sweep = eig._multishift_sweep

    def counting(h, qt, lo, hi, shifts):
        calls.append(len(shifts))
        return sweep(h, qt, lo, hi, shifts)

    monkeypatch.setattr(eig, "_multishift_sweep", counting)
    return calls


class TestExamples:
    def test_diagonal(self):
        res = eigenvalues(np.diag([1.0, 2.0j, -3.0]).astype(complex))
        assert res.eigenvalues.tolist() == [(-3 + 0j), 2j, (1 + 0j)]

    def test_nilpotent_jordan_block(self):
        res = eigenvalues([[0.0, 1.0], [0.0, 0.0]])
        assert res.eigenvalues.tolist() == [0j, 0j]

    def test_one_by_one(self):
        res = eigenvalues([[2.5 - 1j]])
        assert res.eigenvalues.tolist() == [(2.5 - 1j)]

    @pytest.mark.parametrize("engine", ["qr", "numpy"])
    def test_zero_matrix(self, monkeypatch, engine):
        # the zero matrix is answered before either engine runs
        def refuse(*args, **kwargs):
            raise AssertionError("engine called on the zero matrix")

        monkeypatch.setattr(eig, "_schur", refuse)
        monkeypatch.setattr(np.linalg, "eig", refuse)
        res = eigenvalues(np.zeros((4, 4)), engine=engine)
        assert res.eigenvalues.tolist() == [0j] * 4
        assert res.residuals.tolist() == [0.0] * 4
        assert res.engine == engine

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

    def test_shift_budget_exhaustion(self, rng, monkeypatch):
        # this matrix, above eig.MULTISHIFT_MIN rows, needs 1041 shifts:
        # 901 in the single-shift sweeps of 7 windows and 140 in 3
        # multishift sweeps, so a budget of 975 fails only when a
        # multishift sweep counts each of its shifts (one per sweep would
        # make 904)
        m = random_complex(rng, 150)
        assert m.shape[0] > eig.MULTISHIFT_MIN
        monkeypatch.setattr(eig, "MAX_ITER_FACTOR", 6.5)
        with pytest.raises(SolverError, match="within 975.0 shifts") as exc:
            eigenvalues(m)
        assert exc.value.partial.shape == (150, 150)

    def test_nonconvergence_carries_partial_form(self, rng, monkeypatch):
        m = random_complex(rng, 12)
        monkeypatch.setattr(eig, "MAX_ITER_FACTOR", 0)
        with pytest.raises(SolverError) as exc:
            eigenvalues(m)
        assert exc.value.partial is not None
        assert exc.value.partial.shape == (12, 12)

    def test_unknown_engine(self, rng):
        with pytest.raises(ConfigError):
            eigenvalues(random_complex(rng, 3), engine="magma")

    def test_unknown_engine_on_zero_matrix(self):
        # the zero matrix has a shortcut; the engine is checked before it
        with pytest.raises(ConfigError, match="magma"):
            eigenvalues(np.zeros((3, 3)), engine="magma")


class TestScale:
    """Both engines solve scale * M, scale a power of two that takes
    max |m_ij| to [0.5, 1), and scale the eigenvalues back."""

    @pytest.mark.parametrize("engine", ["qr", "numpy"])
    @pytest.mark.parametrize("n", [2, 60])
    @pytest.mark.parametrize("s", [1e-300, 1e-200, 1e-160, 1e160, 1e300])
    def test_agrees_with_unit_scale(self, rng, s, n, engine):
        m = random_complex(rng, n) * s
        res = eigenvalues(m, engine=engine)
        assert 0.0 < res.tolerance <= 10 * n * U
        vals, kappa = condition_numbers(m / s)
        norm = np.linalg.norm(m / s)
        for z in res.eigenvalues:
            j = int(np.argmin(np.abs(vals * s - z)))
            tol = 10 * kappa[j] * (res.tolerance + U) * norm
            assert abs(vals[j] - z / s) <= tol

    @pytest.mark.parametrize("engine", ["qr", "numpy"])
    @pytest.mark.parametrize("s", [5e-324, 1e-310, 1.7e308])
    def test_ends_of_the_float_range(self, s, engine):
        # all-subnormal entries, and entries whose exponent is the largest
        res = eigenvalues(np.array([[0.0, s], [s, 0.0]]), engine=engine)
        assert np.abs(np.array(res.eigenvalues) - [-s, s]).max() \
            <= 10 * U * s + np.nextafter(0.0, 1.0)
        assert 0.0 < res.tolerance <= 20 * U


class TestOperatorEntry:
    def test_truncated_operator_spectrum(self):
        sym = PlaneSymbol(q_coeffs={})
        op = quantize_plane(sym, 0.0, 0.25, 8)
        res = eigenvalues_of(op)
        expected = 0.25 * (2 * np.arange(9) + 1)
        assert np.abs(np.array(res.eigenvalues) - expected).max() <= 1e-13
        assert res.source_fingerprint == op.matrix_fingerprint()

    def test_pipeline_solve_is_the_numpy_engine(self):
        cfg = ExperimentConfig(model="circle", symbol=FIG1, N=12, delta=0.5)
        op = build_operator(cfg)[1]
        res = eigenvalues_of(op)
        ref = eigenvalues(op.matrix, engine="numpy")
        assert res.engine == "numpy"
        assert np.array_equal(res.eigenvalues, ref.eigenvalues)
        assert np.array_equal(res.residuals, ref.residuals)


class TestRealForm:
    """The numpy engine solves S^-1 M S, S = diag(1, i, -1, -i, ...), when
    that matrix is exactly real."""

    PT_CUBIC = "x^2 + xi^2 + i*epsilon*x^3"

    def test_pt_cubic_in_window_exactly_real(self):
        # the complex solve leaves |Im| up to 1.6e-10 in the window and a
        # conjugation closure of 1.8e-9 at this N
        cfg = ExperimentConfig(model="line", symbol=self.PT_CUBIC, N=132,
                               delta=0.5)
        op = build_operator(cfg)[1]
        assert eig._real_form(op.matrix) is not None
        res = eigenvalues_of(op)
        lams = res.eigenvalues
        lo, hi = cfg.window_value()
        inside = lams[(lo <= lams.real) & (lams.real <= hi)]
        assert len(inside) == 105
        assert (inside.imag == 0.0).all()
        assert hausdorff(lams.conj(), lams) == 0.0
        assert res.tolerance <= 10 * 133 * U

    def test_same_spectrum_as_the_complex_solve(self, rng):
        # M_ab = (-1)^(a+b) conj(M_ab): entries real where a + b is even
        # and imaginary where it is odd
        n = 40
        odd = np.add.outer(np.arange(n), np.arange(n)) % 2 == 1
        m = np.where(odd, 1j, 1.0) * rng.standard_normal((n, n))
        assert eig._real_form(m) is not None
        res = eigenvalues(m, engine="numpy")
        vals = np.linalg.eigvals(m)
        assert hausdorff(res.eigenvalues, vals) <= 1e-12 * np.linalg.norm(m)
        assert np.isin(res.eigenvalues.conj(), res.eigenvalues).all()
        assert res.tolerance <= 10 * n * U

    @pytest.mark.parametrize("case", ["figure01", "figure05", "figure07",
                                      "figure08"])
    def test_figure_matrices_stay_complex(self, case):
        model, symbol, _ = FIGURE_SYMBOLS[case]
        cfg = ExperimentConfig(model=model, symbol=symbol, N=66, delta=0.5)
        assert eig._real_form(build_operator(cfg)[1].matrix) is None


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

    # the largest whole window, the smallest multishift one, and two more
    SIZES = [eig.MULTISHIFT_MIN, eig.MULTISHIFT_MIN + 1, 120, 200]

    @pytest.mark.parametrize("n", SIZES)
    def test_random_schur_form(self, rng, sweep_shifts, n):
        self.check_schur(random_complex(rng, n))
        assert bool(sweep_shifts) == (n > eig.MULTISHIFT_MIN)

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

    @pytest.mark.parametrize("n", SIZES)
    def test_agrees_with_numpy_engine(self, rng, sweep_shifts, n):
        assert_agrees_with_numpy_engine(random_complex(rng, n))
        assert bool(sweep_shifts) == (n > eig.MULTISHIFT_MIN)

    def test_random_matrix_takes_multishift_path(self, rng, sweep_shifts):
        # nothing of a random matrix's first early-deflation window
        # deflates, so its first sweep takes all of the window's
        # eigenvalues as shifts
        n = 150
        res = eigenvalues(random_complex(rng, n))
        assert sweep_shifts[0] == eig.DEFLATION_WINDOW
        assert max(sweep_shifts) <= eig.DEFLATION_WINDOW
        assert res.tolerance <= 10 * n * U

    @pytest.mark.parametrize("case,rows,multishift",
                             [("figure07", 67, False),
                              ("figure01", 133, False),
                              ("random", 150, True)])
    def test_crossover(self, rng, sweep_shifts, case, rows, multishift):
        # figure07's one window is finished whole by single-shift sweeps;
        # figure01's windows above eig.MULTISHIFT_MIN rows deflate enough
        # of their early-deflation windows to skip every multishift sweep,
        # where a random matrix's do not
        if case == "random":
            m = random_complex(rng, rows)
        else:
            model, symbol, _ = FIGURE_SYMBOLS[case]
            cfg = ExperimentConfig(model=model, symbol=symbol, N=66,
                                   delta=0.5)
            m = build_operator(cfg)[1].matrix
        res = eigenvalues(m)
        assert len(res.eigenvalues) == rows
        assert bool(sweep_shifts) == multishift
        assert res.tolerance <= 10 * rows * U

    def test_early_deflation_shift_count(self, sweep_shifts):
        # the multishift sweeps with the eigenvalues of the trailing block
        # as shifts took 42 sweeps and 1344 shifts on this matrix; early
        # deflation on 48-row windows takes 1 sweep and 44 shifts
        cfg = ExperimentConfig(model="circle", symbol=FIG1, N=132,
                               epsilon=0.1)
        res = eigenvalues(build_operator(cfg)[1].matrix)
        assert len(res.eigenvalues) == 265
        assert sweep_shifts and sum(sweep_shifts) <= 400
        assert res.tolerance <= 10 * 265 * U

    def test_exceptional_shift(self, rng, monkeypatch, sweep_shifts):
        # with every second multishift sweep without a deflation at the
        # bottom exceptional, this matrix's second sweep chases one bulge
        # with the exceptional shift; an ordinary sweep takes at least
        # (1 - NIBBLE) * DEFLATION_WINDOW shifts
        monkeypatch.setattr(eig, "EXCEPTIONAL_EVERY", 2)
        n = 120
        res = assert_agrees_with_numpy_engine(random_complex(rng, n))
        assert 1 in sweep_shifts
        assert res.tolerance <= 10 * n * U

    def test_sweep_leaves_deflated_rows_alone(self, monkeypatch):
        # a sweep after a partial early deflation of [lo, hi] runs on
        # [lo, hi - deflated]; on this matrix the one sweep does
        events = []
        early, sweep = eig._early_deflation, eig._multishift_sweep

        def recording_early(h, qt, lo, hi, nw, budget):
            out = early(h, qt, lo, hi, nw, budget)
            events.append((lo, hi, out[0]))
            return out

        def recording_sweep(h, qt, lo, hi, shifts):
            events.append((lo, hi, None))
            return sweep(h, qt, lo, hi, shifts)

        monkeypatch.setattr(eig, "_early_deflation", recording_early)
        monkeypatch.setattr(eig, "_multishift_sweep", recording_sweep)
        cfg = ExperimentConfig(model="circle", symbol=FIG1, N=132,
                               epsilon=0.1)
        eigenvalues(build_operator(cfg)[1].matrix)
        sweeps = [(before, (lo, hi)) for before, (lo, hi, d)
                  in zip(events, events[1:]) if d is None]
        assert sweeps
        assert all(window == (lo, hi - deflated)
                   for (lo, hi, deflated), window in sweeps)
        assert any(before[2] > 0 for before, _ in sweeps)

    @pytest.mark.parametrize("step", [9, 13])
    def test_batched_step_equals_one_by_one(self, rng, step):
        n, ns = 40, 4
        h = np.triu(random_complex(rng, n), -1)
        qt = np.eye(n, dtype=complex)
        shifts = rng.standard_normal(ns) + 1j * rng.standard_normal(ns)
        steps = list(eig._chain_steps(0, n - 1, ns))
        for pmin, pmax, entering in steps[:step]:
            mu = None if entering is None else shifts[entering]
            eig._chain_step(h, qt, 0, n - 1, pmin, pmax, mu)
        pmin, pmax, entering = steps[step]
        assert pmax - pmin == 3 * eig.BULGE_SPACING  # four bulges at once
        h1, qt1 = h.copy(), qt.copy()
        mu = None if entering is None else shifts[entering]
        eig._chain_step(h1, qt1, 0, n - 1, pmin, pmax, mu)
        for p in range(pmax, pmin - 1, -eig.BULGE_SPACING):
            eig._chain_step(h, qt, 0, n - 1, p, p,
                            mu if p == pmin else None)
        assert np.abs(h1 - h).max() <= 1e-13
        assert np.abs(qt1 - qt).max() <= 1e-13

    def test_zero_pair_rotates_by_identity(self, rng):
        n = 20
        h = np.triu(random_complex(rng, n), -1)
        h[5, 4] = 0.0  # with H[6, 4] = 0 a bulge at row 5 has nothing left
        expected = h.copy()
        qt = np.eye(n, dtype=complex)
        eig._chain_step(h, qt, 0, n - 1, 5, 5, None)
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

    def test_parity_solve_leaves_scipy_unimported(self, run_python):
        # figure05 splits into parity blocks, labelled with numpy alone:
        # importing scipy.sparse.csgraph costs about 33 MB of RSS and 0.4 s
        script = (
            "import sys\n"
            "from semispec import eigenvalues\n"
            "from semispec.experiments import ExperimentConfig,"
            " build_operator\n"
            "cfg = ExperimentConfig(model='line',"
            " symbol='x^2 + xi^2 + i*epsilon*x^2', N=66, delta=0.5)\n"
            "m = build_operator(cfg)[1].matrix\n"
            "assert eigenvalues(m).tolerance < 1e-12\n"
            "print('scipy.linalg' in sys.modules,"
            " 'scipy.sparse' in sys.modules)\n")
        assert run_python(script).split() == ["False", "False"]


class TestSweep:
    """The single-shift QR step as one Householder factorization."""

    @pytest.mark.parametrize("m", [3, 4, 7, 12, 20, 33, 40])
    def test_matches_givens_step(self, rng, m):
        # a window [lo, hi] with rows above it and columns to its right
        lo, n = 5, m + 11
        hi = lo + m - 1
        h0 = np.triu(random_complex(rng, n), -1)
        h0[lo, lo - 1] = h0[hi + 1, hi] = 0.0
        mu = complex(rng.standard_normal(), rng.standard_normal())
        h, u = h0.copy(), np.eye(n, dtype=complex)
        eig._qr_sweep(h, u, lo, hi, mu)
        ref, ref_u = h0.copy(), np.eye(n, dtype=complex)
        givens_sweep(ref, ref_u, lo, hi, mu)
        tol = 10 * m * U * np.linalg.norm(h0)
        assert not np.tril(h, -2).any()
        # the two steps differ by a diagonal unitary similarity
        assert np.abs(np.diag(h) - np.diag(ref)).max() <= tol
        assert np.abs(np.abs(h) - np.abs(ref)).max() <= tol
        assert np.linalg.norm(u @ u.conj().T - np.eye(n)) <= 10 * m * U
        assert np.linalg.norm(u.T @ h @ u.conj() - h0) <= tol
        # rows and columns outside the window are left alone
        outside = np.ones(n, dtype=bool)
        outside[lo:hi + 1] = False
        assert np.array_equal(u[outside], np.eye(n)[outside])
        assert np.array_equal(h[np.ix_(outside, outside)],
                              h0[np.ix_(outside, outside)])

    @pytest.mark.parametrize("m", [2, 3, 12, 48, 100])
    @pytest.mark.parametrize("where", ["inner", "top", "bottom", "whole"])
    def test_bit_identical_to_textbook_step(self, rng, m, where):
        # the textbook step: the shift as a whole matrix, R Q cleared below
        # its subdiagonal, and all three products carried out
        above = 0 if where in ("top", "whole") else 5
        right = 0 if where in ("bottom", "whole") else 6
        lo, hi, n = above, above + m - 1, above + m + right
        h0 = np.triu(random_complex(rng, n), -1)
        u0 = random_complex(rng, n)
        mu = complex(rng.standard_normal(), rng.standard_normal())
        h, u = h0.copy(), u0.copy()
        eig._qr_sweep(h, u, lo, hi, mu)
        ref, ref_u = h0.copy(), u0.copy()
        w = slice(lo, hi + 1)
        shift = mu * np.eye(m)
        q, r = np.linalg.qr(ref[w, w] - shift)
        ref[w, w] = np.triu(r @ q, -1) + shift
        ref[w, hi + 1:] = q.T.conj() @ ref[w, hi + 1:]
        ref[:lo, w] = ref[:lo, w] @ q
        ref_u[w] = q.T @ ref_u[w]
        assert np.array_equal(h, ref)
        assert np.array_equal(u, ref_u)


def full_scan_split(h, hi):
    """Reference split test: one vectorized scan of every subdiagonal
    entry of [0, hi], the bottom one included."""
    d = np.abs(np.diagonal(h)[:hi + 1])
    sub = np.abs(np.diagonal(h, -1)[:hi])
    hits = np.flatnonzero(sub <= eig.DEFLATION_TOL * (d[:-1] + d[1:]))
    if hits.size == 0:
        return 0
    lo = int(hits[-1]) + 1
    h[lo, lo - 1] = 0.0
    return lo


class TestSplitPoint:
    """The bottom subdiagonal entry is tested before the scan."""

    def test_top_row_reads_no_wrapped_entry(self, rng):
        # at hi == 0, H[0, -1] is the last column, not a subdiagonal entry
        h0 = np.triu(random_complex(rng, 6), -1)
        h0[0, -1] = 1e-300
        h = h0.copy()
        assert eig._split_point(h, 0) == 0
        assert np.array_equal(h, h0)

    def test_negligible_bottom_entry(self, rng):
        h0 = np.triu(random_complex(rng, 9), -1)
        hi = 7
        h0[hi, hi - 1] = 1e-20
        h0[3, 2] = 1e-20  # a lower split the bottom test need not reach
        h = h0.copy()
        assert eig._split_point(h, hi) == hi
        assert h[hi, hi - 1] == 0
        h[hi, hi - 1] = h0[hi, hi - 1]
        assert np.array_equal(h, h0)

    def test_bottom_entry_at_the_tolerance(self):
        # |h_k,k-1| == 1e-14 * (|h_k-1,k-1| + |h_kk|) exactly deflates
        h = np.array([[1, 5], [2 * eig.DEFLATION_TOL, 1]], dtype=complex)
        assert eig._split_point(h.copy(), 1) == 1
        h[1, 0] = np.nextafter(h[1, 0].real, 1.0)
        assert eig._split_point(h.copy(), 1) == 0

    def test_matches_full_scan(self, rng):
        n = 30
        for _ in range(200):
            h0 = np.triu(random_complex(rng, n), -1)
            # plant exact zeros, negligible entries and ones twice the
            # tolerance (an entry within an ulp of it can read either way:
            # scalar and vectorized |z| may differ in the last bit)
            for k in rng.choice(np.arange(1, n), size=rng.integers(0, 4),
                                replace=False):
                tol = eig.DEFLATION_TOL * (abs(h0[k - 1, k - 1])
                                           + abs(h0[k, k]))
                h0[k, k - 1] = rng.choice([0.0, 0.5 * tol, 2.0 * tol])
            hi = int(rng.integers(0, n))
            h, ref = h0.copy(), h0.copy()
            assert eig._split_point(h, hi) == full_scan_split(ref, hi)
            assert np.array_equal(h, ref)


class TestSmallSchur:
    """A 2 x 2 window takes one Wilkinson sweep like any other."""

    @pytest.mark.parametrize("h0", [
        [[1, 2], [3, 4]], [[0, 1], [-1, 0]], [[1, 1e8], [1e-8, 1]],
        [[0, 1], [1e-300, 0]], None],
        ids=["real", "rotation", "graded", "tiny-coupling", "random"])
    def test_two_by_two_takes_one_sweep(self, rng, h0):
        h0 = random_complex(rng, 2) if h0 is None \
            else np.array(h0, dtype=complex)
        t = h0.copy()
        u, spent, keep = eig._small_schur(t, budget=10)
        assert (spent, keep) == (1, 0)
        assert t[1, 0] == 0
        assert np.linalg.norm(u @ u.conj().T - np.eye(2)) <= 20 * U
        assert np.linalg.norm(u.T @ t @ u.conj() - h0) \
            <= 20 * U * np.linalg.norm(h0)


class TestBlocks:
    """The qr engine solves each exactly decoupled diagonal block of the
    matrix (a component of the nonzero pattern of M + M^T) on its own."""

    FIGURE05 = "x^2 + xi^2 + i*epsilon*x^2"
    FIGURE08 = "x^2 + xi^2 + i*epsilon*x^4"

    @staticmethod
    def matrix(model, symbol):
        cfg = ExperimentConfig(model=model, symbol=symbol, N=66, delta=0.5)
        return build_operator(cfg)[1].matrix

    def test_permuted_block_diagonal(self, rng, schur_inputs):
        sizes = (50, 1, 30, 45)
        n = sum(sizes)
        blocks = [random_complex(rng, k) for k in sizes]
        m = np.zeros((n, n), dtype=complex)
        ends = np.cumsum(sizes)
        for b, end, k in zip(blocks, ends, sizes):
            m[end - k:end, end - k:end] = b
        perm = rng.permutation(n)
        m = m[np.ix_(perm, perm)]
        position = np.argsort(perm)
        found = eig._blocks(m)
        assert sorted(map(sorted, (position[end - k:end]
                                   for end, k in zip(ends, sizes)))) \
            == sorted(idx.tolist() for idx in found)
        res = assert_agrees_with_numpy_engine(m)
        assert sorted(a.shape[0] for a in schur_inputs) == sorted(sizes)
        union = np.concatenate([np.linalg.eigvals(b) for b in blocks])
        assert len(res.eigenvalues) == n
        assert hausdorff(res.eigenvalues, union) <= 1e-10 * np.linalg.norm(m)
        assert res.tolerance <= 10 * n * U

    def test_one_way_links(self):
        # M[0, 2] and M[3, 1] link their rows in one direction each
        m = np.diag([1.0, 2.0, 3.0, 4.0, 5.0]).astype(complex)
        m[0, 2] = m[3, 1] = 1.0
        assert [idx.tolist() for idx in eig._blocks(m)] \
            == [[0, 2], [1, 3], [4]]
        lams = np.array(eigenvalues(m).eigenvalues)
        assert np.abs(lams - np.arange(1.0, 6.0)).max() <= 10 * U

    @pytest.mark.parametrize("symbol", [FIGURE05, FIGURE08],
                             ids=["figure05", "figure08"])
    def test_parity_blocks(self, schur_inputs, symbol):
        m = self.matrix("line", symbol)
        res = eigenvalues(m)
        even, odd = schur_inputs
        assert (even.shape, odd.shape) == ((34, 34), (33, 33))
        assert np.array_equal(even, m[::2, ::2])
        assert np.array_equal(odd, m[1::2, 1::2])
        whole = np.sort_complex(np.diag(eig._schur(m)[0]))
        assert np.abs(np.array(res.eigenvalues) - whole).max() <= 1e-12
        assert res.tolerance <= 10 * 67 * U

    @pytest.mark.parametrize("model,symbol", [("circle", FIG1),
                                              ("line", FIGURE07)],
                             ids=["figure01", "figure07"])
    def test_connected_matrix_is_one_block(self, schur_inputs, model,
                                           symbol):
        m = self.matrix(model, symbol)
        eigenvalues(m)
        [whole] = schur_inputs
        assert np.array_equal(whole, m)

    def test_exhausted_block_raises(self, rng, monkeypatch):
        # the triangular 2 x 2 block needs no shift, the random 12 x 12
        # block runs out of its budget of 0 shifts
        m = np.zeros((14, 14), dtype=complex)
        m[:2, :2] = [[1.0, 2.0], [0.0, 3.0]]
        m[2:, 2:] = random_complex(rng, 12)
        monkeypatch.setattr(eig, "MAX_ITER_FACTOR", 0)
        with pytest.raises(SolverError, match="within 0 shifts") as exc:
            eigenvalues(m)
        assert exc.value.partial.shape == (12, 12)


class TestWindows:
    """Aggressive early deflation on the trailing window."""

    def test_early_deflation_of_decoupled_block(self, rng):
        # H[56, 55] inside the trailing window of 8 rows is negligible, so
        # the window's bottom 4 eigenvalues have spike entries near 1e-17
        n, nw, cut = 60, 8, 56
        h0 = np.triu(random_complex(rng, n), -1)
        h0[cut, cut - 1] = 1e-17
        h, qt = h0.copy(), np.eye(n, dtype=complex)
        deflated, shifts, spent = eig._early_deflation(h, qt, 0, n - 1, nw,
                                                       n * 40)
        assert deflated >= n - cut
        assert len(shifts) == nw - deflated and spent > 0
        kw, keep = n - nw, nw - deflated
        assert not np.tril(h, -2).any()
        assert not h[kw + keep:, kw - 1].any()
        assert not np.tril(h[kw + keep:, kw + keep:], -1).any()
        assert h[kw + keep, kw + keep - 1] == 0.0
        bottom = np.linalg.eigvals(h0[cut:, cut:])
        assert hausdorff(np.diag(h)[-(n - cut):], bottom) <= 1e-12
        assert np.linalg.norm(qt.T @ h @ qt.conj() - h0) \
            <= 10 * n * U * np.linalg.norm(h0)

    def test_early_deflation_stops_at_first_kept(self, rng, monkeypatch):
        # the window's Schur vectors do not depend on the coupling s, so s
        # can set the spike test's threshold on r_i = |u[i, 0] / T[i, i]|
        # between two rows: spike entries from the bottom then read
        # negligible (the bottom row splits off at once), large, ...,
        # negligible, large.  keep counts the rows down to the lowest large
        # entry, so only the bottom eigenvalue deflates.
        n, nw = 12, 6
        kw = n - nw
        h0 = np.triu(random_complex(rng, n), -1)
        h0[-1, -2] = 1e-20
        nibble = eig.NIBBLE

        def small_schur(nibble, s):
            monkeypatch.setattr(eig, "NIBBLE", nibble)
            t = h0[kw:, kw:].copy()
            return t, eig._small_schur(t, n * 40, s)

        full, (u, _, _) = small_schur(1.0, 1.0)
        r = np.abs(u[:, 0] / np.diag(full))
        j = 1 + int(np.argmin(r[1:nw - 2]))
        threshold = math.sqrt(r[j] * min(r[:j].max(), r[nw - 2]))
        h0[kw, kw - 1] = s = eig.DEFLATION_TOL / threshold
        # the walk up from the bottom over the full Schur form
        spiky = np.abs(s * u[:, 0]) > eig.DEFLATION_TOL * np.abs(np.diag(full))
        assert not spiky[-1] and spiky[-2] and not spiky[j] and spiky[:j].any()
        walk = nw
        while walk and not spiky[walk - 1]:
            walk -= 1
        assert walk == nw - 1
        assert small_schur(1.0, s)[1][2] == walk
        # the early exit decides the same count, short of the full form
        part, (_, spent, keep) = small_schur(nibble, s)
        assert keep == walk
        assert np.tril(part, -1).any()
        h, qt = h0.copy(), np.eye(n, dtype=complex)
        deflated, shifts, spent_window = eig._early_deflation(
            h, qt, 0, n - 1, nw, n * 40)
        assert (deflated, len(shifts), spent_window) == (1, nw - 1, spent)
        assert h[-1, -1] == full[-1, -1] and not h[-1, :-1].any()
        assert not np.tril(h, -2).any()
        assert np.linalg.norm(qt.T @ h @ qt.conj() - h0) \
            <= 10 * n * U * np.linalg.norm(h0)

    def test_top_row_alone_is_kept(self, rng):
        # row 0 of the window splits from the rows below it, so their
        # spike entries are exactly 0 and row 0's is s itself: keep is 1,
        # and the coupling entry stays
        n, nw = 12, 6
        kw = n - nw
        h0 = np.triu(random_complex(rng, n), -1)
        h0[kw + 1, kw] = 0.0
        s = h0[kw, kw - 1]
        assert eig._small_schur(h0[kw:, kw:].copy(), n * 40, s)[2] == 1
        h, qt = h0.copy(), np.eye(n, dtype=complex)
        deflated, shifts, _ = eig._early_deflation(h, qt, 0, n - 1, nw,
                                                   n * 40)
        assert (deflated, len(shifts)) == (nw - 1, 1)
        assert h[kw, kw - 1] == s
        assert np.linalg.norm(qt.T @ h @ qt.conj() - h0) \
            <= 10 * n * U * np.linalg.norm(h0)

    @staticmethod
    def fig1_132():
        cfg = ExperimentConfig(model="circle", symbol=FIG1, N=132,
                               epsilon=0.1)
        return build_operator(cfg)[1].matrix.astype(complex)

    def test_early_exit_deflates_as_full_form(self, monkeypatch):
        # the first window of this matrix deflates at least NIBBLE of its
        # trailing rows; stopping there gives the same count and the same
        # deflated eigenvalues as the full Schur form, for fewer shifts
        h0 = self.fig1_132()
        n, nw = h0.shape[0], eig.DEFLATION_WINDOW
        h, qt = h0.copy(), np.eye(n, dtype=complex)
        deflated, _, spent = eig._early_deflation(h, qt, 0, n - 1, nw,
                                                  n * 40)
        assert deflated >= eig.NIBBLE * nw
        monkeypatch.setattr(eig, "NIBBLE", 1.0)  # no exit short of the end
        full, qt_full = h0.copy(), np.eye(n, dtype=complex)
        deflated_full, _, spent_full = eig._early_deflation(
            full, qt_full, 0, n - 1, nw, n * 40)
        assert deflated == deflated_full
        assert spent < spent_full
        assert np.array_equal(np.diag(h)[-deflated:],
                              np.diag(full)[-deflated:])
        assert np.linalg.norm(qt.T @ h @ qt.conj() - h0) \
            <= 10 * n * U * np.linalg.norm(h0)

    def test_whole_window_never_exits_early(self):
        # the trailing block of the matrix above stops short of Schur form
        # with its coupling entry, and goes all the way without one
        h0 = self.fig1_132()
        kw = h0.shape[0] - eig.DEFLATION_WINDOW
        s = complex(h0[kw, kw - 1])
        coupled, whole = h0[kw:, kw:].copy(), h0[kw:, kw:].copy()
        eig._small_schur(coupled, 10**4, s)
        eig._small_schur(whole, 10**4)
        assert np.tril(coupled, -1).any()
        assert not np.tril(whole, -1).any()

    def test_shifts_are_full_form_eigenvalues(self):
        # the second window of this matrix deflates fewer than NIBBLE of
        # its trailing rows, so the sweep's shifts are the eigenvalues of
        # the block's full Schur form
        h = self.fig1_132()
        n, nw = h.shape[0], eig.DEFLATION_WINDOW
        qt = np.eye(n, dtype=complex)
        first = eig._early_deflation(h, qt, 0, n - 1, nw, n * 40)[0]
        hi = n - 1 - first
        kw = hi - nw + 1
        block = h[kw:hi + 1, kw:hi + 1].copy()
        deflated, shifts, _ = eig._early_deflation(h, qt, 0, hi, nw, n * 40)
        assert 0 < deflated < eig.NIBBLE * nw
        eig._small_schur(block, n * 40)
        assert np.array_equal(shifts, np.diag(block)[:nw - deflated])

    @pytest.mark.parametrize("lo", [0, 5])
    def test_whole_window_deflates(self, rng, lo):
        # a window of nw rows that is all of [lo, hi] has no coupling entry,
        # not even the corner H[0, n-1] when lo == 0, so all of it deflates
        nw = 12
        n = lo + nw
        h0 = np.triu(random_complex(rng, n))
        h0[lo:, lo:] = np.triu(random_complex(rng, nw), -1)
        assert h0[0, n - 1] != 0
        h, qt = h0.copy(), np.eye(n, dtype=complex)
        deflated, shifts, spent = eig._early_deflation(h, qt, lo, n - 1, nw,
                                                       n * 40)
        assert deflated == nw and len(shifts) == 0 and spent > 0
        assert not np.tril(h, -1).any()
        assert np.linalg.norm(qt.T @ h @ qt.conj() - h0) \
            <= 10 * n * U * np.linalg.norm(h0)

    @pytest.mark.parametrize("n", [41, 97, 265])
    def test_no_platform_eigenroutine(self, rng, monkeypatch, n):
        def refuse(*args, **kwargs):
            raise AssertionError("platform eigenroutine called")

        monkeypatch.setattr(np.linalg, "eigvals", refuse)
        monkeypatch.setattr(np.linalg, "eig", refuse)
        res = eigenvalues(random_complex(rng, n))
        assert len(res.eigenvalues) == n
        assert res.tolerance <= 10 * n * U
