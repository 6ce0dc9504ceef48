"""Dense complex non-Hermitian eigensolver with residual diagnostics.

The reference path reduces to upper Hessenberg form with Householder
reflections, then runs explicitly shifted QR sweeps (Wilkinson shifts,
occasional exceptional shifts) with deflation of subdiagonals below
1e-14 * (|h_kk| + |h_k+1,k+1|).  Unitary transformations are accumulated
so a Schur factorization A = Q T Q^H is available for the backward-error
estimate and for eigenvectors.

``engine="numpy"`` substitutes the platform routine behind the same
contract; downstream code only sees SpectrumResult.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DomainError, SolverError
from .operators import matrix_fingerprint

DEFLATION_TOL = 1e-14
MAX_ITER_FACTOR = 40
EXCEPTIONAL_EVERY = 10


@dataclass(frozen=True)
class SpectrumResult:
    """Eigenvalues sorted by (Re, Im) ascending, with per-pair residuals.

    When eigenvectors were computed, residuals[i] = ||M v - lambda v||_2
    / ||M||_F; otherwise every entry carries the Schur backward-error
    estimate ||Q T Q^H - M||_F / ||M||_F.
    """

    eigenvalues: tuple
    residuals: tuple
    source_fingerprint: str
    engine: str

    @property
    def tolerance(self):
        return max(self.residuals) if self.residuals else 0.0

    def to_csv(self):
        lines = ["re,im,residual"]
        for lam, res in zip(self.eigenvalues, self.residuals):
            lines.append(f"{lam.real!r},{lam.imag!r},{res!r}")
        return "\n".join(lines) + "\n"


def _hessenberg(a):
    """Unitary reduction A = Q H Q^H with H upper Hessenberg."""
    h = a.astype(complex).copy()
    n = h.shape[0]
    q = np.eye(n, dtype=complex)
    for k in range(n - 2):
        col = h[k + 1:, k]
        norm = np.linalg.norm(col)
        if norm == 0.0:
            continue
        v = col.copy()
        pivot = v[0]
        phase = pivot / abs(pivot) if pivot != 0 else 1.0
        v[0] += phase * norm
        vnorm = np.linalg.norm(v)
        if vnorm == 0.0:
            continue
        v /= vnorm
        h[k + 1:, k:] -= 2.0 * np.outer(v, v.conj() @ h[k + 1:, k:])
        h[:, k + 1:] -= 2.0 * np.outer(h[:, k + 1:] @ v, v.conj())
        q[:, k + 1:] -= 2.0 * np.outer(q[:, k + 1:] @ v, v.conj())
        h[k + 2:, k] = 0.0
    return h, q


def _wilkinson_shift(h, hi):
    a = h[hi - 1, hi - 1]
    b = h[hi - 1, hi]
    c = h[hi, hi - 1]
    d = h[hi, hi]
    s = (a - d) / 2.0
    r = cmath.sqrt(s * s + b * c)
    lam1 = d + s + r
    lam2 = d + s - r
    return lam1 if abs(lam1 - d) < abs(lam2 - d) else lam2


def _apply_rotation_rows(h, k, c, s, stop=None):
    g = np.array([[c.conjugate(), s.conjugate()], [-s, c]], dtype=complex)
    h[k:k + 2, k:stop] = g @ h[k:k + 2, k:stop]


def _apply_rotation_cols(h, q, k, c, s, row_stop):
    gh = np.array([[c, -s.conjugate()], [s, c.conjugate()]], dtype=complex)
    h[:row_stop, k:k + 2] = h[:row_stop, k:k + 2] @ gh
    q[:, k:k + 2] = q[:, k:k + 2] @ gh


def _qr_sweep(h, q, lo, hi, mu):
    idx = np.arange(lo, hi + 1)
    h[idx, idx] -= mu
    rots = []
    for k in range(lo, hi):
        a = h[k, k]
        b = h[k + 1, k]
        r = np.hypot(abs(a), abs(b))
        if r == 0.0:
            c, s = 1.0 + 0j, 0j
        else:
            c, s = a / r, b / r
        _apply_rotation_rows(h, k, c, s)
        h[k + 1, k] = 0.0
        rots.append((c, s))
    for k in range(lo, hi):
        c, s = rots[k - lo]
        _apply_rotation_cols(h, q, k, c, s, row_stop=min(k + 2, hi) + 1)
    h[idx, idx] += mu


def _triangularize_2x2(h, q, lo):
    n = h.shape[0]
    a, b = h[lo, lo], h[lo, lo + 1]
    c, d = h[lo + 1, lo], h[lo + 1, lo + 1]
    if c == 0:
        return
    s = (a - d) / 2.0
    r = cmath.sqrt(s * s + b * c)
    lam = d + s + r if abs(s + r) >= abs(s - r) else d + s - r
    u1 = (b, lam - a)
    u2 = (lam - d, c)
    u = u1 if np.hypot(abs(u1[0]), abs(u1[1])) >= np.hypot(abs(u2[0]), abs(u2[1])) else u2
    norm = np.hypot(abs(u[0]), abs(u[1]))
    gc, gs = u[0] / norm, u[1] / norm
    _apply_rotation_rows(h, lo, gc, gs, stop=n)
    _apply_rotation_cols(h, q, lo, gc, gs, row_stop=lo + 2)
    h[lo + 1, lo] = 0.0


def _schur(a, max_iter_factor=MAX_ITER_FACTOR):
    """Complex Schur form A = Q T Q^H by shifted QR on the Hessenberg form."""
    h, q = _hessenberg(a)
    n = h.shape[0]
    budget = max_iter_factor * n
    total = 0
    hi = n - 1
    since_move = 0
    last_hi = hi
    while hi > 0:
        if hi != last_hi:
            since_move = 0
            last_hi = hi
        lo = hi
        while lo > 0:
            if abs(h[lo, lo - 1]) <= DEFLATION_TOL * (
                    abs(h[lo - 1, lo - 1]) + abs(h[lo, lo])):
                h[lo, lo - 1] = 0.0
                break
            lo -= 1
        if lo == hi:
            hi -= 1
            continue
        if hi - lo == 1:
            _triangularize_2x2(h, q, lo)
            hi = lo - 1
            continue
        if total >= budget:
            raise SolverError(
                f"QR iteration did not converge within {budget} sweeps",
                partial=h.copy())
        since_move += 1
        if since_move % EXCEPTIONAL_EVERY == 0:
            mu = h[hi, hi] + 0.75 * abs(h[hi, hi - 1])
        else:
            mu = _wilkinson_shift(h, hi)
        _qr_sweep(h, q, lo, hi, mu)
        total += 1
    return h, q


def _triangular_eigenvectors(t, q):
    """Eigenvectors of A = Q T Q^H by back-substitution on T."""
    n = t.shape[0]
    tiny = np.finfo(float).eps * max(1.0, np.linalg.norm(t, ord="fro"))
    vecs = np.empty((n, n), dtype=complex)
    for k in range(n):
        lam = t[k, k]
        y = np.zeros(n, dtype=complex)
        y[k] = 1.0
        for i in range(k - 1, -1, -1):
            rhs = -t[i, k] - t[i, i + 1:k] @ y[i + 1:k]
            denom = t[i, i] - lam
            if abs(denom) < tiny:
                denom = tiny
            y[i] = rhs / denom
        v = q @ y
        vecs[:, k] = v / np.linalg.norm(v)
    return vecs


def eigenvalues(m, engine="qr", compute_vectors=False,
                max_iter_factor=MAX_ITER_FACTOR):
    """All eigenvalues of a square complex matrix, as a SpectrumResult.

    Parameters
    ----------
    m : array_like, square, finite entries
    engine : "qr" (in-house reference) or "numpy" (platform adapter)
    compute_vectors : compute eigenvectors and per-pair residuals
    """
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ConfigError(f"matrix must be square, got shape {a.shape}")
    if a.shape[0] < 1:
        raise ConfigError("matrix must have dimension >= 1")
    if not np.all(np.isfinite(a.view(float))):
        raise DomainError("matrix has non-finite entries")
    fingerprint = matrix_fingerprint(a)
    norm = np.linalg.norm(a, ord="fro")
    if norm == 0.0:
        lams = np.zeros(a.shape[0], dtype=complex)
        return _assemble(lams, np.zeros(a.shape[0]), fingerprint, engine)

    if engine == "numpy":
        lams, vecs = np.linalg.eig(a)
        res = np.linalg.norm(a @ vecs - vecs * lams[None, :], axis=0) / norm
        return _assemble(lams, res, fingerprint, engine)
    if engine != "qr":
        raise ConfigError(f"unknown engine {engine!r}")

    t, q = _schur(a, max_iter_factor=max_iter_factor)
    lams = np.diag(t).copy()
    if compute_vectors:
        vecs = _triangular_eigenvectors(t, q)
        res = np.linalg.norm(a @ vecs - vecs * lams[None, :], axis=0) / norm
    else:
        backward = np.linalg.norm(q @ t @ q.conj().T - a, ord="fro") / norm
        res = np.full(a.shape[0], backward)
    return _assemble(lams, res, fingerprint, engine)


def _assemble(lams, res, fingerprint, engine):
    order = np.lexsort((np.asarray(lams).imag, np.asarray(lams).real))
    lams = np.asarray(lams)[order]
    res = np.asarray(res, dtype=float)[order]
    return SpectrumResult(
        eigenvalues=tuple(complex(v) for v in lams),
        residuals=tuple(float(r) for r in res),
        source_fingerprint=fingerprint,
        engine=engine,
    )


def eigenvalues_of(op, **kwargs):
    """Spectrum of a TruncatedOperator (fingerprint taken from the matrix)."""
    return eigenvalues(op.matrix, **kwargs)
