"""Dense complex non-Hermitian eigensolver with residual diagnostics.

The reference path reduces to upper Hessenberg form with Householder
reflections (skipping columns already zero below the subdiagonal, so a
tridiagonal matrix is left as it is), then runs shifted QR with deflation
of subdiagonals below 1e-14 * (|h_kk| + |h_k+1,k+1|), always on the
lowest unreduced window [lo, hi]:

* A window of more than MULTISHIFT_MIN rows takes a small-bulge
  multishift sweep (Braman, Byers & Mathias, SIAM J. Matrix Anal. Appl.
  23(4), 2002): about one shift per ROWS_PER_SHIFT rows, at most
  MAX_SHIFTS, taken as the eigenvalues of the trailing block of that size
  (``numpy.linalg.eigvals``; the shifts only steer convergence).  Each
  shift drives one single-shift bulge; the bulges enter BULGE_SPACING rows
  apart and the whole chain moves one row per step as one batch of
  elementwise Givens rotations on strided views of H and Q^T.
* A smaller window takes an explicitly shifted single-shift QR sweep
  (Wilkinson shift), one scalar Givens rotation at a time.
* Every EXCEPTIONAL_EVERY-th sweep without a deflation at the bottom is a
  single-shift sweep with an exceptional shift.

Only unitary transformations (the reflections, then Givens rotations)
touch H and Q, and they are accumulated so a Schur factorization
A = Q T Q^H is available for the backward-error estimate and for
eigenvectors.

``engine="numpy"`` substitutes the platform routine behind the same
contract; downstream code only sees SpectrumResult.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DomainError, SolverError
from .operators import matrix_fingerprint

DEFLATION_TOL = 1e-14
MAX_ITER_FACTOR = 40
EXCEPTIONAL_EVERY = 10
MULTISHIFT_MIN = 40  # larger windows take multishift sweeps
ROWS_PER_SHIFT = 8
MAX_SHIFTS = 32
BULGE_SPACING = 3  # the least spacing that keeps bulges independent


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
    """Unitary reduction A = Q H Q^H with H upper Hessenberg; returns H, Q^T.

    A column already zero below the subdiagonal needs no reflector, so a
    tridiagonal or banded input keeps its entries exactly.
    """
    h = a.astype(complex).copy()
    n = h.shape[0]
    qt = np.eye(n, dtype=complex)
    for k in range(n - 2):
        if not h[k + 2:, k].any():
            continue
        col = h[k + 1:, k]
        norm = np.linalg.norm(col)
        v = col.copy()
        pivot = v[0]
        phase = pivot / abs(pivot) if pivot != 0 else 1.0
        v[0] += phase * norm
        v /= np.linalg.norm(v)
        h[k + 1:, k:] -= 2.0 * np.outer(v, v.conj() @ h[k + 1:, k:])
        h[:, k + 1:] -= 2.0 * np.outer(h[:, k + 1:] @ v, v.conj())
        qt[k + 1:] -= 2.0 * np.outer(v.conj(), v @ qt[k + 1:])
        h[k + 2:, k] = 0.0
    return h, qt


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


def _givens(a, b):
    """c, s, r with [[conj c, conj s], [-s, c]] @ [a, b] = [r, 0], r >= 0."""
    r = math.hypot(abs(a), abs(b))
    if r == 0.0:
        return 1.0 + 0j, 0j, 0.0
    return a / r, b / r, r


def _rotate(x, y, c, s, cb, sb, work):
    """(x, y) <- (c x + s y, cb y - sb x) in place, with cb, sb = conj(c, s).

    c and s broadcast against the equal-shape views x and y (rows of H or
    of Q^T, or columns of H); work supplies two scratch arrays of x's size
    so a step allocates nothing in proportion to the matrix.
    """
    t = work[0, :x.size].reshape(x.shape)
    u = work[1, :x.size].reshape(x.shape)
    np.multiply(x, sb, out=u)
    x *= c
    np.multiply(y, s, out=t)
    x += t
    y *= cb
    y -= u


def _rotate_rows(h, k, c, s, start, work):
    """Rows k, k+1 of H from column start on, by [[conj c, conj s], [-s, c]]."""
    cb, sb = c.conjugate(), s.conjugate()
    _rotate(h[k, start:], h[k + 1, start:], cb, sb, c, s, work)


def _rotate_cols(h, qt, k, c, s, row_stop, work):
    """Columns k, k+1 of H (rows below row_stop) and of Q, by the inverse."""
    cb, sb = c.conjugate(), s.conjugate()
    _rotate(h[:row_stop, k], h[:row_stop, k + 1], c, s, cb, sb, work)
    _rotate(qt[k], qt[k + 1], c, s, cb, sb, work)


def _qr_sweep(h, qt, lo, hi, mu, work):
    """One explicitly shifted QR step H - mu = QR, H <- RQ + mu on the window."""
    idx = np.arange(lo, hi + 1)
    h[idx, idx] -= mu
    rots = []
    for k in range(lo, hi):
        c, s, r = _givens(complex(h[k, k]), complex(h[k + 1, k]))
        _rotate_rows(h, k, c, s, k + 1, work)
        h[k, k] = r
        h[k + 1, k] = 0.0
        rots.append((c, s))
    for k, (c, s) in enumerate(rots, lo):
        _rotate_cols(h, qt, k, c, s, min(k + 2, hi) + 1, work)
    h[idx, idx] += mu


def _chain_step(h, qt, lo, hi, pmin, pmax, mu, work):
    """Move every bulge at rows pmin, pmin+3, ..., pmax down by one row.

    A bulge at row p > lo is the entry H[p+1, p-1]; its rotation on rows
    (p, p+1) zeroes it, and the matching column rotation refills it one row
    lower.  When mu is given, the bulge at pmin == lo is introduced instead,
    from the first column of H - mu.  Bulges three rows apart touch
    disjoint row pairs and column pairs and read entries the others leave
    alone, so all rotations are computed first and applied as one batch of
    elementwise updates on strided views: the same result, up to rounding,
    as chasing the bulges one by one from the lowest up.
    """
    rows = np.arange(pmin, pmax + 1, BULGE_SPACING)
    cols = rows - 1
    if mu is not None:
        cols[0] = lo
    a = h[rows, cols]
    b = h[rows + 1, cols]
    if mu is not None:
        a[0] -= mu
    r = np.hypot(np.abs(a), np.abs(b))
    safe = np.where(r > 0.0, r, 1.0)
    c = np.where(r > 0.0, a / safe, 1.0)
    s = b / safe
    cb, sb = c.conj(), s.conj()
    top = slice(pmin, pmax + 1, BULGE_SPACING)
    bottom = slice(pmin + 1, pmax + 2, BULGE_SPACING)
    c1, s1, cb1, sb1 = c[:, None], s[:, None], cb[:, None], sb[:, None]
    _rotate(h[top, pmin:], h[bottom, pmin:], cb1, sb1, c1, s1, work)
    if mu is not None:
        rows, cols, r = rows[1:], cols[1:], r[1:]
    h[rows, cols] = r
    h[rows + 1, cols] = 0.0
    row_stop = min(pmax + 2, hi) + 1
    _rotate(h[:row_stop, top], h[:row_stop, bottom],
            c[None, :], s[None, :], cb[None, :], sb[None, :], work)
    _rotate(qt[top], qt[bottom], c1, s1, cb1, sb1, work)


def _chain_steps(lo, hi, ns):
    """(pmin, pmax, entering) for each step of ns bulges through [lo, hi].

    Bulge j enters at row lo on step BULGE_SPACING * j and leaves after
    reaching row hi - 1, so each step moves the whole chain by one row;
    entering is the index of the bulge introduced on that step, or None.
    """
    last = hi - lo - 1  # steps a bulge makes after entering
    for t in range(last + 1 + BULGE_SPACING * (ns - 1)):
        newest = min(ns - 1, t // BULGE_SPACING)
        oldest = max(0, -((last - t) // BULGE_SPACING))
        pmin = lo + t - BULGE_SPACING * newest
        pmax = lo + t - BULGE_SPACING * oldest
        yield pmin, pmax, newest if pmin == lo else None


def _multishift_sweep(h, qt, lo, hi, shifts, work):
    """Chase one single-shift bulge per shift through the window [lo, hi]."""
    for pmin, pmax, entering in _chain_steps(lo, hi, len(shifts)):
        mu = None if entering is None else shifts[entering]
        _chain_step(h, qt, lo, hi, pmin, pmax, mu, work)


def _triangularize_2x2(h, qt, lo, work):
    a, b = complex(h[lo, lo]), complex(h[lo, lo + 1])
    c, d = complex(h[lo + 1, lo]), complex(h[lo + 1, lo + 1])
    if c == 0:
        return
    s = (a - d) / 2.0
    r = cmath.sqrt(s * s + b * c)
    lam = d + s + r if abs(s + r) >= abs(s - r) else d + s - r
    u1 = (b, lam - a)
    u2 = (lam - d, c)
    u = u1 if math.hypot(abs(u1[0]), abs(u1[1])) \
        >= math.hypot(abs(u2[0]), abs(u2[1])) else u2
    gc, gs, _ = _givens(*u)
    _rotate_rows(h, lo, gc, gs, lo, work)
    _rotate_cols(h, qt, lo, gc, gs, lo + 2, work)
    h[lo + 1, lo] = 0.0


def _split_point(h, hi):
    """Largest lo <= hi with H[lo, lo-1] negligible (zeroed), else 0."""
    d = np.abs(np.diagonal(h)[:hi + 1])
    sub = np.abs(np.diagonal(h, -1)[:hi])
    hits = np.flatnonzero(sub <= DEFLATION_TOL * (d[:-1] + d[1:]))
    if hits.size == 0:
        return 0
    lo = int(hits[-1]) + 1
    h[lo, lo - 1] = 0.0
    return lo


def _schur(a, max_iter_factor=MAX_ITER_FACTOR):
    """Complex Schur form A = Q T Q^H by shifted QR on the Hessenberg form.

    The budget max_iter_factor * n counts shifts: a single-shift sweep
    spends one, a multishift sweep one per bulge.
    """
    h, qt = _hessenberg(a)
    n = h.shape[0]
    work = np.empty((2, MAX_SHIFTS * n), dtype=complex)
    budget = max_iter_factor * n
    total = 0
    hi = n - 1
    since_move = 0
    last_hi = hi
    while hi > 0:
        if hi != last_hi:
            since_move = 0
            last_hi = hi
        lo = _split_point(h, hi)
        if lo == hi:
            hi -= 1
            continue
        if hi - lo == 1:
            _triangularize_2x2(h, qt, lo, work)
            hi = lo - 1
            continue
        if total >= budget:
            raise SolverError(
                f"QR iteration did not converge within {budget} shifts",
                partial=h.copy())
        since_move += 1
        size = hi - lo + 1
        if since_move % EXCEPTIONAL_EVERY == 0:
            mu = h[hi, hi] + 0.75 * abs(h[hi, hi - 1])
        elif size > MULTISHIFT_MIN:
            ns = min(MAX_SHIFTS, size // ROWS_PER_SHIFT)
            block = h[hi - ns + 1:hi + 1, hi - ns + 1:hi + 1]
            _multishift_sweep(h, qt, lo, hi, np.linalg.eigvals(block), work)
            total += ns
            continue
        else:
            mu = _wilkinson_shift(h, hi)
        _qr_sweep(h, qt, lo, hi, mu, work)
        total += 1
    return h, qt.T


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
    max_iter_factor : the QR budget is max_iter_factor * n shifts
    """
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ConfigError(f"matrix must be square, got shape {a.shape}")
    if a.shape[0] < 1:
        raise ConfigError("matrix must have dimension >= 1")
    if not np.isfinite(a).all():
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
