"""Dense complex non-Hermitian eigensolver with residual diagnostics.

The reference path first splits the matrix into the diagonal blocks it
decouples into exactly: the connected components of the nonzero pattern
of A + A^T.  A symbol even in x, such as x^2 + xi^2 + i*eps*x^4, gives a
Fock matrix with no entry between even and odd states, so it splits into
its two parity blocks.  The pattern is connected, and nothing is
labelled, when every sub- or superdiagonal link is nonzero (the circle
matrices and dense input).  Each block gets its own Schur form and shift
budget, and the blocks' Q_i and T_i are put back in place, so A = Q T Q^H
holds for the whole matrix; a connected matrix goes to the Schur form as
it is.

Each block is reduced to upper Hessenberg form with Householder
reflections (skipping columns already zero below the subdiagonal, so a
tridiagonal matrix is left as it is), then goes through shifted QR with
deflation of subdiagonals below 1e-14 * (|h_kk| + |h_k+1,k+1|), always on
the lowest unreduced window [lo, hi], in the two-part design of Braman,
Byers & Mathias (SIAM J. Matrix Anal. Appl. 23(4), 2002, Parts I and II):

* A window of at most MULTISHIFT_MIN rows goes to Schur form in one go,
  on a copy, by explicitly shifted single-shift QR sweeps (Wilkinson
  shift, and an exceptional shift every EXCEPTIONAL_EVERY-th sweep
  without a deflation at the bottom).  Each Givens rotation is one 2x2
  product on a row pair and one on a column pair; the rest of H and Q^T
  take the window's accumulated unitary as matrix products.
* A larger window first tries aggressive early deflation (Part II) on its
  trailing ns = min(MAX_SHIFTS, size // ROWS_PER_SHIFT) rows: the
  trailing block's Schur form (by the single-shift QR above) turns the
  one subdiagonal entry that couples it into a spike, and each
  eigenvalue whose spike entry is negligible deflates at once.  When at
  least NIBBLE of the block deflated, the next window is taken at once.
  Otherwise the undeflated eigenvalues are the shifts of a small-bulge
  multishift sweep (Part I): one single-shift bulge per shift, the
  bulges BULGE_SPACING rows apart, the whole chain moving one row per
  step as one batched 2x2 product on strided views of the row and column
  pairs.  The steps go in chunks of CHUNK_STEPS that rotate only the
  diagonal block their bulges touch, and the rest of H and Q^T take each
  chunk's rotations as three matrix products.
* Every EXCEPTIONAL_EVERY-th multishift sweep without a deflation at the
  bottom chases one bulge with an exceptional shift instead.

Only unitary transformations (reflections and Givens rotations) touch H
and Q, and they are accumulated so a Schur factorization A = Q T Q^H is
available for the backward-error estimate.  No platform eigenroutine is
called.

``engine="numpy"`` substitutes the platform routine behind the same
contract; downstream code only sees SpectrumResult.  It solves the whole
matrix without the split, so it stays a reference that does not depend
on the block detection.
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
CHUNK_STEPS = 16  # chain steps chased inside one diagonal window
NIBBLE = 0.14  # early deflation of this share of its window skips the sweep


@dataclass(frozen=True)
class SpectrumResult:
    """Eigenvalues sorted by (Re, Im) ascending, with residuals.

    Engine "qr": every entry carries the Schur backward-error estimate
    ||Q T Q^H - M||_F / ||M||_F.  Engine "numpy": residuals[i] =
    ||M v_i - lambda_i v_i||_2 / ||M||_F for its unit eigenvector v_i.
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


def _reflector(x):
    """Unit v with (I - 2 v v^H) x a multiple of e_1, for x != 0."""
    v = x.copy()
    phase = v[0] / abs(v[0]) if v[0] != 0 else 1.0
    v[0] += phase * np.linalg.norm(x)
    return v / np.linalg.norm(v)


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
        v = _reflector(h[k + 1:, k])
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
    """G = [[conj c, conj s], [-s, c]] and r >= 0 with G @ [a, b] = [r, 0]."""
    r = math.hypot(abs(a), abs(b))
    if r == 0.0:
        return np.eye(2, dtype=complex), 0.0
    c, s = a / r, b / r
    return np.array([[c.conjugate(), s.conjugate()], [-s, c]]), r


def _rotate_pair(h, u, k, g, start, row_stop):
    """The similarity G H G^H on rows and columns k, k+1 of H.

    Rows k, k+1 are rotated from column start on, columns k, k+1 above
    row_stop, and u, which collects the transformations the way Q^T's
    rows take them, gets conj(G) on its rows k, k+1.
    """
    h[k:k + 2, start:] = g @ h[k:k + 2, start:]
    h[:row_stop, k:k + 2] = h[:row_stop, k:k + 2] @ g.conj().T
    u[k:k + 2] = g.conj() @ u[k:k + 2]


def _apply_window(h, qt, a, b, u):
    """Carry the rotations u collected on the window [a, b] to the rest.

    The window's rows to its right take conj(u), its columns above it u^T
    (the inverse, conj(u)^H), and Q^T's rows a..b take u, each as one
    matrix product.
    """
    h[a:b + 1, b + 1:] = u.conj() @ h[a:b + 1, b + 1:]
    h[:a, a:b + 1] = h[:a, a:b + 1] @ u.T
    qt[a:b + 1] = u @ qt[a:b + 1]


def _qr_sweep(h, u, lo, hi, mu):
    """One explicitly shifted QR step H - mu = QR, H <- RQ + mu on [lo, hi].

    H is the whole matrix of a window; u collects the rotations.
    """
    idx = np.arange(lo, hi + 1)
    h[idx, idx] -= mu
    rots = []
    for k in range(lo, hi):
        g, r = _givens(complex(h[k, k]), complex(h[k + 1, k]))
        h[k:k + 2, k + 1:] = g @ h[k:k + 2, k + 1:]
        h[k, k] = r
        h[k + 1, k] = 0.0
        rots.append(g.conj())
    for k, gc in enumerate(rots, lo):
        stop = min(k + 2, hi) + 1
        h[:stop, k:k + 2] = h[:stop, k:k + 2] @ gc.T
        u[k:k + 2] = gc @ u[k:k + 2]
    h[idx, idx] += mu


def _pairs(x, nb):
    """(nb, 2, columns) view of the row pairs (0, 1), (3, 4), ... of x.

    One batched 2x2 product on the view rotates every pair; the column
    pairs of a matrix are the row pairs of its transpose.
    """
    rs, cs = x.strides
    return np.lib.stride_tricks.as_strided(
        x, (nb, 2, x.shape[1]), (BULGE_SPACING * rs, rs, cs))


def _chain_step(h, u, lo, hi, pmin, pmax, mu, a=0):
    """Move every bulge at rows pmin, pmin+3, ..., pmax down by one row.

    A bulge at row p > lo is the entry H[p+1, p-1]; its rotation on rows
    (p, p+1) zeroes it, and the matching column rotation refills it one row
    lower.  When mu is given, the bulge at pmin == lo is introduced instead,
    from the first column of H - mu.  Bulges three rows apart touch
    disjoint row pairs and column pairs and read entries the others leave
    alone, so all rotations are computed first and applied as one batched
    2x2 product on strided views: the same result, up to rounding, as
    chasing the bulges one by one from the lowest up.

    The rotations reach only the window [a, b] of H, b = a + len(u) - 1,
    and u collects them on its rows p - a, p + 1 - a; with a = 0 and
    u = Q^T the step covers the whole matrix.
    """
    b = a + u.shape[0] - 1
    nb = (pmax - pmin) // BULGE_SPACING + 1
    rows = np.arange(pmin, pmax + 1, BULGE_SPACING)
    cols = rows - 1
    if mu is not None:
        cols[0] = lo
    x = h[rows, cols]
    y = h[rows + 1, cols]
    if mu is not None:
        x[0] -= mu
    r = np.hypot(np.abs(x), np.abs(y))
    safe = np.where(r > 0.0, r, 1.0)
    c = np.where(r > 0.0, x / safe, 1.0)
    s = y / safe
    gc = np.empty((nb, 2, 2), dtype=complex)  # conj(G) of every bulge
    gc[:, 0, 0] = c
    gc[:, 0, 1] = s
    gc[:, 1, 0] = -s.conj()
    gc[:, 1, 1] = c.conj()
    view = _pairs(h[pmin:, pmin:b + 1], nb)
    view[...] = gc.conj() @ view
    if mu is not None:
        rows, cols, r = rows[1:], cols[1:], r[1:]
    h[rows, cols] = r
    h[rows + 1, cols] = 0.0
    row_stop = min(pmax + 2, hi) + 1
    view = _pairs(h[a:row_stop, pmin:].T, nb)  # (H G^H)^T = conj(G) H^T
    view[...] = gc @ view
    view = _pairs(u[pmin - a:], nb)
    view[...] = gc @ view


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


def _multishift_sweep(h, qt, lo, hi, shifts):
    """Chase one single-shift bulge per shift through the window [lo, hi].

    The steps go in chunks of CHUNK_STEPS.  A chunk rotates only the
    diagonal block [a, b] its bulges touch, collecting the rotations in a
    small unitary u, and the rest of H and Q^T take u as matrix products.
    """
    steps = list(_chain_steps(lo, hi, len(shifts)))
    for i in range(0, len(steps), CHUNK_STEPS):
        chunk = steps[i:i + CHUNK_STEPS]
        a = min(pmin for pmin, _, _ in chunk)
        b = min(max(pmax for _, pmax, _ in chunk) + 2, hi)
        u = np.eye(b - a + 1, dtype=complex)
        for pmin, pmax, entering in chunk:
            mu = None if entering is None else shifts[entering]
            _chain_step(h, u, lo, hi, pmin, pmax, mu, a)
        _apply_window(h, qt, a, b, u)


def _triangularize_2x2(h, u, lo):
    a, b = complex(h[lo, lo]), complex(h[lo, lo + 1])
    c, d = complex(h[lo + 1, lo]), complex(h[lo + 1, lo + 1])
    if c == 0:
        return
    s = (a - d) / 2.0
    r = cmath.sqrt(s * s + b * c)
    lam = d + s + r if abs(s + r) >= abs(s - r) else d + s - r
    u1 = (b, lam - a)
    u2 = (lam - d, c)
    v = u1 if math.hypot(abs(u1[0]), abs(u1[1])) \
        >= math.hypot(abs(u2[0]), abs(u2[1])) else u2
    g, _ = _givens(*v)
    _rotate_pair(h, u, lo, g, lo, lo + 2)
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


class _OutOfShifts(Exception):
    """The shift budget ran out inside a window's Schur form."""


def _small_schur(h, budget):
    """Schur form of a small Hessenberg matrix in place, by single-shift QR.

    Each sweep takes a Wilkinson shift, and every EXCEPTIONAL_EVERY-th
    sweep without a deflation at the bottom an exceptional one.  Returns
    u, the rotations collected as Q^T's rows take them (H on entry is
    u^T T conj(u)), and the number of shifts spent; raises _OutOfShifts
    rather than spend more than budget.
    """
    u = np.eye(h.shape[0], dtype=complex)
    spent = 0
    hi = h.shape[0] - 1
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
            _triangularize_2x2(h, u, lo)
            hi = lo - 1
            continue
        if spent >= budget:
            raise _OutOfShifts
        since_move += 1
        if since_move % EXCEPTIONAL_EVERY == 0:
            mu = h[hi, hi] + 0.75 * abs(h[hi, hi - 1])
        else:
            mu = _wilkinson_shift(h, hi)
        _qr_sweep(h, u, lo, hi, mu)
        spent += 1
    return u, spent


def _swap(t, u, k):
    """Exchange the diagonal entries k, k+1 of the triangular T in place.

    The rotation G takes the eigenvector (T[k, k+1], T[k+1, k+1] - T[k, k])
    of T[k+1, k+1] to a multiple of e_k, so G T G^H stays triangular with
    the two entries exchanged; u collects conj(G) on its rows.
    """
    t11, t22 = t[k, k], t[k + 1, k + 1]
    g, _ = _givens(complex(t[k, k + 1]), complex(t22 - t11))
    _rotate_pair(t, u, k, g, k, k + 2)
    t[k, k], t[k + 1, k + 1] = t22, t11
    t[k + 1, k] = 0.0


def _early_deflation(h, qt, lo, hi, nw, budget):
    """Aggressive early deflation on the trailing nw rows of [lo, hi].

    The window W = H[kw:, kw:], kw = hi - nw + 1, goes to Schur form
    T = U W U^H, which turns the one entry s = H[kw, kw-1] of column kw-1
    into the spike s * U[:, 0].  From the bottom up, an eigenvalue whose
    spike entry is at most DEFLATION_TOL * |T[i, i]| deflates where it
    is; any other is moved up by adjacent swaps, above those kept before
    it.  When some deflated, the spike is cut to the undeflated rows, one
    Householder reflection takes it to a multiple of e_1, _hessenberg
    restores the undeflated block, and the window's transformation
    reaches the rest of H and Q^T by products.  When none deflated, H is
    left as it was.

    Returns the number deflated, the undeflated eigenvalues (the next
    sweep's shifts) and the shifts the window's Schur form spent.
    """
    kw = hi - nw + 1
    s = complex(h[kw, kw - 1])
    t = h[kw:hi + 1, kw:hi + 1].copy()
    u, spent = _small_schur(t, budget)
    # rows [0, top) hold the undeflatable eigenvalues moved up so far,
    # [top, keep) those still to test, [keep, nw) the deflated ones
    keep = nw
    top = 0
    while top < keep:
        i = keep - 1
        if abs(s * u[i, 0]) <= DEFLATION_TOL * abs(t[i, i]):
            keep -= 1
            continue
        for k in range(i - 1, top - 1, -1):
            _swap(t, u, k)
        top += 1
    shifts = np.diagonal(t)[:keep].copy()
    if keep == nw:
        return 0, shifts, spent
    if keep > 1:
        v = _reflector(s * u[:keep, 0].conj())
        t[:keep] -= 2.0 * np.outer(v, v.conj() @ t[:keep])
        t[:, :keep] -= 2.0 * np.outer(t[:, :keep] @ v, v.conj())
        u[:keep] -= 2.0 * np.outer(v.conj(), v @ u[:keep])
        block, qb = _hessenberg(t[:keep, :keep])
        t[:keep, :keep] = block
        t[:keep, keep:] = qb.conj() @ t[:keep, keep:]
        u[:keep] = qb @ u[:keep]
    h[kw:hi + 1, kw:hi + 1] = t
    h[kw, kw - 1] = s * u[0, 0].conjugate() if keep else 0.0
    _apply_window(h, qt, kw, hi, u)
    return nw - keep, shifts, spent


def _schur(a, max_iter_factor=MAX_ITER_FACTOR):
    """Complex Schur form A = Q T Q^H by shifted QR on the Hessenberg form.

    The budget max_iter_factor * n counts shifts: a single-shift sweep
    spends one, also inside an early-deflation block, and a multishift
    sweep one per bulge.
    """
    h, qt = _hessenberg(a)
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
        lo = _split_point(h, hi)
        if lo == hi:
            hi -= 1
            continue
        size = hi - lo + 1
        try:
            if size <= MULTISHIFT_MIN:
                block = h[lo:hi + 1, lo:hi + 1].copy()
                u, spent = _small_schur(block, budget - total)
                h[lo:hi + 1, lo:hi + 1] = block
                _apply_window(h, qt, lo, hi, u)
                total += spent
                hi = lo - 1
                continue
            if total >= budget:
                raise _OutOfShifts
            ns = min(MAX_SHIFTS, size // ROWS_PER_SHIFT)
            deflated, shifts, spent = _early_deflation(h, qt, lo, hi, ns,
                                                       budget - total)
        except _OutOfShifts:
            raise SolverError(
                f"QR iteration did not converge within {budget} shifts",
                partial=h.copy()) from None
        total += spent
        if deflated >= NIBBLE * ns:
            continue
        since_move += 1
        if since_move % EXCEPTIONAL_EVERY == 0:
            shifts = [h[hi, hi] + 0.75 * abs(h[hi, hi - 1])]
        _multishift_sweep(h, qt, lo, hi, shifts)
        total += len(shifts)
    return h, qt.T


def _blocks(a):
    """Index arrays of the diagonal blocks A splits into exactly.

    They are the connected components of the nonzero pattern of A + A^T,
    each in ascending order, the components ordered by their least index.
    When every sub- or superdiagonal link is nonzero the pattern is
    connected and nothing is labelled.  Otherwise every index takes the
    least label of the indices it is linked to, in either direction,
    until no label moves; each component is then labelled by its least
    index.
    """
    n = a.shape[0]
    if ((np.diagonal(a, -1) != 0) | (np.diagonal(a, 1) != 0)).all():
        return [np.arange(n)]
    rows, cols = np.nonzero(a)
    label = np.arange(n)
    while True:
        reached = label.copy()
        np.minimum.at(reached, rows, label[cols])
        np.minimum.at(reached, cols, label[rows])
        if np.array_equal(reached, label):
            break
        label = reached
    return [np.flatnonzero(label == root)
            for root in np.flatnonzero(label == np.arange(n))]


def eigenvalues(m, engine="qr", max_iter_factor=MAX_ITER_FACTOR):
    """All eigenvalues of a square complex matrix, as a SpectrumResult.

    Parameters
    ----------
    m : array_like, square, finite entries
    engine : "qr" (in-house reference) or "numpy" (platform adapter)
    max_iter_factor : the QR budget of a block of n_i rows is
        max_iter_factor * n_i shifts
    """
    if engine not in ("qr", "numpy"):
        raise ConfigError(f"unknown engine {engine!r}")
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

    blocks = _blocks(a)
    if len(blocks) == 1:
        # Handed over as it is: gathering a connected matrix into a copy
        # and scattering its factors back raised the median peak RSS of
        # the benchmark's convergence workload from 53.2 to 54.6 MB.
        t, q = _schur(a, max_iter_factor=max_iter_factor)
    else:
        t = np.zeros_like(a)
        q = np.zeros_like(a)
        for idx in blocks:
            block = np.ix_(idx, idx)
            t[block], q[block] = _schur(a[block],
                                        max_iter_factor=max_iter_factor)
    # Copied before the n x n temporaries below: copied after them, the
    # peak RSS of running the N=24..132 circle scan three times in one
    # process, keeping every result, rose by 0.5 MB.
    lams = np.diag(t).copy()
    backward = np.linalg.norm(q @ t @ q.conj().T - a, ord="fro") / norm
    return _assemble(lams, np.full(a.shape[0], backward), fingerprint, engine)


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
