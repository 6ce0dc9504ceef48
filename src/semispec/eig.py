"""Dense complex non-Hermitian eigensolver with residual diagnostics.

Both engines solve scale * A, scale = 2**-e with e the binary exponent
of max |a_ij|: an exact scaling that keeps the norm and the shifts clear
of under- and overflow, undone on the eigenvalues.

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

* Every window goes through aggressive early deflation (Part II) on its
  trailing nw rows: the whole window when it has at most MULTISHIFT_MIN
  (100) rows, a size up to which single-shift sweeps alone beat the
  multishift path, else nw = DEFLATION_WINDOW (48).  The block goes to
  Schur form on a copy by single-shift QR sweeps (Wilkinson shift, an
  exceptional one every EXCEPTIONAL_EVERY-th sweep without a deflation
  at the bottom), each one np.linalg.qr of the unreduced block minus the
  shift and three products with its Q.  The Schur form turns the entry
  coupling the block to the rest of the window into a spike, and the
  eigenvalues below its last non-negligible entry deflate at once.  A
  whole window has no coupling entry and deflates completely.  Each
  spike entry is tested as its row converges at the bottom of the
  block; at the first row that cannot deflate, the count is known, and
  when it is at least NIBBLE of the block the Schur form stops there.
* When less than NIBBLE of a larger window's block deflated, its
  undeflated eigenvalues are the shifts of a small-bulge multishift
  sweep (Part I) over the rows that did not deflate, [lo, hi - deflated]:
  one single-shift bulge per shift, the bulges BULGE_SPACING rows apart,
  the whole chain moving one row per step as one batched 2x2 rotation
  product on strided views of the row and column pairs of H and the rows
  of Q^T.  Every EXCEPTIONAL_EVERY-th such sweep without a deflation at
  the bottom chases one bulge with an exceptional shift instead.  The
  circle matrices, whose eigenvectors are localized in the Fourier
  index, rarely get here (FIG1 at eps 0.1 first at N=132, dim 265);
  dense input with no such structure does.

Only unitary transformations (reflections, QR factors and the chain's
rotations) touch H and Q, and they are accumulated so a Schur
factorization A = Q T Q^H is available for the backward-error estimate.
The sweeps call the platform QR factorization (np.linalg.qr), but no
platform eigenroutine is called.

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
# Windows of at most MULTISHIFT_MIN rows are finished whole by
# single-shift sweeps; larger ones take multishift sweeps.  The five
# figure matrices at N=66 and the FIG1 scan at N=24..132 (eps 0.1) took
# 504 / 348 / 404 ms and 1251 / 960 / 1047 ms at 40 / 100 / 120 (CPU
# time, min of 7, one BLAS thread, 2-CPU host): past 100 rows the windows
# inside dims 193 and 265 solve slower without the multishift path.
MULTISHIFT_MIN = 100
# Early-deflation window of the larger windows.  figure01 and figure03
# at N=66, the FIG1 scan at N=24..132 (eps 0.1) and random dense
# matrices of 120, 200 and 265 rows took 195 / 205 / 167 / 186 / 169 ms,
# 702 / 702 / 568 / 568 / 592 ms and 1453 / 1371 / 1456 / 1605 / 1842 ms
# at 32 / 40 / 48 / 64 / 80 rows (CPU time, min of 7 interleaved rounds,
# one BLAS thread, 2-CPU host).
DEFLATION_WINDOW = 48
BULGE_SPACING = 3  # the least spacing that keeps bulges independent
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


def _hessenberg(a, scale=1.0):
    """Unitary reduction scale * A = Q H Q^H, H Hessenberg; returns H, Q^T.

    The factor is taken in the one (row-major) copy of A made here.  A
    column already zero below the subdiagonal needs no reflector, so a
    tridiagonal or banded input keeps its entries exactly.
    """
    h = np.multiply(a, scale, dtype=complex, order="C")
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


def _apply_window(h, qt, a, b, u):
    """Carry the unitary u collected on the window [a, b] to the rest.

    The window's rows to its right take conj(u), its columns above it u^T
    (the inverse, conj(u)^H), and Q^T's rows a..b take u, each as one
    matrix product.
    """
    h[a:b + 1, b + 1:] = u.conj() @ h[a:b + 1, b + 1:]
    h[:a, a:b + 1] = h[:a, a:b + 1] @ u.T
    qt[a:b + 1] = u @ qt[a:b + 1]


def _qr_sweep(h, u, lo, hi, mu):
    """One explicitly shifted QR step H - mu = QR, H <- RQ + mu on [lo, hi].

    H is the whole matrix of a window, and u collects the step the way
    Q^T's rows take it.  The step is one Householder QR factorization of
    the window's block, whose Q^T _apply_window carries to the rest: Q^H
    on the rows to its right, Q on the columns above it and Q^T on u's
    rows.  RQ is Hessenberg in exact arithmetic; whatever the
    factorization leaves below its subdiagonal is set to exact zero.  A
    Givens step differs from this one only by a diagonal unitary
    similarity, which leaves the diagonal and every |h_ij|, and so each
    deflation test, as they are.
    """
    w = slice(lo, hi + 1)
    shift = mu * np.eye(hi - lo + 1)
    q, r = np.linalg.qr(h[w, w] - shift)
    h[w, w] = np.triu(r @ q, -1) + shift
    _apply_window(h, u, lo, hi, q.T)


def _pairs(x, nb):
    """(nb, 2, columns) view of the row pairs (0, 1), (3, 4), ... of x.

    One batched 2x2 product on the view rotates every pair; the column
    pairs of a matrix are the row pairs of its transpose.
    """
    rs, cs = x.strides
    return np.lib.stride_tricks.as_strided(
        x, (nb, 2, x.shape[1]), (BULGE_SPACING * rs, rs, cs))


def _chain_step(h, qt, lo, hi, pmin, pmax, mu):
    """Move every bulge at rows pmin, pmin+3, ..., pmax down by one row.

    A bulge at row p > lo is the entry H[p+1, p-1]; its rotation on rows
    (p, p+1) zeroes it, and the matching column rotation refills it one row
    lower.  When mu is given, the bulge at pmin == lo is introduced instead,
    from the first column of H - mu.  Bulges three rows apart touch
    disjoint row pairs and column pairs and read entries the others leave
    alone, so all rotations are computed first and applied as one batched
    2x2 product on strided views of H's rows, H's columns and Q^T's rows:
    the same result, up to rounding, as chasing the bulges one by one from
    the lowest up.
    """
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
    view = _pairs(h[pmin:, pmin:], nb)
    view[...] = gc.conj() @ view
    if mu is not None:
        rows, cols, r = rows[1:], cols[1:], r[1:]
    h[rows, cols] = r
    h[rows + 1, cols] = 0.0
    row_stop = min(pmax + 2, hi) + 1
    view = _pairs(h[:row_stop, pmin:].T, nb)  # (H G^H)^T = conj(G) H^T
    view[...] = gc @ view
    view = _pairs(qt[pmin:], nb)
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
    """Chase one single-shift bulge per shift through the window [lo, hi]."""
    for pmin, pmax, entering in _chain_steps(lo, hi, len(shifts)):
        mu = None if entering is None else shifts[entering]
        _chain_step(h, qt, lo, hi, pmin, pmax, mu)


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


def _small_schur(h, budget, s=0j):
    """Schur form of a small Hessenberg matrix in place, by single-shift QR.

    Each sweep (_qr_sweep, one QR factorization of the unreduced block)
    takes a Wilkinson shift, and every EXCEPTIONAL_EVERY-th sweep without
    a deflation at the bottom an exceptional one.  A 2 x 2 block takes
    one sweep: its Wilkinson shift is an eigenvalue of the block, so the
    next split test zeroes its subdiagonal.  Returns u, the
    transformations collected as Q^T's rows take them (H on entry is
    u^T T conj(u)), and the number of shifts spent; raises _OutOfShifts
    rather than spend more than budget.

    s is the entry coupling H to the rest of its window (0 when there is
    none).  Each row's spike entry s * u[i, 0] is tested as the row
    converges at the bottom, when later sweeps no longer touch its rows
    of T and u.  At the first row that cannot deflate (_spiky), the
    deflation count is known; when it is at least NIBBLE of the rows, no
    sweep needs the undeflated eigenvalues, and the form stops there
    with the rows above still Hessenberg.
    """
    n = h.shape[0]
    u = np.eye(n, dtype=complex)
    spent = 0
    hi = n - 1
    since_move = 0
    undecided = True
    while hi > 0:
        lo = _split_point(h, hi)
        if lo == hi:
            if undecided and _spiky(s, u[hi, 0], h[hi, hi]):
                if n - 1 - hi >= NIBBLE * n:
                    break
                undecided = False
            hi -= 1
            since_move = 0
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


def _spiky(s, u0, d):
    """Whether the spike entry s * u0 of the eigenvalue d exceeds
    DEFLATION_TOL * |d|, so that d cannot deflate."""
    return abs(s * u0) > DEFLATION_TOL * abs(d)


def _early_deflation(h, qt, lo, hi, nw, budget):
    """Aggressive early deflation on the trailing nw rows of [lo, hi].

    The block W = H[kw:, kw:], kw = hi - nw + 1, goes to Schur form
    T = U W U^H, which turns the entry s = H[kw, kw-1] coupling it to the
    rest of the window into the spike s * U[:, 0]; a whole window
    (kw == lo) has s = 0.  Every eigenvalue below the last one whose
    spike entry exceeds DEFLATION_TOL * |T[i, i]| deflates where it is.
    When some deflated, the spike is cut to the undeflated rows, one
    Householder reflection takes it to a multiple of e_1, _hessenberg
    restores the undeflated block, and the block's transformation
    reaches the rest of H and Q^T by products.  When none deflated, H is
    left as it was.

    When at least NIBBLE * nw rows deflate, _small_schur stops at the
    lowest row that cannot: the rows below it are those of the full
    Schur form, bit for bit, and the block above it is a unitary
    similarity of the full form's, which the reflection and _hessenberg
    treat alike.

    Returns the number deflated, the diagonal of the undeflated block
    and the shifts the window's Schur form spent.  When fewer than
    NIBBLE * nw rows deflated, that diagonal holds the block's
    eigenvalues in Schur order, the next sweep's shifts; otherwise no
    sweep reads it.
    """
    kw = hi - nw + 1
    s = complex(h[kw, kw - 1]) if kw > lo else 0j
    t = h[kw:hi + 1, kw:hi + 1].copy()
    u, spent = _small_schur(t, budget, s)
    keep = nw
    while keep and not _spiky(s, u[keep - 1, 0], t[keep - 1, keep - 1]):
        keep -= 1
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
        _apply_window(t, u, 0, keep - 1, qb)
    h[kw:hi + 1, kw:hi + 1] = t
    if kw > lo:
        h[kw, kw - 1] = s * u[0, 0].conjugate() if keep else 0.0
    _apply_window(h, qt, kw, hi, u)
    return nw - keep, shifts, spent


def _schur(a, scale=1.0):
    """Complex Schur form scale * A = Q T Q^H by shifted QR on Hessenberg H.

    Every window goes to _early_deflation.  The budget MAX_ITER_FACTOR * n
    counts shifts: a single-shift sweep spends one, and a multishift
    sweep one per bulge.
    """
    h, qt = _hessenberg(a, scale)
    n = h.shape[0]
    budget = MAX_ITER_FACTOR * n
    total = 0
    hi = n - 1
    since_move = 0
    while hi > 0:
        lo = _split_point(h, hi)
        if lo == hi:
            hi -= 1
            since_move = 0
            continue
        size = hi - lo + 1
        nw = size if size <= MULTISHIFT_MIN else DEFLATION_WINDOW
        try:
            deflated, shifts, spent = _early_deflation(h, qt, lo, hi, nw,
                                                       budget - total)
        except _OutOfShifts:
            raise SolverError(
                f"QR iteration did not converge within {budget} shifts",
                partial=h / scale) from None
        total += spent
        if deflated == size:
            hi = lo - 1
            since_move = 0
            continue
        if deflated >= NIBBLE * nw:
            continue
        if deflated:
            # the sweep leaves the rows that just deflated alone
            hi -= deflated
            since_move = 0
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


def eigenvalues(m, engine="qr"):
    """All eigenvalues of a square complex matrix, as a SpectrumResult.

    Parameters
    ----------
    m : array_like, square, finite entries
    engine : "qr" (in-house reference) or "numpy" (platform adapter)

    The QR budget of a block of n_i rows is MAX_ITER_FACTOR * n_i shifts.
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
    # Both engines solve scale * A, scale = 2**-e exactly, e the binary
    # exponent of max |a_ij| clipped to the normal range, so that neither
    # the norm nor the shifts under- or overflow.
    info = np.finfo(float)
    e = math.frexp(np.abs(a).max())[1]
    scale = 2.0 ** -min(max(e, info.minexp), info.maxexp - 1)
    norm = np.linalg.norm(scale * a, ord="fro")
    if norm == 0.0:
        lams = np.zeros(a.shape[0], dtype=complex)
        return _assemble(lams, np.zeros(a.shape[0]), fingerprint, engine)

    if engine == "numpy":
        lams, vecs = np.linalg.eig(scale * a)
        res = np.linalg.norm(scale * a @ vecs - vecs * lams[None, :],
                             axis=0) / norm
        return _assemble(lams / scale, res, fingerprint, engine)

    blocks = _blocks(a)
    if len(blocks) == 1:
        # Handed over as it is, the factor taken in the copy _hessenberg
        # makes: gathering a connected matrix into a copy and scattering
        # its factors back raised the median peak RSS of the benchmark's
        # convergence workload from 53.2 to 54.6 MB.
        t, q = _schur(a, scale=scale)
    else:
        t = np.zeros_like(a)
        q = np.zeros_like(a)
        for idx in blocks:
            block = np.ix_(idx, idx)
            t[block], q[block] = _schur(a[block], scale=scale)
    # Taken out before the n x n temporaries below: copied after them, the
    # peak RSS of running the N=24..132 circle scan three times in one
    # process, keeping every result, rose by 0.5 MB.
    lams = np.diag(t) / scale
    backward = np.linalg.norm(q @ t @ q.conj().T - scale * a,
                              ord="fro") / norm
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
