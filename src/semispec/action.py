"""Complex action integrals and their Bohr-Sommerfeld inverses.

For a cylinder symbol p(theta, I) and a complex energy E near the
working window, the level set {p = E} is a graph I = l(theta, E),
sampled at M equispaced nodes theta_j.  The action of the level loop is
the trapezoid mean of the samples (spectral accuracy for periodic
analytic integrands),

    action(E) = (1/M) * sum_j l(theta_j, E),

and its derivative follows from implicit differentiation,

    d action / dE = (1/M) * sum_j 1 / (dp/dI)(theta_j, l_j).

Grid solve.  The loops of a batch of energies come from one vectorized
complex Newton on the whole (nodes x energies) grid, started at every
node from the energy's real seed, the real root of the unperturbed part.
Each step evaluates p and dp/dI together (value_and_dI), and the
Jacobian check reads dp/dI from the last evaluation.  The inversion
below runs the same Newton with a border row added.

Node count.  On a smooth periodic loop the Fourier coefficients c_k decay
geometrically, and the trapezoid error is the sum of the aliased
coefficients c_{jM} (Trefethen & Weideman, SIAM Review 56, 2014), far
below the largest coefficient at |k| >= M/4, the tail.  M starts at
DEFAULT_NODES = 128.  A loop whose tail exceeds the closure tolerance
1e-10 * (1 + max|I|) is solved again on the doubled grid, from its FFT
interpolation, up to MAX_NODES = 2048, while each doubling cuts the tail
by more than TAIL_DECAY.  A node that converged to another root of
p = E adds about |jump|/M at every frequency, so doubling only halves
that tail.  A loop whose Newton fails, whose tail falls that slowly, or
whose tail is still too large at MAX_NODES falls back to node-to-node
continuation from its node-0 start, whose wrap-around step back to
theta = 2*pi must land on node 0 within the closure tolerance.

Inverting E -> action(E) yields the eigenvalue generator g: predicted
spectra are g(hbar*k) on the circle and g(hbar*(k + 1/2)) on the line,
where the half-integer shift accounts for the turning points of closed
orbits on the real line.  For a target t, one Newton solves for the
loop and the energy together,

    p(theta_j, I_j) = E  for every node j,    (1/M) * sum_j I_j = t,

starting from the real seed nearest t: the grid solve's Newton with a
border.  Its Jacobian is diagonal in the loop with one border row and
column, so each step is closed-form and costs one fused evaluation of p
and dp/dI on the grid.  The converged loop passes the same tail check,
refinement (which moves E again on the doubled grid) and fallback as a
grid solve, and its mean must meet t within INVERSION_TOL.  invert_action
takes one target or an array of them, in blocks of
GRID_CELLS // DEFAULT_NODES = 32, which bounds the grid's working memory;
a converged target is frozen, so its result does not depend on the
other targets, up to rounding in the sums.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (ConfigError, CriticalLevelError, DegeneracyError,
                     DomainError, InversionError, LevelSetError)
from .operators import positive_hbar, read_only

DEFAULT_NODES = 128  # starting grid; an under-resolved loop doubles it
MAX_NODES = 2048
# Least factor by which doubling the nodes cuts the Fourier tail of a
# continuous loop: at worst a square-root branch point on the real
# theta-axis (the fold itself), whose coefficients decay like k^(-3/2).  A
# jump between branches decays like 1/k, and doubling only halves its tail.
TAIL_DECAY = 2.0 ** 1.5
NEWTON_TOL = 1e-12
NEWTON_MAX_ITER = 50
JACOBIAN_FLOOR = 1e-10
DERIVATIVE_FLOOR = 1e-10
LOOP_CLOSURE_TOL = 1e-10
INVERSION_TOL = 1e-11
GRID_CELLS = 4096  # nodes x targets per inversion block: bounds memory
# Most quantum numbers one predict_spectrum call spans.  A predict run at
# the budget takes about 5 s on a 2-CPU host (figure01's symbol at
# N = 62,000: 99,201 points per mode), while the largest matrices a Basis
# admits (circle N = 1024, Fock N = 2048) span about 1,640 at hbar = 1/N,
# so the budget never binds on a run that also solves its matrix.
MAX_TARGETS = 10 ** 5


def floquet_offset_value(offset):
    """The Floquet offset J as a float, if it can be quantized.

    The quantized action hbar*(k [+ 1/2]) - J is taken in doubles, so at
    |J| * u > INVERSION_TOL (|J| above about 4.5e4) the difference can no
    longer resolve the inversion tolerance: at J = 1e20 every point
    collapsed to one value.  Such an offset, and a non-finite one, raise
    ConfigError.
    """
    j = float(offset)
    if not math.isfinite(j):
        raise ConfigError(f"floquet offset must be finite, got {j!r}")
    if abs(j) * np.finfo(float).eps > INVERSION_TOL:
        raise ConfigError(
            f"floquet offset {j!r} is too large to quantize: "
            f"|J| * u exceeds the inversion tolerance {INVERSION_TOL}")
    return j


@dataclass(frozen=True)
class Rectangle:
    """Axis-aligned window in the complex plane (closed)."""

    re_min: float
    re_max: float
    im_min: float
    im_max: float

    def __post_init__(self):
        if not all(math.isfinite(v) for v in self.as_tuple()):
            raise ConfigError("rectangle bounds must be finite")
        if not (self.re_min < self.re_max and self.im_min < self.im_max):
            raise ConfigError("rectangle must be nonempty")

    def contains(self, z):
        """Whether z lies in the window, elementwise for an array."""
        z = np.asarray(z, dtype=complex)
        return ((self.re_min <= z.real) & (z.real <= self.re_max)
                & (self.im_min <= z.imag) & (z.imag <= self.im_max))

    def expanded(self, margin_re, margin_im):
        return Rectangle(self.re_min - margin_re, self.re_max + margin_re,
                         self.im_min - margin_im, self.im_max + margin_im)

    def as_tuple(self):
        return (self.re_min, self.re_max, self.im_min, self.im_max)


def _nodes(num_nodes):
    """The equispaced quadrature nodes theta_j = 2*pi*j/num_nodes."""
    return 2.0 * np.pi * np.arange(num_nodes) / num_nodes


@dataclass(frozen=True, eq=False, slots=True)
class QuantizationPrediction:
    """The predicted points: values[i] for the quantum number ks[i], k
    ascending, each field a read-only array (int and complex)."""

    rule: str  # "circle_k" | "line_maslov"
    mode: str  # "averaged_first_order" | "principal_exact"
    ks: np.ndarray
    values: np.ndarray
    hbar: float
    eps: float

    @property
    def points(self):
        """The (k, value) pairs, as Python ints and complexes."""
        return tuple(zip(self.ks.tolist(), self.values.tolist()))

    def to_csv(self):
        lines = ["k,re,im,rule,mode"]
        for k, lam in self.points:
            lines.append(f"{k},{lam.real!r},{lam.imag!r},{self.rule},{self.mode}")
        return "\n".join(lines) + "\n"

    def to_json_dict(self):
        return {
            "rule": self.rule,
            "mode": self.mode,
            "hbar": self.hbar,
            "eps": self.eps,
            "points": [{"k": k, "re": lam.real, "im": lam.imag}
                       for k, lam in self.points],
        }


class ActionMap:
    """Queryable complex action map for one cylinder symbol.

    The underlying evaluator is sym.cylinder_map(eps) of a CircleSymbol
    or a PlaneSymbol, the symbol at one eps.  Instances hold the cylinder
    and nothing else: the node counts are module constants, read at call
    time, and every query depends on its arguments alone, whatever was
    asked before, so concurrent queries are safe.  The query surface is
    solve_level_set, action_integral, action_derivative, invert_action
    and averaged_value.
    """

    __slots__ = ("cyl",)

    def __init__(self, cylinder):
        self.cyl = cylinder

    @property
    def eps(self):
        return self.cyl.eps

    # -- level sets ---------------------------------------------------

    def _newton(self, thetas, start, E, targets=None):
        """Complex Newton for p(theta, I) = E on a (nodes x energies) grid.
        Given ``targets`` it is the bordered Newton of the module docstring
        and moves E too: with r = p - E, w = 1/p_I and miss = mean(I) -
        target, dE = (mean(w*r) - miss) / mean(w), else dE = 0; then
        I += (dE - r)*w.  A converged column is frozen, so its iterates
        depend on it alone.  Returns E, the loops and per-energy flags:
        converged, and |dp/dI| above the floor at every node in the last
        evaluation.  Failures to converge do not raise."""
        # C order whatever the start's layout: the column means sum in
        # memory order, and a broadcast start copies in F order otherwise.
        I = np.array(start, dtype=complex, order="C")
        done = np.zeros(I.shape[1], dtype=bool)
        with np.errstate(all="ignore"):
            for _ in range(NEWTON_MAX_ITER):
                p, dp = self.cyl.value_and_dI(thetas, I)
                r = p - E
                met = np.all(np.abs(r) <= NEWTON_TOL * (1.0 + np.abs(E)),
                             axis=0)
                if targets is not None:
                    miss = I.mean(axis=0) - targets
                    met &= np.abs(miss) <= NEWTON_TOL
                done |= met
                if np.all(done):
                    break
                w = 1.0 / dp
                dE = 0.0
                if targets is not None:
                    d = w.mean(axis=0)
                    if np.any(~done & (np.abs(d) < DERIVATIVE_FLOOR)):
                        raise DegeneracyError(
                            "|d action/dE| below 1e-10: action map "
                            "degenerate here")
                    dE = np.where(done, 0.0, ((w * r).mean(axis=0) - miss) / d)
                    E = E + dE
                I = np.where(done, I, I + (dE - r) * w)
        return E, I, done, np.all(np.abs(dp) >= JACOBIAN_FLOOR, axis=0)

    @staticmethod
    def _loop_tol(levels):
        """Closure and branch tolerance of each loop, scaled by its size."""
        return LOOP_CLOSURE_TOL * (1.0 + np.abs(levels).max(axis=0))

    @staticmethod
    def _fourier_tail(levels):
        """Largest Fourier coefficient of each loop at |k| >= M/4, for
        loops sampled at M nodes.

        For a smooth periodic loop it bounds the trapezoid error and sits
        at rounding level; a node on another branch adds about |jump| / M
        at every frequency."""
        m = levels.shape[0]
        coeffs = np.fft.fft(levels, axis=0) / m
        k = np.abs(np.fft.fftfreq(m, 1.0 / m))
        return np.abs(coeffs[k >= m // 4]).max(axis=0)

    @staticmethod
    def _interpolate(levels):
        """Loops on twice as many nodes, by zero-padding their FFT; the
        Nyquist coefficient is split evenly between +M/2 and -M/2, so the
        old nodes keep their values up to rounding."""
        m = levels.shape[0]
        h = m // 2
        coeffs = np.fft.fft(levels, axis=0)
        padded = np.zeros((2 * m,) + levels.shape[1:], dtype=complex)
        padded[:h] = coeffs[:h]
        padded[h] = padded[-h] = 0.5 * coeffs[h]
        padded[-h + 1:] = coeffs[h + 1:]
        return 2.0 * np.fft.ifft(padded, axis=0)

    def _continue_levels(self, energies, seeds, num_nodes):
        """Loops at num_nodes nodes by node-to-node continuation, all
        energies in lockstep: node 0 starts from ``seeds``, each later node
        from its predecessor, and a final wrap-around step back to
        theta = 2*pi must land on node 0 again.  Each node is a one-node
        grid for _newton."""
        def node(theta, start):
            _, I, converged, regular = self._newton(theta, start[None, :],
                                                    energies)
            if not np.all(converged):
                raise LevelSetError(
                    f"level-set Newton did not converge in "
                    f"{NEWTON_MAX_ITER} iterations")
            if not np.all(regular):
                raise CriticalLevelError(
                    "|dp/dI| below 1e-10 on the level set (near-critical "
                    "energy)")
            return I[0]

        out = np.empty((num_nodes, energies.size), dtype=complex)
        cur = out[0] = node(0.0, seeds)
        for j in range(1, num_nodes):
            cur = out[j] = node(2.0 * np.pi * j / num_nodes, cur)
        wrap = node(2.0 * np.pi, cur)
        gap = np.abs(wrap - out[0])
        if np.any(gap > self._loop_tol(out)):
            raise LevelSetError(
                f"level loop does not close: max |I_M - I_0| = {gap.max():.3e}")
        return out

    def _start(self, E, near=None):
        """Every one of DEFAULT_NODES nodes started at the energy's real
        seed: the real root of the unperturbed part nearest ``near``, or
        smallest in modulus."""
        near = [None] * E.size if near is None else near.real
        start = np.empty((DEFAULT_NODES, E.size), dtype=complex)
        start[:] = [self.cyl.seed_action(e.real, near=t)
                    for e, t in zip(E, near)]
        return start

    def _settle(self, energies, start, targets=None, coarse_tail=None):
        """Checked loops for a batch of energies, starting on the grid of
        ``start`` (shape (nodes, energies)).

        One _newton covers the grid: at fixed energies or, given
        ``targets``, bordered, moving each energy until its loop's mean
        meets its target.  A loop that converges with a regular Jacobian
        but a Fourier tail above the closure tolerance is under-resolved:
        it is solved again on the doubled grid, from its FFT interpolation
        and its current energy, up to MAX_NODES, as long as each doubling
        cuts the tail (``coarse_tail`` on the half grid) by more than
        TAIL_DECAY.  A loop whose Newton fails, whose tail is still too
        large at MAX_NODES, or whose tail falls more slowly (a jump between
        branches) is solved by continuation on its grid from its node-0
        start, or inside an inversion from the Newton iterate's node 0.

        Returns the energies and a list of (columns, loops) pairs, one per
        grid the loops ended on."""
        m = start.shape[0]
        energies, levels, converged, regular = self._newton(
            _nodes(m)[:, None], start, energies, targets)
        seeds = start[0] if targets is None else levels[0]
        solved = converged & regular
        tail = self._fourier_tail(levels)
        coarse = solved & (tail > self._loop_tol(levels))
        refine = coarse & (m < MAX_NODES)
        if coarse_tail is not None:
            refine &= tail * TAIL_DECAY < coarse_tail
        groups = []
        cols = np.flatnonzero(refine)
        width = max(1, GRID_CELLS // (2 * m))
        for i in range(0, cols.size, width):
            block = cols[i:i + width]
            energies[block], finer = self._settle(
                energies[block], self._interpolate(levels[:, block]),
                None if targets is None else targets[block], tail[block])
            groups += [(block[c], loops) for c, loops in finer]
        redo = ~solved | (coarse & ~refine)
        if np.any(redo):
            levels[:, redo] = self._continue_levels(energies[redo],
                                                    seeds[redo], m)
        here = np.flatnonzero(~refine)
        if here.size:
            groups.append((here, levels[:, here]))
        return energies, groups

    def solve_level_set(self, E):
        """Sampled loop {I(theta_j)} for one energy, as a 1-D array: the
        checked loop on the grid _settle refines from DEFAULT_NODES by the
        loop's Fourier tail, so the nodes are theta_j = 2*pi*j/loop.size."""
        energies = np.array([complex(E)])
        if not np.isfinite(energies[0]):
            raise DomainError(f"non-finite energy {energies[0]!r}")
        _, [(_, levels)] = self._settle(energies, self._start(energies))
        return levels[:, 0]

    def action_integral(self, E):
        """Trapezoid mean of the level loop: the complex action at E."""
        return complex(self.solve_level_set(E).mean())

    def action_derivative(self, E):
        """d action / dE via the implicit function theorem."""
        loop = self.solve_level_set(E)
        _, dp = self.cyl.value_and_dI(_nodes(loop.size), loop)
        return complex((1.0 / dp).mean())

    # -- inversion ----------------------------------------------------

    def invert_action(self, targets):
        """g at each target: the energy whose action equals it; a complex
        for a scalar, an array of the targets' shape otherwise.

        Targets go in blocks of GRID_CELLS // DEFAULT_NODES, each a
        bordered Newton from the real seed nearest each target, checked
        and refined by _settle; each loop's mean must meet its target
        within INVERSION_TOL."""
        targets = np.asarray(targets, dtype=complex)
        if not np.isfinite(targets).all():
            raise DomainError("non-finite action target")
        flat = targets.ravel()
        g = np.empty_like(flat)
        width = max(1, GRID_CELLS // DEFAULT_NODES)
        for i in range(0, flat.size, width):
            block = flat[i:i + width]
            E = np.asarray(self.cyl.f_action(block), dtype=complex)
            g[i:i + width], groups = self._settle(
                E, self._start(E, near=block), block)
            err = np.concatenate([np.abs(loops.mean(axis=0) - block[cols])
                                  for cols, loops in groups])
            if np.any(err > INVERSION_TOL):
                raise InversionError(
                    f"action inversion missed target by {err.max():.3e}")
        return complex(g[0]) if targets.ndim == 0 else g.reshape(targets.shape)

    # -- predictions ---------------------------------------------------

    def averaged_value(self, s):
        """First-order predictor: f-part plus i*eps times the averaged q,
        both evaluated at the action value s."""
        s = np.asarray(s, dtype=complex)
        return self.cyl.f_action(s) + 1j * self.eps * self.cyl.q_average_value(s)


def predict_spectrum(am: ActionMap, hbar, rule, mode, rect: Rectangle,
                     floquet_offset=0.0):
    """Quantized points g(hbar*k [+ hbar/2]) - restricted to ``rect``.

    rule "circle_k" quantizes the action at hbar*k; rule "line_maslov"
    at hbar*(k + 1/2) (turning-point correction).  mode "principal_exact"
    inverts the action map by Newton; "averaged_first_order" uses the
    closed-form first-order shift instead.  The Floquet offset J moves
    the quantized action to hbar*k - J (default 0); floquet_offset_value
    checks it.  A rect whose actions span more than MAX_TARGETS quantum
    numbers raises ConfigError before anything is allocated.
    """
    if rule not in ("circle_k", "line_maslov"):
        raise ConfigError(f"unknown rule {rule!r}")
    if mode not in ("averaged_first_order", "principal_exact"):
        raise ConfigError(f"unknown mode {mode!r}")
    hbar = positive_hbar(hbar)
    half = 0.5 if rule == "line_maslov" else 0.0
    j_off = floquet_offset_value(floquet_offset)

    i_bounds = sorted((am.cyl.seed_action(rect.re_min),
                       am.cyl.seed_action(rect.re_max)))
    k_lo = (i_bounds[0] + j_off) / hbar - half
    k_hi = (i_bounds[1] + j_off) / hbar - half
    # "not <=" also refuses inf and NaN, which math.floor cannot take
    if not k_hi - k_lo <= MAX_TARGETS:
        raise ConfigError(
            f"the rect spans {k_hi - k_lo:.3g} quantum numbers at hbar = "
            f"{hbar!r}, above {MAX_TARGETS}")
    k_min = math.floor(k_lo) - 3
    k_max = math.ceil(k_hi) + 3
    ks = np.arange(k_min, k_max + 1)
    s = hbar * (ks + half) - j_off
    if am.cyl.min_action is not None:
        inside_chart = s > am.cyl.min_action
        ks = ks[inside_chart]
        s = s[inside_chart]
    averaged = am.averaged_value(s)

    values = averaged
    if mode == "principal_exact":
        margin_re = 0.3 * (rect.re_max - rect.re_min) + 0.05
        margin_im = 0.3 * (rect.im_max - rect.im_min) + 0.05
        near = rect.expanded(margin_re, margin_im).contains(averaged)
        ks, values = ks[near], am.invert_action(s[near])
    inside = rect.contains(values)
    return QuantizationPrediction(rule=rule, mode=mode,
                                  ks=read_only(ks[inside]),
                                  values=read_only(values[inside]),
                                  hbar=float(hbar), eps=float(am.eps))
