"""Complex action integrals and their Bohr-Sommerfeld inverses.

For a cylinder symbol p(theta, I) and a complex energy E near the
working window, the level set {p = E} is a graph I = l(theta, E),
sampled at M equispaced nodes theta_j (M = 256 by default).  The action
of the level loop is the trapezoid mean of the samples (spectral
accuracy for periodic analytic integrands),

    action(E) = (1/M) * sum_j l(theta_j, E),

and its derivative follows from implicit differentiation,

    d action / dE = (1/M) * sum_j 1 / (dp/dI)(theta_j, l_j).

Grid solve.  The loops of a batch of energies come from one vectorized
complex Newton on the whole (nodes x energies) grid.  A fresh solve
starts every node from the energy's real seed, the real root of the
unperturbed part; inside an inversion each step starts from the
previous step's loops.

Branch check.  On a smooth periodic loop the Fourier coefficients decay
exponentially, so those at |k| >= M/4 sit at rounding level and bound
the trapezoid error (Trefethen & Weideman, SIAM Review 56, 2014); a node
that converged to another root of p = E adds about |jump|/M at every
frequency.  An energy whose grid Newton fails, or whose tail exceeds the
closure tolerance 1e-10 * (1 + max|I|), falls back to node-to-node
continuation from its node-0 start, whose wrap-around step back to
theta = 2*pi must land on node 0 within that same tolerance.

Inverting E -> action(E) by Newton yields the eigenvalue generator g:
predicted spectra are g(hbar*k) on the circle and g(hbar*(k + 1/2)) on
the line, where the half-integer shift accounts for the turning points
of closed orbits on the real line.  Targets are inverted in blocks of
GRID_BLOCK, which bounds the grid's working memory; a target's result
does not depend on the other targets, up to rounding in the sums.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (ConfigError, CriticalLevelError, DegeneracyError,
                     InversionError, LevelSetError)

DEFAULT_NODES = 256
DEFAULT_NEWTON_TOL = 1e-12
DEFAULT_NEWTON_MAX_ITER = 50
JACOBIAN_FLOOR = 1e-10
DERIVATIVE_FLOOR = 1e-10
LOOP_CLOSURE_TOL = 1e-10
INVERSION_TOL = 1e-11
GRID_BLOCK = 16  # energies per grid solve: bounds its working memory


def parse_floats(text, what, names):
    """Comma-separated floats, one per name (the --rect and --window form)."""
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != len(names):
        raise ConfigError(f"{what} needs {','.join(names)}")
    try:
        return tuple(float(p) for p in parts)
    except ValueError as exc:
        raise ConfigError(f"{what}: {exc}") from exc


@dataclass(frozen=True)
class Rectangle:
    """Axis-aligned window in the complex plane (closed)."""

    re_min: float
    re_max: float
    im_min: float
    im_max: float

    def __post_init__(self):
        if not (self.re_min < self.re_max and self.im_min < self.im_max):
            raise ConfigError("rectangle must be nonempty")

    def contains(self, z):
        z = complex(z)
        return (self.re_min <= z.real <= self.re_max
                and self.im_min <= z.imag <= self.im_max)

    def expanded(self, margin_re, margin_im):
        return Rectangle(self.re_min - margin_re, self.re_max + margin_re,
                         self.im_min - margin_im, self.im_max + margin_im)

    @classmethod
    def parse(cls, text):
        return cls(*parse_floats(text, "rect",
                                 ("re_min", "re_max", "im_min", "im_max")))

    def as_tuple(self):
        return (self.re_min, self.re_max, self.im_min, self.im_max)


@dataclass(frozen=True)
class QuantizationPrediction:
    rule: str  # "circle_k" | "line_maslov"
    mode: str  # "averaged_first_order" | "principal_exact"
    points: tuple  # of (k, complex)
    hbar: float
    eps: float

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

    def values(self):
        return np.array([lam for _, lam in self.points], dtype=complex)


class ActionMap:
    """Queryable complex action map for one cylinder symbol.

    The underlying evaluator comes from CircleSymbol.cylinder_map(eps) or
    from pullback_action_angle(plane_symbol).  Instances hold no state
    besides their construction parameters: every query depends on its
    arguments alone, whatever was asked before, so concurrent queries are
    safe.  The query surface is solve_level_set, action_integral,
    action_derivative, invert_action and averaged_value.
    """

    def __init__(self, cylinder, num_nodes=DEFAULT_NODES,
                 newton_tol=DEFAULT_NEWTON_TOL,
                 newton_max_iter=DEFAULT_NEWTON_MAX_ITER):
        if num_nodes < 8:
            raise ConfigError("need at least 8 quadrature nodes")
        self.cyl = cylinder
        self.num_nodes = int(num_nodes)
        self.newton_tol = float(newton_tol)
        self.newton_max_iter = int(newton_max_iter)

    @property
    def eps(self):
        return self.cyl.eps

    def thetas(self):
        return 2.0 * np.pi * np.arange(self.num_nodes) / self.num_nodes

    # -- level sets ---------------------------------------------------

    def _newton_grid(self, thetas, start, energies):
        """Complex Newton for p(theta, I) = E at every theta (a column of
        nodes, or one node) and every energy at once.  Returns the
        solution and two per-energy flags: every node converged, and every
        node ended with |dp/dI| above the floor.  Failures do not raise."""
        I = np.array(start, dtype=complex, copy=True)
        tol = self.newton_tol * (1.0 + np.abs(energies))
        with np.errstate(all="ignore"):
            for _ in range(self.newton_max_iter):
                r = self.cyl.value(thetas, I) - energies
                done = np.abs(r) <= tol
                if np.all(done):
                    break
                I = np.where(done, I, I - r / self.cyl.d_dI(thetas, I))
            d = self.cyl.d_dI(thetas, I)
        return (I, np.all(done, axis=0),
                np.all(np.abs(d) >= JACOBIAN_FLOOR, axis=0))

    @staticmethod
    def _loop_tol(levels):
        """Closure and branch tolerance of each loop, scaled by its size."""
        return LOOP_CLOSURE_TOL * (1.0 + np.abs(levels).max(axis=0))

    def _fourier_tail(self, levels):
        """Largest Fourier coefficient of each loop at |k| >= num_nodes/4.

        For a smooth periodic loop it bounds the trapezoid error and sits
        at rounding level; a node on another branch adds about
        |jump| / num_nodes at every frequency."""
        coeffs = np.fft.fft(levels, axis=0) / self.num_nodes
        k = np.abs(np.fft.fftfreq(self.num_nodes, 1.0 / self.num_nodes))
        return np.abs(coeffs[k >= self.num_nodes // 4]).max(axis=0)

    def _continue_levels(self, energies, seeds):
        """Loops by node-to-node continuation, all energies in lockstep:
        node 0 starts from ``seeds``, each later node from its
        predecessor, and a final wrap-around step back to theta = 2*pi
        must land on node 0 again."""
        def node(theta, start):
            I, converged, regular = self._newton_grid(theta, start, energies)
            if not np.all(converged):
                raise LevelSetError(
                    f"level-set Newton did not converge in "
                    f"{self.newton_max_iter} iterations")
            if not np.all(regular):
                raise CriticalLevelError(
                    "|dp/dI| below 1e-10 on the level set (near-critical "
                    "energy)")
            return I

        out = np.empty((self.num_nodes, energies.size), dtype=complex)
        cur = out[0] = node(0.0, seeds)
        for j in range(1, self.num_nodes):
            cur = out[j] = node(2.0 * np.pi * j / self.num_nodes, cur)
        wrap = node(2.0 * np.pi, cur)
        gap = np.abs(wrap - out[0])
        if np.any(gap > self._loop_tol(out)):
            raise LevelSetError(
                f"level loop does not close: max |I_M - I_0| = {gap.max():.3e}")
        return out

    def _solve_levels(self, energies, near=None, start=None):
        """Sampled loops I(theta_j) for a batch of energies.

        Returns an array of shape (num_nodes, len(energies)).  One Newton
        solve covers the whole grid.  It starts from ``start`` (a previous
        grid of the same shape) or else, at every node, from the energy's
        real seed: the real root of the unperturbed part nearest
        ``near[i]`` (smallest in modulus for None).  An energy whose grid
        Newton fails, or whose loop has a Fourier tail above the closure
        tolerance (a node left the branch of node 0), is solved again by
        continuation from its node-0 start, which keeps the closure check.
        """
        energies = np.atleast_1d(np.asarray(energies, dtype=complex))
        if start is None:
            if near is None:
                near = [None] * energies.size
            seeds = [self.cyl.seed_action(e.real, near=n)
                     for e, n in zip(energies, near)]
            start = np.broadcast_to(np.asarray(seeds, dtype=complex),
                                    (self.num_nodes, energies.size))
        levels, converged, regular = self._newton_grid(
            self.thetas()[:, None], start, energies)
        ok = (converged & regular
              & (self._fourier_tail(levels) <= self._loop_tol(levels)))
        bad = np.flatnonzero(~ok)
        if bad.size:
            levels[:, bad] = self._continue_levels(energies[bad],
                                                   start[0, bad])
        return levels

    def solve_level_set(self, E):
        """Sampled loop {I(theta_j)} for one energy, as a 1-D array."""
        return self._solve_levels([complex(E)])[:, 0]

    def action_integral(self, E):
        """Trapezoid mean of the level loop: the complex action at E."""
        return complex(self._solve_levels([complex(E)]).mean(axis=0)[0])

    def action_derivative(self, E):
        """d action / dE via the implicit function theorem."""
        levels = self._solve_levels([complex(E)])
        return complex(self._d_action(levels)[0])

    def _d_action(self, levels):
        thetas = self.thetas()[:, None]
        return (1.0 / self.cyl.d_dI(thetas, levels)).mean(axis=0)

    # -- inversion ----------------------------------------------------

    def _invert_batch(self, targets):
        """g at every target, in blocks of GRID_BLOCK targets."""
        targets = np.atleast_1d(np.asarray(targets, dtype=complex))
        return np.concatenate([self._invert_block(targets[i:i + GRID_BLOCK])
                               for i in range(0, targets.size, GRID_BLOCK)])

    def _invert_block(self, targets):
        """Newton on E -> action(E) for a block of targets.  The first
        step seeds the loops at the real inverse nearest the target; each
        later step starts from the previous step's loops, and the loops at
        the last E serve the final miss check."""
        E = np.asarray(self.cyl.f_action(targets), dtype=complex).copy()
        levels = None
        for step in range(self.newton_max_iter + 1):
            levels = self._solve_levels(E, targets.real, start=levels)
            r = levels.mean(axis=0) - targets
            done = np.abs(r) <= self.newton_tol
            if np.all(done) or step == self.newton_max_iter:
                break
            d = self._d_action(levels)
            small = ~done & (np.abs(d) < DERIVATIVE_FLOOR)
            if np.any(small):
                raise DegeneracyError(
                    "|d action/dE| below 1e-10: action map degenerate here")
            E = np.where(done, E, E - r / d)
        err = np.abs(r)
        if np.any(err > INVERSION_TOL):
            raise InversionError(
                f"action inversion missed target by {err.max():.3e}")
        return E

    def invert_action(self, I_target):
        """g(I_target): the energy whose action equals I_target."""
        return complex(self._invert_batch([complex(I_target)])[0])

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
    the quantized action to hbar*k - J (default 0).
    """
    if rule not in ("circle_k", "line_maslov"):
        raise ConfigError(f"unknown rule {rule!r}")
    if mode not in ("averaged_first_order", "principal_exact"):
        raise ConfigError(f"unknown mode {mode!r}")
    if hbar <= 0:
        raise ConfigError("hbar must be positive")
    half = 0.5 if rule == "line_maslov" else 0.0
    j_off = float(floquet_offset)

    i_bounds = sorted((am.cyl.seed_action(rect.re_min),
                       am.cyl.seed_action(rect.re_max)))
    k_min = math.floor((i_bounds[0] + j_off) / hbar - half) - 3
    k_max = math.ceil((i_bounds[1] + j_off) / hbar - half) + 3
    ks = np.arange(k_min, k_max + 1)
    s = hbar * (ks + half) - j_off
    min_action = getattr(am.cyl, "min_action", None)
    if min_action is not None:
        inside_chart = s > min_action
        ks = ks[inside_chart]
        s = s[inside_chart]
    averaged = am.averaged_value(s)

    if mode == "averaged_first_order":
        points = [(int(k), complex(v)) for k, v in zip(ks, averaged)
                  if rect.contains(v)]
        return QuantizationPrediction(rule=rule, mode=mode,
                                      points=tuple(points),
                                      hbar=float(hbar), eps=float(am.eps))

    margin_re = 0.3 * (rect.re_max - rect.re_min) + 0.05
    margin_im = 0.3 * (rect.im_max - rect.im_min) + 0.05
    wide = rect.expanded(margin_re, margin_im)
    keep = np.array([wide.contains(v) for v in averaged])
    points = []
    if np.any(keep):
        exact = am._invert_batch(s[keep])
        for k, v in zip(ks[keep], exact):
            if rect.contains(v):
                points.append((int(k), complex(v)))
    return QuantizationPrediction(rule=rule, mode=mode, points=tuple(points),
                                  hbar=float(hbar), eps=float(am.eps))
