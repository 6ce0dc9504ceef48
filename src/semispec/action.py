"""Complex action integrals and their Bohr-Sommerfeld inverses.

For a cylinder symbol p(theta, I) and a complex energy E near the
working window, the level set {p = E} is a graph I = l(theta, E) solved
node by node with complex Newton continuation around the circle.  The
action of the level loop is the trapezoid mean of the samples (spectral
accuracy for periodic analytic integrands),

    action(E) = (1/M) * sum_j l(theta_j, E),

and its derivative follows from implicit differentiation,

    d action / dE = (1/M) * sum_j 1 / (dp/dI)(theta_j, l_j).

Inverting E -> action(E) by Newton yields the eigenvalue generator g:
predicted spectra are g(hbar*k) on the circle and g(hbar*(k + 1/2)) on
the line, where the half-integer shift accounts for the turning points
of closed orbits on the real line.
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
        parts = [p.strip() for p in text.split(",")]
        if len(parts) != 4:
            raise ConfigError("rect needs re_min,re_max,im_min,im_max")
        try:
            values = [float(p) for p in parts]
        except ValueError as exc:
            raise ConfigError(f"rect: {exc}") from exc
        return cls(*values)

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

    def _newton_nodes(self, theta, start, targets):
        """Vectorized complex Newton for p(theta, I) = targets."""
        I = np.array(start, dtype=complex, copy=True)
        tol = self.newton_tol * (1.0 + np.abs(targets))
        for _ in range(self.newton_max_iter):
            r = self.cyl.value(theta, I) - targets
            done = np.abs(r) <= tol
            d = self.cyl.d_dI(theta, I)
            if np.any(np.abs(d) < JACOBIAN_FLOOR):
                raise CriticalLevelError(
                    "|dp/dI| below 1e-10 on the level set (near-critical "
                    "energy)")
            if np.all(done):
                return I
            I = np.where(done, I, I - r / d)
        raise LevelSetError(
            f"level-set Newton did not converge in {self.newton_max_iter} "
            "iterations")

    def _solve_levels(self, energies, near=None):
        """Sampled loops I(theta_j) for a batch of energies.

        Returns an array of shape (num_nodes, len(energies)); node 0 is
        seeded from the real inverse of the unperturbed part (the real
        root nearest ``near[i]`` for energy i, or the smallest in modulus
        without ``near``) and the following nodes by continuation; a final
        wrap-around step back to theta = 2*pi must land on node 0 again.
        """
        energies = np.atleast_1d(np.asarray(energies, dtype=complex))
        if near is None:
            near = [None] * energies.size
        seeds = np.array([self.cyl.seed_action(e.real, near=n)
                          for e, n in zip(energies, near)], dtype=complex)
        out = np.empty((self.num_nodes, energies.size), dtype=complex)
        cur = self._newton_nodes(0.0, seeds, energies)
        out[0] = cur
        for j in range(1, self.num_nodes):
            theta = 2.0 * np.pi * j / self.num_nodes
            cur = self._newton_nodes(theta, cur, energies)
            out[j] = cur
        wrap = self._newton_nodes(2.0 * np.pi, cur, energies)
        gap = np.abs(wrap - out[0])
        if np.any(gap > LOOP_CLOSURE_TOL):
            raise LevelSetError(
                f"level loop does not close: max |I_M - I_0| = {gap.max():.3e}")
        return out

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
        targets = np.atleast_1d(np.asarray(targets, dtype=complex))
        E = np.asarray(self.cyl.f_action(targets), dtype=complex).copy()
        near = targets.real
        done = np.zeros(targets.shape, dtype=bool)
        for _ in range(self.newton_max_iter):
            levels = self._solve_levels(E, near)
            act = levels.mean(axis=0)
            r = act - targets
            done = np.abs(r) <= self.newton_tol
            if np.all(done):
                break
            d = self._d_action(levels)
            small = ~done & (np.abs(d) < DERIVATIVE_FLOOR)
            if np.any(small):
                raise DegeneracyError(
                    "|d action/dE| below 1e-10: action map degenerate here")
            E = np.where(done, E, E - r / d)
        final = self._solve_levels(E, near).mean(axis=0)
        err = np.abs(final - targets)
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
