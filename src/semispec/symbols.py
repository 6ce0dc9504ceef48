"""Exact symbols p = f + i*eps*q on the cylinder T*S^1 and on the plane R^2.

Circle symbols are trig-polynomial in theta with polynomial coefficients
in the momentum variable I; plane symbols are bivariate polynomials in
(x, xi).  Both keep exact coefficient representations so quantization
and theta-averaging are coefficient operations, not quadrature.

All types are immutable after construction and every operation is pure.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping

import numpy as np

from .errors import BranchCutError, ConfigError, DomainError, LevelSetError

_PAIRING_TOL = 1e-12


def _require_finite(*values):
    for v in values:
        arr = np.asarray(v)
        if not np.all(np.isfinite(arr.real)) or not np.all(np.isfinite(arr.imag)):
            raise DomainError(f"non-finite input {v!r}")


def _polyval(coeffs, z):
    """Evaluate sum coeffs[n] * z**n by Horner; works on scalars and arrays."""
    acc = np.zeros_like(np.asarray(z, dtype=complex))
    for c in reversed(coeffs):
        acc = acc * z + c
    return acc


def _polyder(coeffs):
    return tuple(n * c for n, c in enumerate(coeffs))[1:] or (0.0,)


@dataclass(frozen=True)
class CircleSymbol:
    """Symbol f(I) + i*eps*q(theta, I) on the cylinder.

    ``f_coeffs[n]`` is the real coefficient of I**n; f is theta-independent
    by construction.  ``q_terms`` maps (m, n) -> complex coefficient of
    e^{i m theta} I**n.  Realness of q on the real cylinder forces the
    conjugate pairing q[-m, n] == conj(q[m, n]); the constructor verifies
    the pairing to 1e-12 and then symmetrizes it exactly.
    """

    f_coeffs: tuple[float, ...]
    q_terms: Mapping[tuple[int, int], complex]

    def __post_init__(self):
        f = tuple(float(c) for c in self.f_coeffs)
        if f:
            _require_finite(*f)
        while f and f[-1] == 0.0:
            f = f[:-1]
        if not f:
            f = (0.0,)
        raw = {(int(m), int(n)): complex(c) for (m, n), c in self.q_terms.items()
               if c != 0}
        if any(n < 0 for _, n in raw):
            raise ConfigError("negative I-powers are not in the symbol class")
        scale = max((abs(c) for c in raw.values()), default=1.0)
        for (m, n), c in raw.items():
            _require_finite(c)
            mate = raw.get((-m, n), 0.0)
            if abs(mate - c.conjugate()) > _PAIRING_TOL * scale:
                raise ConfigError(
                    f"q is not real on the cylinder: term {(m, n)} has no "
                    f"conjugate partner at {(-m, n)}")
        paired = {}
        for (m, n), c in raw.items():
            paired[(m, n)] = 0.5 * (c + raw[(-m, n)].conjugate())
        object.__setattr__(self, "f_coeffs", f)
        object.__setattr__(self, "q_terms", MappingProxyType(paired))

    @property
    def max_fourier_index(self):
        return max((abs(m) for m, _ in self.q_terms), default=0)

    def f_value(self, I):
        return _polyval(self.f_coeffs, I)

    def f_derivative(self, I):
        return _polyval(_polyder(self.f_coeffs), I)

    def q_value(self, theta, I):
        theta = np.asarray(theta, dtype=complex)
        I = np.asarray(I, dtype=complex)
        acc = np.zeros(np.broadcast(theta, I).shape, dtype=complex)
        for (m, n), c in self.q_terms.items():
            acc = acc + c * np.exp(1j * m * theta) * I ** n
        return acc

    def q_dI(self, theta, I):
        theta = np.asarray(theta, dtype=complex)
        I = np.asarray(I, dtype=complex)
        acc = np.zeros(np.broadcast(theta, I).shape, dtype=complex)
        for (m, n), c in self.q_terms.items():
            if n > 0:
                acc = acc + n * c * np.exp(1j * m * theta) * I ** (n - 1)
        return acc

    def fingerprint(self, eps):
        h = hashlib.sha256()
        h.update(b"circle")
        h.update(repr(self.f_coeffs).encode())
        h.update(repr(sorted((m, n, c.real, c.imag)
                             for (m, n), c in self.q_terms.items())).encode())
        h.update(repr(float(eps)).encode())
        return h.hexdigest()

    def cylinder_map(self, eps):
        """Full symbol on the cylinder at a given eps, ready for the action
        machinery (value, dI-derivative, action-variable helpers)."""
        return _CircleCylinderMap(self, float(eps))


@dataclass(frozen=True)
class PlaneSymbol:
    """Symbol f(x, xi) + i*eps*q(x, xi) on the plane.

    Coefficient maps (m, n) -> real coefficient of x**m xi**n.  For this
    toolkit f is pinned to the harmonic oscillator x^2 + xi^2 exactly,
    which is what makes the explicit action-angle pullback available.
    """

    f_coeffs: Mapping[tuple[int, int], float]
    q_coeffs: Mapping[tuple[int, int], float]
    epsilon: float

    def __post_init__(self):
        f = {(int(m), int(n)): float(c) for (m, n), c in self.f_coeffs.items()
             if c != 0}
        q = {(int(m), int(n)): float(c) for (m, n), c in self.q_coeffs.items()
             if c != 0}
        for c in list(f.values()) + list(q.values()):
            _require_finite(c)
        if f != {(2, 0): 1.0, (0, 2): 1.0}:
            raise ConfigError("f must be exactly x^2 + xi^2 on the plane")
        if any(m < 0 or n < 0 for m, n in q):
            raise ConfigError("negative powers are not in the symbol class")
        eps = float(self.epsilon)
        if not math.isfinite(eps) or eps < 0:
            raise ConfigError("epsilon must be finite and >= 0")
        object.__setattr__(self, "f_coeffs", MappingProxyType(f))
        object.__setattr__(self, "q_coeffs", MappingProxyType(q))
        object.__setattr__(self, "epsilon", eps)

    @property
    def degree(self):
        return max((m + n for m, n in list(self.f_coeffs) + list(self.q_coeffs)),
                   default=0)

    def f_value(self, x, xi):
        x = np.asarray(x, dtype=complex)
        xi = np.asarray(xi, dtype=complex)
        return x ** 2 + xi ** 2

    def q_value(self, x, xi):
        x = np.asarray(x, dtype=complex)
        xi = np.asarray(xi, dtype=complex)
        acc = np.zeros(np.broadcast(x, xi).shape, dtype=complex)
        for (m, n), c in self.q_coeffs.items():
            acc = acc + c * x ** m * xi ** n
        return acc

    def q_gradient(self, x, xi):
        """(dq/dx, dq/dxi)."""
        x = np.asarray(x, dtype=complex)
        xi = np.asarray(xi, dtype=complex)
        gx = np.zeros(np.broadcast(x, xi).shape, dtype=complex)
        gxi = np.zeros_like(gx)
        for (m, n), c in self.q_coeffs.items():
            if m > 0:
                gx = gx + m * c * x ** (m - 1) * xi ** n
            if n > 0:
                gxi = gxi + n * c * x ** m * xi ** (n - 1)
        return gx, gxi

    def q_average_coeffs(self):
        """theta-average of q in action-angle coordinates, as a polynomial
        in I.  Exact: Wallis integrals of cos^m sin^n, nonzero only for
        m, n both even."""
        deg = self.degree
        out = [0.0] * (deg // 2 + 1)
        for (m, n), c in self.q_coeffs.items():
            w = _wallis_average(m, n)
            if w:
                out[(m + n) // 2] += c * 2.0 ** ((m + n) // 2) * w
        while len(out) > 1 and out[-1] == 0.0:
            out.pop()
        return tuple(out)

    def fingerprint(self):
        h = hashlib.sha256()
        h.update(b"plane")
        h.update(repr(sorted((m, n, c) for (m, n), c in self.f_coeffs.items())).encode())
        h.update(repr(sorted((m, n, c) for (m, n), c in self.q_coeffs.items())).encode())
        h.update(repr(self.epsilon).encode())
        return h.hexdigest()


def _double_factorial(k):
    out = 1
    while k > 1:
        out *= k
        k -= 2
    return out


def _wallis_average(m, n):
    """(1/2pi) * integral of cos^m(t) sin^n(t) over a period."""
    if m % 2 or n % 2:
        return 0.0
    return (_double_factorial(m - 1) * _double_factorial(n - 1)
            / _double_factorial(m + n))


# ---------------------------------------------------------------------------
# public operations


def eval_circle(sym: CircleSymbol, theta, I, eps):
    """Evaluate f(I) + i*eps*q(theta, I); theta, I may be complex."""
    _require_finite(theta, I, eps)
    val = sym.f_value(complex(I)) + 1j * eps * sym.q_value(complex(theta), complex(I))
    return complex(val)


def eval_plane(sym: PlaneSymbol, x, xi):
    """Evaluate f(x, xi) + i*eps*q(x, xi) with eps stored in the symbol."""
    _require_finite(x, xi)
    val = sym.f_value(complex(x), complex(xi)) \
        + 1j * sym.epsilon * sym.q_value(complex(x), complex(xi))
    return complex(val)


def theta_average(sym: CircleSymbol):
    """Fourier-mode-zero part of q as a real polynomial in I (coefficient
    extraction, exact)."""
    terms = {n: c for (m, n), c in sym.q_terms.items() if m == 0}
    if not terms:
        return (0.0,)
    deg = max(terms)
    return tuple(float(terms.get(n, 0.0).real) for n in range(deg + 1))


def pt_symmetry_check(sym: PlaneSymbol):
    """True iff conj(p(-x, xi)) == p(x, xi) identically: f even in x and
    q odd in x, as a predicate on the coefficient maps."""
    f_even = all(m % 2 == 0 for (m, n) in sym.f_coeffs)
    q_odd = all(m % 2 == 1 for (m, n) in sym.q_coeffs)
    return f_even and q_odd


def pullback_action_angle(sym: PlaneSymbol):
    """Pull the plane symbol back to the cylinder through the oscillator's
    action-angle chart x = sqrt(2I) cos(theta), xi = -sqrt(2I) sin(theta).

    The orientation makes (1/2pi) * loop integral of xi dx equal +I, so the
    unperturbed part becomes exactly 2I.  Principal branch of the square
    root; real I <= 0 sits on the cut and is rejected.
    """
    return _OscillatorCylinderMap(sym)


# ---------------------------------------------------------------------------
# cylinder evaluators consumed by the action machinery


class _CylinderMapBase:
    """Common surface: value/d_dI broadcast over numpy arrays; the
    f_action_* helpers expose the theta-independent part as a polynomial
    of the action variable for seeding and for the averaged predictor.
    ``min_action`` bounds the chart domain from below (None: whole line).
    """

    eps: float
    f_action_coeffs: tuple[float, ...]
    q_average: tuple[float, ...]
    min_action: float | None = None

    def f_action(self, I):
        return _polyval(self.f_action_coeffs, I)

    def q_average_value(self, I):
        return _polyval(self.q_average, I)

    def seed_action(self, e_real, near=None):
        """Real solution of f_action(I) = e_real, used to seed Newton."""
        coeffs = np.array(self.f_action_coeffs, dtype=float)
        coeffs[0] -= float(e_real)
        if len(coeffs) == 2:
            return float(-coeffs[0] / coeffs[1])
        roots = np.roots(coeffs[::-1])
        real = [r.real for r in roots if abs(r.imag) <= 1e-9 * (1.0 + abs(r))]
        if not real:
            raise LevelSetError(
                f"no real seed: f_action(I) = {e_real!r} has no real solution")
        if near is None:
            return float(min(real, key=abs))
        return float(min(real, key=lambda r: abs(r - near)))


class _CircleCylinderMap(_CylinderMapBase):
    def __init__(self, sym, eps):
        self.sym = sym
        self.eps = eps
        self.f_action_coeffs = sym.f_coeffs if sym.f_coeffs else (0.0,)
        self.q_average = theta_average(sym)

    def value(self, theta, I):
        return self.sym.f_value(np.asarray(I, dtype=complex)) \
            + 1j * self.eps * self.sym.q_value(theta, I)

    def d_dI(self, theta, I):
        return self.sym.f_derivative(np.asarray(I, dtype=complex)) \
            + 1j * self.eps * self.sym.q_dI(theta, I)


class _OscillatorCylinderMap(_CylinderMapBase):
    f_action_coeffs = (0.0, 2.0)
    min_action = 0.0  # sqrt(2I) chart: the cut sits on I <= 0

    def __init__(self, sym):
        self.sym = sym
        self.eps = sym.epsilon
        self.q_average = sym.q_average_coeffs()

    @staticmethod
    def _chart(theta, I):
        I = np.asarray(I, dtype=complex)
        on_cut = (I.imag == 0.0) & (I.real <= 0.0)
        if np.any(on_cut):
            raise BranchCutError("action value on the branch cut (real I <= 0)")
        r = np.sqrt(2.0 * I)
        theta = np.asarray(theta, dtype=complex)
        return r * np.cos(theta), -r * np.sin(theta), r

    def value(self, theta, I):
        x, xi, _ = self._chart(theta, I)
        return self.sym.f_value(x, xi) + 1j * self.eps * self.sym.q_value(x, xi)

    def d_dI(self, theta, I):
        x, xi, r = self._chart(theta, I)
        gx, gxi = self.sym.q_gradient(x, xi)
        theta = np.asarray(theta, dtype=complex)
        dq = (gx * np.cos(theta) - gxi * np.sin(theta)) / r
        return 2.0 + 1j * self.eps * dq
