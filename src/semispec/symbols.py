"""Exact symbols p = f + i*eps*q on the cylinder T*S^1 and on the plane R^2.

Circle symbols are trig-polynomial in theta with polynomial coefficients
in the momentum variable I; plane symbols are bivariate polynomials in
(x, xi).  Both keep exact coefficient representations so quantization
and theta-averaging are coefficient operations, not quadrature.

All types are immutable after construction and every operation is pure.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping

import numpy as np

from .errors import BranchCutError, ConfigError, DomainError, LevelSetError
from .operators import finite

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
            if abs(mate - c.conjugate()) <= _PAIRING_TOL * scale:
                continue
            if m == 0:
                raise ConfigError(
                    f"q is not real on the cylinder: its theta-independent "
                    f"term in I^{n} has the non-real coefficient {c}")
            raise ConfigError(
                f"q is not real on the cylinder: term {(m, n)} has no "
                f"conjugate partner at {(-m, n)}")
        paired = {}
        for (m, n), c in raw.items():
            paired[(m, n)] = 0.5 * (c + raw[(-m, n)].conjugate())
        object.__setattr__(self, "f_coeffs", f)
        object.__setattr__(self, "q_terms", MappingProxyType(paired))

    def f_value(self, I):
        return _polyval(self.f_coeffs, I)

    def q_value(self, theta, I):
        theta = np.asarray(theta, dtype=complex)
        I = np.asarray(I, dtype=complex)
        acc = np.zeros(np.broadcast(theta, I).shape, dtype=complex)
        for (m, n), c in self.q_terms.items():
            acc = acc + c * np.exp(1j * m * theta) * I ** n
        return acc

    def cylinder_map(self, eps):
        """Full symbol on the cylinder at a given eps, ready for the action
        machinery (value with its dI-derivative, action-variable helpers)."""
        return _CircleCylinderMap(self, finite("eps", eps))


@dataclass(frozen=True)
class PlaneSymbol:
    """Symbol x^2 + xi^2 + i*eps*q(x, xi) on the plane.

    ``q_coeffs`` maps (m, n) -> real coefficient of x**m xi**n.  For this
    toolkit f is the harmonic oscillator x^2 + xi^2, the class constant
    ``f_coeffs`` in the same form, which is what makes the explicit
    action-angle chart available.
    """

    f_coeffs = MappingProxyType({(2, 0): 1.0, (0, 2): 1.0})
    q_coeffs: Mapping[tuple[int, int], float]

    def __post_init__(self):
        q = {(int(m), int(n)): float(c) for (m, n), c in self.q_coeffs.items()
             if c != 0}
        for c in q.values():
            _require_finite(c)
        if any(m < 0 or n < 0 for m, n in q):
            raise ConfigError("negative powers are not in the symbol class")
        object.__setattr__(self, "q_coeffs", MappingProxyType(q))

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

    def cylinder_map(self, eps):
        """Full symbol at a given eps, pulled back to the cylinder through
        the oscillator's action-angle chart x = sqrt(2I) cos(theta),
        xi = -sqrt(2I) sin(theta).

        The orientation makes (1/2pi) * loop integral of xi dx equal +I, so
        the unperturbed part becomes exactly 2I.  Principal branch of the
        square root; real I <= 0 sits on the cut and is rejected.
        """
        return _OscillatorCylinderMap(self, finite("eps", eps))


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


def eval_plane(sym: PlaneSymbol, x, xi, eps):
    """Evaluate f(x, xi) + i*eps*q(x, xi); x, xi may be complex."""
    _require_finite(x, xi, eps)
    val = sym.f_value(complex(x), complex(xi)) \
        + 1j * eps * sym.q_value(complex(x), complex(xi))
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
    """True iff conj(p(-x, xi)) == p(x, xi) identically.  The oscillator
    f is even in x, so this is q odd in x, as a predicate on q's
    coefficient map."""
    return all(m % 2 == 1 for (m, n) in sym.q_coeffs)


# ---------------------------------------------------------------------------
# cylinder evaluators consumed by the action machinery


class _CylinderMapBase:
    """Common surface: value_and_dI(theta, I) returns (p, dp/dI) in one
    pass, broadcast over numpy arrays, and value is its first half; the
    f_action_* helpers expose the theta-independent part as a polynomial
    of the action variable for seeding and for the averaged predictor.
    ``min_action`` bounds the chart domain from below (None: whole line).
    """

    eps: float
    f_action_coeffs: tuple[float, ...]
    q_average: tuple[float, ...]
    min_action: float | None = None

    def value(self, theta, I):
        return self.value_and_dI(theta, I)[0]

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


def _horner_with_derivative(coeffs, z):
    """(sum a_n z**n, sum n a_n z**(n-1)) for coefficients that may be
    arrays broadcasting against z."""
    value, slope = coeffs[-1], 0j
    for a in reversed(coeffs[:-1]):
        slope = slope * z + value
        value = value * z + a
    shape = np.broadcast(value, z).shape
    return np.broadcast_to(value, shape), np.broadcast_to(slope, shape)


class _CircleCylinderMap(_CylinderMapBase):
    def __init__(self, sym, eps):
        self.sym = sym
        self.eps = eps
        self.f_action_coeffs = sym.f_coeffs
        self.q_average = theta_average(sym)
        self.degree = max([len(sym.f_coeffs) - 1]
                          + [n for _, n in sym.q_terms])

    def value_and_dI(self, theta, I):
        """p = sum_n a_n(theta) I**n with a_n = f_n + i*eps*sum_m q[m, n]
        e^{i m theta}: the coefficients cost one pass over theta, and one
        Horner sweep over I gives p and dp/dI together."""
        theta = np.asarray(theta, dtype=complex)
        I = np.asarray(I, dtype=complex)
        f = self.sym.f_coeffs
        coeffs = [complex(f[n]) if n < len(f) else 0j
                  for n in range(self.degree + 1)]
        for (m, n), c in self.sym.q_terms.items():
            coeffs[n] = coeffs[n] + 1j * self.eps * c * np.exp(1j * m * theta)
        return _horner_with_derivative(coeffs, I)


class _OscillatorCylinderMap(_CylinderMapBase):
    f_action_coeffs = (0.0, 2.0)
    min_action = 0.0  # sqrt(2I) chart: the cut sits on I <= 0

    def __init__(self, sym, eps):
        self.sym = sym
        self.eps = eps
        self.q_average = sym.q_average_coeffs()

    def value_and_dI(self, theta, I):
        """Through the chart x = r cos(theta), xi = -r sin(theta) with
        r = sqrt(2I), q = sum_d C_d(theta) r**d where C_d collects the
        terms of total degree d; then p = 2I + i*eps*q and, as dr/dI = 1/r,
        dp/dI = 2 + i*eps*(dq/dr)/r."""
        I = np.asarray(I, dtype=complex)
        on_cut = (I.imag == 0.0) & (I.real <= 0.0)
        if np.any(on_cut):
            raise BranchCutError("action value on the branch cut (real I <= 0)")
        r = np.sqrt(2.0 * I)
        theta = np.asarray(theta, dtype=complex)
        cos, msin = np.cos(theta), -np.sin(theta)
        coeffs = [0j] * (self.sym.degree + 1)
        for (m, n), c in self.sym.q_coeffs.items():
            coeffs[m + n] = coeffs[m + n] + c * cos ** m * msin ** n
        q, dq_dr = _horner_with_derivative(coeffs, r)
        return 2.0 * I + 1j * self.eps * q, 2.0 + 1j * self.eps * dq_dr / r
