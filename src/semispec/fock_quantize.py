"""Quantization of plane symbols in the Fock basis via ladder matrices,
called as quantize_circle is: quantize_plane(sym, eps, hbar, N).

The basis zeta_alpha = z^alpha / sqrt(hbar^{alpha+1} alpha!) fixes the
ladder normalization

    a  zeta_alpha = sqrt(hbar * alpha)       * zeta_{alpha-1}
    a+ zeta_alpha = sqrt(hbar * (alpha + 1)) * zeta_{alpha+1}

so [a, a+] = hbar.  The oscillator matrix is diagonal exactly (its
off-diagonal entries are 0), and its diagonal is hbar*(2k+1) up to
rounding: within 6.7e-16 at hbar = 1/66, N = 66 and 4.3e-14 at
hbar = 1/3, N = 132.
Position/momentum are X = (a + a+)/sqrt(2), Xi = (a - a+)/(i sqrt(2)),
hence [X, Xi] = i*hbar.

Monomials x^m xi^n are symmetric-ordered through the binomial identity

    Op(x^m xi^n) = 2^{-m} * sum_k C(m, k) X^k Xi^n X^{m-k},

which equals the average over all interleavings of m X-factors and n
Xi-factors.  X is symmetric and Xi antisymmetric, so Op(x^m xi^n) is
symmetric for even n and antisymmetric for odd n; the sum is averaged
with its signed transpose so that this holds exactly.  Matrices are
assembled at padded dimension N+1+deg(symbol) and truncated afterwards:
products of truncated ladders corrupt only the trailing deg rows/columns,
so padding keeps the retained block exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericRangeError
from .operators import (Basis, TruncatedOperator, finite, integral,
                        positive_hbar)
from .symbols import PlaneSymbol

MAX_MONOMIAL_DEGREE = 8  # per variable; higher powers are out of scope


@dataclass(frozen=True)
class LadderPair:
    a: np.ndarray
    a_dag: np.ndarray

    def position(self):
        return (self.a + self.a_dag) / math.sqrt(2.0)

    def momentum(self):
        return (self.a - self.a_dag) / (1j * math.sqrt(2.0))


def ladder(dim: int, hbar: float) -> LadderPair:
    """Lowering/raising matrices on the first ``dim`` Fock states."""
    if dim < 2:
        raise ConfigError("ladder needs dimension >= 2")
    hbar = positive_hbar(hbar)
    alpha = np.arange(1, dim)
    a = np.zeros((dim, dim), dtype=complex)
    a[alpha - 1, alpha] = np.sqrt(hbar * alpha)
    a_dag = a.conj().T.copy()
    return LadderPair(a=a, a_dag=a_dag)


def weyl_monomial(x_op: np.ndarray, xi_op: np.ndarray, m: int, n: int):
    """Symmetric-ordered matrix of x^m xi^n from given X, Xi matrices."""
    dim = x_op.shape[0]
    xi_n = np.linalg.matrix_power(xi_op, n)
    x_pows = [np.eye(dim, dtype=complex)]
    for _ in range(m):
        x_pows.append(x_pows[-1] @ x_op)
    acc = np.zeros((dim, dim), dtype=complex)
    for k in range(m + 1):
        acc += math.comb(m, k) * (x_pows[k] @ xi_n @ x_pows[m - k])
    # the products alone miss Op^T = (-1)^n Op by rounding
    return (acc + (-1) ** n * acc.T) / 2.0 ** (m + 1)


def quantize_plane(sym: PlaneSymbol, eps: float, hbar: float, N: int):
    """Build the (N+1) x (N+1) matrix of f + i*eps*q in the Fock basis.

    It is the leading block of the matrix assembled at dimension
    N+1+deg(symbol), which a larger N leaves the same up to rounding.
    """
    eps = finite("eps", eps)
    N = integral("N", N)
    if N < 1:
        raise ConfigError("N must be >= 1")
    hbar = positive_hbar(hbar)
    monomials = list(sym.f_coeffs) + list(sym.q_coeffs)
    if any(m > MAX_MONOMIAL_DEGREE or n > MAX_MONOMIAL_DEGREE
           for m, n in monomials):
        raise ConfigError(
            f"monomial degree above {MAX_MONOMIAL_DEGREE} is unsupported")
    basis = Basis(kind="fock", N=N)
    pad_dim = N + 1 + sym.degree
    lp = ladder(pad_dim, hbar)
    x_op = lp.position()
    xi_op = lp.momentum()
    total = np.zeros((pad_dim, pad_dim), dtype=complex)
    for (m, n), c in sorted(sym.f_coeffs.items()):
        total += c * weyl_monomial(x_op, xi_op, m, n)
    for (m, n), c in sorted(sym.q_coeffs.items()):
        total += (1j * eps * c) * weyl_monomial(x_op, xi_op, m, n)
    if not np.isfinite(total).all():
        raise NumericRangeError("overflow while assembling the Fock matrix")
    block = total[:N + 1, :N + 1]
    return TruncatedOperator(
        matrix=block,
        basis=basis,
        hbar=hbar,
    )
