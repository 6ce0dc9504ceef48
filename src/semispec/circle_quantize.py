"""Quantization of circle symbols in the Fourier basis e_l = e^{i l theta}.

The quantization of a term e^{i m theta} a(I) acts on basis vectors by
the midpoint shift rule

    e_l  ->  a(hbar * (l + m/2)) * e_{l+m},

the unique rule that agrees with the symmetric-ordering integral on
periodized symbols; it maps real symbols to selfadjoint matrices
exactly, truncation included.  Couplings that would leave the index
window [-N, N] are dropped.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError
from .operators import (Basis, TruncatedOperator, finite, integral,
                        positive_hbar)
from .symbols import CircleSymbol


def quantize_circle(sym: CircleSymbol, eps: float, hbar: float, N: int):
    """Build the (2N+1) x (2N+1) matrix of f(I) + i*eps*q(theta, I).

    Entry (l+m, l) accumulates c * (hbar*(l + m/2))**n for every term
    e^{i m theta} I^n with coefficient c of the full symbol, for every l
    with both l and l+m in [-N, N].
    """
    eps = finite("eps", eps)
    hbar = positive_hbar(hbar)
    N = integral("N", N)
    if N < 1:
        raise ConfigError("N must be >= 1")
    basis = Basis(kind="fourier", N=N)
    dim = basis.dimension
    ls = np.arange(-N, N + 1)
    mat = np.zeros((dim, dim), dtype=complex)
    diag = np.asarray(sym.f_value((hbar * ls).astype(complex)))
    mat[np.arange(dim), np.arange(dim)] += diag
    for (m, n), c in sym.q_terms.items():
        if abs(m) > 2 * N:
            continue  # couples no two indices of [-N, N]
        keep = (ls + m >= -N) & (ls + m <= N)
        l = ls[keep]
        vals = (1j * eps * c) * (hbar * (l + m / 2.0)) ** n
        mat[l + m + N, l + N] += vals
    return TruncatedOperator(
        matrix=mat,
        basis=basis,
        hbar=hbar,
    )
