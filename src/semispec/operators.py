"""Truncated matrix representations of quantized symbols.

Serialization formats (stable, consumed by the CLI and the eigensolver):

* JSON object::

      {"basis": "fourier" | "fock", "N": int, "hbar": float,
       "rows": [[re, im, re, im, ...], ...]}

  ``rows`` lists the matrix rows, each row flattened to interleaved
  real/imaginary parts.  Other keys are ignored on reading, such as the
  "symbol_fingerprint" and "padding" that earlier versions wrote.

* CSV: one matrix row per line, interleaved  re,im,re,im,...
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DomainError

# Largest matrix dimension a Basis admits: circle N <= 1024, Fock N <= 2048.
# A dense complex matrix of this size takes 67 MB, and the O(n^3) QR on it
# about 3 minutes, extrapolated from 0.37 s at dimension 265 on a 2-CPU
# host: the largest matrix one run can still hold and solve in minutes.
MAX_DIMENSION = 2049


def positive_hbar(hbar):
    """hbar as a float; ConfigError unless it is finite and positive."""
    h = float(hbar)
    if not (math.isfinite(h) and h > 0):
        raise ConfigError(f"hbar must be finite and positive, got {hbar!r}")
    return h


def finite(name, value):
    """value as a float; ConfigError unless it is finite."""
    v = float(value)
    if not math.isfinite(v):
        raise ConfigError(f"{name} must be finite, got {value!r}")
    return v


def integral(name, value):
    """value as an int; ConfigError unless it is an integral number."""
    if isinstance(value, (int, np.integer)) or (
            isinstance(value, float) and value.is_integer()):
        return int(value)
    raise ConfigError(f"{name} must be an integer, got {value!r}")


def read_only(a):
    """The array a, flagged read-only in place: a frozen result holding it
    stays immutable."""
    a.flags.writeable = False
    return a


def real_number(name, value):
    """value itself; ConfigError unless it is a real number (a bool is
    not one)."""
    if isinstance(value, (int, float, np.integer, np.floating)) \
            and not isinstance(value, bool):
        return value
    raise ConfigError(f"{name} must be a real number, got {value!r}")


def matrix_fingerprint(m):
    """sha256 of a matrix's shape and raw bytes: the one matrix identity
    used by TruncatedOperator and by SpectrumResult.source_fingerprint."""
    h = hashlib.sha256()
    h.update(repr(m.shape).encode())
    h.update(np.ascontiguousarray(m).tobytes())
    return h.hexdigest()


@dataclass(frozen=True)
class Basis:
    kind: str  # "fourier" or "fock"
    N: int

    def __post_init__(self):
        if self.kind not in ("fourier", "fock"):
            raise ConfigError(f"unknown basis kind {self.kind!r}")
        object.__setattr__(self, "N", integral("N", self.N))
        if self.dimension > MAX_DIMENSION:
            raise ConfigError(f"{self.kind} basis at N = {self.N} has dimension "
                              f"{self.dimension}, above {MAX_DIMENSION}")

    @property
    def dimension(self):
        return 2 * self.N + 1 if self.kind == "fourier" else self.N + 1


@dataclass(frozen=True)
class TruncatedOperator:
    matrix: np.ndarray
    basis: Basis
    hbar: float

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ConfigError(f"matrix must be square, got shape {m.shape}")
        if m.shape[0] != self.basis.dimension:
            raise ConfigError(
                f"matrix dimension {m.shape[0]} does not match basis "
                f"dimension {self.basis.dimension}")
        if not np.isfinite(m).all():
            raise DomainError("matrix has non-finite entries")
        object.__setattr__(self, "matrix", read_only(m.copy()))
        object.__setattr__(self, "hbar", positive_hbar(self.hbar))

    @property
    def dimension(self):
        return self.matrix.shape[0]

    def matrix_fingerprint(self):
        return matrix_fingerprint(self.matrix)

    def to_json_dict(self):
        rows = [
            [float(v) for pair in zip(row.real, row.imag) for v in pair]
            for row in self.matrix
        ]
        return {
            "basis": self.basis.kind,
            "N": self.basis.N,
            "hbar": self.hbar,
            "rows": rows,
        }

    def to_json(self):
        return json.dumps(self.to_json_dict(), sort_keys=True)

    @classmethod
    def from_json_dict(cls, d):
        basis = Basis(kind=d["basis"], N=d["N"])
        rows = d["rows"]
        dim = len(rows)
        if dim != basis.dimension:
            raise ConfigError(f"operator has {dim} rows, its basis dimension "
                              f"is {basis.dimension}")
        m = np.empty((dim, dim), dtype=complex)
        for i, row in enumerate(rows):
            flat = np.asarray(row, dtype=float)
            if flat.size != 2 * dim:
                raise ConfigError(f"row {i} has {flat.size} numbers, "
                                  f"expected {2 * dim}")
            m[i] = flat[0::2] + 1j * flat[1::2]
        if not np.isfinite(m).all():
            raise ConfigError("operator JSON has non-finite matrix entries")
        return cls(matrix=m, basis=basis, hbar=d["hbar"])

    @classmethod
    def from_json(cls, text):
        """Parse the JSON format above; malformed text raises ConfigError."""
        try:
            return cls.from_json_dict(json.loads(text))
        except KeyError as exc:
            raise ConfigError(f"operator JSON lacks key {exc}") from exc
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"malformed operator JSON: {exc}") from exc

    def to_csv(self):
        lines = []
        for row in self.matrix:
            lines.append(",".join(
                repr(float(v)) for pair in zip(row.real, row.imag) for v in pair))
        return "\n".join(lines) + "\n"
