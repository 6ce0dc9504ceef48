"""Truncated matrix representations of quantized symbols.

Serialization formats (stable, consumed by the CLI and the eigensolver):

* JSON object::

      {"basis": "fourier" | "fock", "N": int, "padding": int,
       "hbar": float, "symbol_fingerprint": str,
       "rows": [[re, im, re, im, ...], ...]}

  ``rows`` lists the matrix rows, each row flattened to interleaved
  real/imaginary parts.

* CSV: one matrix row per line, interleaved  re,im,re,im,...
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DomainError


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
    padding: int = 0

    def __post_init__(self):
        if self.kind not in ("fourier", "fock"):
            raise ConfigError(f"unknown basis kind {self.kind!r}")

    @property
    def dimension(self):
        return 2 * self.N + 1 if self.kind == "fourier" else self.N + 1


@dataclass(frozen=True)
class TruncatedOperator:
    matrix: np.ndarray
    basis: Basis
    hbar: float
    symbol_fingerprint: str

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
        if self.hbar <= 0:
            raise ConfigError("hbar must be positive")
        m = m.copy()
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)

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
            "padding": self.basis.padding,
            "hbar": self.hbar,
            "symbol_fingerprint": self.symbol_fingerprint,
            "rows": rows,
        }

    def to_json(self):
        return json.dumps(self.to_json_dict(), sort_keys=True)

    @classmethod
    def from_json_dict(cls, d):
        rows = d["rows"]
        dim = len(rows)
        m = np.empty((dim, dim), dtype=complex)
        for i, row in enumerate(rows):
            flat = np.asarray(row, dtype=float)
            if flat.size != 2 * dim:
                raise ConfigError(f"row {i} has {flat.size} numbers, "
                                  f"expected {2 * dim}")
            m[i] = flat[0::2] + 1j * flat[1::2]
        basis = Basis(kind=d["basis"], N=int(d["N"]),
                      padding=int(d.get("padding", 0)))
        return cls(matrix=m, basis=basis, hbar=float(d["hbar"]),
                   symbol_fingerprint=str(d.get("symbol_fingerprint", "")))

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
