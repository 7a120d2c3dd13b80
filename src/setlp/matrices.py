"""Symmetric positive definite matrices, powers, geometric means, fields.

Powers go through a cached symmetric eigendecomposition and the weighted
geometric mean uses the congruence formula

    mean_t(A, B) = A^(1/2) (A^(-1/2) B A^(-1/2))^t A^(1/2),

with t restricted to the open interval (0, 1); the endpoint cases are the
inputs themselves and stay out of scope.  Construction rejects matrices
that are not symmetric to 1e-12 (relative), not positive definite, or
with eigenvalue ratio beyond 1e12, which keeps every downstream power and
inverse well-conditioned.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grids import DyadicDomain
from .seminorms import GeometricMeanDoubleDual, MatrixNorm

SYMMETRY_RTOL = 1e-12
CONDITION_LIMIT = 1e12


class SpdMatrix:
    """A validated symmetric positive definite matrix with cached spectrum."""

    __slots__ = ("dim", "arr", "_eig")

    def __init__(self, entries):
        A = np.asarray(getattr(entries, "arr", entries), dtype=float)
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise ValueError("matrix must be square")
        d = A.shape[0]
        if d not in (1, 2, 3):
            raise ValueError(f"matrix dimension must be 1, 2 or 3, got {d}")
        scale = float(np.abs(A).max())
        if scale == 0.0 or not np.isfinite(scale):
            raise ValueError("matrix must be finite and nonzero")
        if float(np.abs(A - A.T).max()) > SYMMETRY_RTOL * scale:
            raise ValueError("matrix is not symmetric within 1e-12 relative tolerance")
        A = 0.5 * (A + A.T)
        w, Q = np.linalg.eigh(A)
        if w[0] <= 0.0:
            raise ValueError("matrix is not positive definite")
        if w[-1] / w[0] > CONDITION_LIMIT:
            raise ValueError(
                f"matrix condition {w[-1] / w[0]:.3e} exceeds the guard {CONDITION_LIMIT:.0e}"
            )
        A = np.ascontiguousarray(A)
        A.setflags(write=False)
        self.dim = d
        self.arr = A
        self._eig = (w, Q)

    @property
    def eigenvalues(self) -> np.ndarray:
        return self._eig[0]

    @property
    def operator_norm(self) -> float:
        return float(self._eig[0][-1])

    def power(self, t: float) -> "SpdMatrix":
        w, Q = self._eig
        B = (Q * w ** float(t)) @ Q.T
        return SpdMatrix(0.5 * (B + B.T))

    def inv(self) -> "SpdMatrix":
        return self.power(-1.0)

    def __repr__(self):
        return f"SpdMatrix(dim={self.dim})"

    def to_dict(self) -> dict:
        return {"dim": self.dim, "entries": [float(x) for x in self.arr.ravel()]}

    @classmethod
    def from_dict(cls, data: dict) -> "SpdMatrix":
        d = int(data["dim"])
        return cls(np.asarray(data["entries"], dtype=float).reshape(d, d))


def geometric_mean(A: SpdMatrix, B: SpdMatrix, t: float) -> SpdMatrix:
    """Weighted geometric mean of two SPD matrices, t strictly in (0, 1)."""
    if not isinstance(A, SpdMatrix):
        A = SpdMatrix(A)
    if not isinstance(B, SpdMatrix):
        B = SpdMatrix(B)
    if A.dim != B.dim:
        raise ValueError("dimension mismatch in geometric mean")
    t = float(t)
    if not 0.0 < t < 1.0:
        raise ValueError(f"geometric mean weight must lie strictly in (0, 1), got {t}")
    half = A.power(0.5)
    ihalf = A.power(-0.5)
    mid = ihalf.arr @ B.arr @ ihalf.arr
    mid_t = SpdMatrix(0.5 * (mid + mid.T)).power(t)
    out = half.arr @ mid_t.arr @ half.arr
    return SpdMatrix(0.5 * (out + out.T))


def operator_norm(M) -> float:
    """Largest singular value of a (not necessarily symmetric) matrix."""
    M = np.asarray(getattr(M, "arr", M), dtype=float)
    return float(np.linalg.norm(M, 2))


def operator_norms(batch: np.ndarray) -> np.ndarray:
    """Largest singular values for a stack of matrices, shape (N, d, d)."""
    batch = np.asarray(batch, dtype=float)
    d = batch.shape[-1]
    if d == 1:
        return np.abs(batch[:, 0, 0])
    if d == 2:
        a, b = batch[:, 0, 0], batch[:, 0, 1]
        c, e = batch[:, 1, 0], batch[:, 1, 1]
        tr = a * a + b * b + c * c + e * e
        det = a * e - b * c
        disc = np.sqrt(np.maximum(0.0, tr * tr - 4.0 * det * det))
        return np.sqrt(np.maximum(0.0, 0.5 * (tr + disc)))
    return np.linalg.svd(batch, compute_uv=False)[..., 0]


@dataclass(frozen=True)
class GmNormPair:
    """Double-dual interpolated norm plus its closed-form comparison norm.

    ``double_dual`` is the double dual of |W0 .|^(1-t) |W1 .|^t and
    ``comparison`` is the norm induced by (W0^2 mean_t W1^2)^(1/2), the
    matrix predicted to be equivalent to it.
    """

    double_dual: GeometricMeanDoubleDual
    comparison: MatrixNorm
    mean_matrix: SpdMatrix
    t: float


def gm_double_dual_norm(W0: SpdMatrix, W1: SpdMatrix, t: float, *, directions=None) -> GmNormPair:
    """Build the geometric-mean double-dual norm and its comparison norm."""
    if not isinstance(W0, SpdMatrix):
        W0 = SpdMatrix(W0)
    if not isinstance(W1, SpdMatrix):
        W1 = SpdMatrix(W1)
    dd = GeometricMeanDoubleDual(MatrixNorm(W0.arr), MatrixNorm(W1.arr), t, directions=directions)
    mean = geometric_mean(W0.power(2.0), W1.power(2.0), t)
    comparison = MatrixNorm(mean.power(0.5).arr)
    return GmNormPair(double_dual=dd, comparison=comparison, mean_matrix=mean, t=float(t))


def random_spd_matrix(rng: np.random.Generator, d: int, *,
                      spread: float = 1.0) -> SpdMatrix:
    """Random SPD matrix: Haar-ish rotation with log-uniform eigenvalues.

    The QR sign convention is fixed so equal generator states give
    bitwise-equal matrices.  spread bounds |log eigenvalue|, keeping the
    condition number at most exp(2 * spread).
    """
    if spread < 0.0 or math.exp(2.0 * spread) > CONDITION_LIMIT:
        raise ValueError(f"spread {spread} breaks the condition guard")
    G = rng.standard_normal((d, d))
    Q, R = np.linalg.qr(G)
    Q = Q * np.sign(np.diag(R))
    eigs = np.exp(rng.uniform(-spread, spread, d))
    W = (Q * eigs) @ Q.T
    return SpdMatrix(0.5 * (W + W.T))


class MatrixField:
    """A piecewise-constant SPD matrix field on a dyadic domain."""

    __slots__ = ("domain", "cells")

    def __init__(self, domain: DyadicDomain, cells):
        cells = tuple(c if isinstance(c, SpdMatrix) else SpdMatrix(c) for c in cells)
        if len(cells) != domain.num_cells:
            raise ValueError(
                f"matrix field needs {domain.num_cells} cells, got {len(cells)}"
            )
        dims = {c.dim for c in cells}
        if len(dims) != 1:
            raise ValueError("all cells of a matrix field must share one dimension")
        self.domain = domain
        self.cells = cells

    @property
    def dim(self) -> int:
        return self.cells[0].dim

    def stack(self) -> np.ndarray:
        """All cell matrices as one array, shape (num_cells, d, d)."""
        return np.stack([c.arr for c in self.cells])

    def to_dict(self) -> dict:
        return {
            "n": self.domain.n,
            "grid_level": self.domain.level,
            "cells": {str(i): c.to_dict() for i, c in enumerate(self.cells)},
        }

    @classmethod
    def from_dict(cls, data: dict) -> "MatrixField":
        domain = DyadicDomain(int(data.get("n", 1)), int(data["grid_level"]))
        cells = [SpdMatrix.from_dict(data["cells"][str(i)]) for i in range(domain.num_cells)]
        return cls(domain, cells)
