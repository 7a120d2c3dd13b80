"""Symmetric positive definite matrices, powers, geometric means, fields.

SPD matrices live only in validated (k, d, d) stacks held with their
symmetric eigendecomposition; a MatrixField is one read-only stack of its
cells, validated once.  Each formula below exists once, for stacks.  The
batched validator rejects matrices that are not symmetric to 1e-12
(relative), not positive definite, or with eigenvalue ratio beyond 1e12,
which keeps every downstream power and inverse well-conditioned.  Powers
go through the eigendecomposition and the weighted geometric mean uses

    mean_t(A, B) = A^(1/2) (A^(-1/2) B A^(-1/2))^t A^(1/2),

matrix by matrix, with t restricted to the open interval (0, 1); the
endpoint cases are the inputs themselves and stay out of scope.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .grids import DyadicDomain

SYMMETRY_RTOL = 1e-12
CONDITION_LIMIT = 1e12


def _sym(M: np.ndarray) -> np.ndarray:
    return 0.5 * (M + np.swapaxes(M, -1, -2))


class SpdStack(NamedTuple):
    """A validated (k, d, d) stack of SPD matrices with its eigh, read-only."""

    arr: np.ndarray
    w: np.ndarray  # (k, d) ascending eigenvalues
    Q: np.ndarray  # (k, d, d) eigenvectors, one per column

    def take(self, idx) -> "SpdStack":
        return SpdStack(self.arr[idx], self.w[idx], self.Q[idx])

    def power(self, t: float) -> "SpdStack":
        B = (self.Q * self.w[:, None, :] ** float(t)) @ np.swapaxes(self.Q, 1, 2)
        return spd_stack(_sym(B))


def spd_stack(entries, *, label: str | None = None) -> SpdStack:
    """Validate a (k, d, d) stack with one batched eigh, keeping its symmetric
    part; errors name the first bad matrix as "<label> <index>" or "matrix"."""
    S = np.asarray(entries, dtype=float)
    if S.ndim != 3 or S.shape[1] != S.shape[2]:
        raise ValueError("matrix must be square")
    if S.shape[-1] not in (1, 2, 3):
        raise ValueError(f"matrix dimension must be 1, 2 or 3, got {S.shape[-1]}")
    with np.errstate(invalid="ignore", divide="ignore"):
        scale = np.abs(S).max(axis=(1, 2))
        checks = [~(np.isfinite(scale) & (scale != 0.0)),
                  np.abs(S - np.swapaxes(S, 1, 2)).max(axis=(1, 2)) > SYMMETRY_RTOL * scale]
        S = _sym(S)
        # rejected matrices go to eigh as the identity, so it sees finite input
        w, Q = np.linalg.eigh(np.where((checks[0] | checks[1])[:, None, None],
                                       np.eye(S.shape[-1]), S))
        cond = w[:, -1] / w[:, 0]
    checks += [w[:, 0] <= 0.0, cond > CONDITION_LIMIT]
    failed = np.logical_or.reduce(checks)
    if failed.any():
        i = int(failed.argmax())
        what = ("must be finite and nonzero",
                "is not symmetric within 1e-12 relative tolerance",
                "is not positive definite",
                f"condition {cond[i]:.3e} exceeds the guard {CONDITION_LIMIT:.0e}")
        name = "matrix" if label is None else f"{label} {i}"
        raise ValueError(f"{name} {next(m for m, bad in zip(what, checks) if bad[i])}")
    for x in (S, w, Q):
        x.setflags(write=False)
    return SpdStack(S, w, Q)


def geometric_mean(A: SpdStack, B: SpdStack, t: float) -> SpdStack:
    """Weighted geometric mean of two equal-shape stacks, matrix by matrix,
    t strictly in (0, 1)."""
    if A.arr.shape != B.arr.shape:
        raise ValueError(f"geometric mean of stacks of shapes {A.arr.shape} and {B.arr.shape}")
    t = float(t)
    if not 0.0 < t < 1.0:
        raise ValueError(f"geometric mean weight must lie strictly in (0, 1), got {t}")
    half, ihalf = A.power(0.5), A.power(-0.5)
    mid = ihalf.arr @ B.arr @ ihalf.arr
    mid_t = spd_stack(_sym(mid)).power(t)
    return spd_stack(_sym(half.arr @ mid_t.arr @ half.arr))


def operator_norms(batch: np.ndarray) -> np.ndarray:
    """Largest singular values for a stack of matrices, shape (N, d, d)."""
    batch = np.asarray(batch, dtype=float)
    d = batch.shape[-1]
    if d == 1:
        return np.abs(batch[:, 0, 0])
    if d == 2:
        return _opnorm_2x2(batch[:, 0, 0], batch[:, 0, 1], batch[:, 1, 0], batch[:, 1, 1])
    return np.linalg.svd(batch, compute_uv=False)[..., 0]


def _opnorm_2x2(a, b, c, e) -> np.ndarray:
    """Largest singular value of [[a, b], [c, e]], elementwise over the entry arrays."""
    tr = a * a + b * b + c * c + e * e
    det = a * e - b * c
    disc = np.sqrt(np.maximum(0.0, tr * tr - 4.0 * det * det))
    return np.sqrt(np.maximum(0.0, 0.5 * (tr + disc)))


def random_spd_matrix(rng: np.random.Generator, d: int, *,
                      spread: float = 1.0) -> np.ndarray:
    """Random symmetric (d, d) array: Haar-ish rotation with log-uniform
    eigenvalues, left for the stack it joins to validate.

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
    return 0.5 * (W + W.T)


class MatrixField:
    """A piecewise-constant SPD matrix field on a dyadic domain: one validated
    stack ``spd`` of all cells."""

    __slots__ = ("domain", "spd")

    def __init__(self, domain: DyadicDomain, cells):
        """cells: an SpdStack, or num_cells matrices (an array or a sequence of arrays)."""
        if not isinstance(cells, SpdStack):
            if len(cells) != domain.num_cells:
                raise ValueError(f"matrix field needs {domain.num_cells} cells, got {len(cells)}")
            cells = spd_stack(cells, label="cell")
        self.domain, self.spd = domain, cells

    @property
    def dim(self) -> int:
        return self.spd.arr.shape[-1]

    def stack(self) -> np.ndarray:
        """All cell matrices as one read-only array, shape (num_cells, d, d)."""
        return self.spd.arr
