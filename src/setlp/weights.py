"""Matrix weight characteristics, cube averaging norms, and reverse factorization.

The matrix characteristic of an SPD field W over a cube family is

    sup_Q ( avg_x ( avg_y ||W(x) W(y)^-1||_op^p' )^(p/p') )^(1/p).

Scalar one-dimensional fields reduce to the classical weight constant
(the p-th root of the classical A_p product for the same cubes), which
the module also computes directly as an independent oracle.  The cube
average A_Q has the exact norm

    N_Q(W) = || <W^2>_Q^(1/2) <W^-2>_Q^(1/2) ||_op

on L^2(|W .|) (Treil and Volberg), which averaging_norms reads off
block sums of W^2 and W^-2 on every aligned cube; averaging_sup_ratio
samples the averaging operators on set-valued fields from support rows.

Weight fields are read as their validated cells × d × d stacks, with no
per-cell matrix object; the fixtures build those stacks directly.
Reverse factorization combines two SPD fields cellwise through the
weighted geometric mean of their squares, in one batch over the stack
with every intermediate validated.
"""

from __future__ import annotations

import math

import numpy as np

from .fields import _power_sum, values_lp_norm
from .grids import DyadicDomain, _cube_cells
from .matrices import MatrixField, _opnorm_2x2, geometric_mean, operator_norms
from .seminorms import direction_grid


_OPNORM_CHUNK = 128  # rows of the pairwise operator-norm matrix built at once


def _pairwise_opnorms(left: np.ndarray, right: np.ndarray, chunk: int) -> np.ndarray:
    """P[x, y] = ||left[x] @ right[y]||_op, chunked over x; closed form on entries at d <= 2."""
    count, d = left.shape[0], left.shape[-1]
    r = np.ascontiguousarray(right.reshape(count, -1).T)  # r[d j + k] = right[:, j, k]
    P = np.empty((count, count))
    for start in range(0, count, chunk):
        part, out = left[start:start + chunk], P[start:start + chunk]
        l = part.reshape(len(part), -1).T[:, :, None]  # l[d i + j] = part[:, i, j], a column
        if d == 1:
            np.abs(l[0] * r[0], out=out)
        elif d == 2:
            out[:] = _opnorm_2x2(l[0] * r[0] + l[1] * r[2], l[0] * r[1] + l[1] * r[3],
                                 l[2] * r[0] + l[3] * r[2], l[2] * r[1] + l[3] * r[3])
        else:
            block = np.einsum("xij,yjk->xyik", part, right).reshape(-1, d, d)
            out[:] = operator_norms(block).reshape(len(part), count)
    return P


def ap_matrix_constant(W: MatrixField, p: float) -> float:
    """Matrix weight characteristic for p > 1 over the aligned dyadic cubes.

    Per level, every cube's block of the pairwise matrix (built in row chunks,
    by the closed form at d <= 2) is one slice of a _cube_cells gather.  The
    monotone outer root is taken once, on the largest cube mean, by the
    scalar pow: numpy's vectorized pow can differ from it in the last bit.
    """
    p = float(p)
    if not (math.isfinite(p) and p > 1.0):
        raise ValueError(f"p must be finite and > 1, got {p}")
    pprime = p / (p - 1.0)
    k, n = W.domain.level, W.domain.n
    stack = W.stack()
    inverse = np.linalg.inv(stack)
    powers = _pairwise_opnorms(stack, inverse, _OPNORM_CHUNK) ** pprime
    top = 0.0
    for j in range(k + 1):
        cells = _cube_cells(n, k, j)
        blocks = powers[cells[:, :, None], cells[:, None, :]]
        inner = blocks.mean(axis=2) ** (p / pprime)
        top = max(top, float(inner.mean(axis=1).max()))
    return top ** (1.0 / p)


def averaging_norms(W: MatrixField) -> list:
    """N_Q(W) on every aligned dyadic cube: one array per level j, over
    the 2^(jn) cubes of that level in row-major order.

    N_Q^2 is the top eigenvalue of <W^2>_Q <W^-2>_Q, read as that of the
    symmetric L^T <W^-2>_Q L with L the Cholesky factor of <W^2>_Q.  Both
    squares come from the stack's eigendecomposition.
    """
    k, n = W.domain.level, W.domain.n
    Q, w = W.spd.Q, W.spd.w
    Qt = np.swapaxes(Q, 1, 2)
    squares, inverse_squares = ((Q * w[:, None, :] ** s) @ Qt for s in (2.0, -2.0))
    out = []
    for j in range(k + 1):
        cells = _cube_cells(n, k, j)
        L = np.linalg.cholesky(squares[cells].mean(axis=1))
        inner = np.swapaxes(L, 1, 2) @ inverse_squares[cells].mean(axis=1) @ L
        out.append(np.sqrt(np.linalg.eigvalsh(inner)[:, -1]))
    return out


def reverse_factorization(W0: MatrixField, W1: MatrixField, t: float) -> MatrixField:
    """Cellwise square root of the weighted geometric mean of squares,
    t strictly in (0, 1).

    Cells with bitwise-equal inputs are passed through unchanged (the
    mean of a matrix with itself is itself), so identical fixtures keep
    identical characteristics, and W0 itself comes back when every cell
    is equal.  The other cells run as one batch.
    """
    if W0.domain != W1.domain:
        raise ValueError("weight fields live on different grids")
    if W0.dim != W1.dim:
        raise ValueError("weight fields have different matrix dimensions")
    if not 0.0 < t < 1.0:
        raise ValueError(f"t must lie strictly in (0, 1), got {t}")
    A, B = W0.spd, W1.spd
    moved = ~(A.arr == B.arr).all(axis=(1, 2))
    if not moved.any():
        return W0
    out = geometric_mean(A.take(moved).power(2.0), B.take(moved).power(2.0), t).power(0.5)
    if moved.all():
        return MatrixField(W0.domain, out)
    cells = np.array(A.arr)
    cells[moved] = out.arr
    return MatrixField(W0.domain, cells)


FIXTURE_CONDITION_CAP = 1e6


def _profile(centers: np.ndarray, amplitude: float, frequency: float,
             phase: float) -> np.ndarray:
    """Smooth bounded profile on the domain, averaged over axes."""
    n = centers.shape[1]
    acc = np.zeros(len(centers))
    for axis in range(n):
        acc += np.sin(2.0 * math.pi * frequency * centers[:, axis] + phase + axis)
    return amplitude * acc / n


def _libm(f, x: np.ndarray) -> np.ndarray:
    """f elementwise via math: numpy's exp and cos can differ in the last bit."""
    return np.array([f(v) for v in x])


def _rotated_diag(angles: np.ndarray, e0: np.ndarray, e1: np.ndarray) -> np.ndarray:
    """R(a) diag(e0, e1) R(a)^T per cell, R(a) the rotation by angle a."""
    c, s = _libm(math.cos, angles), _libm(math.sin, angles)
    R = np.stack([c, -s, s, c], axis=-1).reshape(-1, 2, 2)
    D = np.zeros_like(R)
    D[:, 0, 0], D[:, 1, 1] = e0, e1
    return R @ D @ np.swapaxes(R, 1, 2)


def fixture_weights(kind: str, params: dict | None, grid: DyadicDomain) -> MatrixField:
    """Deterministic SPD weight fields for the verification suites.

    Every kind evaluates a fixed function of position at the cell
    centers, so refining the grid refines the same underlying weight;
    the random kind draws its function coefficients from the seed once,
    independent of the grid level.
    """
    params = dict(params or {})
    centers = grid.cell_centers()
    if kind == "identity":
        d = int(params.pop("dim", 2))
        cells = np.broadcast_to(np.eye(d), (grid.num_cells, d, d))
    elif kind == "constant":
        entries = params.pop("matrix", None)
        if entries is None:
            raise ValueError("constant fixture needs a 'matrix' parameter")
        entries = np.asarray(entries, dtype=float)
        cells = np.broadcast_to(entries, (grid.num_cells,) + entries.shape)
    elif kind == "scalar_two_valued":
        low = float(params.pop("low", 1.0))
        high = float(params.pop("high", 4.0))
        if low <= 0.0 or high <= 0.0:
            raise ValueError("two-valued fixture needs positive values")
        cells = np.where(centers[:, 0] < 0.5, low, high)[:, None, None]
    elif kind == "scalar_profile":
        amplitude = float(params.pop("amplitude", 0.8))
        frequency = float(params.pop("frequency", 1.0))
        phase = float(params.pop("phase", 0.0))
        values = np.exp(_profile(centers, amplitude, frequency, phase))
        cells = values[:, None, None]
    elif kind == "rotated_diag":
        theta0 = float(params.pop("theta0", 0.3))
        theta1 = float(params.pop("theta1", 2.0))
        spread = float(params.pop("spread", 1.0))
        frequency = float(params.pop("frequency", 1.0))
        angles = theta0 + theta1 * centers[:, 0]
        if centers.shape[1] > 1:
            angles = angles + 0.7 * theta1 * centers[:, 1]
        logs = _profile(centers, spread, frequency, 0.25)
        cells = _rotated_diag(angles, _libm(math.exp, logs), _libm(math.exp, -logs))
    elif kind == "random_spd":
        seed = int(params.pop("seed", 0))
        d = int(params.pop("dim", 2))
        spread = float(params.pop("spread", 0.7))
        waves = int(params.pop("waves", 3))
        if d not in (1, 2):
            raise ValueError("random fixture fields support dim 1 or 2")
        rng = np.random.default_rng([982451653, seed])
        coeff = rng.normal(0.0, spread / waves, (3, waves, 2))
        n = centers.shape[1]

        def series(row, shift):
            acc = np.zeros(len(centers))
            for j in range(waves):
                for axis in range(n):
                    arg = 2.0 * math.pi * (j + 1) * centers[:, axis] + shift * (axis + 1)
                    acc += coeff[row, j, 0] * np.cos(arg) + coeff[row, j, 1] * np.sin(arg)
            return acc

        logs = series(0, 0.0)
        if d == 1:
            cells = _libm(math.exp, logs)[:, None, None]
        else:
            cells = _rotated_diag(series(1, 0.5) * math.pi, _libm(math.exp, logs),
                                  _libm(math.exp, series(2, 1.0)))
    else:
        raise ValueError(f"unknown fixture kind {kind!r}")
    field = MatrixField(grid, cells)
    if params:
        raise ValueError(f"unused fixture parameters: {sorted(params)}")
    eig = field.spd.w
    worst = (eig[:, -1] / eig[:, 0]).max()
    if worst > FIXTURE_CONDITION_CAP:
        raise ValueError(
            f"fixture condition {worst:.3e} exceeds the cap {FIXTURE_CONDITION_CAP:.0e}"
        )
    return field


def classical_ap_constant(weight_values, domain: DyadicDomain, p: float) -> float:
    """Classical scalar weight constant over the aligned dyadic cubes.

    sup_Q (avg w) * (avg w^(1/(1-p)))^(p-1), computed directly from the
    cell values, cube by cube, as an oracle for the one-dimensional matrix
    reduction.  The level-j cubes are the blocks of the row-major cell
    array: (2^j, 2^(k-j)) at n = 1, and at n = 2 the (2^j, 2^(k-j)) blocks
    on both axes, taken to one row of cells per cube.
    """
    p = float(p)
    if not (math.isfinite(p) and p > 1.0):
        raise ValueError(f"p must be finite and > 1, got {p}")
    w = np.asarray(weight_values, dtype=float)
    if w.shape != (domain.num_cells,):
        raise ValueError(f"expected {domain.num_cells} cell values, got shape {w.shape}")
    if (w <= 0.0).any():
        raise ValueError("weights must be positive")
    k, n = domain.level, domain.n
    best = 0.0
    for j in range(k + 1):
        cubes, side = 1 << j, 1 << (k - j)
        if n == 2:
            blocks = w.reshape(cubes, side, cubes, side).transpose(0, 2, 1, 3)
        else:
            blocks = w.reshape(cubes, side)
        for part in blocks.reshape(cubes ** n, side ** n):
            best = max(best, part.mean() * (part ** (1.0 / (1.0 - p))).mean() ** (p - 1.0))
    return best


def averaging_sup_ratio(domain: DyadicDomain, inner, p: float, fields) -> float:
    """sup over a sequence of set fields F and aligned cubes Q of ||A_Q F|| /
    ||F||, both norms taken in the rho-weighted L^p, A_Q F being the cube
    average on Q and zero elsewhere.  Finiteness of the sup is the operational
    content of the averaging characterization.

    rho is a field of geometric-mean double duals given by its inner duals, one
    row per cell of ``domain`` on direction_grid(d, inner.shape[1]), d the
    fields' value dimension, as ``seminorms.inner_duals`` returns them.  At the
    polar points, rho_x(K) = max_i h_K(u_i) * (1 / inner[x, i]), h_K the
    support function, the reciprocals taken once: no division pass.  That of an
    Aumann average is the average of its cells' (Rockafellar, Convex Analysis,
    1970), so one support row per cell gives every rho_x(A_Q F).
    """
    p = float(p)
    if not (math.isfinite(p) and p >= 1.0):
        raise ValueError(f"p must be finite and >= 1, got {p}")
    if np.ndim(inner) != 2 or len(inner) != domain.num_cells:
        raise ValueError(f"expected one row of inner duals per cell, {domain.num_cells} "
                         f"rows, got shape {np.shape(inner)}")
    if not fields:
        return 0.0
    grid = direction_grid(fields[0].generators.shape[2], inner.shape[1])
    if len(grid) != inner.shape[1]:
        raise ValueError(f"{inner.shape[1]} inner duals per cell, but the "
                         f"{grid.shape[1]}-dimensional grid has {len(grid)} directions")
    k, n, vol = domain.level, domain.n, domain.cell_volume
    children = [_cube_cells(n, j + 1, j) for j in range(k)]
    recip = 1.0 / inner
    cube_recip = [recip[_cube_cells(n, k, j)] for j in range(k + 1)]
    sup = 0.0
    for field in fields:
        if field.domain != domain:
            raise ValueError("the set field lives on another grid")
        G = field.generators
        dots = np.abs(G.reshape(-1, G.shape[2]) @ grid.T)
        sums = dots.reshape(len(G), -1, len(grid)).max(axis=1)  # h_{F(x)}(u_i)
        base = values_lp_norm((sums * recip).max(axis=1), p, vol)
        if base == 0.0:
            continue
        for j in range(k, -1, -1):
            if j < k:  # children summed into parents, as a cube tree would
                sums = sums[children[j]].sum(axis=1)
            avg = sums * 2.0 ** ((j - k) * n)  # a power of two: exact
            vals = (avg[:, None, :] * cube_recip[j]).max(axis=2)
            for row in vals.tolist():
                sup = max(sup, _power_sum(row, p, vol) ** (1.0 / p) / base)
    return sup
