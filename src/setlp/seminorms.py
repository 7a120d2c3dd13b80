"""Seminorms on R^d, their duals, and geometric-mean double-dual norms.

Every evaluator here is positively homogeneous; the genuine seminorms
additionally satisfy the triangle inequality, so their sup over a
symmetric polytope is attained at a generator.  Dual norms follow

    dual(p)(v) = sup{ |<v, w>| : p(w) <= 1 },

with closed forms for the matrix-induced and gauge variants (the
Euclidean norm is the MatrixNorm of the identity) and a deterministic
direction-grid search with local refinement for everything else.  By
homogeneity the search reduces to maximizing
|<v, w>| / p(w) over unit directions w; the coarse grid pass is followed
by a vectorized golden-section (circle) or compass (sphere) polish, which
brings the values to ~1e-12 relative accuracy so the double-dual ordering
and cross-checks hold at the advertised tolerances.

The double dual of the weighted geometric mean p_t = |A0 .|^(1-t) |A1 .|^t
of two matrix norms is max_i |<v, u_i>| / p_t*(u_i) over a fixed direction
grid, read at the polar points as max_i |<v, u_i / p_t*(u_i)>| (Rockafellar
1970, section 14): no division pass.  The inner duals p_t*(u_i) are exact and
come from one function, ``inner_duals``, for a whole (m, d, d) stack of factor
pairs: a read-only (m, directions) array, each distinct pair solved once.  At
d = 1 they have a closed form; above it the Lagrange conditions of the ratio
reduce to one polynomial of degree 2d - 1 per direction, and every real root in
the interval that holds its variable is tried (``_matrix_mean_duals``: closed
form at d = 2; at d = 3 Descartes' rule of signs on the interval, mapped onto
(0, inf), proves that most rows hold exactly one simple root, solved in the one
bracket that the interval is, and the rest are bracketed between the
derivative's roots, found the same way).  A field of double duals is those rows,
one per cell;
``GeometricMeanDoubleDual`` is the evaluator of one pair, its row from a stack
of one.  A max of absolute linear functionals, it is a genuine norm, and
double_dual(v) <= p_t(v) follows from |<v,u>| <= p_t(v) p_t*(u).
Direction grids nest: the circle grid of m directions is a stride of any
grid whose count is m times a power of two, and the sphere grid of m
directions is a prefix of every larger one.  ``nested_maxima`` reads the
coarser grids' double duals off one fine solve, sharing its polar points,
so each coarse evaluator is a max over a subset of the fine one's
functionals and monotonicity under refinement holds exactly.  On the circle
the polar points and their negatives form a convex ring, and it reads each
probe's maxima off the short arc that faces the probe, where a certificate
proves them the full scan's, bit for bit.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .bodies import ConvexBody, gauge, gauge_batch, support_batch

#: default direction-grid sizes per ambient dimension
DEFAULT_DIRECTIONS = {1: 1, 2: 720, 3: 2562}

_GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0
_SOLVE_BYTES = 1 << 21  # working set of one _matrix_mean_duals batch in inner_duals
_NESTED_BLOCK = 64  # rows per ratio block in nested_maxima: 0.7 MB at 1440 directions
_ARC_TILE = 16  # facing-vertex columns per arc window in nested_maxima (d = 2)
_ARC_SPARE = 8  # columns on each side of a tile: two steps of the 360-direction grid in 1440
_ARC_ROWS = 8  # probes per arc product
_ROOT_TOL = 1e-12  # relative step that ends a bracketed root row
_ROOT_CAP = 64  # iterations; bisection alone narrows a bracket by 2^-64


class DegenerateSeminormError(ValueError):
    """Dual requested for an evaluator whose unit ball is unbounded."""


# -- direction grids ------------------------------------------------------


def _circle_grid(count: int) -> np.ndarray:
    th = np.arange(count) * (np.pi / count)
    return np.column_stack([np.cos(th), np.sin(th)])


def _sphere_sequence(count: int) -> np.ndarray:
    """Prefix-nested low-discrepancy points on the unit sphere.

    Base-2/base-3 radical-inverse pairs mapped area-preservingly; being a
    sequence (not a lattice) makes grids with different sizes nested by
    prefix, which the refinement-monotonicity measurements rely on.
    """
    idx = np.arange(1, count + 1)

    def radical_inverse(base):
        out = np.zeros(len(idx))
        denom = 1.0
        rem = idx.copy()
        while rem.max() > 0:
            denom *= base
            out += (rem % base) / denom
            rem //= base
        return out

    u = radical_inverse(2)
    v = radical_inverse(3)
    z = 1.0 - 2.0 * u
    r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    phi = 2.0 * np.pi * v
    return np.column_stack([r * np.cos(phi), r * np.sin(phi), z])


_GRID_CACHE: dict[tuple[int, int], np.ndarray] = {}


def direction_grid(dim: int, count: int | None = None) -> np.ndarray:
    """Deterministic unit direction grid, shape (count, dim)."""
    if count is None:
        count = DEFAULT_DIRECTIONS[dim]
    key = (dim, count)
    if key not in _GRID_CACHE:
        if dim == 1:
            grid = np.array([[1.0]])
        elif dim == 2:
            grid = _circle_grid(count)
        elif dim == 3:
            grid = _sphere_sequence(count)
        else:
            raise ValueError(f"unsupported dimension {dim}")
        grid.setflags(write=False)
        _GRID_CACHE[key] = grid
    return _GRID_CACHE[key]


# -- refined sphere maximization ------------------------------------------


def _golden_max_circle(func, V, lo, hi, iters=60):
    """Vectorized golden-section maximization of |<v, w(th)>| / p(w(th)).

    One angular bracket per row of V; all rows iterate in lockstep.
    """

    def f(theta):
        dirs = np.column_stack([np.cos(theta), np.sin(theta)])
        num = np.abs(np.einsum("ij,ij->i", V, dirs))
        return num / func(dirs)

    a, b = lo.copy(), hi.copy()
    x1 = b - _GOLDEN * (b - a)
    x2 = a + _GOLDEN * (b - a)
    f1, f2 = f(x1), f(x2)
    for _ in range(iters):
        go_right = f1 < f2
        a = np.where(go_right, x1, a)
        b = np.where(go_right, b, x2)
        x1_new = np.where(go_right, x2, b - _GOLDEN * (b - a))
        x2_new = np.where(go_right, a + _GOLDEN * (b - a), x1)
        f1_new = np.where(go_right, f2, 0.0)
        f2_new = np.where(go_right, 0.0, f1)
        probe = np.where(go_right, x2_new, x1_new)
        fp = f(probe)
        f1 = np.where(go_right, f1_new, fp)
        f2 = np.where(go_right, fp, f2_new)
        x1, x2 = x1_new, x2_new
    return np.maximum(f1, f2)


def _compass_max_sphere(func, V, W0, h0, iters=240, h_min=1e-10):
    """Vectorized compass search on the sphere, one start per row of V."""

    def ratio(W):
        num = np.abs(np.einsum("ij,ij->i", V, W))
        return num / func(W)

    W = W0 / np.linalg.norm(W0, axis=1, keepdims=True)
    best = ratio(W)
    h = np.full(len(W), h0)
    for _ in range(iters):
        if h.max() < h_min:
            break
        ref = np.where(np.abs(W[:, 0:1]) < 0.9, [[1.0, 0.0, 0.0]], [[0.0, 1.0, 0.0]])
        t1 = np.cross(W, ref)
        t1 /= np.linalg.norm(t1, axis=1, keepdims=True)
        t2 = np.cross(W, t1)
        improved = np.zeros(len(W), dtype=bool)
        for step in (t1, -t1, t2, -t2):
            C = W + h[:, None] * step
            C /= np.linalg.norm(C, axis=1, keepdims=True)
            fc = ratio(C)
            better = fc > best
            W = np.where(better[:, None], C, W)
            best = np.where(better, fc, best)
            improved |= better
        h = np.where(improved, h, 0.5 * h)
    return best


def dual_values(func, dim: int, V, *, directions: int | None = None) -> np.ndarray:
    """sup{|<v, w>| : p(w) <= 1} for each row v of V, p given by ``func``.

    ``func`` evaluates the positively homogeneous p on direction stacks.
    Raises DegenerateSeminormError when p vanishes on some direction.
    """
    V = np.atleast_2d(np.asarray(V, dtype=float))
    if dim == 1:
        p1 = float(func(np.array([[1.0]]))[0])
        if not p1 > 0.0:
            raise DegenerateSeminormError("unit ball unbounded: p(1) = 0")
        return np.abs(V[:, 0]) / p1
    count = directions if directions is not None else DEFAULT_DIRECTIONS[dim]
    U = direction_grid(dim, count)
    pu = func(U)
    # relative floor: conditioning is capped at 1e12 everywhere, so a grid
    # value 1e-14 below the peak means p vanishes along some direction
    if not np.all(pu > 1e-14 * pu.max()):
        raise DegenerateSeminormError("unit ball unbounded along a grid direction")
    R = np.abs(V @ U.T) / pu  # (N, M)
    best = R.max(axis=1)
    k = min(3, count)  # refine from the three best grid directions
    top = np.argpartition(R, count - k, axis=1)[:, count - k:]
    if dim == 2:
        theta = np.arange(count) * (np.pi / count)
        h = np.pi / count
        for j in range(k):
            t0 = theta[top[:, j]]
            best = np.maximum(best, _golden_max_circle(func, V, t0 - h, t0 + h))
        return best
    h0 = 2.5 * np.sqrt(4.0 * np.pi / count)
    for j in range(k):
        best = np.maximum(best, _compass_max_sphere(func, V, U[top[:, j]], h0))
    return best


def _monic_roots_on(coef, lo, hi) -> np.ndarray:
    """Every real root on [lo, hi] of monic polynomials, among n candidates each:
    coef (..., n + 1) in increasing powers, the leading 1 implied, lo and hi
    broadcasting against coef[..., :1]; an (..., n) array in [lo, hi].

    Cubics in closed form.  Above that, the Rolle chain: p is monotone between
    consecutive real roots of p', found by this function, so each of the n
    brackets they cut [lo, hi] into holds at most one root.  A bracket where p
    changes sign gives its root by ``_bracketed_laguerre``; one where it does
    not gives its end of smaller |p|, so a double root, a root of p' too, stays
    a candidate.  ``_matrix_mean_duals`` sends it, above cubics, only the rows
    that ``_descartes_roots`` does not certify.
    """
    n = coef.shape[-1] - 1
    if n == 3:
        return np.clip(_cubic_real_parts(coef), lo, hi)
    shape = coef.shape[:-1] + (1,)
    slope = np.concatenate([coef[..., 1:n] * (np.arange(1, n) / n), np.ones(shape)], axis=-1)
    ends = np.concatenate([np.broadcast_to(lo, shape),
                           np.sort(_monic_roots_on(slope, lo, hi), axis=-1),
                           np.broadcast_to(hi, shape)], axis=-1)
    p_ends = _horner(coef[..., None, :], ends)[0]
    a, b, pa, pb = ends[..., :-1], ends[..., 1:], p_ends[..., :-1], p_ends[..., 1:]
    out = np.where(np.abs(pa) <= np.abs(pb), a, b)
    idx = np.nonzero(np.sign(pa) * np.sign(pb) < 0.0)
    out[idx] = _bracketed_laguerre(coef[idx[:-1]], a[idx], b[idx], pa[idx], pb[idx])
    return out


@functools.lru_cache(maxsize=None)
def _mobius_table(n: int) -> np.ndarray:
    """(n + 1, (n + 1)^2) binomial products: row e, column (k, j) the
    coefficient of lo^e y^j in (lo + y)^k (1 + y)^(n - k)."""
    table = np.zeros((n + 1, n + 1, n + 1))
    for k in range(n + 1):
        for i in range(k + 1):  # y^i lo^(k - i) from (lo + y)^k
            for m in range(n - k + 1):  # y^m from (1 + y)^(n - k)
                table[k - i, k, i + m] += math.comb(k, i) * math.comb(n - k, m)
    table = table.reshape(n + 1, -1)
    table.setflags(write=False)
    return table


def _descartes_roots(coef, lo) -> tuple[np.ndarray, np.ndarray]:
    """Descartes' rule of signs on [lo, 1] for monic polynomials coef (..., N,
    n + 1) as in ``_monic_roots_on``, lo in (0, 1] broadcasting against
    coef[..., 0, 0]: (root, changes), both (..., N).

    s = (lo + y) / (1 + y) maps y in (0, inf) onto (lo, 1), and
    (1 + y)^n p(s) = sum_j b_j y^j with b = coef @ M, one (n + 1) x (n + 1)
    binomial matrix M per lo; b_0 = p(lo) and b_n = p(1).  Where every |b_j|
    exceeds its rounding bound the signs are exact, and their ``changes``
    exceed the number of roots on (lo, 1), counted with multiplicity, by an
    even number (Collins & Akritas 1976): one change certifies one simple root,
    found by ``_bracketed_laguerre``, and none certifies that there is none.
    A row with an uncertain sign counts n + 1 changes.  ``root`` is the
    certified root, and lo, an end, on every other row.
    """
    n = coef.shape[-1] - 1
    lo = np.asarray(lo, dtype=float)
    M = (lo[..., None] ** np.arange(n + 1) @ _mobius_table(n)).reshape(lo.shape + (n + 1, n + 1))
    lead = M[..., n:, :]  # the implied leading 1
    b = coef[..., :n] @ M[..., :n, :] + lead
    # M's entries and the products carry at most (3n + 2) u relative to
    # sum_k |c_k| M[k, j]; 4 (n + 1) eps = 8 (n + 1) u leaves room
    bound = 4.0 * (n + 1) * np.finfo(float).eps * (np.abs(coef[..., :n]) @ M[..., :n, :] + lead)
    positive = b > 0.0
    changes = np.count_nonzero(positive[..., 1:] != positive[..., :-1], axis=-1)
    changes[~np.all(np.abs(b) > bound, axis=-1)] = n + 1
    root = np.repeat(lo[..., None], coef.shape[-2], axis=-1)
    one = np.nonzero(changes == 1)
    ends = root[one]
    root[one] = _bracketed_laguerre(coef[one], ends, np.ones_like(ends),
                                    b[..., 0][one], b[..., n][one])
    return root, changes


def _horner(coef, x):
    """p(x), p'(x) and p''(x) / 2 of monic polynomials, coef (..., n + 1)
    broadcasting against x."""
    p, dp, half = np.ones_like(x), np.zeros_like(x), np.zeros_like(x)
    for k in range(coef.shape[-1] - 2, -1, -1):
        half = half * x + dp
        dp = dp * x + p
        p = p * x + coef[..., k]
    return p, dp, half


def _bracketed_laguerre(coef, a, b, pa, pb) -> np.ndarray:
    """The one root on [a, b] of each polynomial (coef rows, degree n), where
    p(a) p(b) < 0: Laguerre's iteration from the secant point, in brackets.

    Newton's step p / p' shrinks x by about 1/n a step while the leading power
    dominates; Laguerre's corrects it for the other n - 1 roots and converges
    cubically.  A step of at most _ROOT_TOL |x| that stays in the bracket ends
    the row, so one that rounds onto an end is still the last.  Any other step
    that leaves the bracket is replaced by bisection.
    """
    n = coef.shape[-1] - 1
    neg, pos = np.where(pa < 0.0, a, b), np.where(pa < 0.0, b, a)
    x = a - pa * (b - a) / (pb - pa)
    out = np.empty_like(x)
    rows = np.arange(len(x))
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(_ROOT_CAP):
            if not len(rows):
                break
            p, dp, half = _horner(coef, x)
            below = p < 0.0
            neg, pos = np.where(below, x, neg), np.where(below, pos, x)
            root = np.sqrt(np.maximum((n - 1) * ((n - 1) * dp * dp - 2 * n * p * half), 0.0))
            step = n * p / (dp + np.copysign(root, dp))
            new = x - step
            inside = (new - neg) * (new - pos) <= 0.0
            tol = _ROOT_TOL * np.abs(x)
            done = (inside & (np.abs(step) <= tol)) | (np.abs(pos - neg) <= tol)
            x = np.where(inside, new, 0.5 * (neg + pos))
            out[rows[done]] = x[done]
            keep = ~done
            rows, coef, x, neg, pos = rows[keep], coef[keep], x[keep], neg[keep], pos[keep]
        out[rows] = x
    return out


def _cubic_real_parts(coef) -> np.ndarray:
    """Real parts of the roots of monic cubics, coef (..., 4) in increasing powers,
    the leading 1 implied: Viete's three real roots where x^3 + p x + q
    (x = s + c2/3) has (q/2)^2 + (p/3)^3 <= 0, else Cardano's."""
    c0, c1, shift = coef[..., 0], coef[..., 1], coef[..., 2] / 3.0
    p, q = c1 - coef[..., 2] * shift, (2.0 * shift * shift - c1) * shift + c0
    disc = (0.5 * q) ** 2 + (p / 3.0) ** 3
    r = np.sqrt(np.maximum(-p / 3.0, 0.0))
    cos3 = np.divide(-q, 2.0 * r ** 3, out=np.zeros_like(q), where=r > 0.0)
    phase = np.arccos(np.clip(cos3, -1.0, 1.0))[..., None] / 3.0
    trig = 2.0 * r[..., None] * np.cos(phase - (2.0 * np.pi / 3.0) * np.arange(3))
    big = -np.cbrt(0.5 * q + np.copysign(np.sqrt(np.maximum(disc, 0.0)), q))
    x1 = big - np.divide(p, 3.0 * big, out=np.zeros_like(p), where=big != 0.0)
    cardano = x1[..., None] * np.array([1.0, -0.5, -0.5])  # the complex pair's real part
    return np.where((disc <= 0.0)[..., None], trig, cardano) - shift[..., None]


def _matrix_mean_duals(A0, A1, t: float, U) -> np.ndarray:
    """Exact p_t*(u) = sup_w |<u, w>| / (|A0 w|^(1-t) |A1 w|^t) per row u of U,
    for a stack of factor pairs A0, A1 (m, d, d): an (m, len(U)) array.

    With A1 A0^-1 = Q diag(sigma) Vt and w = A0^-1 Vt^T y the ratio is
    |<a, y>| / (|y|^(1-t) |sigma y|^t), a = V^T A0^-T u.  Every critical
    point on the sphere has y_i proportional to a_i / ((1-t) s + t sigma_i^2),
    where s = |sigma y|^2 / |y|^2 is a root of the degree 2d - 1 polynomial
    sum_i a_i^2 (s - sigma_i^2) prod_{j != i} ((1-t) s + t sigma_j^2)^2
    in [sigma_min^2, sigma_max^2], solved there for the whole stack at once.
    Each candidate, a root or an end, is an attained ratio, so the max over
    candidates is the supremum.  At d = 3 a row that Descartes' rule certifies
    has the ends and its one root as candidates, and only the other rows are
    gathered for the Rolle chain's five.  Either way a row's value is computed
    from its own pair and direction alone, whatever the rest of the stack.
    At d = 1, p_t(w) = |a0|^(1-t) |a1|^t |w| and p_t*(u) = |u| / (|a0|^(1-t)
    |a1|^t).  Read-only result.
    """
    if U.shape[1] == 1:
        mean = np.abs(A0[:, :, 0]) ** (1.0 - t) * np.abs(A1[:, :, 0]) ** t  # (m, 1)
        if not np.all(mean > 0.0):
            raise DegenerateSeminormError("singular factor: unit ball unbounded")
        best = np.abs(U.T) / mean
        best.setflags(write=False)
        return best
    try:
        inv0 = np.linalg.inv(A0)
    except np.linalg.LinAlgError as exc:
        raise DegenerateSeminormError("singular factor: unit ball unbounded") from exc
    _, sigma, vt = np.linalg.svd(A1 @ inv0)
    if not np.all(sigma[:, -1] > 1e-14 * sigma[:, 0]):  # the grid search's relative floor
        raise DegenerateSeminormError("singular factor: unit ball unbounded")
    sq = (sigma / sigma[:, :1]) ** 2  # s is scale-free: measure it in sigma_max^2
    d = sq.shape[1]
    basis = inv0 @ np.swapaxes(vt, 1, 2)
    a = np.swapaxes(basis, 1, 2) @ U.T  # (m, d, directions): basis^T u per column
    a /= np.linalg.norm(a, axis=1, keepdims=True)
    # row i over (1-t)^(2d-2): roots sigma_i^2 and twice -t/(1-t) sigma_j^2, j != i
    poles = -t / (1.0 - t) * sq
    rows = np.broadcast_to(np.eye(1, 2 * d), (len(sq), d, 2 * d))  # the constant 1
    for root in [sq] + [np.roll(poles, -k, axis=1) for k in range(1, d)] * 2:
        rows = np.roll(rows, 1, axis=2) - root[..., None] * rows  # times (s - root)
    coef = np.swapaxes(a * a, 1, 2) @ rows  # monic as |a| = 1
    lo = sq[:, -1]
    if d == 2:  # closed-form cubics: three candidates on every row
        candidates, rest = np.moveaxis(_monic_roots_on(coef, lo[:, None, None], 1.0), 2, 0), None
    else:  # one, the certified root; the uncertified rows' n below
        certified, changes = _descartes_roots(coef, lo)
        candidates, rest = (certified,), changes > 1
    best = np.zeros((len(sq), len(U)))
    for s in (*candidates, lo[:, None], np.ones((1, 1))):  # and both ends
        W = basis @ (a / ((1.0 - t) * s[:, None, :] + t * sq[..., None]))  # (m, d, directions)
        mean = np.linalg.norm(A0 @ W, axis=1) ** (1.0 - t) * np.linalg.norm(A1 @ W, axis=1) ** t
        best = np.maximum(best, np.abs((W * U.T).sum(axis=1)) / mean)
    if rest is not None and rest.any():  # the Rolle chain's n candidates, on those rows only
        pair, col = np.nonzero(rest)
        s = _monic_roots_on(coef[pair, col], lo[pair, None], 1.0)[:, None, :]  # (rows, 1, n)
        W = basis[pair] @ (a[pair, :, col, None] / ((1.0 - t) * s + t * sq[pair, :, None]))
        mean = (np.linalg.norm(A0[pair] @ W, axis=1) ** (1.0 - t)
                * np.linalg.norm(A1[pair] @ W, axis=1) ** t)
        got = np.abs((W * U[col, :, None]).sum(axis=1)) / mean
        best[pair, col] = np.maximum(best[pair, col], got.max(axis=1))
    if not np.all(best > 0.0):
        raise DegenerateSeminormError("geometric mean degenerate on a grid direction")
    best.setflags(write=False)
    return best


def inner_duals(A0, A1, t: float, directions: int | None = None) -> np.ndarray:
    """p_t*(u_i) = sup_w |<u_i, w>| / (|A0[k] w|^(1-t) |A1[k] w|^t) for every
    factor pair k of the (m, d, d) stacks A0, A1 and every direction u_i of
    direction_grid(d, directions): a read-only (m, len(grid)) array.

    Each distinct pair (equal bytes in both factors) is solved once, so equal
    pairs share bit-identical rows, and a row does not depend on the rest of
    the stack.  The distinct pairs go to ``_matrix_mean_duals`` in batches
    that fit _SOLVE_BYTES: a pair's solve holds about 8 d^2 floats a
    direction (0.35 MB at d = 2 and 0.67 MB at d = 3 on 1440 directions), so
    a stack of any size keeps one batch's working set.
    """
    A0, A1 = np.asarray(A0, dtype=float), np.asarray(A1, dtype=float)
    if A0.ndim != 3 or A0.shape != A1.shape or A0.shape[1] != A0.shape[2]:
        raise ValueError(f"expected two (m, d, d) factor stacks, got {A0.shape} and {A1.shape}")
    if not 0.0 < t < 1.0:
        raise ValueError(f"interpolation parameter must lie strictly in (0, 1), got {t}")
    first = {}  # the first cell of every distinct pair
    pick = [first.setdefault((a.tobytes(), b.tobytes()), k) for k, (a, b) in enumerate(zip(A0, A1))]
    cells, rows = np.unique(pick, return_inverse=True)
    grid = direction_grid(A0.shape[2], directions)
    step = max(1, _SOLVE_BYTES // (64 * A0.shape[2] ** 2 * len(grid)))
    inner = np.concatenate([_matrix_mean_duals(A0[part], A1[part], float(t), grid)
                            for part in np.split(cells, range(step, len(cells), step))])[rows]
    inner.setflags(write=False)
    return inner


def _arc_rings(fine, inner, tile, spare) -> tuple:
    """The rings +-P[k] of polar points P[k, i] = fine[i] / inner[k, i] on the
    circle, as ``_arc_scan`` reads them: which are convex; the edge of each
    from -P[k, M-1] into P[k, 0]; the angles from that edge to the edges into
    P[k, tile], P[k, 2 tile], ..., which are also the angles between their
    outward normals; each tile's window, the (2, tile + 2 spare) points
    P[k, t tile - spare], ... with columns wrapped around, as row (k tiles + t);
    and 8 eps max|P[k]|.

    A ring is convex when every vertex turns left by more than
    8 eps (|detleft| + |detright|) in orient2d of its two edges, above
    Shewchuk's error bound (3 + 16 u) u of the same sum.  Negation is exact, so
    the turns at -P[k, i] are those at P[k, i], and a ring that turns left at
    every vertex while its points go once around the origin is convex.  Its
    edges then turn by half a turn from -P[k, M-1] on to -P[k, 0], and vertex
    i faces the directions whose angle from the first outward normal, modulo
    half a turn, lies between those of the edges into and out of it.
    """
    count, tiles = len(fine), -(-len(fine) // tile)
    columns = (np.arange(tiles * tile + 2 * spare) - spare) % count
    wrapped = np.empty((len(inner), 2, len(columns)))
    np.divide(fine.T[:, columns], inner[:, None, columns], out=wrapped)
    edge = np.diff(wrapped[..., spare - 1:spare + count + 1], axis=2)  # into P[k, 0], ...
    edge[..., 0] = wrapped[..., spare] + wrapped[..., spare - 1]  # the seams, where -P[k]
    edge[..., -1] = -edge[..., 0]  # continues P[k]
    left = edge[:, 0, :-1] * edge[:, 1, 1:]
    right = edge[:, 1, :-1] * edge[:, 0, 1:]
    turn = left - right
    bound = np.abs(left, out=left)
    bound += np.abs(right, out=right)
    bound *= 8.0 * np.finfo(float).eps
    first, rim = edge[:, :, 0], edge[:, :, tile:count:tile]
    x, y = first[:, :1], first[:, 1:]
    rim = np.arctan2(x * rim[:, 1] - y * rim[:, 0], x * rim[:, 0] + y * rim[:, 1])
    window = len(columns) * np.arange(2)[:, None] + np.arange(tile + 2 * spare)
    windows = np.take(wrapped.reshape(len(inner), -1),
                      tile * np.arange(tiles)[:, None, None] + window, axis=1)
    wrapped = wrapped.reshape(len(inner), -1)
    scale = 8.0 * np.finfo(float).eps * np.maximum(wrapped.max(axis=1), -wrapped.min(axis=1))
    return np.all(turn > bound, axis=1), first, rim, windows.reshape(-1, *window.shape), scale


def _facing_angles(first, V) -> np.ndarray:
    """The angle from the outward normal of first[k] to each row v of
    V[k] (K, n, 2), modulo half a turn: it tells the ring vertex v faces."""
    x, y = first[:, :1], first[:, 1:]
    angle = np.arctan2(x * V[..., 0] + y * V[..., 1], y * V[..., 0] - x * V[..., 1])
    return np.where(angle < 0.0, angle + np.pi, angle)


def _arc_blocks(angle, rim, live, tiles) -> tuple[np.ndarray, np.ndarray]:
    """Deal the probes of the pairs ``live`` by facing angle (len(live), n)
    into blocks of _ARC_ROWS, by the tile that their facing vertex falls in
    (tiles 1, 2, ... start at the angles ``rim``).  Returns the blocks' flat
    rows k n + r, a short block repeating its last probe, and each block's
    tile k tiles + t."""
    pairs, n = angle.shape
    by_angle = np.argsort(angle, axis=1) + n * np.arange(pairs)[:, None]
    shift = 4.0 * np.arange(pairs)[:, None]  # past half a turn: one sorted run per pair
    split = np.searchsorted((np.take(angle, by_angle) + shift).ravel(),
                            (rim + shift).ravel()).reshape(rim.shape)
    split = np.column_stack([n * np.arange(pairs), split, n * np.arange(1, pairs + 1)])
    blocks = -(-np.diff(split, axis=1).ravel() // _ARC_ROWS)
    tile = np.repeat(np.arange(len(blocks)), blocks)
    start = np.repeat(split[:, :-1].ravel(), blocks)
    start += _ARC_ROWS * (np.arange(len(tile)) - (np.cumsum(blocks) - blocks)[tile])
    own = np.repeat(split[:, 1:].ravel(), blocks) - start
    rows = (by_angle + n * (live - np.arange(pairs))[:, None]).ravel()
    rows = rows[start[:, None] + np.minimum(np.arange(_ARC_ROWS), own[:, None] - 1)]
    return rows, (tiles * live[:, None] + np.arange(tiles)).ravel()[tile]


def _scan_blocks(V, polar, starts, out) -> None:
    """out[k, r] = the running maxima over the column ranges from starts of
    |V[k, r] @ polar[k]|, in row blocks of _NESTED_BLOCK that each take one
    product with every column; no block has one row unless V[k] has."""
    bounds = [0, *range(_NESTED_BLOCK, V.shape[1] - 1, _NESTED_BLOCK), V.shape[1]]
    block = np.empty((max(np.diff(bounds)), polar.shape[2]))
    for probe, points, o in zip(V, polar, out):
        for lo, hi in zip(bounds, bounds[1:]):
            values = np.matmul(probe[lo:hi], points, out=block[:hi - lo])
            np.abs(values, out=values)
            np.maximum.reduceat(values, starts, axis=1, out=o[lo:hi])
            np.maximum.accumulate(o[lo:hi], axis=1, out=o[lo:hi])


def _arc_scan(V, fine, inner, strides, tile, spare, out) -> np.ndarray:
    """Write to out (K, n, L) the nested maxima of the rows of V (K, n, 2) that
    an arc window certifies, and return a (K, n) mask of the rest: every row
    of a pair whose ring +-P[k] of polar points P[k, i] =
    fine[i] / inner[k, i] is not convex.  Grid j is the stride strides[j] of
    ``fine``; tile and spare are multiples of strides[0].

    Each pair's probes are sorted by facing angle and split, by one
    ``searchsorted`` of the tiles' first normal angles among them, into
    blocks of _ARC_ROWS by the tile of ``tile`` columns that holds their
    facing vertex.  A block's window is its tile and ``spare`` columns on each
    side, wrapping across the sign-flip seam where -P[k, 0] follows
    P[k, M-1]: column i carries |<v, +-P[k, i]>|, which runs down and up once
    around the M columns, and so does every grid's share of it.  Batched
    products, each half as large as a full-scan block, give every block its
    window's values as entries of >= 2-row products.  Where a grid's window
    maximum beats both of that grid's end members in the window by more than
    8 eps |v|_1 max|P[k]|, over twice the rounding of either, the exact
    maximum lies strictly inside the window and every column outside rounds
    below it: the window maximum is the full scan's, bit for bit.
    """
    n, tiles, width = V.shape[1], -(-len(fine) // tile), tile + 2 * spare
    convex, first, rim, windows, scale = _arc_rings(fine, inner, tile, spare)
    live = np.flatnonzero(convex)
    rows, tiled = _arc_blocks(_facing_angles(first[live], V[live]), rim[live], live, tiles)
    tol = scale[:, None] * (np.abs(V[..., 0]) + np.abs(V[..., 1]))
    ends = [width - s for s in strides]
    step = _NESTED_BLOCK * len(fine) // (2 * width * _ARC_ROWS)  # half a full-scan block
    buffer = np.empty((width, min(step, len(rows)), _ARC_ROWS))
    probes, found = V.reshape(-1, 2), out.reshape(-1, len(strides))
    rest = np.repeat(~convex, n)
    for lo in range(0, len(rows), step):
        block = rows[lo:lo + step]
        values = buffer[:, :len(block)]
        np.matmul(np.take(probes, block, axis=0),
                  np.take(windows, tiled[lo:lo + step], axis=0),
                  out=values.transpose(1, 2, 0))
        np.abs(values, out=values)
        maxima = np.empty((len(strides), *block.shape))
        for grid, s in zip(maxima, strides):
            np.max(values[::s], axis=0, out=grid)
        edge = np.maximum(values[0], values[ends])
        edge += np.take(tol, block)
        rest[block[~np.all(maxima > edge, axis=0)]] = True
        found[block] = maxima.transpose(1, 2, 0)  # a repeated probe repeats its own values
    return rest.reshape(-1, n)


@functools.lru_cache(maxsize=64)
def _prefix_order(dim: int, count: int, levels: tuple) -> np.ndarray:
    """The rows of direction_grid(dim, count) reordered so that the grids of
    the increasing counts ``levels`` are its prefixes, else ValueError."""
    fine = direction_grid(dim, count)
    keys = fine.view(np.dtype((np.void, fine.itemsize * fine.shape[1])))[:, 0]
    sorter = np.argsort(keys)
    taken = np.zeros(len(fine), dtype=bool)
    order = []
    for m in levels:
        if m < 1:
            raise ValueError(f"direction count must be positive, got {m}")
        coarse = direction_grid(dim, m)
        hit = sorter[np.searchsorted(keys, coarse.view(keys.dtype)[:, 0], sorter=sorter)
                     .clip(max=len(fine) - 1)]
        order.append(hit[~taken[hit]])
        taken[hit] = True
        if not np.array_equal(fine[hit], coarse) or taken.sum() != m:
            raise ValueError(f"the {m}-direction grid is not nested in "
                             f"the {len(fine)}-direction grid")
    order = np.concatenate(order)
    order.setflags(write=False)
    return order


def nested_maxima(V, inner, counts) -> np.ndarray:
    """max_i |<v, u_i / inner[k, i]>| over the directions u_i of
    direction_grid(d, m), for each m in counts, each pair k and each row v of
    V[k]: V (K, n, d) probes, inner (K, M) inner duals on the M-direction grid;
    a (K, len(counts), n) array, at M bitwise GeometricMeanDoubleDual.values.

    Each coarse grid must be a set of rows of the fine one, matched value for
    value through one index sort of the fine rows, and hold every smaller grid
    of counts, else ValueError.  The fine grid is reordered once per set of
    counts (``_prefix_order``) so that the grids, by increasing count, are its
    prefixes: [0::4, 2::4, 1::2] for (360, 720, 1440) on the circle, the
    identity on the sphere.  The polar points are formed once per pair: no
    division pass.

    At d = 2 the polar points P[k] of a pair and their negatives form a ring,
    checked to be convex, on which max_i |<v, P[k, i]>| is attained on the
    short arc facing v.  Each probe takes its products with only a window of
    _ARC_TILE + 2 _ARC_SPARE = 32 columns around its facing vertex, in blocks
    of _ARC_ROWS probes, and a window's maxima stand when they beat that
    grid's two end members in the window by more than the rounding allows:
    they are then the full scan's, bit for bit (``_arc_scan``).  Every other
    row, every pair whose ring is not convex, and all of d = 3 take the block
    scan: one product of each 64-row block of V[k] with every polar point in
    prefix order, and a grid's maximum as the running maximum of the maxima
    over the contiguous column ranges up to its end.  No product has one row
    unless V[k] has, as numpy rounds a one-row product differently.
    """
    V, inner = np.asarray(V, dtype=float), np.asarray(inner, dtype=float)
    fine = direction_grid(V.shape[2], inner.shape[1])
    levels = sorted(set(counts))
    order = _prefix_order(V.shape[2], len(fine), tuple(levels))
    out = np.empty((len(V), V.shape[1], len(levels)))
    starts = [0, *levels[:-1]]
    strides = [len(fine) // m for m in levels]
    tile, spare = (-(-c // strides[0]) * strides[0] for c in (_ARC_TILE, _ARC_SPARE))
    if (V.shape[2] != 2 or V.shape[1] < 2 or len(V) == 0 or 4 * (tile + 2 * spare) > len(fine)
            or any(s * m != len(fine) or strides[0] % s for s, m in zip(strides, levels))):
        _scan_blocks(V, np.swapaxes(fine[order] / inner[:, order, None], 1, 2), starts, out)
    else:
        rest = _arc_scan(V, fine, inner, strides, tile, spare, out)
        for k in np.flatnonzero(rest.any(axis=1)):
            left = np.flatnonzero(rest[k])
            scan = left if len(left) > 1 else np.append(left, left[0] - 1)  # no one-row product
            sub = np.empty((1, len(scan), len(levels)))
            polar = np.swapaxes(fine[order] / inner[k:k + 1, order, None], 1, 2)
            _scan_blocks(V[k:k + 1, scan], polar, starts, sub)
            out[k, left] = sub[0, :len(left)]
    return out.transpose(0, 2, 1)[:, [levels.index(m) for m in counts]]


# -- evaluator hierarchy --------------------------------------------------


class Seminorm:
    """A convex positively homogeneous evaluator on R^dim, values(V) on row
    stacks; its sup over a body sits at a generator."""

    dim: int

    def of_body(self, body: ConvexBody) -> float:
        if body.dim != self.dim:
            raise ValueError("body dimension mismatch")
        if body.is_origin():
            return 0.0
        return float(np.max(self.values(body.generators)))


class MatrixNorm(Seminorm):
    """v |-> |A v| for a square matrix A (a norm iff A is invertible)."""

    def __init__(self, matrix):
        A = np.asarray(matrix, dtype=float)
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise ValueError("matrix-induced seminorm needs a square matrix")
        self.matrix = np.ascontiguousarray(A)
        self.dim = A.shape[0]
        self._inv_t = None

    def _inverse_transpose(self) -> np.ndarray:
        if self._inv_t is None:
            self._inv_t = np.linalg.inv(self.matrix).T
        return self._inv_t

    def values(self, V):
        V = np.atleast_2d(np.asarray(V, dtype=float))
        return np.linalg.norm(V @ self.matrix.T, axis=1)

    def __repr__(self):
        return f"MatrixNorm(dim={self.dim})"


class GaugeNorm(Seminorm):
    """The Minkowski functional of a symmetric convex body."""

    def __init__(self, body: ConvexBody):
        if body.is_origin():
            raise ValueError("gauge seminorm needs a nondegenerate body")
        self.body = body
        self.dim = body.dim
        scale = float(np.abs(body.generators).max())
        rank = np.linalg.matrix_rank(body.generators, tol=1e-12 * scale)
        self._full_dim = rank == body.dim

    def values(self, V):
        V = np.atleast_2d(np.asarray(V, dtype=float))
        if self._full_dim and self.dim > 1:
            return gauge_batch(self.body, V)
        return np.array([gauge(self.body, v) for v in V])

    def __repr__(self):
        return f"GaugeNorm(dim={self.dim}, generators={self.body.num_generators})"


class DualNorm(Seminorm):
    """Dual of a seminorm.

    Closed forms: dual of |A.| is |A^-T .|; dual of a gauge is the
    support function of the same body.  Any other base (including a
    DualNorm itself) evaluates through the refined direction-grid search.
    """

    def __init__(self, base: Seminorm, *, directions: int | None = None):
        self.base = base
        self.dim = base.dim
        self.directions = directions

    def values(self, V):
        V = np.atleast_2d(np.asarray(V, dtype=float))
        base = self.base
        if isinstance(base, MatrixNorm):
            try:
                Winv_t = base._inverse_transpose()
            except np.linalg.LinAlgError as exc:
                raise DegenerateSeminormError("matrix seminorm is singular; dual unbounded") from exc
            return np.linalg.norm(V @ Winv_t.T, axis=1)
        if isinstance(base, GaugeNorm):
            return support_batch(base.body, V)
        return dual_values(base.values, self.dim, V, directions=self.directions)

    def __repr__(self):
        return f"DualNorm(base={self.base!r})"


class GeometricMeanDoubleDual(Seminorm):
    """Double dual of the weighted geometric mean of two matrix-induced norms.

    The inner dual values p_t*(u_i) on the direction grid are the exact
    suprema from ``inner_duals`` on a stack of one pair, so a cell of a
    batched solve and the same pair built alone carry the same bits.  The
    polar points u_i / p_t*(u_i), formed once, make the evaluator a max of
    absolute linear functionals with no division pass, hence a norm, bounded
    above by the raw geometric mean pointwise.  The read-only arrays ``grid``
    (the u_i) and ``inner`` (the p_t*(u_i)) give it in closed form.
    """

    def __init__(self, p0: Seminorm, p1: Seminorm, t: float, *, directions: int | None = None):
        if p0.dim != p1.dim:
            raise ValueError("dimension mismatch between the two factors")
        if not 0.0 < t < 1.0:
            raise ValueError(f"interpolation parameter must lie strictly in (0, 1), got {t}")
        self.p0, self.p1, self.t, self.dim = p0, p1, float(t), p0.dim
        self.directions = directions if directions is not None else DEFAULT_DIRECTIONS[self.dim]
        self.grid = direction_grid(self.dim, self.directions)
        if getattr(p0, "matrix", None) is None or getattr(p1, "matrix", None) is None:
            raise TypeError("a double dual needs matrix-induced factors")
        self.inner = inner_duals(p0.matrix[None], p1.matrix[None], self.t, self.directions)[0]
        self._polar = self.grid / self.inner[:, None]

    def values(self, V):
        """max_i |<v, u_i / inner[i]>| per row v of V, at the polar points."""
        return np.abs(np.atleast_2d(np.asarray(V, dtype=float)) @ self._polar.T).max(axis=1)

    def mean_values(self, V) -> np.ndarray:
        """The raw geometric mean p_t = p0^(1-t) p1^t on a stack of vectors:
        homogeneous but in general not convex."""
        V = np.atleast_2d(np.asarray(V, dtype=float))
        return self.p0.values(V) ** (1.0 - self.t) * self.p1.values(V) ** self.t

    def __repr__(self):
        return f"GeometricMeanDoubleDual(t={self.t}, directions={self.directions})"
