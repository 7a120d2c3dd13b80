"""Fractional averaging and maximal operators over dyadic cube families.

The fractional average of a set field over a cube Q is the set integral
over Q clipped to the domain, scaled by clip_vol(Q)^(alpha - 1); alpha=0
gives the plain averaging operator.  The maximal field at a cell is the
convex hull of the union of those averages over all admissible cubes of
one (possibly translated) dyadic grid, from the unit cube down to the
data resolution.  For a translated grid a cube is admissible for a cell
only when it contains the whole cell; cells cut by every cube boundary
of that grid get the degenerate body {0} there.

Interpolation bookkeeping lives in ExponentConfig: a pair of endpoint
exponents, a mixing weight, and the explicit strong-type constant

    2 * (q/|q - q0| + q/|q - q1|)^(1/q) * c0^(1-t) * c1^t,

where an infinite endpoint contributes nothing to the sum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from itertools import product
from typing import NamedTuple

import numpy as np

from .bodies import ConvexBody, conv_union, fold_minkowski, origin_body, scale, support_batch
from .fields import SetField, add_fields, cell_magnitudes
from .grids import (
    DyadicCube,
    DyadicDomain,
    _ancestor_ids,
    cube_containing_point,
    cubes_covering_domain,
    dyadic_cube_family,
    parent_cube,
)
from .seminorms import direction_grid

_RECIP_TOL = 1e-12


def _recip(x: float) -> float:
    return 0.0 if math.isinf(x) else 1.0 / x


@dataclass(frozen=True)
class ExponentConfig:
    """Endpoint exponents, mixing weight, and the interpolated pair.

    The interpolated exponents satisfy 1/p = (1-t)/p0 + t/p1 and
    1/q = (1-t)/q0 + t/q1.  Supplying p or q explicitly is allowed as a
    cross-check; a mismatch beyond 1e-12 in the reciprocal is an error.
    """

    p0: float
    q0: float
    p1: float
    q1: float
    t: float
    c0: float = 1.0
    c1: float = 1.0
    p: float = dc_field(default=None)
    q: float = dc_field(default=None)

    def __post_init__(self):
        for name in ("p0", "p1"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v >= 1.0):
                raise ValueError(f"{name} must be finite and >= 1, got {v}")
        for name in ("q0", "q1"):
            v = getattr(self, name)
            if not (v >= 1.0):
                raise ValueError(f"{name} must be >= 1 (inf allowed), got {v}")
        if self.q0 == self.q1:
            raise ValueError("endpoint target exponents must differ")
        if not 0.0 < self.t < 1.0:
            raise ValueError(f"mixing weight t must lie strictly in (0, 1), got {self.t}")
        if not (self.c0 > 0.0 and self.c1 > 0.0):
            raise ValueError("endpoint constants must be positive")
        rp = (1.0 - self.t) * _recip(self.p0) + self.t * _recip(self.p1)
        rq = (1.0 - self.t) * _recip(self.q0) + self.t * _recip(self.q1)
        p = math.inf if rp == 0.0 else 1.0 / rp
        q = math.inf if rq == 0.0 else 1.0 / rq
        if self.p is not None and abs(_recip(self.p) - rp) > _RECIP_TOL:
            raise ValueError(f"supplied p={self.p} is not the interpolated exponent {p}")
        if self.q is not None and abs(_recip(self.q) - rq) > _RECIP_TOL:
            raise ValueError(f"supplied q={self.q} is not the interpolated exponent {q}")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)

    @classmethod
    def for_fractional_maximal(cls, alpha: float, t: float) -> "ExponentConfig":
        """Endpoints of the order-alpha maximal operator, both constants 1."""
        alpha = float(alpha)
        if not 0.0 < alpha < 1.0:
            raise ValueError(f"alpha must lie strictly in (0, 1), got {alpha}")
        return cls(p0=1.0 / alpha, q0=math.inf, p1=1.0, q1=1.0 / (1.0 - alpha), t=t)

    @property
    def alpha(self) -> float:
        """1/p - 1/q, constant along the fractional-maximal segment."""
        return _recip(self.p) - _recip(self.q)

    @property
    def interpolation_constant(self) -> float:
        """Explicit strong-type constant for the interpolated pair."""
        q = self.q
        if math.isinf(q):
            raise ValueError("interpolated q is infinite; the explicit constant needs q < inf")
        term0 = 0.0 if math.isinf(self.q0) else q / abs(q - self.q0)
        term1 = 0.0 if math.isinf(self.q1) else q / abs(q - self.q1)
        mixed = self.c0 ** (1.0 - self.t) * self.c1 ** self.t
        return 2.0 * (term0 + term1) ** (1.0 / q) * mixed

    def to_dict(self) -> dict:
        def enc(x):
            return "inf" if math.isinf(x) else x

        return {
            "p0": enc(self.p0), "q0": enc(self.q0),
            "p1": enc(self.p1), "q1": enc(self.q1),
            "t": self.t, "c0": self.c0, "c1": self.c1,
            "p": enc(self.p), "q": enc(self.q),
        }


def _check_alpha(alpha: float) -> float:
    alpha = float(alpha)
    if not 0.0 <= alpha < 1.0:
        raise ValueError(f"alpha must lie in [0, 1), got {alpha}")
    return alpha


def _cell_overlaps(domain: DyadicDomain, cube: DyadicCube):
    """(cell index, exact overlap volume) pairs for cells meeting a cube.

    Per axis, in units of 1/(3*2^L) with L the finer of the two levels, the
    cube spans [A*2^(L-j), (A+3)*2^(L-j)) and cell c spans [c*w, (c+1)*w)
    with w = 3*2^(L-k).
    """
    fine = max(cube.level, domain.level)
    grow = 1 << (fine - cube.level)
    width = 3 << (fine - domain.level)
    last = domain.cells_per_axis - 1
    axes = []
    for a in cube.corner:
        lo, hi = a * grow, (a + 3) * grow
        axes.append([(c, min(hi, (c + 1) * width) - max(lo, c * width))
                     for c in range(max(0, lo // width), min(last, (hi - 1) // width) + 1)])
    denom = (3 << fine) ** domain.n
    for combo in product(*axes):
        coords = tuple(c for c, _ in combo)
        weight = 1
        for _, seg in combo:
            weight *= seg
        yield domain.cell_index(coords), Fraction(weight, denom)


def aligned_cells(domain: DyadicDomain, cube: DyadicCube) -> list[int]:
    """Indices of the cells covered by an untranslated grid cube."""
    if any(t != 0 for t in cube.tau):
        raise ValueError("aligned cell lookup needs an untranslated cube")
    if cube.level > domain.level:
        raise ValueError(
            f"cube at level {cube.level} is finer than the data grid (level {domain.level})"
        )
    reps = 1 << (domain.level - cube.level)
    ranges = [range(m * reps, (m + 1) * reps) for m in cube.coords]
    return [domain.cell_index(coords) for coords in product(*ranges)]


def _cube_integral(field: SetField, cube: DyadicCube) -> ConvexBody:
    """Set integral of the field over one cube, boundary cells clipped."""
    parts = [
        scale(float(w), field.cells[idx])
        for idx, w in _cell_overlaps(field.domain, cube)
    ]
    return fold_minkowski(parts, field.dim)


def frac_average(field: SetField, cube: DyadicCube, alpha: float) -> ConvexBody:
    """Order-alpha fractional average of the field over one grid cube.

    alpha = 0 is the plain average.  A translated cube reaching past the
    domain is normalized by its clipped volume.
    """
    domain = field.domain
    if cube.n != domain.n:
        raise ValueError(f"cube dimension {cube.n} does not match the domain ({domain.n})")
    if cube.level > domain.level:
        raise ValueError(
            f"cube at level {cube.level} is finer than the data grid (level {domain.level})"
        )
    alpha = _check_alpha(alpha)
    vol = cube.clip_volume()
    if vol == 0:
        raise ValueError("cube does not meet the field domain")
    return scale(float(vol) ** (alpha - 1.0), _cube_integral(field, cube))


def _zero_tau(n: int) -> tuple:
    return tuple([Fraction(0)] * n)


def _normalize_tau(n: int, tau) -> tuple:
    if tau is None:
        return _zero_tau(n)
    tau = tuple(Fraction(t) for t in tau)
    if len(tau) != n:
        raise ValueError(f"translation needs {n} components, got {len(tau)}")
    allowed = {Fraction(0), Fraction(1, 3), Fraction(-1, 3)}
    if any(t not in allowed for t in tau):
        raise ValueError("translation components must be 0, 1/3 or -1/3")
    return tau


class CubeTree(NamedTuple):
    """Per level j = 0..k, dicts keyed by cube coords: levels[j] holds the
    cube, integrals[j] its set integral clipped to the domain, parents[j]
    its parent's coords (parents[0] is empty), volumes[j] its clipped
    volume as a float."""

    levels: list
    integrals: list
    parents: list
    volumes: list


def cube_integral_tree(field: SetField, tau=None) -> CubeTree:
    """Cube maps, parent links, clipped volumes and exact set integrals
    for one grid.  Level k is read straight off the cells and coarser
    levels are Minkowski sums of their children.
    """
    domain = field.domain
    k, n, dim = domain.level, domain.n, field.dim
    tau = _normalize_tau(n, tau)
    aligned = all(t == 0 for t in tau)
    levels = [{c.coords: c for c in cubes_covering_domain(n, tau, j)} for j in range(k + 1)]
    parents = [{}] + [{m: parent_cube(c).coords for m, c in cubes.items()}
                      for cubes in levels[1:]]
    volumes = [{m: float(c.clip_volume()) for m, c in cubes.items()} for cubes in levels]

    integrals: list[dict] = [dict() for _ in range(k + 1)]
    if aligned:
        vol = domain.cell_volume
        for coords in levels[k]:
            integrals[k][coords] = scale(vol, field.cells[domain.cell_index(coords)])
    else:
        for coords, cube in levels[k].items():
            integrals[k][coords] = _cube_integral(field, cube)
    for j in range(k - 1, -1, -1):
        children: dict = {}
        for coords, up in parents[j + 1].items():
            children.setdefault(up, []).append(integrals[j + 1][coords])
        for coords in levels[j]:
            parts = children.get(coords)
            integrals[j][coords] = (
                fold_minkowski(parts, dim) if parts else origin_body(dim)
            )
    return CubeTree(levels, integrals, parents, volumes)


def _maximal_for_grid(field: SetField, alpha: float, tau) -> SetField:
    """Maximal field over the admissible cubes of one translated grid."""
    domain = field.domain
    k, n, dim = domain.level, domain.n, field.dim
    aligned = all(t == 0 for t in tau)
    tree = cube_integral_tree(field, tau)

    # union of fractional averages along each ancestor chain, root down
    accum: list[dict] = [dict() for _ in range(k + 1)]
    for j in range(k + 1):
        for coords, vol in tree.volumes[j].items():
            avg = scale(vol ** (alpha - 1.0), tree.integrals[j][coords])
            if j == 0:
                accum[0][coords] = avg
            else:
                accum[j][coords] = conv_union(accum[j - 1][tree.parents[j][coords]], avg)

    out = []
    if aligned:
        for idx in range(domain.num_cells):
            out.append(accum[k][domain.cell_coords(idx)])
        return SetField(domain, out)
    for idx in range(domain.num_cells):
        lo, hi = domain.cell_box(idx)
        center = domain.cell_center(idx)
        body = origin_body(dim)
        # deepest cube of this grid containing the whole cell, if any
        for j in range(k, -1, -1):
            cube = cube_containing_point(center, n, tau, j)
            if cube.contains_box(lo, hi):
                body = accum[j][cube.coords]
                break
        out.append(body)
    return SetField(domain, out)


def dyadic_frac_maximal(field: SetField, alpha: float, tau=None) -> SetField:
    """Fractional maximal field over one dyadic grid (default untranslated)."""
    alpha = _check_alpha(alpha)
    tau = _normalize_tau(field.domain.n, tau)
    return _maximal_for_grid(field, alpha, tau)


# -- array-native magnitudes on the untranslated grid ------------------------
#
# The field suites only need |int_Q F| over aligned cubes and the magnitude
# identity |M_alpha F|(x) = max over cubes Q containing x of
# vol(Q)^(alpha-1) |int_Q F|.  These functions compute both from the
# generator array with no ConvexBody or Qhull call, and stay apart from the
# body path above, which remains the reference.


def _cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return a[..., 0] * b[..., 1] - a[..., 1] * b[..., 0]


def planar_hulls(G: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vertices of conv{+-g_i} for every cell of a (cells x m x 2) array.

    Returns (V, count): V[c, :count[c]] are cell c's hull vertices in
    counterclockwise angle order, the remaining rows are padding.  The
    points +-g_i are sorted by angle about the origin, keeping the longest
    of each equal-angle run and no zero point; then every vertex without a
    strict left turn between its neighbors lies in the triangle they span
    with the origin and is dropped, round by round, until none is left.
    A point of the cell's largest norm is a vertex and is never dropped.
    """
    P = np.concatenate([G, -G], axis=1) + 0.0  # no -0.0: its angle could be -pi
    norms = np.linalg.norm(P, axis=2)
    ang = np.arctan2(P[..., 1], P[..., 0])
    order = np.lexsort((-norms, ang), axis=1)
    P = np.take_along_axis(P, order[..., None], axis=1)
    norms = np.take_along_axis(norms, order, axis=1)
    ang = np.take_along_axis(ang, order, axis=1)
    keep = norms > 0.0
    keep[:, 1:] &= ang[:, 1:] != ang[:, :-1]
    fixed = keep & (norms == norms.max(axis=1, keepdims=True))
    pos = np.arange(P.shape[1])
    while True:
        # kept points first, still in angle order
        idx = np.argsort(~keep, axis=1, kind="stable")
        P = np.take_along_axis(P, idx[..., None], axis=1)
        fixed = np.take_along_axis(fixed, idx, axis=1)
        count = keep.sum(axis=1)
        live = pos < count[:, None]
        wrap = np.maximum(count, 1)[:, None]
        prev = np.take_along_axis(P, ((pos - 1) % wrap)[..., None], axis=1)
        nxt = np.take_along_axis(P, ((pos + 1) % wrap)[..., None], axis=1)
        drop = live & ~fixed & (_cross(P - prev, nxt - P) <= 0.0)
        if not drop.any():
            return P, count
        keep = live & ~drop


def cube_magnitudes(field: SetField) -> list[np.ndarray]:
    """|int_Q F| for every aligned cube Q, level by level.

    Entry j is an array over the 2^(jn) cubes of level j in row-major
    order (entry k is over the cells).  d = 1: block sums of the cell
    radii, each level grouping the one below by coordinates shifted right
    by one.  d = 2: one edge merge per level, every cube at once: each
    cell's hull edges are sorted by angle once, a stable sort by cube
    groups them per cube, and a per-cube cumulative sum from the summed
    lowest vertices walks the boundary of the cube's Minkowski sum, whose
    magnitude is its largest vertex norm: one sqrt per cube, of the largest
    x^2 + y^2, bitwise np.linalg.norm's maximum as sqrt is monotone.
    """
    domain = field.domain
    k, n, dim = domain.level, domain.n, field.dim
    vol = domain.cell_volume
    radii = cell_magnitudes(field)
    if dim == 1:
        # children sum into parents level by level: a short sum per cube
        sums = [radii * vol]
        for j in range(k - 1, -1, -1):
            sums.append(np.bincount(_ancestor_ids(n, j + 1, j), weights=sums[-1],
                                    minlength=1 << (j * n)))
        return sums[::-1]
    if dim != 2:
        raise ValueError(f"array-native cube magnitudes need d <= 2, got d = {dim}")
    V, count = planar_hulls(field.generators)
    cells, slots = V.shape[:2]
    pos = np.arange(slots)
    live = pos < count[:, None]
    nxt = np.take_along_axis(V, ((pos + 1) % np.maximum(count, 1)[:, None])[..., None], axis=1)
    edges = np.where(live[..., None], nxt - V, 0.0).reshape(-1, 2)
    # lowest vertex: least y, then least x; a zero cell's is the origin
    low = np.lexsort((V[..., 0], np.where(live, V[..., 1], np.inf)), axis=1)[:, 0]
    start = np.where(live[:, :1], V[np.arange(cells), low], 0.0)
    by_angle = np.argsort(np.mod(np.arctan2(edges[:, 1], edges[:, 0]), 2.0 * np.pi),
                          kind="stable")
    edge_cell = by_angle // slots
    out = []
    for j in range(k):
        cube = _ancestor_ids(n, k, j)
        cubes = 1 << (j * n)
        perm = by_angle[np.argsort(cube[edge_cell], kind="stable")]
        walk = np.cumsum(edges[perm].reshape(cubes, slots << ((k - j) * n), 2), axis=1)
        walk += np.column_stack([np.bincount(cube, weights=start[:, a], minlength=cubes)
                                 for a in range(2)])[:, None, :]
        walk *= walk
        out.append(np.sqrt(walk.sum(axis=2).max(axis=1)) * vol)
    return out + [radii * vol]


def maximal_magnitudes(cube_mags: list, n: int, alpha: float) -> np.ndarray:
    """|M_alpha F| per cell on the untranslated grid, from cube_magnitudes:
    a running max down the levels of vol(Q)^(alpha-1) |int_Q F|."""
    alpha = _check_alpha(alpha)
    best = None
    for j, mags in enumerate(cube_mags):
        avg = mags * (2.0 ** (-j * n)) ** (alpha - 1.0)
        best = avg if j == 0 else np.maximum(best[_ancestor_ids(n, j, j - 1)], avg)
    return best


def _halve(a: np.ndarray, axis: int) -> np.ndarray:
    shape = list(a.shape)
    shape[axis] //= 2
    shape.insert(axis + 1, 2)
    return a.reshape(shape).sum(axis=axis + 1)


def scalar_frac_maximal(values, domain: DyadicDomain, alpha: float, tau=None) -> np.ndarray:
    """Fractional maximal of a scalar cell array, row-major cell order.

    Independent of the set valued path: the untranslated grid runs on
    plain block sums and running maxima over numpy arrays; a translated
    grid walks each cell's containing cubes directly.
    """
    alpha = _check_alpha(alpha)
    k, n = domain.level, domain.n
    tau = _normalize_tau(n, tau)
    v = np.asarray(values, dtype=float)
    if v.shape != (domain.num_cells,):
        raise ValueError(f"expected {domain.num_cells} cell values, got shape {v.shape}")
    if (v < 0.0).any():
        raise ValueError("scalar maximal expects nonnegative cell values")
    if any(t != 0 for t in tau):
        return _scalar_maximal_translated(v, domain, alpha, tau)
    grid = v.reshape([domain.cells_per_axis] * n)
    sums = grid * domain.cell_volume
    best = np.zeros_like(grid)
    for j in range(k, -1, -1):
        vol = 2.0 ** (-j * n)
        avg = sums * vol ** (alpha - 1.0)
        reps = 1 << (k - j)
        wide = avg
        for axis in range(n):
            wide = np.repeat(wide, reps, axis=axis)
        np.maximum(best, wide, out=best)
        if j > 0:
            for axis in range(n):
                sums = _halve(sums, axis)
    return best.ravel()


def _scalar_maximal_translated(v: np.ndarray, domain: DyadicDomain,
                               alpha: float, tau) -> np.ndarray:
    k, n = domain.level, domain.n
    out = np.zeros(domain.num_cells)
    for idx in range(domain.num_cells):
        lo, hi = domain.cell_box(idx)
        center = domain.cell_center(idx)
        best = 0.0
        for j in range(k + 1):
            cube = cube_containing_point(center, n, tau, j)
            if not cube.contains_box(lo, hi):
                continue
            integral = math.fsum(float(w) * v[i] for i, w in _cell_overlaps(domain, cube))
            best = max(best, float(cube.clip_volume()) ** (alpha - 1.0) * integral)
        out[idx] = best
    return out


@dataclass(frozen=True)
class SublinearityReport:
    """Measured gaps for subadditivity of the maximal operator.

    containment_excess: largest support-function excess of M(A+B) over
    MA + MB across cells and probe directions (nonpositive up to
    arithmetic noise).  averaging_gap: largest absolute support gap in
    the exact additivity of the fractional average across the cube
    family.
    """

    containment_excess: float
    averaging_gap: float

    def passed(self, tol: float = 1e-9) -> bool:
        return self.containment_excess <= tol and self.averaging_gap <= tol


def sublinearity_check(a: SetField, b: SetField, alpha: float, *,
                       tau=None, num_directions: int = 64) -> SublinearityReport:
    """Check M(A+B) inside MA + MB and exact additivity of averages."""
    alpha = _check_alpha(alpha)
    if a.domain != b.domain:
        raise ValueError("field domains differ")
    ab = add_fields(a, b)
    ma = dyadic_frac_maximal(a, alpha, tau)
    mb = dyadic_frac_maximal(b, alpha, tau)
    mab = dyadic_frac_maximal(ab, alpha, tau)
    U = direction_grid(a.dim, num_directions)
    worst = -math.inf
    for x, y, z in zip(ma.cells, mb.cells, mab.cells):
        excess = support_batch(z, U) - support_batch(x, U) - support_batch(y, U)
        worst = max(worst, float(excess.max()))

    gap = 0.0
    tau_t = _normalize_tau(a.domain.n, tau)
    for cube in dyadic_cube_family(a.domain, tau_t):
        lhs = frac_average(ab, cube, alpha)
        rhs_a = frac_average(a, cube, alpha)
        rhs_b = frac_average(b, cube, alpha)
        diff = support_batch(lhs, U) - support_batch(rhs_a, U) - support_batch(rhs_b, U)
        gap = max(gap, float(np.abs(diff).max()))
    return SublinearityReport(containment_excess=worst, averaging_gap=gap)
