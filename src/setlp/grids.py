"""Dyadic domains and translated dyadic grids with exact integer geometry.

The domain is the half-open unit cube [0,1)^n (n = 1 or 2) split into
2^(n*k) congruent cells at resolution level k.  Besides the standard
dyadic grid, the operators use the translated grids

    D^tau = { 2^(-j) * ([0,1)^n + m + (-1)^j * tau) : j >= 0, m integer },

with per-axis translations tau in {0, +1/3, -1/3}.  The sign alternation
(-1)^j is what makes each translated family nested across scales, and the
1/3 shifts make the three families together see every cube "with room to
spare".

Every cube endpoint at level j is an integer multiple of 1/(3*2^j).  In
those units the cube with coordinate m_a on axis a spans [A, A+3) with
A = 3*m_a + (-1)^j * k_a and k_a = 3*tau_a in {-1, 0, 1}, and the domain
spans [0, 3*2^j).  Parents, clipped volumes, point location and the cells
a cube overlaps are integer arithmetic on these corners, one set of
formulas for all nine translations.  Fractions appear only where the API
promises exact rationals (DyadicCube.box, the contains_* tests, cell
boxes) and in the verifiers, which recompute the geometry from box() so
that they check the integer code instead of repeating it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import product

import numpy as np

THIRD_SHIFTS = (Fraction(0), Fraction(1, 3), Fraction(-1, 3))


def grid_translations(n: int) -> list[tuple[Fraction, ...]]:
    """All 3^n translation vectors with components in {0, +1/3, -1/3}."""
    return [tuple(t) for t in product(THIRD_SHIFTS, repeat=n)]


@dataclass(frozen=True)
class DyadicDomain:
    """The unit cube [0,1)^n partitioned into 2^(n*level) dyadic cells.

    Cells are indexed row-major: for n = 2 the cell with axis coordinates
    (i0, i1) has flat index i0 * 2^level + i1.
    """

    n: int
    level: int

    def __post_init__(self):
        if self.n not in (1, 2):
            raise ValueError(f"domain dimension must be 1 or 2, got {self.n}")
        if not (0 <= self.level <= 16):
            raise ValueError(f"grid level out of range: {self.level}")

    @property
    def cells_per_axis(self) -> int:
        return 1 << self.level

    @property
    def num_cells(self) -> int:
        return 1 << (self.n * self.level)

    @property
    def cell_volume(self) -> float:
        # exact in binary floating point
        return 2.0 ** (-self.n * self.level)

    @property
    def cell_volume_exact(self) -> Fraction:
        return Fraction(1, 1 << (self.n * self.level))

    def cell_coords(self, index: int) -> tuple[int, ...]:
        if not (0 <= index < self.num_cells):
            raise ValueError(f"cell index {index} out of range")
        if self.n == 1:
            return (index,)
        return divmod(index, self.cells_per_axis)

    def cell_index(self, coords: tuple[int, ...]) -> int:
        if len(coords) != self.n:
            raise ValueError("coordinate arity does not match domain dimension")
        for c in coords:
            if not (0 <= c < self.cells_per_axis):
                raise ValueError(f"cell coordinate {coords} out of range")
        if self.n == 1:
            return coords[0]
        return coords[0] * self.cells_per_axis + coords[1]

    def cell_box(self, index: int) -> tuple[tuple[Fraction, ...], tuple[Fraction, ...]]:
        """Half-open box [lo, hi) of a cell, as exact Fractions."""
        side = Fraction(1, self.cells_per_axis)
        coords = self.cell_coords(index)
        lo = tuple(c * side for c in coords)
        hi = tuple((c + 1) * side for c in coords)
        return lo, hi

    def cell_center(self, index: int) -> tuple[Fraction, ...]:
        lo, hi = self.cell_box(index)
        return tuple((a + b) / 2 for a, b in zip(lo, hi))

    def cell_centers(self) -> np.ndarray:
        """Float cell centers, shape (num_cells, n), row-major order."""
        side = 1.0 / self.cells_per_axis
        axis = (np.arange(self.cells_per_axis) + 0.5) * side
        if self.n == 1:
            return axis[:, None]
        g0, g1 = np.meshgrid(axis, axis, indexing="ij")
        return np.column_stack([g0.ravel(), g1.ravel()])


@dataclass(frozen=True)
class DyadicCube:
    """One cube of a (possibly translated) dyadic grid.

    The cube at ``level`` j has side 2^(-j) and lower corner
    (m_a + (-1)^j * tau_a) * 2^(-j) on axis a.  ``corner`` holds the same
    corner in units of 1/(3*2^j): the integers 3*m_a + (-1)^j * 3*tau_a.
    """

    n: int
    tau: tuple[Fraction, ...]
    level: int
    coords: tuple[int, ...]
    corner: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.tau) != self.n or len(self.coords) != self.n:
            raise ValueError("cube arity mismatch")
        if self.level < 0:
            raise ValueError("cube level must be nonnegative")
        s = self.sign
        corner = tuple([3 * m + s * k for m, k in zip(self.coords, _thirds(self.tau))])
        object.__setattr__(self, "corner", corner)

    @property
    def side(self) -> Fraction:
        return Fraction(1, 1 << self.level)

    @property
    def sign(self) -> int:
        return -1 if self.level % 2 else 1

    def box(self) -> tuple[tuple[Fraction, ...], tuple[Fraction, ...]]:
        s = self.side
        lo = tuple((m + self.sign * t) * s for m, t in zip(self.coords, self.tau))
        hi = tuple(a + s for a in lo)
        return lo, hi

    def contains_box(self, lo: tuple[Fraction, ...], hi: tuple[Fraction, ...]) -> bool:
        clo, chi = self.box()
        return all(a <= x and y <= b for x, y, a, b in zip(lo, hi, clo, chi))

    def clip_volume(self) -> Fraction:
        """Exact volume of the intersection with the unit cube."""
        top = 3 << self.level
        num = 1
        for a in self.corner:
            num *= max(0, min(a + 3, top) - max(a, 0))
        return Fraction(num, top ** self.n)


def _thirds(tau) -> tuple[int, ...]:
    """3 * tau per axis, as integers; each component must be a rational
    multiple of 1/3."""
    if any([3 % t.denominator for t in tau]):
        raise ValueError(f"translation {tau} is not a multiple of 1/3")
    return tuple([t.numerator * (3 // t.denominator) for t in tau])


def _coord_range(k: int, level: int) -> range:
    """Coordinates m whose cube [A, A+3), A = 3m + (-1)^level * k, meets
    the domain [0, 3*2^level)."""
    off = -k if level % 2 else k
    return range((-3 - off) // 3 + 1, -((off - (3 << level)) // 3))


def cube_containing_point(
    point: tuple[Fraction, ...], n: int, tau: tuple[Fraction, ...], level: int
) -> DyadicCube:
    """The unique grid cube at ``level`` containing an exact point."""
    sign = -1 if level % 2 else 1
    top = 3 << level
    # the point sits at P = p * top; its cube has 3m + sign*k <= P < 3m + sign*k + 3
    coords = tuple([(p.numerator * top - sign * k * p.denominator) // (3 * p.denominator)
                    for p, k in zip(point, _thirds(tau))])
    return DyadicCube(n, tau, level, coords)


def parent_cube(cube: DyadicCube) -> DyadicCube:
    """The unique next-coarser cube of the same grid containing ``cube``."""
    if cube.level == 0:
        raise ValueError("level-0 cube has no parent in scope")
    # in the child's units the parent with coordinate m spans
    # [2(3m + s*k), 2(3m + s*k) + 6), s = (-1)^(level-1); the parent is the
    # one holding the child's center A + 3/2
    s = -cube.sign
    coords = tuple([(2 * a + 3 - 4 * s * k) // 12
                    for a, k in zip(cube.corner, _thirds(cube.tau))])
    return DyadicCube(cube.n, cube.tau, cube.level - 1, coords)


def cubes_covering_domain(n: int, tau: tuple[Fraction, ...], level: int) -> list[DyadicCube]:
    """All grid cubes at ``level`` whose interior meets [0,1)^n."""
    ranges = [_coord_range(k, level) for k in _thirds(tau)]
    return [DyadicCube(n, tau, level, m) for m in product(*ranges)]


def dyadic_cube_family(domain: DyadicDomain, tau: tuple[Fraction, ...] | None = None
                       ) -> list[DyadicCube]:
    """All cubes of one translated grid meeting the domain, levels 0..k."""
    if tau is None:
        tau = tuple([Fraction(0)] * domain.n)
    out: list[DyadicCube] = []
    for level in range(domain.level + 1):
        out.extend(cubes_covering_domain(domain.n, tau, level))
    return out


@lru_cache(maxsize=None)
def _ancestor_ids(n: int, fine: int, j: int) -> np.ndarray:
    """Row-major index, among the 2^(jn) cubes of level j, of the ancestor
    of every level-`fine` cube in row-major order; memoized, read-only."""
    coords = np.indices((1 << fine,) * n).reshape(n, -1) >> (fine - j)
    ids = np.ravel_multi_index(tuple(coords), (1 << j,) * n)
    ids.setflags(write=False)
    return ids


@lru_cache(maxsize=None)
def _cube_cells(n: int, k: int, j: int) -> np.ndarray:
    """Cells of every aligned level-j cube of a level-k grid, one row per
    cube in row-major cube order, each row in row-major cell order: a stable
    sort of the cells by their ancestor cube; memoized, read-only."""
    cells = np.argsort(_ancestor_ids(n, k, j), kind="stable").reshape(1 << (j * n), -1)
    cells.setflags(write=False)
    return cells


def _scaled_corners(n: int, tau: tuple[Fraction, ...], level: int) -> np.ndarray:
    """Integer corners of the covering cubes, in cubes_covering_domain's
    order; one row per cube."""
    sign = -1 if level % 2 else 1
    k3 = _thirds(tau)
    ranges = [np.array(_coord_range(k, level), dtype=np.int64) for k in k3]
    grids = np.meshgrid(*ranges, indexing="ij")
    M = np.stack([g.ravel() for g in grids], axis=1)
    return 3 * M + sign * np.array(k3, dtype=np.int64)


def _box_clip_volume(cube: DyadicCube) -> Fraction:
    """Clipped volume recomputed from the cube's rational box."""
    lo, hi = cube.box()
    vol = Fraction(1)
    for a, b in zip(lo, hi):
        seg = min(b, Fraction(1)) - max(a, Fraction(0))
        if seg <= 0:
            return Fraction(0)
        vol *= seg
    return vol


def _rational_sample(corners: np.ndarray, level: int) -> np.ndarray:
    """Indices of the cubes that the verifiers cross-check through rational
    boxes: every cube of a level with at most 128 cubes, else every cube
    the domain's edge clips plus a stride of 31 through the rest."""
    pick = ((corners < 0) | (corners + 3 > 3 << level)).any(axis=1)
    pick[::31] = True
    return np.flatnonzero(pick | (len(corners) <= 128))


def verify_tiling(n: int, tau: tuple[Fraction, ...], level: int) -> bool:
    """Exact check that the grid's clipped cubes partition the unit cube.

    Cubes of one grid at one level are integer lattice translates of each
    other, so distinct coordinates imply disjointness; the partition then
    reduces to the identity sum(clipped volumes) == 1, evaluated in integer
    arithmetic after scaling every endpoint by 3*2^level.  The cubes of
    _rational_sample are cross-checked against volumes recomputed from
    their rational boxes.
    """
    corners = _scaled_corners(n, tau, level)
    scale = 3 << level
    seg = np.minimum(corners + 3, scale) - np.maximum(corners, 0)
    seg = np.maximum(seg, 0)
    vols = np.prod(seg, axis=1, dtype=np.int64)
    if int(vols.sum(dtype=np.int64)) != scale ** n:
        return False
    cubes = cubes_covering_domain(n, tau, level)
    for i in _rational_sample(corners, level):
        exact = _box_clip_volume(cubes[i])
        if exact != cubes[i].clip_volume() or exact != Fraction(int(vols[i]), scale ** n):
            return False
    return len({c.coords for c in cubes}) == len(cubes)


def verify_nesting(n: int, tau: tuple[Fraction, ...], level: int) -> bool:
    """Exact check that each cube at 1..level sits inside one parent cube.

    In units of 1/(3*2^j) a cube occupies [a, a+3) per axis and parents
    occupy width-6 blocks anchored at 2*(3m + sign*3tau); nesting is the
    statement that a minus the parent anchor offset is 0 or 3 mod 6.  The
    cubes of _rational_sample are cross-checked through parent_cube and the
    rational boxes.
    """
    k3 = np.array(_thirds(tau), dtype=np.int64)
    for j in range(1, level + 1):
        corners = _scaled_corners(n, tau, j)
        parent_sign = -1 if (j - 1) % 2 else 1
        rem = (corners - 2 * parent_sign * k3) % 6
        if not bool(np.all((rem == 0) | (rem == 3))):
            return False
        cubes = cubes_covering_domain(n, tau, j)
        for i in _rational_sample(corners, j):
            cube = cubes[i]
            lo, hi = cube.box()
            if not parent_cube(cube).contains_box(lo, hi):
                return False
    return True
