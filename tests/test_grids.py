import math
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from setlp.grids import (
    DyadicCube,
    DyadicDomain,
    cube_containing_point,
    cubes_covering_domain,
    dyadic_cube_family,
    grid_translations,
    parent_cube,
    verify_nesting,
    verify_tiling,
    _ancestor_ids,
    _cube_cells,
)

THIRD = Fraction(1, 3)


def test_cube_topology_is_memoized_and_read_only():
    for n in (1, 2):
        for k in range(7):
            for j in range(k + 1):
                ids, cells = _ancestor_ids(n, k, j), _cube_cells(n, k, j)
                assert _ancestor_ids(n, k, j) is ids and _cube_cells(n, k, j) is cells
                coords = np.indices((1 << k,) * n).reshape(n, -1) >> (k - j)
                want = np.ravel_multi_index(tuple(coords), (1 << j,) * n)
                assert np.array_equal(ids, want)
                assert np.array_equal(
                    cells, np.argsort(want, kind="stable").reshape(1 << (j * n), -1))
                assert (ids[cells] == np.arange(1 << (j * n))[:, None]).all()
                for a in (ids, cells):
                    with pytest.raises(ValueError, match="read-only"):
                        a[...] = 0


def test_cell_indexing_roundtrip():
    domain = DyadicDomain(2, 3)
    for idx in range(domain.num_cells):
        coords = domain.cell_coords(idx)
        assert domain.cell_index(coords) == idx
    # row major: second axis varies fastest
    assert domain.cell_coords(1) == (0, 1)
    assert domain.cell_coords(8) == (1, 0)


def test_cell_box_is_exact():
    domain = DyadicDomain(1, 2)
    lo, hi = domain.cell_box(3)
    assert lo == (Fraction(3, 4),)
    assert hi == (Fraction(1),)
    assert domain.cell_center(3) == (Fraction(7, 8),)


def test_domain_validation():
    with pytest.raises(ValueError):
        DyadicDomain(3, 2)
    with pytest.raises(ValueError):
        DyadicDomain(1, -1)


def test_grid_translations():
    taus1 = grid_translations(1)
    assert len(taus1) == 3
    assert (Fraction(0),) in taus1
    taus2 = grid_translations(2)
    assert len(taus2) == 9
    assert all(t in (0, THIRD, -THIRD) for tau in taus2 for t in tau)


def test_cube_cover_counts():
    # untranslated grids tile the unit cube with exactly 2^(n j) cubes;
    # each 1/3-shifted axis needs one extra column
    for j in range(0, 5):
        assert len(cubes_covering_domain(1, (Fraction(0),), j)) == 2 ** j
        assert len(cubes_covering_domain(1, (THIRD,), j)) == 2 ** j + 1
    both = cubes_covering_domain(2, (THIRD, -THIRD), 3)
    assert len(both) == (8 + 1) ** 2


def test_clip_volumes_partition_unit_mass():
    for tau in grid_translations(2):
        cubes = cubes_covering_domain(2, tau, 2)
        total = sum((c.clip_volume() for c in cubes), Fraction(0))
        assert total == 1
        assert all(0 < c.clip_volume() <= 1 for c in cubes)


def test_cube_containing_point():
    # every shift on every axis, points on cube edges included
    coords = (Fraction(0), Fraction(5, 8), Fraction(1, 3), Fraction(2, 3), Fraction(31, 32))
    for n in (1, 2):
        points = list(product(coords, repeat=n))
        for tau in grid_translations(n):
            for level in range(0, 6):
                for point in points:
                    cube = cube_containing_point(point, n, tau, level)
                    lo, hi = cube.box()
                    assert all(a <= p < b for p, a, b in zip(point, lo, hi)), (tau, point)
                    assert all(b - a == Fraction(1, 2 ** level) for a, b in zip(lo, hi))


def test_parent_contains_child():
    tau = (THIRD, -THIRD)
    for cube in cubes_covering_domain(2, tau, 4):
        lo, hi = cube.box()
        assert parent_cube(cube).contains_box(lo, hi)


def test_parent_of_root_rejected():
    cube = DyadicCube(1, (Fraction(0),), 0, (0,))
    with pytest.raises(ValueError):
        parent_cube(cube)


def test_tiling_and_nesting_all_translations():
    for n in (1, 2):
        for tau in grid_translations(n):
            for level in range(0, 5):
                assert verify_tiling(n, tau, level)
            assert verify_nesting(n, tau, 4)


def test_family_size():
    domain = DyadicDomain(1, 3)
    fam = dyadic_cube_family(domain)
    assert len(fam) == 1 + 2 + 4 + 8
    shifted = dyadic_cube_family(domain, (THIRD,))
    assert len(shifted) == 2 + 3 + 5 + 9


def test_cubes_of_shifted_grids_differ():
    a = DyadicCube(1, (THIRD,), 2, (1,))
    b = DyadicCube(1, (-THIRD,), 2, (1,))
    assert a != b and len({a, b}) == 2
    assert a.box() == ((Fraction(1, 3),), (Fraction(7, 12),))
    assert b.box() == ((Fraction(1, 6),), (Fraction(5, 12),))


# the integer geometry against the defining rational formulas: a level-j
# cube of D^tau has lower corner (m + (-1)^j tau) 2^(-j) and side 2^(-j)

def fraction_clip_volume(cube):
    side = Fraction(1, 2 ** cube.level)
    vol = Fraction(1)
    for m, t in zip(cube.coords, cube.tau):
        lo = (m + (-1) ** cube.level * t) * side
        vol *= max(Fraction(0), min(lo + side, Fraction(1)) - max(lo, Fraction(0)))
    return vol


def fraction_parent_coords(cube):
    j = cube.level
    side = Fraction(1, 2 ** j)
    coords = []
    for m, t in zip(cube.coords, cube.tau):
        center = (m + (-1) ** j * t) * side + side / 2
        coords.append(math.floor(center * 2 ** (j - 1) - (-1) ** (j - 1) * t))
    return tuple(coords)


GRIDS = [(n, tau) for n in (1, 2) for tau in grid_translations(n)]


@pytest.mark.parametrize("level", range(0, 7))
@pytest.mark.parametrize("n,tau", GRIDS, ids=[f"n{n}-{tau}" for n, tau in GRIDS])
def test_integer_geometry_matches_fractions(n, tau, level):
    # every covering cube plus a ring of cubes that lie wholly outside
    ranges = []
    for r in zip(*(c.coords for c in cubes_covering_domain(n, tau, level))):
        ranges.append(range(min(r) - 1, max(r) + 2))
    outside = 0
    for coords in product(*ranges):
        cube = DyadicCube(n, tau, level, coords)
        vol = cube.clip_volume()
        assert vol == fraction_clip_volume(cube)
        outside += vol == 0
        if level > 0:
            parent = parent_cube(cube)
            assert parent == DyadicCube(n, tau, level - 1, fraction_parent_coords(cube))
    assert outside > 0


def test_translation_must_be_a_multiple_of_a_third():
    with pytest.raises(ValueError, match="1/3"):
        DyadicCube(1, (Fraction(1, 6),), 2, (0,))
