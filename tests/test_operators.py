import math
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from setlp.bodies import (ConvexBody, conv_union, fold_minkowski, magnitude, origin_body,
                          scale, support_batch)
from setlp.fields import SetField, aumann_integral, random_simple_field
from setlp.grids import DyadicCube, DyadicDomain, cubes_covering_domain
from setlp.operators import (
    ExponentConfig,
    aligned_cells,
    cube_integral_tree,
    cube_magnitudes,
    dyadic_frac_maximal,
    frac_average,
    maximal_magnitudes,
    planar_hulls,
    scalar_frac_maximal,
    sublinearity_check,
)
from setlp.seminorms import direction_grid

THIRD = Fraction(1, 3)
DIRS2 = direction_grid(2, 64)


def interval_field(domain, radii):
    return SetField(domain, [ConvexBody(1, [[r]]) for r in radii])


def root_cube(n):
    return DyadicCube(n, tuple([Fraction(0)] * n), 0, tuple([0] * n))


def fraction_parent_coords(cube):
    """Parent coordinates from the rational box: the coarser cube holding
    the child's center."""
    j = cube.level
    lo, hi = cube.box()
    return tuple(math.floor((a + b) / 2 * 2 ** (j - 1) - (-1) ** (j - 1) * t)
                 for a, b, t in zip(lo, hi, cube.tau))


def fraction_overlaps(domain, cube):
    """(cell index, overlap volume) from the rational boxes, in the order
    the library folds them."""
    lo, hi = cube.box()
    side = Fraction(1, domain.cells_per_axis)
    axes = []
    for a, b in zip(lo, hi):
        segs = [(c, min(b, (c + 1) * side) - max(a, c * side))
                for c in range(domain.cells_per_axis)]
        axes.append([(c, seg) for c, seg in segs if seg > 0])
    for combo in product(*axes):
        yield domain.cell_index(tuple(c for c, _ in combo)), math.prod(w for _, w in combo)


def fraction_tree(field, tau):
    """cube_integral_tree rebuilt with rational overlaps and parent links."""
    domain, dim = field.domain, field.dim
    levels = [cubes_covering_domain(domain.n, tau, j) for j in range(domain.level + 1)]
    integrals = [dict() for _ in levels]
    for cube in levels[-1]:
        parts = [scale(float(w), field.cells[idx]) for idx, w in fraction_overlaps(domain, cube)]
        integrals[-1][cube.coords] = fold_minkowski(parts, dim)
    for j in range(domain.level - 1, -1, -1):
        children = {}
        for cube in levels[j + 1]:
            children.setdefault(fraction_parent_coords(cube), []).append(
                integrals[j + 1][cube.coords])
        for cube in levels[j]:
            parts = children.get(cube.coords)
            integrals[j][cube.coords] = fold_minkowski(parts, dim) if parts else origin_body(dim)
    return levels, integrals


def fraction_volume(cube):
    """Clipped volume from the rational box."""
    lo, hi = cube.box()
    return math.prod(max(Fraction(0), min(b, Fraction(1)) - max(a, Fraction(0)))
                     for a, b in zip(lo, hi))


def fraction_maximal(field, alpha, tau):
    """dyadic_frac_maximal rebuilt on fraction_tree with rational volumes."""
    domain = field.domain
    levels, integrals = fraction_tree(field, tau)
    accum = [dict() for _ in levels]
    for j, cubes in enumerate(levels):
        for cube in cubes:
            vol = fraction_volume(cube)
            avg = scale(float(vol) ** (alpha - 1.0), integrals[j][cube.coords])
            accum[j][cube.coords] = (avg if j == 0 else conv_union(
                accum[j - 1][fraction_parent_coords(cube)], avg))
    cells = []
    for idx in range(domain.num_cells):
        body = origin_body(field.dim)
        lo, hi = domain.cell_box(idx)
        for j in range(domain.level, -1, -1):
            holding = [c for c in levels[j] if c.contains_box(lo, hi)]
            if holding:
                body = accum[j][holding[0].coords]
                break
        cells.append(body)
    return cells


@pytest.mark.parametrize("tau", [(Fraction(0), Fraction(0)), (THIRD, -THIRD)],
                         ids=["aligned", "translated"])
def test_tree_and_maximal_match_fraction_links(tau):
    rng = np.random.default_rng(29)
    F = random_simple_field(rng, DyadicDomain(2, 4), 2)
    tree = cube_integral_tree(F, tau)
    ref_levels, ref_integrals = fraction_tree(F, tau)
    assert tree.parents[0] == {}
    for j, cubes in enumerate(ref_levels):
        assert list(tree.levels[j]) == [c.coords for c in cubes]
        for cube in cubes:
            m = cube.coords
            assert np.array_equal(tree.integrals[j][m].generators,
                                  ref_integrals[j][m].generators)
            assert tree.volumes[j][m] == float(fraction_volume(cube))
            if j > 0:
                assert tree.parents[j][m] == fraction_parent_coords(cube)
    MF = dyadic_frac_maximal(F, 0.25, tau)
    for got, want in zip(MF.cells, fraction_maximal(F, 0.25, tau), strict=True):
        assert np.array_equal(got.generators, want.generators)


def test_average_of_constant_field_is_the_constant():
    domain = DyadicDomain(1, 3)
    F = interval_field(domain, [0.7] * 8)
    avg = frac_average(F, root_cube(1), 0.0)
    assert magnitude(avg) == pytest.approx(0.7, rel=1e-14)


def test_fractional_average_scales_with_volume():
    # alpha > 0 multiplies the plain average by |Q|^alpha
    domain = DyadicDomain(1, 3)
    F = interval_field(domain, [1.0] * 8)
    cube = DyadicCube(1, (Fraction(0),), 2, (1,))
    for alpha in (0.0, 0.25, 0.5):
        avg = frac_average(F, cube, alpha)
        assert magnitude(avg) == pytest.approx(0.25 ** alpha, rel=1e-13)


def test_average_validation():
    domain = DyadicDomain(1, 2)
    F = interval_field(domain, [1.0] * 4)
    deep = DyadicCube(1, (Fraction(0),), 5, (0,))
    with pytest.raises(ValueError, match="finer than the data grid"):
        frac_average(F, deep, 0.0)
    with pytest.raises(ValueError):
        frac_average(F, root_cube(1), 1.0)
    with pytest.raises(ValueError):
        frac_average(F, root_cube(2), 0.0)


def test_aligned_cells_cover_cube():
    domain = DyadicDomain(2, 3)
    cube = DyadicCube(2, (Fraction(0), Fraction(0)), 1, (1, 0))
    cells = aligned_cells(domain, cube)
    assert len(cells) == 16
    for idx in cells:
        lo, hi = domain.cell_box(idx)
        assert cube.contains_box(lo, hi)


def test_integral_tree_matches_direct_averages():
    rng = np.random.default_rng(23)
    domain = DyadicDomain(1, 4)
    F = random_simple_field(rng, domain, 2)
    levels, integrals, _, _ = cube_integral_tree(F)
    for j, cubes in enumerate(levels):
        for coords, cube in cubes.items():
            direct = frac_average(F, cube, 0.0)
            from_tree = integrals[j][coords]
            vol = float(cube.clip_volume())
            want = support_batch(direct, DIRS2) * vol
            assert np.abs(support_batch(from_tree, DIRS2) - want).max() < 1e-10


def test_maximal_dominates_own_cell_average():
    rng = np.random.default_rng(24)
    for n in (1, 2):
        domain = DyadicDomain(n, 3)
        F = random_simple_field(rng, domain, 2)
        alpha = 0.25
        MF = dyadic_frac_maximal(F, alpha)
        for idx in range(domain.num_cells):
            lo, hi = domain.cell_box(idx)
            cell_cube = DyadicCube(n, tuple([Fraction(0)] * n), domain.level,
                                   domain.cell_coords(idx))
            avg = frac_average(F, cell_cube, alpha)
            gap = support_batch(MF.cells[idx], DIRS2) - support_batch(avg, DIRS2)
            assert gap.min() > -1e-10


def test_spike_maximal_hand_oracle():
    # one hot cell; along the ancestor chain the average decays by the
    # volume factor 2^(j-k) scaled by 2^(-j(alpha-1)) at each level j
    domain = DyadicDomain(1, 3)
    radii = [0.0] * 8
    radii[0] = 1.0
    F = interval_field(domain, radii)
    alpha = 0.5
    MF = dyadic_frac_maximal(F, alpha)
    k = 3
    for idx in range(8):
        # smallest dyadic cube containing cell idx and cell 0 has level
        # j = k - ceil(log2(idx+1)) unless idx = 0
        j = k if idx == 0 else k - (idx).bit_length()
        side = 2.0 ** (-j)
        want = side ** (alpha - 1.0) * (2.0 ** -k) * 1.0
        assert magnitude(MF.cells[idx]) == pytest.approx(want, rel=1e-12)


def test_set_pipeline_matches_scalar_oracle():
    rng = np.random.default_rng(25)
    for n in (1, 2):
        domain = DyadicDomain(n, 3)
        radii = rng.uniform(0.0, 2.0, domain.num_cells)
        F = interval_field(domain, radii)
        for alpha in (0.0, 0.3):
            MF = dyadic_frac_maximal(F, alpha)
            smax = scalar_frac_maximal(radii, domain, alpha)
            got = np.array([magnitude(c) for c in MF.cells])
            assert np.abs(got - smax).max() < 1e-12


def test_translated_grid_scalar_oracle():
    rng = np.random.default_rng(26)
    domain = DyadicDomain(1, 3)
    radii = rng.uniform(0.1, 1.0, 8)
    F = interval_field(domain, radii)
    tau = (THIRD,)
    MF = dyadic_frac_maximal(F, 0.25, tau)
    smax = scalar_frac_maximal(radii, domain, 0.25, tau)
    got = np.array([magnitude(c) for c in MF.cells])
    assert np.abs(got - smax).max() < 1e-12


def test_translated_average_uses_clipped_volume():
    # the boundary cube of a shifted grid is normalized by its clipped
    # volume, so a constant field still averages to the constant at alpha 0
    domain = DyadicDomain(1, 2)
    F = interval_field(domain, [1.0] * 4)
    cube = cubes_covering_domain(1, (THIRD,), 1)[0]
    assert cube.clip_volume() < Fraction(1, 2)
    avg = frac_average(F, cube, 0.0)
    assert magnitude(avg) == pytest.approx(1.0, rel=1e-13)


def test_cells_touching_one_third_see_only_origin():
    # no cube of the +1/3 grid fully contains a cell whose closure meets
    # x = 1/3, at any level, so the translated maximal there is {0}
    domain = DyadicDomain(1, 3)
    F = interval_field(domain, [1.0] * 8)
    MF = dyadic_frac_maximal(F, 0.0, (THIRD,))
    straddler = 2  # cell [1/4, 3/8) contains 1/3
    assert magnitude(MF.cells[straddler]) == 0.0
    assert magnitude(MF.cells[0]) > 0.0


def test_sublinearity_check_on_random_pair():
    rng = np.random.default_rng(28)
    domain = DyadicDomain(1, 3)
    A = random_simple_field(rng, domain, 2)
    B = random_simple_field(rng, domain, 2)
    rep = sublinearity_check(A, B, 0.5)
    assert rep.passed()
    assert rep.containment_excess < 1e-9
    assert rep.averaging_gap < 1e-9


def test_exponent_config_midpoint_constant():
    cfg = ExponentConfig.for_fractional_maximal(0.5, 0.5)
    assert cfg.p == pytest.approx(4.0 / 3.0, rel=1e-14)
    assert cfg.q == pytest.approx(4.0, rel=1e-14)
    # 2 * (q / |q - q1|)^(1/q) with the infinite-endpoint term dropping out
    assert cfg.interpolation_constant == pytest.approx(2.0 * 2.0 ** 0.25, rel=1e-12)


def test_exponent_config_validation():
    with pytest.raises(ValueError):
        ExponentConfig(p0=2.0, q0=2.0, p1=1.0, q1=2.0, t=0.5)  # q0 == q1
    with pytest.raises(ValueError):
        ExponentConfig(p0=2.0, q0=4.0, p1=1.0, q1=2.0, t=1.0)  # t at endpoint
    with pytest.raises(ValueError):
        ExponentConfig(p0=2.0, q0=4.0, p1=1.0, q1=2.0, t=0.5, p=3.0)  # wrong p
    cfg = ExponentConfig(p0=2.0, q0=math.inf, p1=1.0, q1=2.0, t=0.5)
    assert cfg.to_dict()["q0"] == "inf"
    assert 0.0 < cfg.alpha < 1.0


def test_scalar_maximal_rejects_bad_input():
    domain = DyadicDomain(1, 2)
    with pytest.raises(ValueError):
        scalar_frac_maximal(np.array([1.0, -0.5, 0.2, 0.3]), domain, 0.0)
    with pytest.raises(ValueError):
        scalar_frac_maximal(np.ones(3), domain, 0.0)


ARRAY_CASES = [(1, 1, 5), (1, 2, 5), (2, 1, 3), (2, 2, 3), (2, 2, 4)]


@pytest.mark.parametrize("n,d,level", ARRAY_CASES, ids=lambda v: str(v))
def test_cube_magnitudes_match_body_tree(n, d, level):
    rng = np.random.default_rng([31, n, d])
    domain = DyadicDomain(n, level)
    for F in (random_simple_field(rng, domain, d),
              random_simple_field(rng, domain, d, generators_per_cell=5,
                                  magnitude_scale=rng.uniform(0.0, 2.0, domain.num_cells))):
        tree = cube_integral_tree(F)
        mags = cube_magnitudes(F)
        assert len(mags) == level + 1
        for j, level_mags in enumerate(mags):
            assert level_mags.shape == (1 << (j * n),)
            for coords, body in tree.integrals[j].items():
                got = level_mags[np.ravel_multi_index(coords, (1 << j,) * n)]
                assert got == pytest.approx(magnitude(body), rel=1e-12, abs=0.0)


def test_cube_magnitudes_past_8_bit_cube_keys():
    # level 9 of an n = 1 grid at level 10 has 512 cubes: cube ids past 8 bits
    rng = np.random.default_rng([33, 1, 2])
    domain = DyadicDomain(1, 10)
    F = random_simple_field(rng, domain, 2,
                            magnitude_scale=rng.uniform(0.0, 2.0, domain.num_cells))
    mags = cube_magnitudes(F)
    for j, level_mags in enumerate(mags):
        for m in {(1 << j) - 1, int(rng.integers(1 << j))}:
            body = aumann_integral(F, range(m << (10 - j), (m + 1) << (10 - j)))
            assert level_mags[m] == pytest.approx(magnitude(body), rel=1e-12, abs=0.0)


@pytest.mark.parametrize("n,d,level", ARRAY_CASES, ids=lambda v: str(v))
def test_maximal_magnitudes_match_body_maximal(n, d, level):
    rng = np.random.default_rng([32, n, d])
    domain = DyadicDomain(n, level)
    F = random_simple_field(rng, domain, d,
                            magnitude_scale=rng.uniform(0.0, 2.0, domain.num_cells))
    mags = cube_magnitudes(F)
    for alpha in (0.0, 0.25, 0.5):
        got = maximal_magnitudes(mags, n, alpha)
        want = [magnitude(c) for c in dyadic_frac_maximal(F, alpha).cells]
        assert got.shape == (domain.num_cells,)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)


def test_cube_magnitudes_of_body_built_fields():
    # body-built fields are read through their zero-padded generator array,
    # origin cells included
    domain = DyadicDomain(1, 3)
    cells = [origin_body(2), ConvexBody(2, [[1.0, 0.5]]),
             ConvexBody(2, [[0.2, 0.1], [0.0, 1.0], [1.0, 1.0]])] + [origin_body(2)] * 5
    F = SetField(domain, cells)
    tree = cube_integral_tree(F)
    for j, level_mags in enumerate(cube_magnitudes(F)):
        want = [magnitude(tree.integrals[j][(m,)]) for m in range(1 << j)]
        np.testing.assert_allclose(level_mags, want, rtol=1e-12, atol=0.0)
    assert cube_magnitudes(SetField(domain, [origin_body(2)] * 8))[0].tolist() == [0.0]


def test_cube_magnitudes_reject_three_dimensional_values():
    F = random_simple_field(np.random.default_rng(33), DyadicDomain(1, 2), 3)
    with pytest.raises(ValueError, match="d <= 2"):
        cube_magnitudes(F)


def _signed_rows(G):
    """Sorted rows of +-G with the sign fixed by the first nonzero entry."""
    G = np.asarray(G, dtype=float).reshape(-1, 2)
    lead = G[np.arange(len(G)), np.argmax(G != 0.0, axis=1)]
    return sorted(map(tuple, G * np.where(lead < 0.0, -1.0, 1.0)[:, None]))


def test_planar_hulls_match_pruned_bodies():
    rng = np.random.default_rng(34)
    cells = [rng.standard_normal((4, 2)) for _ in range(40)]
    cells += [
        np.zeros((4, 2)),                                    # the body {0}
        [[1.0, 2.0], [2.0, 4.0], [-3.0, -6.0], [0.0, 0.0]],  # collinear: a segment
        [[1.0, 0.0], [1.0, 1.0], [1.0, 2.0], [0.5, 0.5]],    # (1, 1) lies on an edge
        [[0.3, -0.7], [0.3, -0.7], [-0.3, 0.7], [1.0, 0.2]],  # duplicates up to sign
        [[2.0, 0.0], [0.0, 1.0], [-2.0, 0.0], [0.0, 0.0]],   # padded zero row
    ]
    G = np.array(cells)
    V, count = planar_hulls(G)
    for g, verts, c in zip(G, V, count):
        kept = ConvexBody(2, g).generators
        assert _signed_rows(verts[:c]) == _signed_rows(np.vstack([kept, -kept]))
        if c:
            # counterclockwise order about the origin
            ang = np.arctan2(verts[:c, 1], verts[:c, 0])
            assert np.all(np.diff(ang) > 0.0)
