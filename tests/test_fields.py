import json
import math
from fractions import Fraction

import numpy as np
import pytest

from setlp.bodies import ConvexBody, magnitude, support_batch
from setlp.fields import (
    SetField,
    add_fields,
    aumann_integral,
    cell_magnitudes,
    distribution,
    lp_norm,
    magnitude_bound_check,
    random_simple_field,
    values_distribution,
    values_lp_norm,
    weak_norm,
    _power_sum,
)
from setlp import seminorms
from setlp.grids import DyadicDomain
from setlp.harness import ExperimentConfig, run_riesz_thorin
from setlp.matrices import MatrixField, random_spd_matrix
from setlp.seminorms import GeometricMeanDoubleDual, MatrixNorm, direction_grid


def interval_field(domain, radii):
    return SetField(domain, [ConvexBody(1, [[r]]) for r in radii])


def test_field_validates_cell_count():
    domain = DyadicDomain(1, 2)
    with pytest.raises(ValueError):
        SetField(domain, [ConvexBody(1, [[1.0]])] * 3)


def test_root_integral_support_is_additive_in_the_plane():
    # n = 2, d = 2, level 5: the root sums keep all of their vertices
    rng = np.random.default_rng(21)
    domain = DyadicDomain(2, 5)
    F = random_simple_field(rng, domain, 2)
    G = random_simple_field(rng, domain, 2)
    U = direction_grid(2, 720)
    both = support_batch(aumann_integral(add_fields(F, G)), U)
    parts = support_batch(aumann_integral(F), U) + support_batch(aumann_integral(G), U)
    cellwise = domain.cell_volume * np.sum([support_batch(c, U) for c in F.cells + G.cells],
                                           axis=0)
    np.testing.assert_allclose(both, parts, rtol=1e-12, atol=0.0)
    np.testing.assert_allclose(both, cellwise, rtol=1e-12, atol=0.0)


def test_integral_of_constant_interval_field():
    domain = DyadicDomain(1, 3)
    F = interval_field(domain, [0.5] * domain.num_cells)
    total = aumann_integral(F)
    assert magnitude(total) == pytest.approx(0.5, abs=1e-15)
    half = aumann_integral(F, range(4))  # half the cells, half the mass
    assert magnitude(half) == pytest.approx(0.25, abs=1e-15)


def test_integral_magnitude_bound():
    rng = np.random.default_rng(14)
    for n in (1, 2):
        domain = DyadicDomain(n, 3)
        for d in (1, 2):
            F = random_simple_field(rng, domain, d)
            lhs, rhs = magnitude_bound_check(F)
            assert lhs <= rhs + 1e-9


def test_power_sums_match_the_generator_expression_bitwise():
    rng = np.random.default_rng(41)
    values = rng.exponential(size=257)
    values[rng.random(values.size) < 0.2] = 0.0
    vol = 0.3  # not a power of two, so the product is rounded per value
    for vals in (values, np.zeros(0)):
        floats = vals.tolist()
        for p in (1.0, 4.0 / 3.0, 2.0, 3.0, 4.0):
            want = math.fsum(v ** p * vol for v in floats)
            assert _power_sum(floats, p, vol) == want
            assert values_lp_norm(vals, p, vol) == want ** (1.0 / p)
    assert values_lp_norm(values, math.inf, vol) == values.max()


def test_lp_norm_of_constant_field():
    domain = DyadicDomain(2, 2)
    F = SetField(domain, [ConvexBody(2, [[0.6, 0.8]])] * domain.num_cells)
    for p in (1.0, 2.0, 4.0):
        assert lp_norm(F, p) == pytest.approx(1.0, rel=1e-14)
    assert lp_norm(F, math.inf) == pytest.approx(1.0, rel=1e-14)
    with pytest.raises(ValueError):
        lp_norm(F, 0.0)


def test_lp_monotone_in_p_on_probability_space():
    rng = np.random.default_rng(15)
    F = random_simple_field(rng, DyadicDomain(1, 4), 2)
    vals = [lp_norm(F, p) for p in (1.0, 2.0, 4.0, math.inf)]
    assert all(a <= b + 1e-12 for a, b in zip(vals, vals[1:]))


def test_layer_cake_identity():
    rng = np.random.default_rng(16)
    F = random_simple_field(rng, DyadicDomain(1, 4), 2)
    table = distribution(F)
    for p in (1.0, 2.0, 4.0):
        want = lp_norm(F, p) ** p
        assert table.layer_cake(p) == pytest.approx(want, rel=1e-12)


def test_weak_norm_below_strong():
    rng = np.random.default_rng(17)
    for _ in range(5):
        F = random_simple_field(rng, DyadicDomain(1, 4), 2)
        for p in (1.0, 2.0, 3.0):
            assert weak_norm(F, p) <= lp_norm(F, p) + 1e-12


def test_distribution_tail_measures():
    domain = DyadicDomain(1, 2)
    F = interval_field(domain, [1.0, 2.0, 3.0, 4.0])
    table = distribution(F)
    # closed tails: measure of {value >= lam} at each jump, the limits that
    # realize the weak-norm supremum
    assert table == values_distribution(np.array([3.0, 1.0, 4.0, 2.0]), Fraction(1, 4))
    assert table.thresholds == (1.0, 2.0, 3.0, 4.0)
    assert table.tails == (1, Fraction(3, 4), Fraction(1, 2), Fraction(1, 4))
    assert weak_norm(F, 1.0) == pytest.approx(max(1.0, 2 * 0.75, 3 * 0.5, 4 * 0.25))


def test_random_field_deterministic():
    domain = DyadicDomain(1, 3)
    F = random_simple_field(np.random.default_rng(9), domain, 2)
    G = random_simple_field(np.random.default_rng(9), domain, 2)
    U = direction_grid(2, 32)
    for a, b in zip(F.cells, G.cells):
        assert np.array_equal(support_batch(a, U), support_batch(b, U))


def _repeating_pairs(dim):
    """Two matrix fields on eight cells holding four distinct cell pairs."""
    domain = DyadicDomain(1, 3)
    rng = np.random.default_rng(12)
    a, b, c = (random_spd_matrix(rng, dim) for _ in range(3))
    return (MatrixField(domain, [a, a, b, b, a, a, b, b]),
            MatrixField(domain, [c, c, c, c, a, a, a, a]))


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_equal_pairs_share_the_bits_of_the_pair_built_alone(dim):
    mf0, mf1 = _repeating_pairs(dim)
    inner = seminorms.inner_duals(mf0.stack(), mf1.stack(), 0.5, 120)
    assert inner.shape == (8, len(direction_grid(dim, 120))) and not inner.flags.writeable
    assert len({row.tobytes() for row in inner}) == 4
    for i in range(0, 8, 2):
        assert inner[i].tobytes() == inner[i + 1].tobytes()
    for x, y, row in zip(mf0.stack(), mf1.stack(), inner):
        alone = GeometricMeanDoubleDual(MatrixNorm(x), MatrixNorm(y), 0.5, directions=120)
        assert alone.inner.tobytes() == row.tobytes()


def test_inner_duals_solve_each_field_in_one_call_of_its_distinct_pairs(monkeypatch):
    stacks = []
    solve = seminorms._matrix_mean_duals

    def counting(A0, A1, t, U):
        stacks.append((len(A0), len({(a.tobytes(), b.tobytes()) for a, b in zip(A0, A1)})))
        return solve(A0, A1, t, U)

    monkeypatch.setattr(seminorms, "_matrix_mean_duals", counting)
    for dim in (1, 2, 3):
        seminorms.inner_duals(*(mf.stack() for mf in _repeating_pairs(dim)), 0.5, 120)
    assert stacks == [(4, 4)] * 3  # the four distinct cell pairs, together
    # riesz-thorin at level 3: 3 levels x the 4 fixtures, d = 1 included
    stacks.clear()
    config = ExperimentConfig(seed=7, level=3, trials=2, directions=60)
    assert run_riesz_thorin(config).passed
    assert len(stacks) == 12 and all(size == distinct for size, distinct in stacks)


def test_distribution_counts_match_brute_force():
    rng = np.random.default_rng(18)
    domain = DyadicDomain(1, 6)
    # ties, zeros and a negative-zero among the values
    values = rng.choice([0.0, -0.0, 0.5, 1.0, 1.0, 2.5, 3.0], domain.num_cells)
    values[:8] = rng.uniform(0.0, 3.0, 8)
    table = values_distribution(values, domain.cell_volume_exact)
    distinct = sorted({v for v in values.tolist() if v > 0.0})
    assert table.thresholds == tuple(distinct)
    assert table.tails == tuple(sum(1 for v in values if v >= lam) * domain.cell_volume_exact
                                for lam in distinct)
    assert all(isinstance(t, Fraction) for t in table.tails)
    # the zeros fall below every threshold: the largest tail misses them
    assert table.tails[0] == sum(1 for v in values if v > 0.0) * domain.cell_volume_exact < 1
    assert values_distribution(np.zeros(4), Fraction(1, 4)).thresholds == ()


def _eager_twin(F):
    return SetField(F.domain, [ConvexBody(F.dim, g) for g in F.generators])


@pytest.mark.parametrize("n,d", [(1, 1), (1, 2), (2, 1), (2, 2), (1, 3)])
def test_lazy_field_equals_eager_field(n, d):
    rng = np.random.default_rng([19, n, d])
    domain = DyadicDomain(n, 3)
    F = random_simple_field(rng, domain, d, magnitude_scale=rng.uniform(0.0, 2.0, domain.num_cells))
    G = _eager_twin(F)
    assert F.dim == G.dim == d and len(F) == len(G) == domain.num_cells
    # both serialize their generator arrays and reload them bit for bit
    for H in (F, G):
        back = SetField.from_dict(json.loads(json.dumps(H.to_dict())))
        assert back.domain == domain and back.generators.tobytes() == H.generators.tobytes()
    for a, b in zip(F.cells, G.cells, strict=True):
        assert np.array_equal(a.generators, b.generators)
    assert F.cells is F.cells  # built once, then kept
    # bitwise the body magnitudes, on both the array and the padded body path
    want = [magnitude(c) for c in G.cells]
    assert cell_magnitudes(F).tolist() == want
    assert cell_magnitudes(G).tolist() == want
    assert lp_norm(F, 3.0) == lp_norm(G, 3.0)


def test_generator_array_validation():
    domain = DyadicDomain(1, 2)
    with pytest.raises(ValueError, match="generator array"):
        SetField.from_generators(domain, np.ones((3, 2, 2)))
    with pytest.raises(ValueError, match="generator array"):
        SetField.from_generators(domain, np.ones((4, 0, 2)))
    with pytest.raises(ValueError, match="finite"):
        SetField.from_generators(domain, np.full((4, 1, 2), np.nan))
    with pytest.raises(ValueError):
        SetField.from_generators(domain, np.ones((4, 2, 2))).generators[0, 0, 0] = 2.0
    # the constructor takes the array itself, validated and copied the same way
    with pytest.raises(ValueError, match="generator array"):
        SetField(domain, np.ones((3, 2, 2)))
    G = np.ones((4, 2, 2))
    field = SetField(domain, G)
    G[0, 0, 0] = 2.0
    assert field.generators[0, 0, 0] == 1.0 and not field.generators.flags.writeable
