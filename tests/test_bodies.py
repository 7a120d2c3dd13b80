import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from setlp.bodies import (
    ConvexBody,
    UnboundedGaugeError,
    conv_union,
    fold_minkowski,
    gauge,
    magnitude,
    minkowski_sum,
    origin_body,
    scale,
    support_batch,
)
from setlp.seminorms import direction_grid

DIRS2 = direction_grid(2, 64)


def square(r=1.0):
    return ConvexBody(2, [[r, r], [r, -r]])


def cross(r=1.0):
    return ConvexBody(2, [[r, 0.0], [0.0, r]])


def rand_body(rng, dim, k=4):
    return ConvexBody(dim, rng.standard_normal((k, dim)))


def test_support_of_square():
    # conv{(+-1,+-1)}: support along axes is 1, along diagonal 2/sqrt(2)
    B = square()
    vals = support_batch(B, np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]))
    assert vals[0] == pytest.approx(1.0, abs=1e-15)
    assert vals[1] == pytest.approx(1.0, abs=1e-15)
    assert vals[2] == pytest.approx(2.0, abs=1e-15)


def test_minkowski_sum_of_squares_scales():
    total = minkowski_sum(square(1.0), square(0.5))
    want = support_batch(square(1.5), DIRS2)
    got = support_batch(total, DIRS2)
    assert np.abs(got - want).max() < 1e-12


coeff = st.floats(min_value=-2.0, max_value=2.0, allow_nan=False, width=32)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(coeff, coeff), min_size=1, max_size=5),
       st.lists(st.tuples(coeff, coeff), min_size=1, max_size=5))
def test_support_additivity(gens_a, gens_b):
    A = ConvexBody(2, np.array(gens_a))
    B = ConvexBody(2, np.array(gens_b))
    lhs = support_batch(minkowski_sum(A, B), DIRS2)
    rhs = support_batch(A, DIRS2) + support_batch(B, DIRS2)
    assert np.abs(lhs - rhs).max() < 1e-10


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(coeff, coeff), min_size=1, max_size=5),
       st.floats(min_value=0.1, max_value=8.0))
def test_scaling_homogeneous(gens, lam):
    A = ConvexBody(2, np.array(gens))
    assert magnitude(scale(lam, A)) == pytest.approx(lam * magnitude(A), rel=1e-12)


def test_conv_union_contains_both():
    rng = np.random.default_rng(3)
    for _ in range(10):
        A, B = rand_body(rng, 2), rand_body(rng, 2)
        U = conv_union(A, B)
        hu = support_batch(U, DIRS2)
        assert np.all(hu >= support_batch(A, DIRS2) - 1e-12)
        assert np.all(hu >= support_batch(B, DIRS2) - 1e-12)
        # and it is the smallest such body on these directions
        assert np.abs(hu - np.maximum(support_batch(A, DIRS2),
                                      support_batch(B, DIRS2))).max() < 1e-10


def test_fold_matches_pairwise():
    rng = np.random.default_rng(5)
    bodies = [rand_body(rng, 2) for _ in range(6)]
    folded = fold_minkowski(bodies, 2)
    step = bodies[0]
    for b in bodies[1:]:
        step = minkowski_sum(step, b)
    assert np.abs(support_batch(folded, DIRS2) - support_batch(step, DIRS2)).max() < 1e-10


def test_intervals_add_exactly():
    # d = 1 bodies are symmetric intervals; radii add under Minkowski sum
    A = ConvexBody(1, [[0.75]])
    B = ConvexBody(1, [[0.5]])
    assert magnitude(minkowski_sum(A, B)) == pytest.approx(1.25, abs=0)


def test_origin_and_empty_fold():
    O = origin_body(2)
    assert magnitude(O) == 0.0
    assert magnitude(fold_minkowski([], 2)) == 0.0
    A = square()
    same = minkowski_sum(A, O)
    assert np.abs(support_batch(same, DIRS2) - support_batch(A, DIRS2)).max() == 0.0


def test_gauge_closed_forms():
    # cross polytope gauge is the l1 norm, square gauge the sup norm
    assert gauge(cross(), np.array([0.3, -0.4])) == pytest.approx(0.7, rel=1e-12)
    assert gauge(square(), np.array([0.3, -0.4])) == pytest.approx(0.4, rel=1e-12)


def test_gauge_unbounded_direction():
    segment = ConvexBody(2, [[1.0, 0.0]])
    with pytest.raises(UnboundedGaugeError):
        gauge(segment, np.array([0.0, 1.0]))


def test_large_body_keeps_every_vertex():
    # 600 points on the unit circle: each of them and its negative is a vertex
    rng = np.random.default_rng(9)
    th = np.sort(rng.uniform(0.0, np.pi, 600))
    pts = np.column_stack([np.cos(th), np.sin(th)])
    big = ConvexBody(2, pts)
    assert big.num_generators == 600
    U = direction_grid(2, 4096)
    exact = np.abs(pts @ U.T).max(axis=0)
    np.testing.assert_allclose(support_batch(big, U), exact, rtol=1e-15, atol=0.0)
