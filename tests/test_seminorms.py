import numpy as np
import pytest

from setlp.bodies import ConvexBody
from setlp.matrices import random_spd_matrix
from setlp.seminorms import (
    DegenerateSeminormError,
    DualNorm,
    EuclideanNorm,
    GaugeNorm,
    GeometricMeanDoubleDual,
    MatrixNorm,
    WeightedGeometricMean,
    direction_grid,
    dual_values,
)

RNG = np.random.default_rng(21)


def test_euclidean_values():
    V = RNG.standard_normal((20, 3))
    assert np.abs(EuclideanNorm(3).values(V) - np.linalg.norm(V, axis=1)).max() < 1e-14


def test_matrix_norm_and_closed_form_dual():
    W = np.array([[2.0, 1.0], [0.0, 1.5]])
    V = RNG.standard_normal((50, 2))
    rho = MatrixNorm(W)
    assert np.abs(rho.values(V) - np.linalg.norm(V @ W.T, axis=1)).max() < 1e-12
    # dual of |Wv| is |W^-T v|
    dual = DualNorm(rho)
    want = np.linalg.norm(V @ np.linalg.inv(W), axis=1)
    assert np.abs(dual.values(V) - want).max() < 1e-10


def test_grid_dual_matches_closed_form():
    W = np.array([[1.4, 0.3], [-0.2, 0.9]])
    V = RNG.standard_normal((100, 2))
    rho = MatrixNorm(W)
    got = dual_values(rho.values, 2, V, directions=720)
    want = np.linalg.norm(V @ np.linalg.inv(W), axis=1)
    assert np.abs(got / want - 1.0).max() < 1e-6


def test_gauge_norm_duality_pair():
    cross = ConvexBody(2, [[1.0, 0.0], [0.0, 1.0]])
    l1 = GaugeNorm(cross)
    V = RNG.standard_normal((40, 2))
    assert np.abs(l1.values(V) - np.abs(V).sum(axis=1)).max() < 1e-12
    linf = DualNorm(l1)
    assert np.abs(linf.values(V) - np.abs(V).max(axis=1)).max() < 1e-10


def test_dual_of_euclidean_is_euclidean():
    V = RNG.standard_normal((30, 2))
    d = DualNorm(EuclideanNorm(2))
    assert np.abs(d.values(V) - np.linalg.norm(V, axis=1)).max() < 1e-12


def test_degenerate_dual_rejected():
    # a seminorm vanishing on a line has an unbounded dual ball
    W = np.array([[1.0, 0.0], [0.0, 0.0]])
    with pytest.raises(DegenerateSeminormError):
        dual_values(MatrixNorm(W).values, 2, np.array([[0.0, 1.0]]), directions=64)


def test_direction_grid_shapes_and_nesting():
    g = direction_grid(2, 360)
    assert g.shape == (360, 2)
    assert np.abs(np.linalg.norm(g, axis=1) - 1.0).max() < 1e-14
    # planar grids double by exact refinement, halton grids by prefix
    g2 = direction_grid(2, 720)
    assert np.abs(g2[::2] - g).max() == 0.0
    h, h2 = direction_grid(3, 240), direction_grid(3, 480)
    assert np.abs(h2[:240] - h).max() == 0.0


def test_weighted_geometric_mean_values():
    a = MatrixNorm(np.diag([2.0, 1.0]))
    b = MatrixNorm(np.diag([1.0, 3.0]))
    t = 0.25
    mean = WeightedGeometricMean(a, b, t)
    V = RNG.standard_normal((25, 2))
    want = a.values(V) ** (1 - t) * b.values(V) ** t
    assert np.abs(mean.values(V) - want).max() < 1e-12


def test_double_dual_is_a_norm_below_the_mean():
    rng = np.random.default_rng(4)
    A = np.array([[1.5, 0.2], [0.2, 0.8]])
    B = np.array([[0.9, -0.3], [-0.3, 1.7]])
    dd = GeometricMeanDoubleDual(MatrixNorm(A), MatrixNorm(B), 0.5, directions=360)
    assert dd.is_norm
    V = rng.standard_normal((200, 2))
    vals = dd.values(V)
    assert np.all(vals <= dd.mean_values(V) * (1 + 1e-9))
    # triangle inequality holds exactly up to roundoff
    x, y = rng.standard_normal((2, 2))
    lhs = dd.values(np.array([x + y]))[0]
    rhs = dd.values(np.array([x]))[0] + dd.values(np.array([y]))[0]
    assert lhs <= rhs + 1e-10
    # homogeneity
    assert dd.values(np.array([3.0 * x]))[0] == pytest.approx(3 * dd.values(np.array([x]))[0], rel=1e-12)


def test_double_dual_equals_mean_for_equal_weights():
    # equal weights: the mean norm is itself a norm, so biduality is exact
    # up to the outer grid resolution, which scales like (pi/M)^2
    A = np.array([[1.3, 0.4], [0.4, 0.9]])
    dd = GeometricMeanDoubleDual(MatrixNorm(A), MatrixNorm(A), 0.3, directions=720)
    V = RNG.standard_normal((50, 2))
    ratio = dd.values(V) / dd.mean_values(V)
    assert np.all(ratio <= 1.0 + 1e-12)
    assert ratio.min() > 1.0 - 1e-4


@pytest.fixture(scope="module", params=[2, 3], ids=["d2", "d3"])
def fine_double_dual(request):
    dim = request.param
    rng = np.random.default_rng(30 + dim)
    A, B = (random_spd_matrix(rng, dim, spread=0.8).arr for _ in range(2))
    return GeometricMeanDoubleDual(MatrixNorm(A), MatrixNorm(B), 0.4, directions=1440)


@pytest.mark.parametrize("m", [720, 360])
def test_subgrid_is_the_nested_grid_and_never_exceeds_the_fine_values(fine_double_dual, m):
    dd = fine_double_dual
    sub = dd.on_subgrid(m)
    assert sub.directions == m
    assert np.array_equal(sub._grid, direction_grid(dd.dim, m))
    probe = np.random.default_rng(m).standard_normal((500, dd.dim))
    # a max over a subset of the same functionals: no slack
    assert np.all(sub.values(probe) <= dd.values(probe))


def test_subgrid_at_the_fine_count_gives_the_fine_values(fine_double_dual):
    dd = fine_double_dual
    probe = np.random.default_rng(5).standard_normal((500, dd.dim))
    assert np.array_equal(dd.on_subgrid(1440).values(probe), dd.values(probe))


def test_subgrid_rejects_a_grid_that_is_not_nested(fine_double_dual):
    dd = fine_double_dual
    # 500 does not divide 1440 (on the sphere it is a valid prefix)
    for m in ((500, 2880) if dd.dim == 2 else (2880,)):
        with pytest.raises(ValueError):
            dd.on_subgrid(m)
