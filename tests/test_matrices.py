import numpy as np
import pytest

from setlp.grids import DyadicDomain
from setlp.matrices import (
    MatrixField,
    geometric_mean,
    operator_norms,
    random_spd_matrix,
    spd_stack,
)
from setlp.seminorms import GeometricMeanDoubleDual, MatrixNorm


def spd(entries):
    """A validated stack of one matrix."""
    return spd_stack(np.asarray(entries, dtype=float)[None])


def test_validation_rejects_bad_input():
    with pytest.raises(ValueError):
        spd([[1.0, 0.5], [0.4, 1.0]])  # not symmetric
    with pytest.raises(ValueError):
        spd([[1.0, 2.0], [2.0, 1.0]])  # eigenvalue -1
    with pytest.raises(ValueError):
        spd(np.diag([1.0, 1e13]))  # condition number over the cap
    with pytest.raises(ValueError):
        spd(np.eye(4))  # only d <= 3 supported


def test_powers_against_eigen_oracle():
    A = spd([[2.0, 0.6], [0.6, 1.1]])
    w, Q = np.linalg.eigh(A.arr[0])
    for t in (0.5, -1.0, 0.25, 2.0):
        want = (Q * w ** t) @ Q.T
        assert np.abs(A.power(t).arr[0] - want).max() < 1e-12
    root = A.power(0.5).arr[0]
    assert np.abs(root @ root - A.arr[0]).max() < 1e-12


def test_geometric_mean_commuting_oracle():
    A, B = spd(np.diag([4.0, 1.0])), spd(np.diag([1.0, 9.0]))
    got = geometric_mean(A, B, 0.5).arr[0]
    assert np.abs(got - np.diag([2.0, 3.0])).max() < 1e-12


def test_geometric_mean_swap_and_riccati():
    rng = np.random.default_rng(2)
    A = spd(random_spd_matrix(rng, 2, spread=1.0))
    B = spd(random_spd_matrix(rng, 2, spread=1.0))
    for t in (0.25, 0.7):
        left = geometric_mean(A, B, t).arr
        right = geometric_mean(B, A, 1.0 - t).arr
        assert np.abs(left - right).max() < 1e-11
    X = geometric_mean(A, B, 0.5).arr[0]
    # the midpoint solves X A^-1 X = B
    assert np.abs(X @ np.linalg.inv(A.arr[0]) @ X - B.arr[0]).max() < 1e-10


def test_geometric_mean_rejects_endpoints():
    A = spd(np.eye(2))
    with pytest.raises(ValueError):
        geometric_mean(A, A, 0.0)
    with pytest.raises(ValueError):
        geometric_mean(A, A, 1.0)


@pytest.mark.parametrize("shapes", [((1, 2, 2), (1, 3, 3)), ((2, 2, 2), (3, 2, 2))])
def test_geometric_mean_rejects_unequal_stacks(shapes):
    A, B = (spd_stack(np.broadcast_to(np.eye(shape[-1]), shape)) for shape in shapes)
    with pytest.raises(ValueError, match="geometric mean of stacks of shapes"):
        geometric_mean(A, B, 0.5)
    with pytest.raises(ValueError, match="geometric mean of stacks of shapes"):
        geometric_mean(B, A, 0.5)


def test_operator_norm_closed_form_vs_svd():
    rng = np.random.default_rng(8)
    mats = rng.standard_normal((40, 2, 2))
    batch = operator_norms(mats)
    for M, got in zip(mats, batch):
        assert got == pytest.approx(np.linalg.svd(M, compute_uv=False)[0], rel=1e-12)
    m3 = rng.standard_normal((5, 3, 3))
    for M, got in zip(m3, operator_norms(m3)):
        assert got == pytest.approx(np.linalg.svd(M, compute_uv=False)[0], rel=1e-12)


def test_random_spd_is_deterministic_and_bounded():
    a = random_spd_matrix(np.random.default_rng(42), 3, spread=1.2)
    b = random_spd_matrix(np.random.default_rng(42), 3, spread=1.2)
    assert np.array_equal(a, b) and np.array_equal(a, a.T)
    ev = spd(a).w[0]
    assert ev.min() > 0
    assert ev.max() / ev.min() < 1e12


def test_matrix_field_roundtrip():
    # cells in, the same cells out of the validated stack; a short list raises
    domain = DyadicDomain(1, 2)
    rng = np.random.default_rng(0)
    cells = [random_spd_matrix(rng, 2) for _ in range(domain.num_cells)]
    mf = MatrixField(domain, cells)
    for x, y in zip(mf.stack(), cells, strict=True):
        assert np.array_equal(x, y)
    with pytest.raises(ValueError):
        MatrixField(domain, cells[:-1])


@pytest.mark.parametrize("bad, message", [
    ([[1.0, 0.5], [0.4, 1.0]], "cell 2 is not symmetric"),
    ([[1.0, 2.0], [2.0, 1.0]], "cell 2 is not positive definite"),
    (np.diag([1.0, 1e13]), "cell 2 condition"),
])
def test_matrix_field_stack_names_the_bad_cell(bad, message):
    domain = DyadicDomain(1, 2)
    stack = np.array([np.eye(2)] * domain.num_cells)
    stack[2] = bad
    stack[3] = [[1.0, 2.0], [2.0, 1.0]]  # a later bad cell is not the one named
    with pytest.raises(ValueError, match=message):
        MatrixField(domain, stack)


def test_matrix_field_has_a_read_only_validated_stack():
    domain = DyadicDomain(1, 1)
    mf = MatrixField(domain, np.array([[[2.0, 0.5], [0.5, 1.0]], [[1.0, 0.0], [0.0, 3.0]]]))
    assert mf.domain == domain and mf.stack().shape == (2, 2, 2)
    assert not mf.stack().flags.writeable
    assert np.array_equal(mf.spd.w[1], [1.0, 3.0])


def test_gm_norm_pair_structure():
    rng = np.random.default_rng(6)
    W0 = random_spd_matrix(rng, 2)
    W1 = random_spd_matrix(rng, 2)
    double_dual = GeometricMeanDoubleDual(MatrixNorm(W0), MatrixNorm(W1), 0.5,
                                          directions=180)
    mean_matrix = geometric_mean(spd(W0).power(2.0), spd(W1).power(2.0), 0.5)
    comparison = MatrixNorm(mean_matrix.power(0.5).arr[0])
    mean = geometric_mean(spd(W0 @ W0), spd(W1 @ W1), 0.5)
    assert np.abs(mean_matrix.arr[0] - mean.arr[0]).max() < 1e-12
    V = rng.standard_normal((100, 2))
    root = mean.power(0.5).arr[0]
    assert np.abs(comparison.values(V) - np.linalg.norm(V @ root.T, axis=1)).max() < 1e-10
    assert np.all(double_dual.values(V) <= double_dual.mean_values(V) * (1 + 1e-9))
