import math

import numpy as np
import pytest

from setlp import weights
from setlp.bodies import ConvexBody
from setlp.fields import SetField, values_lp_norm
from setlp.grids import DyadicDomain, dyadic_cube_family
from setlp.matrices import MatrixField, operator_norms
from setlp.harness import ExperimentConfig, _averaging_samples, _fixture_pair
from setlp.operators import aligned_cells, frac_average
from setlp.seminorms import (
    DualNorm,
    GeometricMeanDoubleDual,
    MatrixNorm,
    direction_grid,
    inner_duals,
)
from setlp.weights import (
    FIXTURE_CONDITION_CAP,
    _pairwise_opnorms,
    ap_matrix_constant,
    averaging_norms,
    averaging_sup_ratio,
    classical_ap_constant,
    fixture_weights,
    reverse_factorization,
)


def scalar_field(domain, values):
    return MatrixField(domain, np.asarray(values, dtype=float)[:, None, None])


def test_identity_weight_has_unit_constant():
    domain = DyadicDomain(2, 2)
    W = fixture_weights("identity", {"dim": 2}, domain)
    assert ap_matrix_constant(W, 2.0) == 1.0


def test_constant_weight_has_unit_constant():
    domain = DyadicDomain(1, 3)
    W = fixture_weights("constant", {"matrix": [[2.0, 0.5], [0.5, 1.0]]}, domain)
    assert ap_matrix_constant(W, 3.0) == pytest.approx(1.0, abs=1e-14)


def test_scalar_reduction_matches_classical_ap():
    # for 1x1 weights W = [[w]] the matrix constant equals the classical
    # constant of the scalar weight w^p, to the 1/p power; in the plane the
    # row-major cell order differs from the cube order
    rng = np.random.default_rng(31)
    for domain in (DyadicDomain(1, 4), DyadicDomain(2, 3)):
        w = np.exp(rng.normal(0.0, 0.6, domain.num_cells))
        W = scalar_field(domain, w)
        for p in (1.5, 2.0, 3.0):
            got = ap_matrix_constant(W, p)
            want = classical_ap_constant(w ** p, domain, p) ** (1.0 / p)
            assert got == pytest.approx(want, rel=1e-12)


def test_classical_constant_rejects_a_wrong_number_of_values():
    domain = DyadicDomain(1, 2)
    w = np.arange(1.0, 7.0)
    for bad in (w, w[:3], w[:4].reshape(2, 2)):
        with pytest.raises(ValueError, match="4 cell values"):
            classical_ap_constant(bad, domain, 2.0)
    assert classical_ap_constant(w[:4], domain, 2.0) >= 1.0


def _einsum_opnorms(left, right, chunk):
    """The pairwise norms as einsum products through operator_norms, chunk by chunk."""
    count, d = left.shape[0], left.shape[-1]
    P = np.empty((count, count))
    for start in range(0, count, chunk):
        block = np.einsum("xij,yjk->xyik", left[start:start + chunk], right)
        P[start:start + chunk] = operator_norms(block.reshape(-1, d, d)).reshape(
            block.shape[0], count)
    return P


@pytest.mark.parametrize("n,level", [(1, 8), (2, 4)])
def test_pairwise_opnorms_are_bitwise_the_einsum_path(n, level):
    domain = DyadicDomain(n, level)
    fields = _fixture_pair("rotated", domain) + _fixture_pair("random", domain)
    fields += (fixture_weights("scalar_profile", {"amplitude": 1.0}, domain),)
    for W in fields:
        stack = W.stack()
        inverse = np.linalg.inv(stack)
        for chunk in (1, 7, 128, domain.num_cells + 5):
            got = _pairwise_opnorms(stack, inverse, chunk)
            assert got.tobytes() == _einsum_opnorms(stack, inverse, chunk).tobytes()


@pytest.mark.parametrize("d", [2, 3])
def test_pairwise_opnorms_match_svd(d):
    rng = np.random.default_rng(60 + d)
    left, right = rng.standard_normal((2, 23, d, d))
    got = _pairwise_opnorms(left, right, 7)
    want = np.linalg.svd(left[:, None] @ right[None], compute_uv=False)[..., 0]
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)


def _reference_ap_constant(W, p):
    """The matrix characteristic cube by cube, one np.ix_ block per cube."""
    pprime = p / (p - 1.0)
    stack = W.stack()
    powers = _pairwise_opnorms(stack, np.linalg.inv(stack), 128) ** pprime
    best = 0.0
    for cube in dyadic_cube_family(W.domain):
        idx = aligned_cells(W.domain, cube)
        inner = powers[np.ix_(idx, idx)].mean(axis=1) ** (p / pprime)
        best = max(best, float(inner.mean() ** (1.0 / p)))
    return best


@pytest.mark.parametrize("name,n,level", [("rotated", 1, 8), ("random", 1, 8),
                                          ("rotated", 2, 4), ("random", 2, 4)])
def test_ap_constant_is_bitwise_the_per_cube_loop(name, n, level):
    for W in _fixture_pair(name, DyadicDomain(n, level)):
        for p in (1.5, 2.0, 3.0):
            assert ap_matrix_constant(W, p) == _reference_ap_constant(W, p)


def test_matrix_constants_are_at_least_one():
    domain = DyadicDomain(1, 4)
    for kind, params in (
        ("rotated_diag", {"theta0": 0.4, "spread": 0.9}),
        ("random_spd", {"seed": 3, "dim": 2, "spread": 0.7}),
        ("scalar_profile", {"amplitude": 1.0}),
    ):
        W = fixture_weights(kind, params, domain)
        assert ap_matrix_constant(W, 2.0) >= 1.0 - 1e-12


def test_ap_report_shape():
    domain = DyadicDomain(1, 2)
    W = fixture_weights("scalar_two_valued", {"low": 1.0, "high": 3.0}, domain)
    got = ap_matrix_constant(W, 2.0)
    assert type(got) is float
    # the worst cube is the root, where w = 1, 1, 3, 3: <w^2> <w^-2> = 5 * 5/9
    assert got == pytest.approx(math.sqrt(25.0 / 9.0), rel=1e-14)


def test_fixture_rejects_unused_params():
    domain = DyadicDomain(1, 2)
    with pytest.raises(ValueError, match="unused fixture parameters"):
        fixture_weights("identity", {"dim": 2, "typo": 1}, domain)
    with pytest.raises(ValueError, match="unknown fixture kind"):
        fixture_weights("nonesuch", None, domain)
    with pytest.raises(ValueError, match="'matrix'"):
        fixture_weights("constant", None, domain)


def test_fixture_condition_cap():
    domain = DyadicDomain(1, 4)
    with pytest.raises(ValueError, match="condition"):
        fixture_weights("rotated_diag", {"spread": 0.6 + math.log(FIXTURE_CONDITION_CAP)},
                        domain)


@pytest.mark.parametrize("n", [1, 2])
def test_rotated_fixture_stack_is_bitwise_the_per_cell_product(n):
    from setlp.weights import _profile

    domain = DyadicDomain(n, 4 if n == 1 else 3)
    W = fixture_weights("rotated_diag", {"theta0": 0.3, "spread": 0.8}, domain)
    centers = domain.cell_centers()
    angles = 0.3 + 2.0 * centers[:, 0] + (1.4 * centers[:, 1] if n == 2 else 0.0)
    for ang, lg, got in zip(angles, _profile(centers, 0.8, 1.0, 0.25), W.stack()):
        c, s = math.cos(ang), math.sin(ang)
        R = np.array([[c, -s], [s, c]])
        M = R @ np.diag([math.exp(lg), math.exp(-lg)]) @ R.T
        assert got.tobytes() == (0.5 * (M + M.T)).tobytes()


def test_reverse_factorization_scalar_oracle():
    rng = np.random.default_rng(33)
    domain = DyadicDomain(1, 3)
    a = np.exp(rng.normal(0.0, 0.4, 8))
    b = np.exp(rng.normal(0.0, 0.4, 8))
    for t in (0.25, 0.5, 0.8):
        got = reverse_factorization(scalar_field(domain, a), scalar_field(domain, b), t)
        vals = got.stack()[:, 0, 0]
        assert np.abs(vals - a ** (1.0 - t) * b ** t).max() < 1e-13


def test_reverse_factorization_passes_equal_cells_through():
    domain = DyadicDomain(1, 2)
    W = fixture_weights("rotated_diag", {"spread": 0.5}, domain)
    got = reverse_factorization(W, W, 0.3)
    assert got is W


def _factorization_oracle(a, b, t):
    """One cell of the reverse factorization in plain numpy, one matrix at
    a time: each power from the eigh of its own matrix, then symmetrized."""
    def sym(M):
        return 0.5 * (M + M.T)

    def power(A, s):
        w, Q = np.linalg.eigh(A)
        return sym((Q * w ** s) @ Q.T)

    if np.array_equal(a, b):
        return a
    a2, b2 = power(a, 2.0), power(b, 2.0)
    half, ihalf = power(a2, 0.5), power(a2, -0.5)
    mid_t = power(sym(ihalf @ b2 @ ihalf), t)
    return power(sym(half @ mid_t @ half), 0.5)


def _oracle_pairs():
    for name, n, level in (("rotated", 1, 8), ("random", 1, 8),
                           ("rotated", 2, 4), ("random", 2, 4)):
        yield _fixture_pair(name, DyadicDomain(n, level))
    # every third cell of the second field equal to the first
    W0, W1 = _fixture_pair("random", DyadicDomain(1, 5))
    some = (np.arange(W0.domain.num_cells) % 3 == 0)[:, None, None]
    yield W0, MatrixField(W0.domain, np.where(some, W0.stack(), W1.stack()))


@pytest.mark.parametrize("t", [0.3, 0.5])
def test_batched_reverse_factorization_is_bitwise_the_per_cell_formula(t):
    for W0, W1 in _oracle_pairs():
        got = reverse_factorization(W0, W1, t).stack()
        want = np.array([_factorization_oracle(a, b, t)
                         for a, b in zip(W0.stack(), W1.stack())])
        assert got.tobytes() == want.tobytes()


def test_reverse_factorization_keeps_the_squared_condition_guard():
    # cond(W0) = 2e6 passes the 1e12 guard, but W0^2 does not
    domain = DyadicDomain(1, 1)
    W0 = MatrixField(domain, [np.diag([1.0, 2e6]), np.eye(2)])
    W1 = MatrixField(domain, [np.eye(2), np.eye(2)])
    with pytest.raises(ValueError, match="condition"):
        reverse_factorization(W0, W1, 0.5)
    # the same cell passes through when both fields hold it
    assert reverse_factorization(W0, W0, 0.5) is W0


def test_reverse_factorization_validation():
    d1 = DyadicDomain(1, 2)
    d2 = DyadicDomain(1, 3)
    W = fixture_weights("identity", {"dim": 2}, d1)
    V = fixture_weights("identity", {"dim": 2}, d2)
    with pytest.raises(ValueError, match="different grids"):
        reverse_factorization(W, V, 0.5)
    U = fixture_weights("identity", {"dim": 1}, d1)
    with pytest.raises(ValueError, match="matrix dimensions"):
        reverse_factorization(W, U, 0.5)
    for t in (0.0, 1.0, 1.5):
        with pytest.raises(ValueError, match="strictly in"):
            reverse_factorization(W, W, t)


def _reference_sup_ratio(pair, p, fields):
    """The sup ratio with rho built cell by cell through the public
    constructor and every cube average rebuilt through frac_average."""
    domain = pair[0].domain
    rho = [GeometricMeanDoubleDual(MatrixNorm(a), MatrixNorm(b), 0.5, directions=120)
           for a, b in zip(*(mf.stack() for mf in pair))]
    vol = domain.cell_volume
    sup = 0.0
    for field in fields:
        base = values_lp_norm([r.of_body(c) for r, c in zip(rho, field.cells)], p, vol)
        for cube in dyadic_cube_family(domain):
            avg = frac_average(field, cube, 0.0)
            vals = [rho[i].of_body(avg) for i in aligned_cells(domain, cube)]
            sup = max(sup, math.fsum(v ** p * vol for v in vals) ** (1.0 / p) / base)
    return sup


def _scan_inputs(n, name="rotated"):
    """One riesz-thorin fixture pair on a level-3 grid, the inner duals of its
    double-dual norm field, and the suite's four trial fields (smooth, smooth,
    spike, checkerboard) of its value dimension."""
    domain = DyadicDomain(n, 3)
    pair = _fixture_pair(name, domain)
    inner = inner_duals(pair[0].stack(), pair[1].stack(), 0.5, 120)
    return pair, inner, _averaging_samples(ExperimentConfig(seed=9), domain, pair[0].dim, 4)


def test_averaging_sup_ratio_equals_per_cube_averages_on_the_line():
    # d = 1: both paths add the same scalar support values in the same
    # order, scale by powers of two and multiply by the same polar point
    # 1 / p_t*, so they agree bit for bit.  d = 2:
    # the planar Minkowski sum walks its edges with a running sum, so its
    # vertices round apart from the averaged support rows.
    for name, exact in (("two_scales", True), ("rotated", False)):
        pair, inner, fields = _scan_inputs(1, name)
        domain = pair[0].domain
        for field in fields:
            got = averaging_sup_ratio(domain, inner, 2.0, [field])
            want = _reference_sup_ratio(pair, 2.0, [field])
            assert got == (want if exact else pytest.approx(want, rel=1e-12, abs=0.0))
            assert math.isfinite(got) and got > 0.0
        assert averaging_sup_ratio(domain, inner, 2.0, fields) == max(
            averaging_sup_ratio(domain, inner, 2.0, [field]) for field in fields)


def test_averaging_sup_ratio_matches_per_cube_averages_in_the_plane():
    for name in ("two_scales", "rotated"):
        pair, inner, fields = _scan_inputs(2, name)
        for field in fields:
            want = _reference_sup_ratio(pair, 2.0, [field])
            assert averaging_sup_ratio(pair[0].domain, inner, 2.0, [field]) == pytest.approx(
                want, rel=1e-12, abs=0.0)


def test_averaging_sup_ratio_reads_a_body_field_through_padded_generators():
    # cells of up to three generators: the origin cell and the shorter
    # lists are padded with zero rows, which no support row can exceed
    pair, inner, _ = _scan_inputs(1)
    domain = pair[0].domain
    rng = np.random.default_rng(13)
    cells = [ConvexBody(2, rng.standard_normal((i % 4, 2))) for i in range(domain.num_cells)]
    field = SetField(domain, cells)
    counts = {c.num_generators for c in cells}
    assert min(counts) == 0 and max(counts) == field.generators.shape[1] and len(counts) > 2
    got = averaging_sup_ratio(domain, inner, 2.0, [field])
    assert got == pytest.approx(_reference_sup_ratio(pair, 2.0, [field]), rel=1e-12, abs=0.0)


def test_averaging_sup_ratio_builds_one_direction_grid_per_call(monkeypatch):
    pair, inner, fields = _scan_inputs(1)
    made = []

    def counting(*args):
        made.append(args)
        return direction_grid(*args)

    monkeypatch.setattr(weights, "direction_grid", counting)
    assert averaging_sup_ratio(pair[0].domain, inner, 2.0, fields) > 0.0
    assert len(fields) == 4 and made == [(2, 120)]
    assert averaging_sup_ratio(pair[0].domain, inner, 2.0, []) == 0.0


def test_averaging_sup_ratio_rejects_bad_exponents():
    pair, inner, fields = _scan_inputs(1)
    for p in (0.5, math.inf):
        with pytest.raises(ValueError):
            averaging_sup_ratio(pair[0].domain, inner, p, fields)


def test_averaging_sup_ratio_rejects_a_field_or_inner_duals_off_its_grid():
    pair, inner, fields = _scan_inputs(1)
    domain = pair[0].domain
    with pytest.raises(ValueError, match="another grid"):
        averaging_sup_ratio(DyadicDomain(1, 2), inner[::2], 2.0, fields)
    for rows in (inner[:-1], inner[:, 0]):
        with pytest.raises(ValueError, match="one row of inner duals per cell"):
            averaging_sup_ratio(domain, rows, 2.0, fields)
    line = _averaging_samples(ExperimentConfig(seed=9), domain, 1, 1)
    with pytest.raises(ValueError, match="120 inner duals per cell"):
        averaging_sup_ratio(domain, inner, 2.0, line)


def test_norm_check_on_the_interpolated_rotated_weight():
    # the `norm_field` value of reverse-factorization's side-by-side at seed 7
    config = ExperimentConfig(seed=7)
    mf0, mf1 = _fixture_pair("rotated", DyadicDomain(1, 5))
    wbar = reverse_factorization(mf0, mf1, config.ts[len(config.ts) // 2])
    got = max(float(nq.max()) for nq in averaging_norms(wbar))
    assert got == pytest.approx(1.215730459058974, rel=1e-14, abs=0.0)


def _cube_means(W, cube):
    """<W^2>_Q and <W^-2>_Q on one aligned cube, each cell's square by matmul."""
    idx = aligned_cells(W.domain, cube)
    cells = W.stack()[idx]
    inverse = np.linalg.inv(cells)
    return (cells @ cells).mean(axis=0), (inverse @ inverse).mean(axis=0)


def _sqrtm(A):
    w, Q = np.linalg.eigh(A)
    return (Q * np.sqrt(w)) @ Q.T


def _per_cube(W, values):
    """values(cube) for every aligned cube, laid out as averaging_norms is:
    one array per level, cubes in row-major order."""
    n = W.domain.n
    out = [np.zeros(1 << (j * n)) for j in range(W.domain.level + 1)]
    for cube in dyadic_cube_family(W.domain):
        index = np.ravel_multi_index(cube.coords, (1 << cube.level,) * n)
        out[cube.level][index] = values(cube)
    return out


def _reference_norms(W):
    """N_Q cube by cube: the largest singular value of <W^2>^(1/2) <W^-2>^(1/2)."""
    def nq(cube):
        A, B = _cube_means(W, cube)
        return np.linalg.svd(_sqrtm(A) @ _sqrtm(B), compute_uv=False)[0]
    return _per_cube(W, nq)


def _rough_weights(domain):
    """Independent d = 3 cells with condition numbers up to e^4."""
    rng = np.random.default_rng(3)
    Q = np.linalg.qr(rng.standard_normal((domain.num_cells, 3, 3)))[0]
    eig = np.exp(rng.uniform(-1.0, 1.0, (domain.num_cells, 1, 3)))
    return (MatrixField(domain, (Q * eig) @ np.swapaxes(Q, 1, 2)),)


@pytest.mark.parametrize("name,n,level", [("rotated", 1, 5), ("random", 1, 5),
                                          ("rotated", 2, 3), ("random", 2, 3),
                                          ("rough", 2, 3)])
def test_averaging_norms_match_the_per_cube_singular_value(name, n, level):
    domain = DyadicDomain(n, level)
    for W in _rough_weights(domain) if name == "rough" else _fixture_pair(name, domain):
        got, want = averaging_norms(W), _reference_norms(W)
        assert [g.shape for g in got] == [w.shape for w in want]
        for g, w in zip(got, want):
            assert np.abs(g / w - 1.0).max() < 1e-12


@pytest.mark.parametrize("n", [1, 2])
def test_scalar_averaging_norms_match_the_classical_constant(n):
    # for 1x1 weights N_Q^2 = <w^2>_Q <w^-2>_Q, the classical A_2 product of w^2
    domain = DyadicDomain(n, 4 if n == 1 else 3)
    for kind, params in (("scalar_two_valued", {"low": 1.0, "high": 3.0}),
                         ("scalar_two_valued", {"low": 2.0, "high": 1.0}),
                         ("scalar_profile", {"amplitude": 1.0})):
        W = fixture_weights(kind, params, domain)
        got = max(float(nq.max()) for nq in averaging_norms(W))
        want = classical_ap_constant(W.stack()[:, 0, 0] ** 2, domain, 2.0) ** 0.5
        assert got == pytest.approx(want, rel=1e-12)


def test_norm_check_euclidean_is_tight():
    for domain in (DyadicDomain(1, 4), DyadicDomain(2, 3)):
        W = fixture_weights("identity", {"dim": 2}, domain)
        for nq in averaging_norms(W):
            assert np.abs(nq - 1.0).max() <= 1e-15


def test_norm_check_matrix_fixture():
    # Cauchy-Schwarz gives N_Q >= 1; averaging the operator norms of
    # W(x) W(y)^-1 gives N_Q <= the matrix A_2 constant
    domain = DyadicDomain(1, 3)
    W = fixture_weights("rotated_diag", {"spread": 0.7}, domain)
    nqs = averaging_norms(W)
    assert all((nq >= 1.0 - 1e-12).all() for nq in nqs)
    top = max(float(nq.max()) for nq in nqs)
    assert 1.0 < top <= ap_matrix_constant(W, 2.0) * (1.0 + 1e-12)


def test_directional_ratio_stays_below_the_closed_form():
    # sup_v |<W^-2>^(1/2) v| / |<W^2>^(-1/2) v| is N_Q; a 1440-direction
    # grid reads it from below
    V = direction_grid(2, 1440)
    for W in _fixture_pair("random", DyadicDomain(1, 4)):
        nqs = averaging_norms(W)

        def ratio(cube):
            A, B = _cube_means(W, cube)
            top = MatrixNorm(np.linalg.cholesky(B).T).values(V)
            bottom = DualNorm(MatrixNorm(np.linalg.cholesky(A).T)).values(V)
            return (top / bottom).max()

        for nq, grid in zip(nqs, _per_cube(W, ratio)):
            assert (grid <= nq * (1.0 + 1e-12)).all()
            assert (grid >= nq * (1.0 - 1e-5)).all()
