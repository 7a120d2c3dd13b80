import numpy as np
import pytest

from setlp import seminorms
from setlp.bodies import ConvexBody
from setlp.grids import DyadicDomain
from setlp.harness import _fixture_pair
from setlp.matrices import random_spd_matrix
from setlp.seminorms import (
    DegenerateSeminormError,
    DualNorm,
    GaugeNorm,
    GeometricMeanDoubleDual,
    MatrixNorm,
    _bracketed_laguerre,
    _cubic_real_parts,
    _descartes_roots,
    _matrix_mean_duals,
    _monic_roots_on,
    direction_grid,
    dual_values,
    inner_duals,
    nested_maxima,
)

RNG = np.random.default_rng(21)


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
    d = DualNorm(MatrixNorm(np.eye(2)))
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


def test_double_dual_mean_values_are_the_weighted_geometric_mean():
    a = MatrixNorm(np.diag([2.0, 1.0]))
    b = MatrixNorm(np.diag([1.0, 3.0]))
    t = 0.25
    dd = GeometricMeanDoubleDual(a, b, t, directions=64)
    V = RNG.standard_normal((25, 2))
    want = a.values(V) ** (1 - t) * b.values(V) ** t
    assert np.abs(dd.mean_values(V) - want).max() < 1e-12
    assert dd.mean_values(V[0]).shape == (1,)


def test_double_dual_rejects_mismatched_factors_and_t_off_the_open_interval():
    with pytest.raises(ValueError, match="dimension mismatch"):
        GeometricMeanDoubleDual(MatrixNorm(np.eye(2)), MatrixNorm(np.eye(3)), 0.5)
    for t in (0.0, 1.0, -0.2, 1.5):
        with pytest.raises(ValueError, match="strictly in"):
            GeometricMeanDoubleDual(MatrixNorm(np.eye(2)), MatrixNorm(np.eye(2)), t)


def test_double_dual_is_a_norm_below_the_mean():
    rng = np.random.default_rng(4)
    A = np.array([[1.5, 0.2], [0.2, 0.8]])
    B = np.array([[0.9, -0.3], [-0.3, 1.7]])
    dd = GeometricMeanDoubleDual(MatrixNorm(A), MatrixNorm(B), 0.5, directions=360)
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
    A, B = (random_spd_matrix(rng, dim, spread=0.8) for _ in range(2))
    return GeometricMeanDoubleDual(MatrixNorm(A), MatrixNorm(B), 0.4, directions=1440)


@pytest.mark.parametrize("m", [720, 360])
def test_subgrid_is_the_nested_grid_and_never_exceeds_the_fine_values(fine_double_dual, m):
    dd = fine_double_dual
    # a stride of the fine grid on the circle, a prefix on the sphere
    rows = slice(None, None, 1440 // m) if dd.dim == 2 else slice(None, m)
    assert np.array_equal(dd.grid[rows], direction_grid(dd.dim, m))
    probe = np.random.default_rng(m).standard_normal((500, dd.dim))
    sub = nested_maxima(probe[None], dd.inner[None], (m,))[0, 0]
    polar = direction_grid(dd.dim, m) / dd.inner[rows, None]  # u_i / p_t*(u_i)
    assert np.array_equal(sub, np.abs(probe @ polar.T).max(axis=1))
    # a max over a subset of the same functionals: no slack
    assert np.all(sub <= dd.values(probe))


def test_subgrid_at_the_fine_count_gives_the_fine_values(fine_double_dual):
    dd = fine_double_dual
    probe = np.random.default_rng(5).standard_normal((500, dd.dim))
    assert np.array_equal(nested_maxima(probe[None], dd.inner[None], (1440,))[0, 0],
                          dd.values(probe))


def test_subgrid_rejects_a_grid_that_is_not_nested(fine_double_dual):
    dd = fine_double_dual
    probe = np.random.default_rng(5).standard_normal((1, 10, dd.dim))
    # 500 does not divide 1440 (on the sphere it is a valid prefix)
    for m in ((500, 2880) if dd.dim == 2 else (2880,)):
        with pytest.raises(ValueError):
            nested_maxima(probe, dd.inner[None], (m,))


def _comparability_pair(seed, pair_idx):
    # the matrices and t that the reverse-factorization comparability
    # block draws for one pair
    from setlp.harness import ExperimentConfig, _trial_rng

    config = ExperimentConfig(seed=seed)
    rng = _trial_rng(seed, 9000 + pair_idx)
    d = 2 if pair_idx < 10 else 3
    w0, w1 = (random_spd_matrix(rng, d, spread=0.8) for _ in range(2))
    return w0, w1, config.ts[len(config.ts) // 2]


def _dense_directions(dim, count, rng):
    if dim == 2:
        th = np.linspace(0.0, np.pi, count, endpoint=False)
        return np.column_stack([np.cos(th), np.sin(th)])
    pts = rng.standard_normal((count, dim))
    return pts / np.linalg.norm(pts, axis=1, keepdims=True)


@pytest.mark.parametrize("dim", [2, 3])
def test_exact_inner_duals_bound_a_dense_search_and_the_grid(dim):
    rng = np.random.default_rng(70 + dim)
    dense = _dense_directions(dim, 100_000, rng)
    for _ in range(8):
        A, B = (random_spd_matrix(rng, dim, spread=1.5) for _ in range(2))
        t = float(rng.uniform(0.05, 0.95))
        dd = GeometricMeanDoubleDual(MatrixNorm(A), MatrixNorm(B), t, directions=48)
        brute = (np.abs(dd.grid @ dense.T) / dd.mean_values(dense)).max(axis=1)
        assert np.all(brute <= dd.inner * (1.0 + 1e-14))
        on_grid = (np.abs(dd.grid @ dd.grid.T) / dd.mean_values(dd.grid)).max(axis=1)
        assert np.all(dd.inner >= on_grid)


def test_exact_inner_duals_agree_with_a_converged_search():
    # at seed 7 the refined grid search reaches the supremum on every pair
    for pair_idx in range(20):
        w0, w1, t = _comparability_pair(7, pair_idx)
        dd = GeometricMeanDoubleDual(MatrixNorm(w0), MatrixNorm(w1), t, directions=1440)
        search = dual_values(dd.mean_values, dd.dim, dd.grid, directions=1440)
        assert np.abs(dd.inner / search - 1.0).max() < 1e-12, pair_idx


def test_exact_inner_duals_pass_a_local_maximum_of_the_search():
    # seed 16, pair 16: the search stops at a local maximum on some rows
    w0, w1, t = _comparability_pair(16, 16)
    dd = GeometricMeanDoubleDual(MatrixNorm(w0), MatrixNorm(w1), t, directions=1440)
    search = dual_values(dd.mean_values, dd.dim, dd.grid, directions=1440)
    assert (dd.inner / search - 1.0).max() > 1e-3
    assert (dd.inner / search - 1.0).min() > -1e-12


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("factor", [1.0, 2.5])
def test_exact_inner_duals_of_proportional_factors_have_the_closed_form(dim, factor):
    # p_t = c^t |A w|, so p_t*(u) = |A^-T u| / c^t
    A = random_spd_matrix(np.random.default_rng(dim), dim, spread=0.8)
    dd = GeometricMeanDoubleDual(MatrixNorm(A), MatrixNorm(factor * A), 0.35, directions=200)
    want = np.linalg.norm(dd.grid @ np.linalg.inv(A), axis=1) / factor ** 0.35
    assert np.abs(dd.inner / want - 1.0).max() < 1e-14


def test_scalar_double_dual_keeps_its_closed_form_bit_for_bit():
    # 1 / (2^0.7 3^0.3) and the values it gives, as the search-based
    # implementation computed them
    dd = GeometricMeanDoubleDual(MatrixNorm([[2.0]]), MatrixNorm([[3.0]]), 0.3)
    assert dd.inner[0] == 0.44273374664777815
    got = dd.values(np.array([[-1.7], [0.4]]))
    assert np.array_equal(got, [3.8397795805533077, 0.9034775483654842])


def _search_route_scalar_duals(a, b, t):
    """The inner dual of a d = 1 pair as the constructor once computed it:
    the grid search's d = 1 branch on the raw geometric mean."""
    def mean(V):
        return MatrixNorm([[a]]).values(V) ** (1.0 - t) * MatrixNorm([[b]]).values(V) ** t

    return dual_values(mean, 1, [[1.0]])[0]


def test_scalar_inner_duals_are_bitwise_the_search_route():
    mf0, mf1 = _fixture_pair("two_scales", DyadicDomain(1, 3))
    rng = np.random.default_rng(33)
    cases = [(mf0.stack(), mf1.stack(), t) for t in (0.1, 0.3, 0.5, 0.7, 0.9)]
    for t in rng.uniform(0.01, 0.99, 20):
        signs = rng.choice([-1.0, 1.0], (2, 50, 1, 1))
        A0, A1 = signs * np.exp(rng.uniform(-6.0, 6.0, (2, 50, 1, 1)))  # e^-6 to e^6
        cases.append((A0, A1, float(t)))
    for A0, A1, t in cases:
        got = inner_duals(A0, A1, t)
        assert got.shape == (len(A0), 1)
        want = [_search_route_scalar_duals(a[0, 0], b[0, 0], t) for a, b in zip(A0, A1)]
        assert got[:, 0].tobytes() == np.array(want).tobytes()


def test_inner_duals_reject_a_zero_scalar_factor_and_bad_shapes():
    with pytest.raises(DegenerateSeminormError):
        inner_duals(np.array([[[2.0]], [[0.0]]]), np.ones((2, 1, 1)), 0.5)
    with pytest.raises(ValueError, match="factor stacks"):
        inner_duals(np.ones((2, 1, 1)), np.ones((3, 1, 1)), 0.5)
    with pytest.raises(ValueError, match="strictly"):
        inner_duals(np.ones((2, 1, 1)), np.ones((2, 1, 1)), 1.0)


def test_double_dual_in_the_plane_needs_matrix_factors():
    with pytest.raises(TypeError):
        GeometricMeanDoubleDual(GaugeNorm(ConvexBody(2, np.eye(2))), MatrixNorm(np.eye(2)),
                                0.5)


def test_double_dual_of_a_singular_factor_is_rejected():
    with pytest.raises(DegenerateSeminormError):
        GeometricMeanDoubleDual(MatrixNorm(np.diag([1.0, 0.0])), MatrixNorm(np.eye(2)), 0.5)


def _companion_real_parts(coef):
    # the eigenvalue solve of the monic polynomials' companion matrices
    n = coef.shape[-1] - 1
    comp = np.zeros(coef.shape[:-1] + (n, n))
    comp[..., np.arange(1, n), np.arange(n - 1)] = 1.0
    comp[..., :, -1] = -coef[..., :-1]
    return np.linalg.eigvals(comp).real


def _monic_from_roots(roots):
    # increasing powers; the leading coefficient is exactly 1
    return np.array([np.polynomial.polynomial.polyfromroots(r).real for r in roots])


def _sorted_clipped(values, low=-1.0, high=1.0):
    return np.sort(np.clip(values, low, high), axis=-1)


def test_closed_form_cubic_matches_the_companion_eigenvalues_on_random_cubics():
    rng = np.random.default_rng(61)
    coef = np.concatenate([rng.standard_normal((4000, 3)), np.ones((4000, 1))], axis=1)
    got, want = _cubic_real_parts(coef), _companion_real_parts(coef)
    assert got.shape == want.shape == (4000, 3)
    assert np.abs(_sorted_clipped(got) - _sorted_clipped(want)).max() < 1e-12
    # the leading coefficient is read as 1 whatever it holds
    assert np.array_equal(_cubic_real_parts(coef * [1, 1, 1, 0]), got)


@pytest.mark.parametrize("roots, tol", [
    ([0.3, 0.3, 0.3], 1e-5),  # triple: both solves are off by ~eps^(1/3)
    ([0.5, 0.5, -0.2], 1e-7),  # double: ~eps^(1/2)
    ([0.4, -0.1 + 0.7j, -0.1 - 0.7j], 1e-14),  # one real root and a complex pair
    ([0.9, 0.2 + 1e-3j, 0.2 - 1e-3j], 1e-12),  # a close complex pair
    (0.1 * np.exp(2j * np.pi / 3 * np.arange(3)), 1e-14),  # depressed, p = 0 exactly
    (0.5 + 0.1 * np.exp(2j * np.pi / 3 * np.arange(3)), 1e-13),  # p = 0 up to rounding
    ([0.25, 0.6, 0.95], 1e-14),  # three distinct real roots
])
def test_closed_form_cubic_matches_the_companion_eigenvalues_on_crafted_cubics(roots, tol):
    coef = _monic_from_roots([roots])
    got, want = _cubic_real_parts(coef), _companion_real_parts(coef)
    exact = np.sort(np.real(roots))
    for low, high in ((-1.0, 1.0), (0.3, 0.8)):
        clipped = _sorted_clipped(got, low, high)
        assert np.abs(clipped - _sorted_clipped(want, low, high)).max() < tol
        assert np.abs(clipped - np.clip(exact, low, high)).max() < tol



@pytest.mark.parametrize("extra", [[], [0.1 + 2j, 0.1 - 2j]], ids=["degree5", "degree7"])
@pytest.mark.parametrize("roots, lo, hi, exact_tol, ref_tol", [
    # a double root inside: a root of p' here, the references split it by ~eps^(1/2)
    ([0.4, 0.4, 0.7, -2.0, 3.0], 0.0, 1.0, 1e-12, 1e-7),
    ([0.2, 0.9, 0.55, -1.0, 4.0], 0.2, 0.9, 1e-12, 1e-12),  # a root at each end
    # three roots within 1e-6: every solve is off by ~eps^(1/3)
    ([0.5, 0.5 + 1e-6, 0.5 + 2e-6, 0.1, 2.0], 0.0, 1.0, 1e-5, 1e-5),
    # complex pairs off the interval and no real root on it
    ([0.5 + 0.1j, 0.5 - 0.1j, 1.5, -0.5 + 0.2j, -0.5 - 0.2j], 0.0, 1.0, 1e-12, 1e-12),
])
def test_rolle_chain_finds_every_real_root_on_the_interval(roots, lo, hi, exact_tol, ref_tol, extra):
    roots = np.array(roots + extra)
    coef = _monic_from_roots([roots])
    got = _monic_roots_on(coef, lo, hi)[0]
    assert got.shape == (len(roots),) and np.all((lo <= got) & (got <= hi))
    exact = roots.real[(roots.imag == 0.0) & (lo <= roots.real) & (roots.real <= hi)]
    assert all(np.abs(got - r).min() < exact_tol for r in exact)
    # np.roots' real roots on the interval are candidates here and were among
    # the companion solve's clipped real parts
    ref = np.roots(coef[0, ::-1])
    ref = ref.real[(np.abs(ref.imag) < ref_tol) & (lo - ref_tol <= ref.real) & (ref.real <= hi + ref_tol)]
    assert len(ref) >= len(exact)
    companion = np.clip(_companion_real_parts(coef)[0], lo, hi)
    for r in ref:
        assert np.abs(got - r).min() < ref_tol and np.abs(companion - r).min() < ref_tol


def test_no_bracket_of_the_seed_7_pairs_reaches_the_iteration_cap(monkeypatch):
    # a converged step that rounds onto a bracket end must end its row, not
    # fall back to bisection for dozens of passes
    passes, uncertified = [], []
    laguerre, horner, descartes = (seminorms._bracketed_laguerre, seminorms._horner,
                                   seminorms._descartes_roots)

    def counted_laguerre(*args):
        passes.append(0)
        return laguerre(*args)

    def counted_horner(coef, x):
        if x.ndim == 1:  # one pass of the bracketed iteration
            passes[-1] += 1
        return horner(coef, x)

    def counted_descartes(coef, lo):
        root, changes = descartes(coef, lo)
        uncertified.append(bool(np.any(changes > 1)))
        return root, changes

    monkeypatch.setattr(seminorms, "_bracketed_laguerre", counted_laguerre)
    monkeypatch.setattr(seminorms, "_horner", counted_horner)
    monkeypatch.setattr(seminorms, "_descartes_roots", counted_descartes)
    U = direction_grid(3, 1440)
    for pair_idx in range(10, 20):
        w0, w1, t = _comparability_pair(7, pair_idx)
        _matrix_mean_duals(w0[None], w1[None], t, U)
    # per pair: the certified roots' brackets [lo, 1], and on a pair with
    # uncertified rows the Rolle chain's two stages, the roots of p'
    # (degree 4), then of p
    assert len(uncertified) == 10 and sum(uncertified) == 4
    assert len(passes) == 10 + 2 * sum(uncertified)
    assert max(passes) <= 8 < seminorms._ROOT_CAP


def _quintics_with_roots_placed(rng, count):
    """Monic quintics with 0-5 real roots in [lo, 1] and the rest real, at
    least 0.05 outside it: (coef, lo, roots, inside), the placed roots
    ordered inside first."""
    lo = rng.uniform(0.02, 0.9, count)
    inside = rng.integers(0, 6, count)
    on = lo[:, None] + (1.0 - lo[:, None]) * rng.random((count, 5))
    left = lo[:, None] - 0.05 - 2.0 * rng.random((count, 5))
    off = np.where(rng.random((count, 5)) < 0.5, left, 1.05 + 2.0 * rng.random((count, 5)))
    roots = np.where(np.arange(5) < inside[:, None], on, off)
    return _monic_from_roots(roots), lo, roots, inside


def test_descartes_certifies_exactly_the_quintics_with_one_simple_root():
    # every root real: the sign changes are the roots on (lo, 1) exactly
    rng = np.random.default_rng(31)
    coef, lo, roots, inside = _quintics_with_roots_placed(rng, 12_000)
    root, changes = _descartes_roots(coef[:, None, :], lo)
    root, changes = root[:, 0], changes[:, 0]
    assert root.shape == changes.shape == (12_000,)
    assert np.array_equal(changes, inside)  # no sign was uncertain
    assert set(inside) == {0, 1, 2, 3, 4, 5}
    one = changes == 1
    assert np.abs(root[one] - roots[one, 0]).max() < 1e-12
    chain = _monic_roots_on(coef[one], lo[one, None], 1.0)
    assert np.abs(chain - root[one, None]).min(axis=1).max() < 1e-12
    # every other row keeps lo, an end, as its one dense candidate
    assert np.array_equal(root[~one], lo[~one])


def _from_transformed(b, lo):
    """The monic p with (1 + y)^n p((lo + y) / (1 + y)) proportional to
    sum_j b_j y^j: p(s) is proportional to sum_j b_j (s - lo)^j (1 - s)^(n - j)."""
    pl = np.polynomial.polynomial
    n = len(b) - 1
    p = sum(bj * pl.polymul(pl.polypow([-lo, 1.0], j), pl.polypow([1.0, -1.0], n - j))
            for j, bj in enumerate(b))
    return (p / p[-1])[None]


@pytest.mark.parametrize("coef, lo, tol", [
    (_monic_from_roots([[0.2, -1.0, -2.0, 1.5, 3.0]]), 0.2, 1e-12),  # a root at lo
    (_monic_from_roots([[1.0, 0.5, -2.0, 1.5, 3.0]]), 0.2, 1e-12),  # a root at 1, one inside
    (_monic_from_roots([[0.5, 0.5, -1.0, -2.0, 3.0]]), 0.2, 1e-7),  # a double root
    (_monic_from_roots([[0.5, 0.5 + 1e-6, 0.5 + 2e-6, -1.0, 3.0]]), 0.2, 1e-5),  # a cluster
    # b_2 = -1e-18, three changes, rounds to either sign: read as positive,
    # one change would certify one root
    (_from_transformed([-1.0, 1.0, -1e-18, 1.0, 1.0, 1.0], 0.2), 0.2, 1e-12),
], ids=["root-at-lo", "root-at-1", "double", "three-within-1e-6", "b2-near-zero"])
def test_descartes_leaves_crafted_quintics_to_the_rolle_chain(coef, lo, tol):
    root, changes = _descartes_roots(coef, lo)
    assert changes[0] > 1 and root[0] == lo
    # the chain finds every real root on [lo, 1], at the end too
    ref = np.roots(coef[0, ::-1])
    ref = ref.real[(np.abs(ref.imag) < tol) & (lo - tol <= ref.real) & (ref.real <= 1.0 + tol)]
    assert len(ref) >= 1
    got = _monic_roots_on(coef, lo, 1.0)[0]
    assert all(np.abs(got - r).min() < tol for r in ref)


def test_certifying_three_sign_changes_as_one_misses_a_root():
    lo, placed = 0.1, np.array([0.3, 0.55, 0.8])
    coef = _monic_from_roots([[*placed, -1.0, -2.0]])
    root, changes = _descartes_roots(coef, lo)
    assert changes[0] == 3 and root[0] == lo
    # the one bracket [lo, 1] that a certificate of one change would solve
    p_lo, p_1 = (np.polynomial.polynomial.polyval(x, coef[0]) for x in (lo, 1.0))
    single = _bracketed_laguerre(coef, np.array([lo]), np.ones(1),
                                 np.array([p_lo]), np.array([p_1]))
    seen = np.array([single[0], lo, 1.0])
    assert sum(np.abs(seen - r).min() > 0.1 for r in placed) == 2
    # the Rolle chain, which the uncertified row goes to, finds all three
    got = _monic_roots_on(coef, lo, 1.0)[0]
    assert np.abs(got[:, None] - placed).min(axis=0).max() < 1e-12


def test_inner_duals_at_d_2_take_no_certificate(monkeypatch):
    def descartes(*args):
        raise AssertionError("Descartes' certificate on a cubic")

    monkeypatch.setattr(seminorms, "_descartes_roots", descartes)
    w0, w1, t = _comparability_pair(7, 0)
    assert np.all(inner_duals(w0[None], w1[None], t, 1440) > 0.0)


def _reference_inner_duals(A0, A1, t, U):
    """The per-pair solve that the stacked one replaced: polynomials built
    with numpy.polynomial, roots from companion eigenvalues, candidates
    evaluated through p_t = |A0 .|^(1-t) |A1 .|^t."""
    inv0 = np.linalg.inv(A0)
    _, sigma, vt = np.linalg.svd(A1 @ inv0)
    sq = (sigma / sigma[0]) ** 2
    basis = inv0 @ vt.T
    a = U @ basis
    a /= np.linalg.norm(a, axis=1, keepdims=True)
    pl = np.polynomial.polynomial
    poles = -t / (1.0 - t) * sq
    rows = [pl.polymul([-sq[i], 1.0], pl.polyfromroots(np.repeat(np.delete(poles, i), 2)))
            for i in range(len(sq))]
    roots = np.clip(_companion_real_parts((a * a) @ np.array(rows)), sq[-1], 1.0)
    s = np.column_stack([roots, np.full(len(a), sq[-1]), np.ones(len(a))])
    W = (a[:, None, :] / ((1.0 - t) * s[..., None] + t * sq)) @ basis.T
    flat = W.reshape(-1, len(sq))
    mean = MatrixNorm(A0).values(flat) ** (1.0 - t) * MatrixNorm(A1).values(flat) ** t
    ratio = np.abs(np.einsum("nd,nkd->nk", U, W)) / mean.reshape(s.shape)
    return ratio.max(axis=1)


@pytest.mark.parametrize("dim", [2, 3])
def test_stacked_inner_duals_match_the_per_pair_companion_solve(dim):
    rng = np.random.default_rng(80 + dim)
    U = direction_grid(dim, 240)
    t = float(rng.uniform(0.1, 0.9))
    pairs = [tuple(random_spd_matrix(rng, dim, spread=1.5) for _ in range(2))
             for _ in range(8)]
    A0, A1 = (np.array(side) for side in zip(*pairs))
    stacked = _matrix_mean_duals(A0, A1, t, U)
    assert stacked.shape == (8, 240) and not stacked.flags.writeable
    deduped = inner_duals(A0, A1, t, 240)
    for (a, b), row, solved in zip(pairs, stacked, deduped):
        want = _reference_inner_duals(a, b, t, U)
        assert np.abs(row / want - 1.0).max() < 1e-14
        # a stack of one gives the same bits as a row of the stack
        alone = GeometricMeanDoubleDual(MatrixNorm(a), MatrixNorm(b), t, directions=240)
        assert np.array_equal(alone.inner, row) and np.array_equal(solved, row)


@pytest.mark.parametrize("spread", [0.3, 0.8, 1.5, 2.5, 4.0])
@pytest.mark.parametrize("t", [0.1, 0.3, 0.5, 0.7, 0.9])
def test_inner_duals_in_three_dimensions_match_the_companion_solve(spread, t):
    rng = np.random.default_rng(round(100 * spread + 10 * t))
    U = direction_grid(3, 240)
    pairs = [tuple(random_spd_matrix(rng, 3, spread=spread) for _ in range(2))
             for _ in range(8)]
    A0, A1 = (np.array(side) for side in zip(*pairs))
    # both solves round the ratios at condition numbers up to exp(2 spread)
    tol = 4.0 * np.finfo(float).eps * np.exp(2.0 * spread)
    for (a, b), row in zip(pairs, _matrix_mean_duals(A0, A1, t, U)):
        assert np.abs(row / _reference_inner_duals(a, b, t, U) - 1.0).max() < tol


@pytest.mark.parametrize("dim", [2, 3])
def test_double_duals_solve_no_eigenvalue_problem(dim, monkeypatch):
    def eigvals(*args, **kwargs):
        raise AssertionError("np.linalg.eigvals called")

    monkeypatch.setattr(np.linalg, "eigvals", eigvals)
    rng = np.random.default_rng(95 + dim)
    A0, A1 = (np.array([random_spd_matrix(rng, dim) for _ in range(3)]) for _ in range(2))
    inner = inner_duals(A0, A1, 0.4, 64)
    assert np.all(np.isfinite(inner)) and np.all(inner > 0.0)


@pytest.mark.parametrize("singular", ["A0", "A1"])
@pytest.mark.parametrize("position", [0, 1, 2])
def test_a_singular_factor_anywhere_in_a_stack_is_rejected(singular, position):
    rng = np.random.default_rng(90)
    A0, A1 = (np.array([random_spd_matrix(rng, 2) for _ in range(3)]) for _ in range(2))
    # exactly singular: batched inv raises LinAlgError for A0, the
    # relative singular-value floor catches A1
    (A0 if singular == "A0" else A1)[position] = np.diag([1.0, 0.0])
    with pytest.raises(DegenerateSeminormError):
        _matrix_mean_duals(A0, A1, 0.5, direction_grid(2, 16))
    with pytest.raises(DegenerateSeminormError):
        inner_duals(A0, A1, 0.5, 16)
