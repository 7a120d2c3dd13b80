"""Origin-symmetric convex polytopes represented by generator lists.

A body is conv{+-g_1, ..., +-g_m} for generator vectors g_i in R^d,
d in {1, 2, 3}; the empty generator list is the degenerate body {0}.
This closes the class under the three operations the set-valued calculus
needs (Minkowski sum, nonnegative scaling, convex hull of unions) while
keeping support functions exact:

    support(A, u) = max_i |<g_i, u>|.

Construction prunes redundant generators (points inside the hull of the
rest) so stored generators are exactly the vertices with one sign
representative each.  Minkowski sums in the plane use the classic
edge-angle merge of the two boundary polygons, which is what keeps the
per-trial cost of the maximal operator acceptable; in R^3 sums fall back
to pairwise vertex sums plus a hull prune.

scipy's Qhull is imported inside the functions that call it, so it loads
only on the body path: `ConvexBody` pruning, gauges, `bodies-selftest`
and the body-path test references.  The `setlp all` suites never import
it.
"""

from __future__ import annotations

import numpy as np

_RANK_RTOL = 1e-13


class UnboundedGaugeError(ValueError):
    """Gauge queried at a vector outside the span of the body."""


def _canonical_signs(G: np.ndarray) -> np.ndarray:
    """Flip each row so its first nonzero entry is positive."""
    lead = np.argmax(G != 0.0, axis=1)
    signs = np.sign(G[np.arange(len(G)), lead])
    signs[signs == 0.0] = 1.0
    return G * signs[:, None]


def _prune_full_rank(G: np.ndarray) -> np.ndarray:
    """Extreme-point extraction for a full-dimensional symmetric hull."""
    from scipy.spatial import ConvexHull
    m = len(G)
    P = np.vstack([G, -G])
    hull = ConvexHull(P)
    keep = np.unique(hull.vertices % m)
    return G[keep]


def _prune(dim: int, G: np.ndarray) -> np.ndarray:
    if len(G) == 0:
        return G.reshape(0, dim)
    norms = np.linalg.norm(G, axis=1)
    top = norms.max(initial=0.0)
    if top == 0.0:
        return np.empty((0, dim))
    G = G[norms > 1e-14 * top]
    G = np.unique(_canonical_signs(G), axis=0)
    if dim == 1:
        return G[np.argmax(np.abs(G[:, 0]))][None, :]
    if len(G) > 1:
        from scipy.spatial import QhullError
        try:
            G = _prune_full_rank(G)
        except QhullError:
            G = _prune_degenerate(dim, G)
    return np.ascontiguousarray(G)


def _prune_degenerate(dim: int, G: np.ndarray) -> np.ndarray:
    """Prune generators spanning a proper subspace (Qhull refuses those)."""
    U, s, Vt = np.linalg.svd(G, full_matrices=False)
    rank = int(np.sum(s > _RANK_RTOL * s[0]))
    if rank <= 1:
        norms = np.linalg.norm(G, axis=1)
        return G[np.argmax(norms)][None, :]
    basis = Vt[:rank]
    coords = G @ basis.T
    from scipy.spatial import QhullError
    try:
        keep_coords = _prune_full_rank(coords)
    except QhullError:
        return G
    # map kept coordinate rows back to original generator rows
    keep_idx = []
    for row in keep_coords:
        diffs = np.linalg.norm(coords - row, axis=1)
        keep_idx.append(int(np.argmin(diffs)))
    return G[sorted(set(keep_idx))]


class ConvexBody:
    """Symmetric convex polytope conv{+-g_i} in R^d, d in {1, 2, 3}."""

    __slots__ = ("dim", "generators", "_mag", "_ccw", "_facets")

    def __init__(self, dim, generators, *, prune=True):
        if dim not in (1, 2, 3):
            raise ValueError(f"body dimension must be 1, 2 or 3, got {dim}")
        G = np.asarray(generators, dtype=float).reshape(-1, dim)
        if not np.all(np.isfinite(G)):
            raise ValueError("generators must be finite")
        if prune:
            G = _prune(dim, G)
        G = np.ascontiguousarray(G, dtype=float)
        G.setflags(write=False)
        self.dim = dim
        self.generators = G
        self._mag = None
        self._ccw = None
        self._facets = None

    # -- basic queries ----------------------------------------------------

    @property
    def num_generators(self) -> int:
        return len(self.generators)

    def is_origin(self) -> bool:
        return len(self.generators) == 0

    def vertices(self) -> np.ndarray:
        """All vertices +-g_i (the origin for the degenerate body)."""
        if self.is_origin():
            return np.zeros((1, self.dim))
        return np.vstack([self.generators, -self.generators])

    def ccw_vertices(self) -> np.ndarray:
        """Planar boundary vertices in counterclockwise order (d = 2)."""
        if self.dim != 2:
            raise ValueError("ccw_vertices is a planar operation")
        if self._ccw is None:
            V = self.vertices()
            order = np.argsort(np.arctan2(V[:, 1], V[:, 0]), kind="stable")
            self._ccw = np.ascontiguousarray(V[order])
        return self._ccw

    def __repr__(self):
        return f"ConvexBody(dim={self.dim}, generators={self.num_generators})"


def origin_body(dim: int) -> ConvexBody:
    """The degenerate body {0}."""
    return ConvexBody(dim, np.empty((0, dim)), prune=False)


def support_batch(A: ConvexBody, U: np.ndarray) -> np.ndarray:
    """Support function on a stack of directions, shape (N, d) -> (N,)."""
    U = np.asarray(U, dtype=float)
    if A.is_origin():
        return np.zeros(len(U))
    return np.abs(U @ A.generators.T).max(axis=1)


def magnitude(A: ConvexBody) -> float:
    """sup of the Euclidean norm over A (attained at a vertex)."""
    if A._mag is None:
        if A.is_origin():
            A._mag = 0.0
        else:
            A._mag = float(np.max(np.linalg.norm(A.generators, axis=1)))
    return A._mag


def scale(lam: float, A: ConvexBody) -> ConvexBody:
    """The dilate |lam| * A (symmetric bodies make the sign immaterial)."""
    lam = float(lam)
    if A.is_origin() or lam == 0.0:
        return origin_body(A.dim)
    return ConvexBody(A.dim, abs(lam) * A.generators, prune=False)


def _minkowski_polygons(A: ConvexBody, B: ConvexBody) -> ConvexBody:
    """Planar Minkowski sum by merging boundary edges in angle order."""
    PA = A.ccw_vertices()
    PB = B.ccw_vertices()

    def _rolled(P):
        # rotate so the lexicographically smallest (y, then x) vertex leads
        i0 = np.lexsort((P[:, 0], P[:, 1]))[0]
        return np.roll(P, -i0, axis=0)

    PA = _rolled(PA)
    PB = _rolled(PB)
    EA = np.diff(np.vstack([PA, PA[:1]]), axis=0)
    EB = np.diff(np.vstack([PB, PB[:1]]), axis=0)
    edges = np.vstack([EA, EB])
    ang = np.arctan2(edges[:, 1], edges[:, 0])
    ang = np.mod(ang, 2.0 * np.pi)
    order = np.argsort(ang, kind="stable")
    verts = (PA[0] + PB[0]) + np.cumsum(edges[order], axis=0)
    return ConvexBody(2, verts)


def minkowski_sum(A: ConvexBody, B: ConvexBody) -> ConvexBody:
    """Minkowski sum A + B; supports add exactly."""
    if A.dim != B.dim:
        raise ValueError("dimension mismatch in Minkowski sum")
    if A.is_origin():
        return B
    if B.is_origin():
        return A
    if A.dim == 1:
        a = float(np.max(np.abs(A.generators)))
        b = float(np.max(np.abs(B.generators)))
        return ConvexBody(1, [[a + b]], prune=False)
    if A.dim == 2:
        return _minkowski_polygons(A, B)
    GA, GB = A.generators, B.generators
    sums = GA[:, None, :] + GB[None, :, :]
    diffs = GA[:, None, :] - GB[None, :, :]
    cand = np.vstack([sums.reshape(-1, 3), diffs.reshape(-1, 3)])
    return ConvexBody(3, cand)


def _polygon_contains(A: ConvexBody, B: ConvexBody) -> bool:
    """Planar test: do all vertices of B satisfy A's edge inequalities?"""
    V = A.ccw_vertices()
    if len(V) < 3:
        return False
    E = np.roll(V, -1, axis=0) - V
    N = np.stack([E[:, 1], -E[:, 0]], axis=1)  # outward edge normals
    offsets = np.einsum("ij,ij->i", V, N)
    reach = np.abs(B.generators @ N.T).max(axis=0)
    return bool(np.all(reach <= offsets))


def conv_union(A: ConvexBody, B: ConvexBody) -> ConvexBody:
    """Convex hull of the union: generator lists concatenated, then pruned.

    One-sided containment short-circuits to the larger body; chains of
    unions (maximal accumulation) hit that path most of the time.
    """
    if A.dim != B.dim:
        raise ValueError("dimension mismatch in convex union")
    if A.is_origin():
        return B
    if B.is_origin():
        return A
    if A.dim == 1:
        return A if magnitude(B) <= magnitude(A) else B
    if A.dim == 2:
        if _polygon_contains(A, B):
            return A
        if _polygon_contains(B, A):
            return B
    return ConvexBody(A.dim, np.vstack([A.generators, B.generators]))


def fold_minkowski(bodies, dim: int) -> ConvexBody:
    """Balanced pairwise Minkowski sum of a sequence of bodies."""
    items = list(bodies)
    if not items:
        return origin_body(dim)
    while len(items) > 1:
        nxt = []
        for i in range(0, len(items) - 1, 2):
            nxt.append(minkowski_sum(items[i], items[i + 1]))
        if len(items) % 2:
            nxt.append(items[-1])
        items = nxt
    return items[0]


# -- gauge (Minkowski functional) ----------------------------------------


def _facet_equations(A: ConvexBody):
    """Outward facet equations a.x <= b (b > 0) of a full-dimensional body."""
    if A._facets is None:
        from scipy.spatial import ConvexHull
        hull = ConvexHull(A.vertices())
        eq = hull.equations  # rows [a, c] meaning a.x + c <= 0
        A._facets = (np.ascontiguousarray(eq[:, :-1]), np.ascontiguousarray(-eq[:, -1]))
    return A._facets


def _span_basis(A: ConvexBody):
    U, s, Vt = np.linalg.svd(A.generators, full_matrices=False)
    rank = int(np.sum(s > _RANK_RTOL * s[0]))
    return Vt[:rank].T  # (dim, rank)


def gauge(B: ConvexBody, v) -> float:
    """Minkowski functional inf{t > 0 : v in t*B}.

    Exact via facet equations: gauge(v) = max_f <a_f, v> / b_f.  For a
    body spanning a proper subspace the query is reduced to span
    coordinates; off-span queries raise UnboundedGaugeError.
    """
    v = np.asarray(v, dtype=float)
    if v.shape != (B.dim,):
        raise ValueError("vector dimension mismatch")
    vnorm = float(np.linalg.norm(v))
    if vnorm == 0.0:
        return 0.0
    if B.is_origin():
        raise UnboundedGaugeError("gauge of {0} is unbounded off the origin")
    G = B.generators
    if B.dim == 1 or len(G) == 1 or np.linalg.matrix_rank(G, tol=_RANK_RTOL * magnitude(B)) < B.dim:
        basis = _span_basis(B)
        resid = v - basis @ (basis.T @ v)
        if np.linalg.norm(resid) > 1e-9 * vnorm:
            raise UnboundedGaugeError("vector outside the span of the body")
        coords = basis.T @ v
        body_coords = ConvexBody(basis.shape[1], G @ basis, prune=True)
        return gauge(body_coords, coords)
    normals, offsets = _facet_equations(B)
    return float(np.max((normals @ v) / offsets))


def gauge_batch(B: ConvexBody, V: np.ndarray) -> np.ndarray:
    """Gauge on a stack of vectors (full-dimensional bodies only)."""
    V = np.asarray(V, dtype=float)
    normals, offsets = _facet_equations(B)
    return np.maximum((V @ normals.T) / offsets, 0.0).max(axis=1)
