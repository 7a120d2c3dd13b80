"""Piecewise-constant set valued fields on the unit cube and their norms.

A field assigns one symmetric convex body to every cell of a dyadic grid.
Integrals are Minkowski sums weighted by cell volume, the p-norms reduce
to scalar sums over the cell magnitudes, and distribution tables keep exact
rational tail measures so weak-type quantities and layer cake sums do not
pick up quadrature error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .bodies import ConvexBody, fold_minkowski, magnitude, minkowski_sum, origin_body, scale
from .grids import DyadicDomain


class SetField:
    """One symmetric convex body per grid cell.

    A field built from a (cells x m x d) generator array keeps the array
    and constructs its pruned ConvexBody cells on first access of `cells`;
    the array-native paths read `generators` and never build a body.  A
    field built from bodies derives a zero-padded array on first access of
    `generators`.
    """

    __slots__ = ("domain", "_cells", "_gens")

    def __init__(self, domain: DyadicDomain, cells):
        """cells: num_cells ConvexBody objects, or a (num_cells, m, d)
        generator array, copied, whose bodies are built on first access."""
        self.domain, self._cells, self._gens = domain, None, None
        if isinstance(cells, np.ndarray):
            G = np.array(cells, dtype=float)
            if (G.ndim != 3 or G.shape[0] != domain.num_cells or G.shape[1] < 1
                    or G.shape[2] not in (1, 2, 3)):
                raise ValueError(f"expected a ({domain.num_cells}, m, d) generator array "
                                 f"with m >= 1 and d in (1, 2, 3), got shape {G.shape}")
            if not np.all(np.isfinite(G)):
                raise ValueError("generators must be finite")
            G.setflags(write=False)
            self._gens = G
            return
        cells = tuple(cells)
        if len(cells) != domain.num_cells:
            raise ValueError(f"field needs {domain.num_cells} cells, got {len(cells)}")
        dims = {c.dim for c in cells}
        if len(dims) != 1:
            raise ValueError("all cells of a field must share one ambient dimension")
        self._cells = cells

    @classmethod
    def from_generators(cls, domain: DyadicDomain, generators) -> "SetField":
        """Field whose cell i is conv{+-generators[i, j]}, bodies built lazily."""
        return cls(domain, np.asarray(generators, dtype=float))

    @property
    def cells(self) -> tuple:
        if self._cells is None:
            self._cells = tuple(ConvexBody(self.dim, g) for g in self._gens)
        return self._cells

    @property
    def generators(self) -> np.ndarray:
        """Read-only (cells x m x d) generator array."""
        if self._gens is None:
            cells = self._cells
            G = np.zeros((len(cells), max(1, *(c.num_generators for c in cells)), self.dim))
            for row, c in zip(G, cells):
                row[:c.num_generators] = c.generators
            G.setflags(write=False)
            self._gens = G
        return self._gens

    @property
    def dim(self) -> int:
        return self._gens.shape[2] if self._gens is not None else self._cells[0].dim

    def __len__(self):
        return self.domain.num_cells

    def to_dict(self) -> dict:
        """The domain and the generator array: no body is built, and
        from_dict gives back the array bit for bit."""
        return {"n": self.domain.n, "grid_level": self.domain.level,
                "generators": self.generators.tolist()}

    @classmethod
    def from_dict(cls, data: dict) -> "SetField":
        domain = DyadicDomain(int(data["n"]), int(data["grid_level"]))
        return cls(domain, np.array(data["generators"], dtype=float))


def cell_magnitudes(field: SetField) -> np.ndarray:
    """Euclidean magnitude of every cell, read off the generator array:
    the largest generator norm, which a vertex of conv{+-g_i} attains."""
    return np.linalg.norm(field.generators, axis=2).max(axis=1)


def add_fields(a: SetField, b: SetField) -> SetField:
    if a.domain != b.domain:
        raise ValueError("field domains differ")
    return SetField(a.domain, [minkowski_sum(x, y) for x, y in zip(a.cells, b.cells)])


def aumann_integral(field: SetField, cells=None) -> ConvexBody:
    """Set valued integral over the whole domain, or over a subset of cells.

    Cells all carry the same volume, so the integral is the Minkowski sum
    of the selected cell bodies scaled once by that volume.  `cells` is an
    iterable of flat cell indices; None means every cell.
    """
    if cells is None:
        picked = field.cells
    else:
        picked = [field.cells[i] for i in cells]
        if not picked:
            return origin_body(field.dim)
    return scale(field.domain.cell_volume, fold_minkowski(picked, field.dim))


def magnitude_bound_check(field: SetField, cells=None) -> tuple[float, float]:
    """(|integral of F|, integral of |F|); the first never exceeds the second."""
    lhs = magnitude(aumann_integral(field, cells))
    vol = field.domain.cell_volume
    idx = range(len(field.cells)) if cells is None else list(cells)
    rhs = math.fsum(magnitude(field.cells[i]) * vol for i in idx)
    return lhs, rhs


def _power_sum(values: list, p: float, cell_volume: float) -> float:
    """fsum of the Python-float terms v ** p * cell_volume: the one L^p sum."""
    return math.fsum(v ** p * cell_volume for v in values)


def values_lp_norm(values: np.ndarray, p: float, cell_volume: float) -> float:
    """L^p norm of the simple function taking values[i] on cells of one
    volume, summed by _power_sum; p = inf gives the sup."""
    values = np.asarray(values, dtype=float).tolist()
    if p == math.inf:
        return max(values)
    p = float(p)
    if not p > 0.0:
        raise ValueError(f"p must be positive or inf, got {p}")
    return _power_sum(values, p, cell_volume) ** (1.0 / p)


def lp_norm(field: SetField, p: float) -> float:
    """L^p norm of the scalar field x -> |F(x)|; p = inf gives the sup."""
    return values_lp_norm(cell_magnitudes(field), p, field.domain.cell_volume)


@dataclass(frozen=True)
class DistributionTable:
    """Exact distribution data of a nonnegative simple function.

    thresholds are the distinct positive values in increasing order and
    tails[i] is the measure of the super-level set at thresholds[i],
    kept as an exact rational count of equal cells times cell volume.
    """

    thresholds: tuple
    tails: tuple

    def weak_norm(self, p: float) -> float:
        """sup over lam of lam * measure(>= lam)^(1/p)."""
        p = float(p)
        if not p > 0.0:
            raise ValueError(f"p must be positive, got {p}")
        best = 0.0
        for value, tail in zip(self.thresholds, self.tails):
            best = max(best, value * float(tail) ** (1.0 / p))
        return best

    def layer_cake(self, p: float) -> float:
        """Integral of the p-th power via the telescoping layer sum."""
        p = float(p)
        if not p > 0.0:
            raise ValueError(f"p must be positive, got {p}")
        prev = 0.0
        terms = []
        for value, tail in zip(self.thresholds, self.tails):
            terms.append(float(tail) * (value ** p - prev))
            prev = value ** p
        return math.fsum(terms)


def values_distribution(values: np.ndarray, cell_volume: Fraction) -> DistributionTable:
    """Distribution table of the simple function taking values[i] on cells
    of one exact volume.  One sort: the cells >= lam are those after the
    first sorted value >= lam."""
    ordered = np.sort(values)
    distinct = np.unique(ordered[ordered > 0.0])
    counts = len(ordered) - np.searchsorted(ordered, distinct, side="left")
    return DistributionTable(
        thresholds=tuple(distinct.tolist()),
        tails=tuple(int(c) * cell_volume for c in counts),
    )


def distribution(field: SetField) -> DistributionTable:
    """Distribution table of the scalar field x -> |F(x)|."""
    return values_distribution(cell_magnitudes(field), field.domain.cell_volume_exact)


def weak_norm(field: SetField, p: float) -> float:
    return distribution(field).weak_norm(p)


def random_simple_field(rng: np.random.Generator, domain: DyadicDomain, dim: int,
                        *, generators_per_cell: int = 3, magnitude_scale=None) -> SetField:
    """Random field with Gaussian generator directions.

    All randomness is drawn up front in one call so the construction is
    independent of evaluation order.  magnitude_scale, when given, is a
    per-cell array of nonnegative factors applied after the draw.
    """
    raw = rng.standard_normal((domain.num_cells, generators_per_cell, dim))
    if magnitude_scale is not None:
        factors = np.asarray(magnitude_scale, dtype=float).reshape(domain.num_cells, 1, 1)
        if (factors < 0.0).any():
            raise ValueError("magnitude scales must be nonnegative")
        raw = raw * factors
    return SetField.from_generators(domain, raw)
