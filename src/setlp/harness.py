"""Experiment suites: randomized trials that measure operator norms on
discretized set fields and compare them against the predicted constants.

The marcinkiewicz and endpoints trials need only magnitudes: |F| per cell,
|int_Q F| per aligned cube, and |M_alpha F| by the identity
|M_alpha F|(x) = max over cubes Q containing x of vol(Q)^(alpha-1) |int_Q F|.
They read all three off the trial field's generator array
(fields.cell_magnitudes, operators.cube_magnitudes and maximal_magnitudes)
and never build a ConvexBody; nor does riesz-thorin's scan, which reads
support rows off the same arrays (weights.averaging_sup_ratio).  The
set-valued API stays the reference the tests hold these against.  Both
weight suites read the exact norm N_Q of every cube off averaging_norms.

Each suite returns an ExperimentReport whose per-trial records are enough to
recompute every aggregate.  Reports serialize to canonical JSON (sorted keys,
repr floats, no timing data) so identical configurations produce identical
bytes regardless of worker count.
"""

from __future__ import annotations

import functools
import json
import math
import os
from dataclasses import dataclass, field as dc_field, fields

import numpy as np

from ._version import __version__
from .bodies import ConvexBody, minkowski_sum, support_batch
from .fields import (
    SetField,
    cell_magnitudes,
    random_simple_field,
    values_distribution,
    values_lp_norm,
)
from .grids import DyadicDomain, _cube_cells, grid_translations, verify_nesting, verify_tiling
from .matrices import MatrixField, geometric_mean, random_spd_matrix, spd_stack
from .operators import (
    ExponentConfig,
    cube_magnitudes,
    maximal_magnitudes,
    scalar_frac_maximal,
    sublinearity_check,
)
from .seminorms import DualNorm, GaugeNorm, direction_grid, inner_duals, nested_maxima
from .weights import (
    ap_matrix_constant,
    averaging_norms,
    averaging_sup_ratio,
    classical_ap_constant,
    fixture_weights,
    reverse_factorization,
)

SUITES = ("marcinkiewicz", "endpoints", "riesz-thorin", "reverse-factorization")

# Enough trials to exercise every (n, d, shape) combination without pushing
# a full run past a couple of minutes; callers raise this for tighter sweeps.
DEFAULT_TRIALS = {
    "marcinkiewicz": 40,
    "endpoints": 40,
    "riesz-thorin": 16,
    "reverse-factorization": 0,
    "bodies-selftest": 0,
}

BOUND_SLACK = 1e-9

# trial_index % len(...) picks (n, d); n = 1 dominates so big trial counts
# stay affordable while n = 2 still appears every cycle.
_TRIAL_DIMS = ((1, 1), (1, 2), (1, 1), (1, 2), (1, 1), (1, 2), (2, 1), (2, 2))
_TRIAL_KINDS = ("smooth", "smooth", "spike", "checkerboard")

_ENDPOINT_ALPHAS = (0.25, 1.0 / 3.0, 0.5)

# the weight fixture pairs of riesz-thorin and reverse-factorization
_FIXTURE_PAIRS = ("euclidean", "two_scales", "rotated", "random")


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated inputs for one suite run."""

    name: str = "default"
    seed: int = 7
    level: int = 5
    trials: int | None = None
    alpha: float = 0.5
    ts: tuple = (0.25, 0.5, 0.75)
    exponents: ExponentConfig | None = None
    directions: int | None = None
    out: str | None = None  # None writes no files; the CLI's default is "."
    fixtures: tuple = _FIXTURE_PAIRS
    emit_plot_data: bool = False

    def __post_init__(self):
        # every message opens with its field's name, which the CLI anchors
        # to that key's config line; bool subclasses int, so only a bool
        # field takes a bool
        def check(key, value, kind, want, ok=lambda v: True):
            if isinstance(value, bool) != (kind is bool) or not isinstance(value, kind) \
                    or not ok(value):
                raise ValueError(f"{key} must be {want}, got {value!r}")

        check("name", self.name, str, "a string")
        check("seed", self.seed, int, "a nonnegative integer", lambda v: v >= 0)
        check("level", self.level, int, "an integer in [1, 10]", lambda v: 1 <= v <= 10)
        if self.trials is not None:
            check("trials", self.trials, int, "a positive integer", lambda v: v >= 1)
        check("alpha", self.alpha, (int, float), "a number in (0, 1)", lambda v: 0 < v < 1)
        check("ts", self.ts, tuple, "a nonempty tuple of interpolation parameters in (0, 1)",
              lambda v: v and all(not isinstance(t, bool) and isinstance(t, (int, float))
                                  and 0 < t < 1 for t in v))
        if self.exponents is not None:
            check("exponents", self.exponents, ExponentConfig,
                  "an ExponentConfig of p0, q0, p1, q1 and t")
            if abs(self.exponents.alpha - self.alpha) > 1e-12:
                raise ValueError(f"exponents give alpha={self.exponents.alpha}, "
                                 f"config has alpha={self.alpha}")
        if self.directions is not None:
            check("directions", self.directions, int, "an integer >= 8", lambda v: v >= 8)
        if self.out is not None:
            check("out", self.out, str, "a directory path")
        check("fixtures", self.fixtures, tuple,
              f"a nonempty tuple of names among {', '.join(_FIXTURE_PAIRS)}",
              lambda v: v and all(f in _FIXTURE_PAIRS for f in v))
        check("emit_plot_data", self.emit_plot_data, bool, "true or false")

    def trial_count(self, suite: str) -> int:
        return self.trials if self.trials is not None else DEFAULT_TRIALS[suite]

    def to_dict(self) -> dict:
        """The fields a report echoes: all but where and what extra it writes."""
        d = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name in ("out", "emit_plot_data") or (f.name == "exponents" and value is None):
                continue
            d[f.name] = (list(value) if isinstance(value, tuple) else
                         value.to_dict() if isinstance(value, ExponentConfig) else value)
        return d


def _jsonable(obj):
    """Recursively strip numpy scalar types so json.dumps sees pure Python;
    infinities become the string "inf" to keep reports valid JSON."""
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        v = float(obj)
        if math.isinf(v):
            return "inf" if v > 0 else "-inf"
        return v
    return obj


@dataclass
class ExperimentReport:
    suite: str
    config: dict
    records: list
    aggregate: dict
    passed: bool
    wall_clock: float | None = None  # console only, never serialized
    plot_rows: list = dc_field(default_factory=list)

    def to_dict(self) -> dict:
        return _jsonable({
            "suite": self.suite,
            "version": __version__,
            "config": self.config,
            "aggregate": self.aggregate,
            "passed": self.passed,
            "records": self.records,
        })

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"

    def csv_rows(self) -> list:
        """Flat (record, field, value) rows for spreadsheet import."""
        rows = [("record", "field", "value")]
        for i, rec in enumerate(_jsonable(self.records)):
            for key in sorted(rec):
                val = rec[key]
                if isinstance(val, dict):
                    for sub in sorted(val):
                        rows.append((str(i), f"{key}.{sub}", repr(val[sub])))
                elif isinstance(val, list):
                    for j, item in enumerate(val):
                        rows.append((str(i), f"{key}[{j}]", repr(item)))
                else:
                    rows.append((str(i), key, repr(val)))
        agg = _jsonable(self.aggregate)
        for key in sorted(agg):
            rows.append(("aggregate", key, repr(agg[key])))
        return rows


def thread_count() -> int:
    raw = os.environ.get("SETLP_THREADS", "")
    try:
        return max(1, int(raw))
    except ValueError:
        return 1


def _usable_cores() -> int:
    affinity = getattr(os, "sched_getaffinity", None)  # not on every platform
    return len(affinity(0)) if affinity else os.cpu_count() or 1


def _run_trials(worker, indices):
    """Run worker(i) for each index on min(SETLP_THREADS, usable cores,
    len(indices)) processes, in-process when that is 1.  Results keep index
    order, so reports are byte-identical whatever the worker count.  worker
    must pickle: a module-level function or a functools.partial of one."""
    workers = min(thread_count(), _usable_cores(), len(indices))
    if workers <= 1:
        return [worker(i) for i in indices]
    # imported here so the one-worker path loads no pool machinery
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    # fork children start with the parent's modules imported.  numpy 2
    # loads numpy.random (the trial rngs) and numpy.ma (np.unique) on first
    # use; load them here once, or every child of every pool imports them
    import numpy.ma  # noqa: F401
    import numpy.random  # noqa: F401
    ctx = (multiprocessing.get_context("fork")
           if "fork" in multiprocessing.get_all_start_methods() else None)
    with ProcessPoolExecutor(max_workers=workers, mp_context=ctx) as pool:
        return list(pool.map(worker, indices))


def _trial_rng(seed: int, trial: int) -> np.random.Generator:
    return np.random.default_rng([seed, trial])


def _trial_level(config: ExperimentConfig, n: int) -> int:
    # n = 2 cost grows like 4^level; cap it so deep n = 1 sweeps stay cheap
    return config.level if n == 1 else min(config.level, 5)


def trial_field(rng: np.random.Generator, domain: DyadicDomain, dim: int,
                kind: str) -> SetField:
    """One randomized test field.  smooth: modulated magnitudes; spike: a
    single hot cell (stresses weak-type bounds); checkerboard: two magnitudes
    alternating by cell parity."""
    num = domain.num_cells
    if kind == "smooth":
        phase = rng.uniform(0.0, 1.0)
        centers = domain.cell_centers()
        mags = 0.6 + 0.4 * np.sin(2.0 * math.pi * (centers.mean(axis=1) + phase))
    elif kind == "spike":
        hot = int(rng.integers(num))
        mags = np.full(num, 1e-3)
        mags[hot] = 1.0 + rng.uniform(0.0, 1.0)
    elif kind == "checkerboard":
        hi = 1.0 + rng.uniform(0.0, 0.5)
        # row-major cells: the axis coordinates are idx // side and idx % side
        # (for n = 1 the first is 0)
        idx = np.arange(num)
        side = domain.cells_per_axis
        parity = (idx // side + idx % side) % 2
        mags = np.where(parity == 0, hi, 0.25 * hi)
    else:
        raise ValueError(f"unknown trial field kind: {kind}")
    return random_simple_field(rng, domain, dim, magnitude_scale=mags)


def _ratio(num: float, den: float) -> float:
    return 0.0 if den == 0.0 else num / den


def _trial(config: ExperimentConfig, i: int) -> tuple[int, int, str, SetField]:
    """(n, d, kind, field) of trial i of a field suite."""
    n, dim = _TRIAL_DIMS[i % len(_TRIAL_DIMS)]
    kind = _TRIAL_KINDS[i % len(_TRIAL_KINDS)]
    domain = DyadicDomain(n, _trial_level(config, n))
    return n, dim, kind, trial_field(_trial_rng(config.seed, i), domain, dim, kind)


def _failure_fixture(config: ExperimentConfig, suite: str, records: list) -> str | None:
    """Write the first failing trial's field, as its generator array, under
    config.out and return the path; None when every trial passed or there
    is no output dir."""
    bad = next((r for r in records if not r["ok"]), None)
    if bad is None or config.out is None:
        return None
    fld = _trial(config, bad["trial"])[3]
    os.makedirs(config.out, exist_ok=True)
    path = os.path.join(config.out, f"{suite}-failure-trial{bad['trial']}.json")
    doc = {"suite": suite, "trial": bad["trial"], "info": bad, "field": fld.to_dict()}
    with open(path, "w") as fh:
        json.dump(doc, fh, sort_keys=True, indent=2)
        fh.write("\n")
    return path


# ---------------------------------------------------------------------------
# marcinkiewicz: ||M_alpha F||_q <= C_t ||F||_p at interpolated exponents


def _marcinkiewicz_exponents(config: ExperimentConfig) -> dict:
    """ExponentConfig per interpolation parameter t."""
    cfgs = {t: ExponentConfig.for_fractional_maximal(config.alpha, t) for t in config.ts}
    if config.exponents is not None:
        cfgs[config.exponents.t] = config.exponents
    return cfgs


def _marcinkiewicz_trial(config: ExperimentConfig, i: int) -> dict:
    alpha = config.alpha
    cfgs = _marcinkiewicz_exponents(config)
    n, dim, kind, fld = _trial(config, i)
    vol = fld.domain.cell_volume
    radii = cell_magnitudes(fld)
    # one maximal field serves every t: only the exponents change
    mvals = maximal_magnitudes(cube_magnitudes(fld), n, alpha)
    ratios = {}
    oracle_gap = 0.0
    for t, cfg in cfgs.items():
        ratios[repr(t)] = _ratio(values_lp_norm(mvals, cfg.q, vol),
                                 values_lp_norm(radii, cfg.p, vol))
    if dim == 1:
        # interval fields reduce to their radius functions exactly
        smax = scalar_frac_maximal(radii, fld.domain, alpha)
        oracle_gap = float(np.abs(mvals - smax).max())
    slack = min(c.interpolation_constant - ratios[repr(t)] for t, c in cfgs.items())
    return {
        "trial": i, "n": n, "d": dim, "kind": kind,
        "ratios": ratios, "slack": slack, "oracle_gap": oracle_gap,
        "ok": bool(slack >= -BOUND_SLACK and oracle_gap <= 1e-12),
    }


def run_marcinkiewicz(config: ExperimentConfig) -> ExperimentReport:
    cfgs = _marcinkiewicz_exponents(config)
    constants = {t: c.interpolation_constant for t, c in cfgs.items()}
    records = _run_trials(functools.partial(_marcinkiewicz_trial, config),
                          range(config.trial_count("marcinkiewicz")))
    worst = {repr(t): max(r["ratios"][repr(t)] for r in records) for t in cfgs}
    min_slack = min(r["slack"] for r in records)
    passed = all(r["ok"] for r in records)
    aggregate = {
        "alpha": config.alpha,
        "constants": {repr(t): constants[t] for t in cfgs},
        "max_ratio": worst,
        "min_slack": min_slack,
        "trials": len(records),
        "failure_fixture": _failure_fixture(config, "marcinkiewicz", records),
    }
    plot = [(r["trial"], f"ratio_t={t}", r["ratios"][repr(t)])
            for r in records for t in sorted(cfgs)]
    plot += [(t, "C_t", constants[t]) for t in sorted(cfgs)]
    return ExperimentReport("marcinkiewicz", config.to_dict(), records, aggregate,
                            passed, plot_rows=plot)


# ---------------------------------------------------------------------------
# endpoints: averaging operators at constant 1, maximal weak (1, 1/(1-alpha))
# and strong (1/alpha, inf), plus one interpolated strong bound


def _endpoint_trial(config: ExperimentConfig, i: int) -> dict:
    n, dim, kind, fld = _trial(config, i)
    alpha = _ENDPOINT_ALPHAS[i % len(_ENDPOINT_ALPHAS)]
    cfg = ExponentConfig.for_fractional_maximal(alpha, 0.5)
    vol = fld.domain.cell_volume
    radii = cell_magnitudes(fld)
    norm_1 = values_lp_norm(radii, 1.0, vol)
    norm_hi = values_lp_norm(radii, 1.0 / alpha, vol)

    # every aligned cube at once, level by level
    cube_mags = cube_magnitudes(fld)
    avg_weak = avg_strong = 0.0
    for j, mags in enumerate(cube_mags):
        cube_vol = 2.0 ** (-j * n)
        mag = float(mags.max()) * cube_vol ** (alpha - 1.0)
        # A_Q F is constant on Q: its L^{1/(1-alpha)} norm is
        # mag * vol^{1-alpha} and its sup norm is mag
        avg_weak = max(avg_weak, _ratio(mag * cube_vol ** (1.0 - alpha), norm_1))
        avg_strong = max(avg_strong, _ratio(mag, norm_hi))

    mvals = maximal_magnitudes(cube_mags, n, alpha)
    max_weak = _ratio(values_distribution(mvals, fld.domain.cell_volume_exact)
                      .weak_norm(cfg.q1), norm_1)
    max_strong = _ratio(values_lp_norm(mvals, math.inf, vol), norm_hi)
    mid = _ratio(values_lp_norm(mvals, cfg.q, vol), values_lp_norm(radii, cfg.p, vol))
    slack = min(1.0 - avg_weak, 1.0 - avg_strong, 1.0 - max_weak,
                1.0 - max_strong, cfg.interpolation_constant - mid)
    return {
        "trial": i, "n": n, "d": dim, "kind": kind, "alpha": alpha,
        "avg_weak": avg_weak, "avg_strong": avg_strong,
        "max_weak": max_weak, "max_strong": max_strong,
        "mid_ratio": mid, "slack": slack, "ok": slack >= -BOUND_SLACK,
    }


def run_endpoint_bounds(config: ExperimentConfig) -> ExperimentReport:
    records = _run_trials(functools.partial(_endpoint_trial, config),
                          range(config.trial_count("endpoints")))
    passed = all(r["ok"] for r in records)
    aggregate = {
        "worst": {key: max(r[key] for r in records)
                  for key in ("avg_weak", "avg_strong", "max_weak", "max_strong",
                              "mid_ratio")},
        "min_slack": min(r["slack"] for r in records),
        "trials": len(records),
        "failure_fixture": _failure_fixture(config, "endpoints", records),
    }
    plot = [(r["trial"], key, r[key]) for r in records
            for key in ("avg_weak", "avg_strong", "max_weak", "max_strong")]
    return ExperimentReport("endpoints", config.to_dict(), records, aggregate,
                            passed, plot_rows=plot)


# ---------------------------------------------------------------------------
# riesz-thorin: averaging operators measured in interpolated matrix norms


def _fixture_pair(name: str, domain: DyadicDomain) -> tuple[MatrixField, MatrixField]:
    """Two weight fields per fixture name; values depend only on cell
    centers so refining the grid refines the same pair."""
    if name == "euclidean":
        return (fixture_weights("identity", {"dim": 2}, domain),
                fixture_weights("identity", {"dim": 2}, domain))
    if name == "two_scales":
        return (fixture_weights("scalar_two_valued", {"low": 1.0, "high": 3.0}, domain),
                fixture_weights("scalar_two_valued", {"low": 2.0, "high": 1.0}, domain))
    if name == "rotated":
        return (fixture_weights("rotated_diag", {"theta0": 0.3, "spread": 0.8}, domain),
                fixture_weights("rotated_diag", {"theta0": 1.2, "theta1": 1.1,
                                                 "spread": 0.6}, domain))
    if name == "random":
        return (fixture_weights("random_spd", {"seed": 5, "dim": 2, "spread": 0.6}, domain),
                fixture_weights("random_spd", {"seed": 11, "dim": 2, "spread": 0.6}, domain))
    raise ValueError(f"unknown fixture pair: {name}")


def _averaging_samples(config: ExperimentConfig, domain: DyadicDomain,
                       dim: int, trials: int) -> list:
    """The riesz-thorin trial fields of one grid and value dimension."""
    return [trial_field(_trial_rng(config.seed + 1000, i), domain, dim,
                        _TRIAL_KINDS[i % len(_TRIAL_KINDS)]) for i in range(trials)]


def _nq_interpolation(mf0: MatrixField, mf1: MatrixField, t: float) -> tuple:
    """N_Q(W_t) against N_Q(W0)^(1-t) N_Q(W1)^t on every aligned cube, with
    W_t = reverse_factorization(W0, W1, t); Riesz-Thorin bounds the ratio by 1.

    Returns (sup_Q N_Q(W_t), worst ratio, its cube as [cube level, row-major
    index], ok), ok judged on every cube.  A cube on which both weights are
    constant reads 1 on both sides, so the worst ratio is taken over the
    other cubes, None with its place when there are none.
    """
    k, n = mf0.domain.level, mf0.domain.n
    nq0, nq1, nqt = (averaging_norms(W) for W in (mf0, mf1, reverse_factorization(mf0, mf1, t)))
    both = np.concatenate([mf0.stack(), mf1.stack()], axis=1)
    ok, worst, where = True, -math.inf, None
    for j in range(k + 1):
        ratio = nqt[j] / (nq0[j] ** (1.0 - t) * nq1[j] ** t)
        ok = ok and bool((ratio <= 1.0 + BOUND_SLACK).all())
        blocks = both[_cube_cells(n, k, j)]
        ratio[(blocks == blocks[:, :1]).all(axis=(1, 2, 3))] = -math.inf
        i = int(ratio.argmax())
        if ratio[i] > worst:
            worst, where = float(ratio[i]), [j, i]
    return max(float(c.max()) for c in nqt), None if where is None else worst, where, ok


def run_riesz_thorin(config: ExperimentConfig) -> ExperimentReport:
    """Averaging operators stay uniformly bounded in the interpolated
    double-dual norm built from each fixture pair, across grid levels, and
    the exact cube-average norms N_Q interpolate: N_Q(W_t) is at most
    N_Q(W0)^(1-t) N_Q(W1)^t on every aligned cube."""
    t = config.ts[len(config.ts) // 2]
    p0 = p1 = 2.0
    p = 2.0  # 1/p = (1-t)/p0 + t/p1
    trials = config.trial_count("riesz-thorin")
    ladder = [max(1, config.level - 2), max(1, config.level - 1), config.level]
    ladder = sorted(set(ladder))
    directions = config.directions or 240

    # one level at a time: its trial fields serve every fixture of their dimension
    fixture_sups = [[] for _ in config.fixtures]
    fixture_nq = [[] for _ in config.fixtures]
    fixture_endpoints = [{} for _ in config.fixtures]
    for lvl in ladder:
        domain = DyadicDomain(1, lvl)
        samples = {}
        for k, name in enumerate(config.fixtures):
            mf0, mf1 = _fixture_pair(name, domain)
            fixture_nq[k].append(_nq_interpolation(mf0, mf1, t))
            inner = inner_duals(mf0.stack(), mf1.stack(), t, directions)
            if mf0.dim not in samples:
                samples[mf0.dim] = _averaging_samples(config, domain, mf0.dim, trials)
            fixture_sups[k].append(averaging_sup_ratio(domain, inner, p, samples[mf0.dim]))
            if lvl == ladder[-1]:
                fixture_endpoints[k] = {
                    "p0": ap_matrix_constant(mf0, p0),
                    "p1": ap_matrix_constant(mf1, p1),
                }

    records = []
    passed = True
    for name, sups, nq, endpoint_constants in zip(config.fixtures, fixture_sups,
                                                  fixture_nq, fixture_endpoints):
        growth = max(
            (sups[i + 1] / sups[i] for i in range(len(sups) - 1) if sups[i] > 0),
            default=1.0,
        )
        nq_max, nq_ratio, nq_worst, nq_ok = (list(column) for column in zip(*nq))
        ok = all(math.isfinite(s) for s in sups) and growth <= 2.0 and all(nq_ok)
        if name == "euclidean":
            # unweighted case: plain Jensen, ratio can never top 1
            ok = ok and max(sups) <= 1.0 + BOUND_SLACK
        passed = passed and ok
        records.append({
            "fixture": name, "t": t, "p": p, "levels": ladder,
            "sup_ratios": sups, "growth": growth,
            "endpoint_ap": endpoint_constants, "nq": nq_max,
            "nq_ratio": nq_ratio, "nq_worst": nq_worst, "ok": ok,
        })

    aggregate = {
        "max_sup_ratio": max(max(r["sup_ratios"]) for r in records),
        "max_growth": max(r["growth"] for r in records),
        "trials": trials,
    }
    plot = [(lvl, r["fixture"], s)
            for r in records for lvl, s in zip(r["levels"], r["sup_ratios"])]
    return ExperimentReport("riesz-thorin", config.to_dict(), records, aggregate,
                            passed, plot_rows=plot)


# ---------------------------------------------------------------------------
# reverse-factorization: interpolated weights, their A_p constants, and the
# sandwich between the double-dual norm and the matrix norm of the mean

# direction-grid sizes of the comparability pairs, each nested in the next
_COMPARABILITY_GRIDS = (360, 720, 1440)


def _comparability_draw(seed: int, pair_idx: int, d: int) -> tuple:
    """The two factors and the 1000 unit probes of one comparability pair."""
    rng = _trial_rng(seed, 9000 + pair_idx)
    w0 = random_spd_matrix(rng, d, spread=0.8)
    w1 = random_spd_matrix(rng, d, spread=0.8)
    probe = rng.standard_normal((1000, d))
    probe /= np.linalg.norm(probe, axis=1, keepdims=True)
    return w0, w1, probe


def _comparability_block(config: ExperimentConfig) -> tuple[list, bool]:
    """Double-dual versus matrix norm of the interpolated mean.

    Per pair the true ratio is enclosed in [c1, c2]: c1 from the grid
    double dual (an inner approximation) and c2 from the mean norm itself,
    which dominates its own double dual.  The pairs of each d are drawn into
    (10, d, d) stacks, whose mean matrices come from one geometric_mean chain.
    Each pair's inner duals are solved once, on the finest grid, by one
    seminorms.inner_duals call per d, which bounds its own working set by
    solving the pairs in batches; a row does not depend on its batch.  The
    coarser grids are nested in the finest and share its polar points, so
    their double duals are maxima over subsets of the same functionals, with
    no division pass (seminorms.nested_maxima).  At d = 2 each probe's
    products cover only a window of about 32 polar points on the arc that
    faces it, and a certificate on the convex ring of polar points
    proves each window maximum the full scan's, bit for bit; rows it does not
    certify, and all of d = 3, take one product of each 64-probe block with
    every point.  The certified width c2/c1 therefore never grows as the grid
    doubles, exactly, and ordering on the finest grid implies it on the
    coarser ones.  The raw measured spread is kept alongside.
    """
    t = config.ts[len(config.ts) // 2]
    records = []
    ok_all = True
    for d, pairs in ((2, range(10)), (3, range(10, 20))):
        W0, W1, probes = map(np.stack, zip(*[_comparability_draw(config.seed, k, d)
                                             for k in pairs]))
        mean = geometric_mean(spd_stack(W0).power(2.0), spd_stack(W1).power(2.0), t)
        cmp_vals = np.linalg.norm(probes @ np.swapaxes(mean.power(0.5).arr, 1, 2), axis=2)
        upper = (np.linalg.norm(probes @ np.swapaxes(W0, 1, 2), axis=2) ** (1.0 - t)
                 * np.linalg.norm(probes @ np.swapaxes(W1, 1, 2), axis=2) ** t)
        inner = inner_duals(W0, W1, t, _COMPARABILITY_GRIDS[-1])
        maxima = nested_maxima(probes, inner, _COMPARABILITY_GRIDS)
        for pair_idx, cmp, up, duals in zip(pairs, cmp_vals, upper, maxima):
            c2 = float((up / cmp).max())
            widths = []
            ordering_ok = True
            for dd in duals:
                ordering_ok = ordering_ok and bool(np.all(dd <= up * (1.0 + BOUND_SLACK)))
                ratio = dd / cmp
                widths.append(c2 / float(ratio.min()))
            spread = float(ratio.max() / ratio.min())
            shrinks = all(widths[i + 1] <= widths[i] * (1.0 + BOUND_SLACK)
                          for i in range(len(widths) - 1))
            ok = shrinks and ordering_ok and widths[-1] < 10.0
            ok_all = ok_all and ok
            records.append({
                "pair": pair_idx, "d": d, "widths": widths, "measured_spread": spread,
                "ordering_ok": ordering_ok, "ok": ok,
            })
    return records, ok_all


def run_reverse_factorization(config: ExperimentConfig) -> ExperimentReport:
    t = config.ts[len(config.ts) // 2]
    p = 2.0
    ladder = list(range(4, 9))  # n = 1 stays cheap even at level 8

    fixture_records = []
    passed = True
    for name in config.fixtures:
        if name == "euclidean":
            continue  # identity interpolates to identity; nothing to measure
        constants = []
        scalar_gap = 0.0
        oracle_gap = 0.0
        for lvl in ladder:
            domain = DyadicDomain(1, lvl)
            mf0, mf1 = _fixture_pair(name, domain)
            wbar = reverse_factorization(mf0, mf1, t)
            constants.append(ap_matrix_constant(wbar, p))
            if lvl == ladder[-1] and wbar.dim == 1:
                w0, w1 = mf0.stack()[:, 0, 0], mf1.stack()[:, 0, 0]
                expect = w0 ** (1.0 - t) * w1 ** t
                got = wbar.stack()[:, 0, 0]
                scalar_gap = float(np.abs(got - expect).max())
                classical = classical_ap_constant(got ** p, domain, p) ** (1.0 / p)
                oracle_gap = abs(constants[-1] - classical)
        tail = abs(constants[-1] - constants[-2]) / constants[-2]
        ok = tail <= 0.10 and scalar_gap <= 1e-12 and oracle_gap <= 1e-9
        passed = passed and ok
        fixture_records.append({
            "fixture": name, "t": t, "p": p, "levels": ladder,
            "ap_constants": constants, "tail_change": tail,
            "scalar_gap": scalar_gap, "classical_oracle_gap": oracle_gap, "ok": ok,
        })

    pair_records, pairs_ok = _comparability_block(config)
    passed = passed and pairs_ok

    # side by side: the exact cube-average norm sup_Q N_Q of the interpolated
    # weight below its Hilbert-Schmidt bound, the matrix A_2 constant
    domain = DyadicDomain(1, min(config.level, 5))
    mf0, mf1 = _fixture_pair("rotated", domain)
    wbar = reverse_factorization(mf0, mf1, t)
    matrix_ap = ap_matrix_constant(wbar, p)
    norm_field = max(float(nq.max()) for nq in averaging_norms(wbar))
    passed = passed and norm_field <= 10.0 * wbar.dim

    aggregate = {
        "max_tail_change": max((r["tail_change"] for r in fixture_records), default=0.0),
        "max_width": max(r["widths"][-1] for r in pair_records),
        "matrix_ap_side_by_side": {
            "matrix": matrix_ap,
            "norm_field": norm_field,
        },
        "pairs": len(pair_records),
    }
    plot = [(lvl, f"{r['fixture']}_ap", c)
            for r in fixture_records for lvl, c in zip(r["levels"], r["ap_constants"])]
    plot += [(m, f"pair{r['pair']}_width", w)
             for r in pair_records for m, w in zip(_COMPARABILITY_GRIDS, r["widths"])]
    records = fixture_records + pair_records
    return ExperimentReport("reverse-factorization", config.to_dict(), records,
                            aggregate, passed, plot_rows=plot)


# ---------------------------------------------------------------------------
# bodies-selftest: exact grid identities and body algebra sanity checks


def run_bodies_selftest(config: ExperimentConfig) -> ExperimentReport:
    records = []

    tiling_ok = True
    for n in (1, 2):
        for tau in grid_translations(n):
            for lvl in range(0, 7):
                tiling_ok = tiling_ok and verify_tiling(n, tau, lvl)
            # nesting at level 6 walks every level below it
            tiling_ok = tiling_ok and verify_nesting(n, tau, 6)
    records.append({"check": "tiling_and_nesting", "ok": tiling_ok})

    rng = _trial_rng(config.seed, 0)
    support_gap = 0.0
    dual_gap = 0.0
    for d in (1, 2, 3):
        U = direction_grid(d, 360 if d > 1 else None)
        for _ in range(8):
            a = ConvexBody(d, rng.standard_normal((4, d)))
            b = ConvexBody(d, rng.standard_normal((4, d)))
            s = minkowski_sum(a, b)
            gap = np.abs(support_batch(s, U)
                         - support_batch(a, U) - support_batch(b, U)).max()
            support_gap = max(support_gap, float(gap))
    for _ in range(6):
        body = ConvexBody(2, rng.standard_normal((5, 2)))
        gauge = GaugeNorm(body)
        roundtrip = DualNorm(DualNorm(gauge))
        V = rng.standard_normal((64, 2))
        dual_gap = max(dual_gap, float(np.abs(roundtrip.values(V) - gauge.values(V)).max()))
    records.append({"check": "support_additivity", "gap": support_gap,
                    "ok": support_gap <= 1e-9})
    records.append({"check": "dual_roundtrip", "gap": dual_gap,
                    "ok": dual_gap <= 1e-8})

    domain = DyadicDomain(1, 4)
    a = trial_field(_trial_rng(config.seed, 1), domain, 2, "smooth")
    b = trial_field(_trial_rng(config.seed, 2), domain, 2, "checkerboard")
    rep = sublinearity_check(a, b, config.alpha)
    records.append({"check": "maximal_sublinearity",
                    "containment_excess": rep.containment_excess,
                    "averaging_gap": rep.averaging_gap, "ok": rep.passed()})

    passed = all(r["ok"] for r in records)
    aggregate = {"checks": len(records)}
    return ExperimentReport("bodies-selftest", config.to_dict(), records,
                            aggregate, passed)


SUITE_RUNNERS = {
    "marcinkiewicz": run_marcinkiewicz,
    "endpoints": run_endpoint_bounds,
    "riesz-thorin": run_riesz_thorin,
    "reverse-factorization": run_reverse_factorization,
    "bodies-selftest": run_bodies_selftest,
}
