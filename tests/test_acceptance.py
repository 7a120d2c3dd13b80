"""Acceptance gate: ten verification criteria with pinned tolerances.

Each test prints one PASS/FAIL line with the measured quantity and its
runtime budget, then asserts.  Tolerances and budgets are fixed; a red
test here means the claimed property failed at the stated precision,
not that a knob needs loosening.
"""

import json
import os
import subprocess
import sys
import time
from fractions import Fraction

import numpy as np

from setlp.bodies import magnitude, minkowski_sum, support_batch
from setlp.fields import (
    aumann_integral,
    distribution,
    lp_norm,
    magnitude_bound_check,
    random_simple_field,
)
from setlp.grids import DyadicDomain, grid_translations, verify_nesting, verify_tiling
from setlp.harness import (
    SUITES,
    ExperimentConfig,
    _comparability_block,
    _fixture_pair,
    run_endpoint_bounds,
    run_marcinkiewicz,
    run_reverse_factorization,
)
from setlp.matrices import random_spd_matrix
from setlp.operators import dyadic_frac_maximal, scalar_frac_maximal
from setlp.seminorms import (
    DualNorm,
    GeometricMeanDoubleDual,
    MatrixNorm,
    direction_grid,
    dual_values,
)

SEED = 2026
THIRD = Fraction(1, 3)


def announce(capsys, num, name, ok, detail, elapsed, budget):
    verdict = "PASS" if ok else "FAIL"
    with capsys.disabled():
        print(f"criterion {num:2d} {name}: {verdict} "
              f"({detail}; {elapsed:.1f}s, budget {budget:.0f}s)")
    assert ok, f"criterion {num} ({name}): {detail}"
    assert elapsed < budget, f"criterion {num} over budget: {elapsed:.1f}s"


def test_01_layer_cake_exactness(capsys):
    start = time.perf_counter()
    worst = 0.0
    combos = [(1, 1, 5), (1, 2, 5), (2, 1, 3), (2, 2, 3)]
    for i in range(100):
        n, d, level = combos[i % 4]
        rng = np.random.default_rng([SEED, 1, i])
        F = random_simple_field(rng, DyadicDomain(n, level), d)
        table = distribution(F)
        for p in (1, 2, 4):
            want = lp_norm(F, p) ** p
            worst = max(worst, abs(table.layer_cake(p) - want) / want)
    elapsed = time.perf_counter() - start
    announce(capsys, 1, "layer cake exactness", worst <= 1e-12,
             f"max rel gap {worst:.2e}", elapsed, 5.0)


def test_02_integral_additivity_and_bound(capsys):
    start = time.perf_counter()
    support_gap = 0.0
    magnitude_excess = 0.0
    combos = [(1, 1, 4), (1, 2, 4), (2, 1, 3), (2, 2, 3)]
    for i in range(100):
        n, d, level = combos[i % 4]
        rng = np.random.default_rng([SEED, 2, i])
        domain = DyadicDomain(n, level)
        F = random_simple_field(rng, domain, d)
        evens = range(0, domain.num_cells, 2)
        odds = range(1, domain.num_cells, 2)
        whole = aumann_integral(F)
        split = minkowski_sum(aumann_integral(F, evens), aumann_integral(F, odds))
        U = direction_grid(d, 360)
        support_gap = max(support_gap, float(np.abs(
            support_batch(whole, U) - support_batch(split, U)).max()))
        lhs, rhs = magnitude_bound_check(F)
        magnitude_excess = max(magnitude_excess, lhs - rhs)
    elapsed = time.perf_counter() - start
    ok = support_gap <= 1e-10 and magnitude_excess <= 1e-9
    announce(capsys, 2, "integral additivity and bound", ok,
             f"support gap {support_gap:.2e}, magnitude excess {magnitude_excess:.2e}",
             elapsed, 10.0)


def test_03_endpoint_bounds(capsys):
    start = time.perf_counter()
    rep = run_endpoint_bounds(ExperimentConfig(seed=SEED, level=5, trials=200))
    elapsed = time.perf_counter() - start
    slack = rep.aggregate["min_slack"]
    alphas = sorted({r["alpha"] for r in rep.records})
    ok = rep.passed and slack >= -1e-9 and len(rep.records) == 200
    announce(capsys, 3, "endpoint operator bounds", ok,
             f"min slack {slack:.2e} over 200 trials, alphas {alphas}",
             elapsed, 60.0)


def test_04_interpolated_strong_bound(capsys):
    start = time.perf_counter()
    rep = run_marcinkiewicz(ExperimentConfig(seed=SEED, level=5, trials=200,
                                             ts=(0.25, 0.5, 0.75)))
    elapsed = time.perf_counter() - start
    slack = rep.aggregate["min_slack"]
    dims = {(r["n"], r["d"]) for r in rep.records}
    ok = (rep.passed and slack >= -1e-9 and len(rep.records) == 200
          and dims == {(1, 1), (1, 2), (2, 1), (2, 2)})
    constants = rep.aggregate["constants"]
    announce(capsys, 4, "interpolated strong bound", ok,
             f"min slack {slack:.3f}, C constants {constants}", elapsed, 120.0)


def test_05_scalar_oracle_equivalence(capsys):
    start = time.perf_counter()
    worst = 0.0
    taus = [(Fraction(0),), (THIRD,), (-THIRD,)]
    for i in range(100):
        rng = np.random.default_rng([SEED, 5, i])
        domain = DyadicDomain(1, 3 + i % 3)
        F = random_simple_field(rng, domain, 1)
        radii = np.array([magnitude(c) for c in F.cells])
        alpha = (0.0, 0.25, 1.0 / 3.0, 0.5)[i % 4]
        tau = taus[i % 3]
        MF = dyadic_frac_maximal(F, alpha, tau)
        oracle = scalar_frac_maximal(radii, domain, alpha, tau)
        got = np.array([magnitude(c) for c in MF.cells])
        worst = max(worst, float(np.abs(got - oracle).max()))
    elapsed = time.perf_counter() - start
    announce(capsys, 5, "one-dimensional oracle equivalence", worst <= 1e-12,
             f"max cell gap {worst:.2e} over 100 trials", elapsed, 10.0)


def test_06_norm_duality(capsys):
    start = time.perf_counter()
    rng = np.random.default_rng([SEED, 6])
    V = rng.standard_normal((200, 2))
    V /= np.linalg.norm(V, axis=1, keepdims=True)
    dual_gap = 0.0
    for k in range(8):
        W = random_spd_matrix(rng, 2, spread=0.9)
        norm = MatrixNorm(W)
        closed = DualNorm(norm).values(V)
        grid = dual_values(norm.values, 2, V, directions=720)
        dual_gap = max(dual_gap, float(np.abs(grid / closed - 1.0).max()))

    excess = 0.0
    domain = DyadicDomain(1, 3)
    for name in ("euclidean", "two_scales", "rotated", "random"):
        mf0, mf1 = _fixture_pair(name, domain)
        d = mf0.dim
        probe = rng.standard_normal((1000, d))
        probe /= np.linalg.norm(probe, axis=1, keepdims=True)
        for cell in (0, domain.num_cells // 2):
            norm = GeometricMeanDoubleDual(MatrixNorm(mf0.stack()[cell]),
                                           MatrixNorm(mf1.stack()[cell]), 0.5)
            dd = norm.values(probe)
            pt = norm.mean_values(probe)
            excess = max(excess, float((dd / pt).max()) - 1.0)
    elapsed = time.perf_counter() - start
    ok = dual_gap <= 1e-6 and excess <= 1e-9
    announce(capsys, 6, "norm duality", ok,
             f"grid dual gap {dual_gap:.2e}, double dual excess {excess:.2e}",
             elapsed, 30.0)


def test_07_interpolant_comparability(capsys):
    start = time.perf_counter()
    records, ok = _comparability_block(ExperimentConfig(seed=SEED))
    elapsed = time.perf_counter() - start
    assert len(records) == 20
    assert {r["d"] for r in records} == {2, 3}
    monotone = all(
        all(b <= a * (1.0 + 1e-9) for a, b in zip(r["widths"], r["widths"][1:]))
        for r in records)
    final = max(r["widths"][-1] for r in records)
    announce(capsys, 7, "interpolant comparability", ok and monotone,
             f"20 pairs, certified widths non-increasing, max final width {final:.4f}",
             elapsed, 60.0)


def test_08_reverse_factorization(capsys):
    start = time.perf_counter()
    rep = run_reverse_factorization(ExperimentConfig(seed=SEED, level=5))
    elapsed = time.perf_counter() - start
    tail = rep.aggregate["max_tail_change"]
    scalar = max((r["scalar_gap"] for r in rep.records if "scalar_gap" in r),
                 default=0.0)
    oracle = max((r["classical_oracle_gap"] for r in rep.records
                  if "classical_oracle_gap" in r), default=0.0)
    ok = rep.passed and tail <= 0.10 and oracle <= 1e-9
    announce(capsys, 8, "reverse factorization stability", ok,
             f"max tail change {tail:.4f}, scalar oracle gap {oracle:.2e}",
             elapsed, 120.0)


def test_09_grid_exactness(capsys):
    start = time.perf_counter()
    checks = 0
    for n in (1, 2):
        for tau in grid_translations(n):
            for level in range(0, 7):
                assert verify_tiling(n, tau, level)
                checks += 1
            assert verify_nesting(n, tau, 6)
            checks += 1
    elapsed = time.perf_counter() - start
    announce(capsys, 9, "translated grid exactness", checks == (3 + 9) * 8,
             f"{checks} exact tiling and nesting checks", elapsed, 5.0)


def test_10_report_determinism(capsys, tmp_path):
    start = time.perf_counter()
    outs = {}
    for threads in ("1", "8"):
        out = tmp_path / f"threads{threads}"
        env = dict(os.environ, SETLP_THREADS=threads)
        env.pop("SETLP_OUT", None)
        proc = subprocess.run(
            [sys.executable, "-m", "setlp", "all", "--seed", "7",
             "--out", str(out)],
            capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        outs[threads] = out
    same = all(
        (outs["1"] / f"{suite}.json").read_bytes()
        == (outs["8"] / f"{suite}.json").read_bytes()
        for suite in SUITES)
    sample = json.loads((outs["1"] / "marcinkiewicz.json").read_text())
    elapsed = time.perf_counter() - start
    ok = same and sample["config"]["seed"] == 7
    announce(capsys, 10, "report determinism", ok,
             f"{len(SUITES)} reports byte-identical across 1 and 8 threads",
             elapsed, 300.0)
