"""The benchmark's own tests.

    python3 bench/selftest.py

Span arithmetic on a synthetic nest with a fake clock, restoration of
every wrapped name after a traced pass, the metric names against
BENCHMARK.json, seed sensitivity of every workload, thread-count
independence of the trial reports, and the refusal to run without the
package.  Takes about half a minute.
"""

from __future__ import annotations

import inspect
import logging
import os
import shutil
import subprocess
import sys
import time
import types
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SMALL_LEVEL = 3

_OUTER = """
from fakepkg import inner

def run():
    tick(1)
    inner.leaf()
    tick(2)
    helper()
    inner.leaf()
    tick(1)

def helper():
    tick(3)
    inner.leaf()
"""

_INNER = """
def leaf():
    tick(5)
"""


def _fake_package(clock_box: list):
    def tick(dt):
        clock_box[0] += dt

    pkg = types.ModuleType("fakepkg")
    pkg.__path__ = []
    sys.modules["fakepkg"] = pkg
    for name, code in (("inner", _INNER), ("outer", _OUTER), ("harness", "")):
        mod = types.ModuleType(f"fakepkg.{name}")
        mod.tick = tick
        sys.modules[mod.__name__] = mod
        setattr(pkg, name, mod)
        exec(code, mod.__dict__)


def _snapshot() -> dict:
    """Identity of every attribute of every setlp module and class."""
    snap = {}
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not mod_name.startswith("setlp"):
            continue
        for attr, obj in vars(mod).items():
            snap[mod_name, attr] = id(obj)
            if isinstance(obj, dict):
                for key, val in obj.items():
                    snap[mod_name, attr, key] = id(val)
            if inspect.isclass(obj):
                for cattr, cval in vars(obj).items():
                    snap[mod_name, attr, "class", cattr] = id(cval)
    return snap


def _reports(workload, seed: int) -> list:
    from setlp.harness import SUITE_RUNNERS

    return [SUITE_RUNNERS[suite](cfg).to_json()
            for suite, cfg in workloads.configs(workload, seed, level=SMALL_LEVEL)]


class SpanArithmetic(unittest.TestCase):
    def setUp(self):
        self.now = [0.0]
        _fake_package(self.now)
        self.tracer = tracer.Tracer("fakepkg", ("outer", "inner"), clock=lambda: self.now[0])

    def tearDown(self):
        for name in ("fakepkg", "fakepkg.outer", "fakepkg.inner", "fakepkg.harness"):
            sys.modules.pop(name, None)

    def test_self_times_of_a_synthetic_nest(self):
        outer = sys.modules["fakepkg.outer"]
        with self.tracer.installed():
            self.tracer.begin_pass(0)
            start = self.now[0]
            outer.run()
            m = self.tracer.end_pass(self.now[0] - start, 0.0)
        # run 22 time units; three leaf spans of 5; helper folds into run
        self.assertEqual(m["outer.self_s"], 7.0)
        self.assertEqual(m["inner.self_s"], 15.0)
        self.assertEqual(m["trace.self_sum_frac"], 1.0)
        self.assertEqual(m["trace.spans"], 4.0)
        self.assertEqual(m["trace.calls"], 5.0)
        (pass_id, _, spans), = self.tracer.pass_spans
        names = [self.tracer.names[s[1]] for s in spans]
        self.assertEqual(sorted(names), ["inner.leaf"] * 3 + ["outer.run"])
        run_span = next(s for s in spans if self.tracer.names[s[1]] == "outer.run")
        self.assertEqual((run_span[2], run_span[3], run_span[4]), (0.0, 22.0, -1))
        for s in spans:
            if s is not run_span:
                self.assertEqual(s[4], run_span[0])
                self.assertEqual(s[3] - s[2], 5.0)

    def test_time_outside_spans_counts_as_harness(self):
        t = tracer.Tracer("fakepkg", ("outer", "inner", "harness"),
                          clock=lambda: self.now[0])
        with t.installed():
            t.begin_pass(0)
            sys.modules["fakepkg.inner"].leaf()
            m = t.end_pass(8.0, 4.0)
        self.assertEqual(m["inner.self_s"], 5.0)
        self.assertEqual(m["harness.self_s"], 3.0)
        self.assertEqual(m["harness.cores_used"], 0.5)

    def test_cap_records_are_parsed(self):
        with self.tracer.installed():
            self.tracer.begin_pass(0)
            log = logging.getLogger("fakepkg.bodies")
            log.debug("generator cap: %d -> %d, support error %.3e", 300, 256, 3.1e-5)
            log.debug("generator cap: %d -> %d, support error %.3e", 280, 256, 1.0e-6)
            log.debug("unrelated record %d", 1)
            m = self.tracer.end_pass(1.0, 1.0)
        self.assertEqual(m["bodies.cap_events"], 2.0)
        self.assertAlmostEqual(m["bodies.cap_support_err_max"], 3.1e-5)
        self.assertFalse(log.isEnabledFor(logging.DEBUG))

    def test_union_length(self):
        self.assertEqual(tracer._union_length([(5, 6), (0, 2), (1, 3), (1.5, 2.5)]), 4)


class TracedPass(unittest.TestCase):
    def test_wrappers_restored_and_metrics_named(self):
        import setlp.grids
        import setlp.harness
        import setlp.operators

        before = _snapshot()
        original_parent = setlp.grids.parent_cube
        original_runner = setlp.harness.SUITE_RUNNERS["endpoints"]
        t = tracer.Tracer()
        with t.installed():
            self.assertIsNot(setlp.operators.parent_cube, original_parent)
            self.assertIsNot(setlp.harness.SUITE_RUNNERS["endpoints"], original_runner)
            t.begin_pass(0)
            start = time.perf_counter()
            _reports(workloads.WORKLOADS["field-trials"], 7)
            m = t.end_pass(time.perf_counter() - start, 1.0)
        self.assertEqual(_snapshot(), before)
        self.assertIs(setlp.operators.parent_cube, original_parent)

        self.assertAlmostEqual(m["trace.self_sum_frac"], 1.0, places=9)
        self.assertGreater(m["grids.parent_cube.calls"], 0)
        self.assertEqual(m["harness.trials"], 2 * workloads.FIELD_TRIALS)
        spec = run._spec()
        produced = (set(m) - set(run.TRACE_INFO)) | {"trace.overhead_frac"}
        self.assertEqual({x["name"] for x in spec["per_layer"]}, produced)


class Spec(unittest.TestCase):
    def test_workloads_and_end_to_end_names(self):
        spec = run._spec()
        self.assertEqual([w["name"] for w in spec["workloads"]], list(workloads.WORKLOADS))
        for w in spec["workloads"]:
            self.assertEqual(w["why"], workloads.WORKLOADS[w["name"]].why)
        fake = {"passes": [{"wall_s": 1.0, "speed": 2000.0, "failures": []}],
                "setups": [(0.5, 2000.0)],
                "peak_rss_mb": 70.0}
        gated = {x["name"] for x in spec["end_to_end"]}
        self.assertEqual(gated | {"wall_s", "setup_raw_s", "fail_frac"},
                         set(run.end_to_end(fake)))


    def test_speed_leaves_out_the_tails(self):
        probes = [(float(t), 0.001) for t in range(9)] + [(9.0, 0.1), (10.0, 0.0001)]
        self.assertAlmostEqual(run._speed(probes, 0.0, 10.0), 1000.0)
        with self.assertRaises(RuntimeError):
            run._speed(probes, 20.0, 30.0)


class Inputs(unittest.TestCase):
    def test_another_seed_gives_other_inputs(self):
        for workload in workloads.WORKLOADS.values():
            if workload.threads != 1:
                continue
            with self.subTest(workload=workload.name):
                self.assertNotEqual(_reports(workload, 1), _reports(workload, 2))

    def test_reports_do_not_depend_on_thread_count(self):
        saved = os.environ.get("SETLP_THREADS")
        try:
            got = {}
            for threads in (1, 2):
                os.environ["SETLP_THREADS"] = str(threads)
                got[threads] = _reports(workloads.WORKLOADS["field-trials-2w"], 7)
        finally:
            if saved is None:
                os.environ.pop("SETLP_THREADS", None)
            else:
                os.environ["SETLP_THREADS"] = saved
        self.assertEqual(got[1], got[2])


class Refusal(unittest.TestCase):
    def test_fails_without_the_package(self):
        bare = BENCH / "out" / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        (bare / "bench").mkdir(parents=True)
        try:
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            for src in BENCH.glob("*.py"):
                shutil.copy(src, bare / "bench")
            proc = subprocess.run(
                [sys.executable, "bench/run.py", "--workload", "gm-norms", "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=60)
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
