"""setlp benchmark: time, memory and correctness of the suite runners.

    python3 bench/run.py --workload field-trials --seed 7 --seconds 15 --trace 0

Runs one workload in a fresh child process (bench/worker.py), after a few
set-up-only children, and prints each metric with its unit; the last
line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json, ``--trace
1`` the per-layer metrics from a separate traced run (bench/tracer.py).
``--steady N`` runs every workload (or those named with ``--workload``)
N times untraced at ``--seed`` (with ``--vary-seed`` at seeds ``--seed``,
``--seed + 1``, ...) and prints each end-to-end metric's median, quartiles
and spread, and checks that field-trials and field-trials-2w write the
same report bytes at each seed.

Run it from the repository root; it imports the package from ``src``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402

# set-up-only children per run; the median of their set-ups, in reference
# seconds, is setup_s
SETUP_ONLY = 9
RUN_TIMEOUT_S = 170.0
# tracer figures printed as information: the layers' self times over the
# pass time (1 on one thread, checked), and the tracer's span and call counts
TRACE_INFO = ("trace.self_sum_frac", "trace.spans", "trace.calls")
# units of the end-to-end figures printed as information
INFO_UNITS = {"wall_s": "s", "setup_raw_s": "s", "fail_frac": "frac"}
# the cores this benchmark may use; a workload with n trial workers runs
# on the first n
CPUS = sorted(os.sched_getaffinity(0))
# period of the speed probe that runs here while a child works
PROBE_PERIOD_S = 0.05
# the probe kernel's time on a quiet 2-core Xeon host: setup_s is set-up
# time in seconds at that speed
PROBE_REF_S = 0.00045


def _spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def _child_env(workload) -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["SETLP_THREADS"] = str(workload.threads)
    # one BLAS thread: the trial workers are the parallelism under test, and
    # a single-worker pass then runs on the one core it is pinned to
    env["OPENBLAS_NUM_THREADS"] = "1"
    return env


def _probe_kernel():
    """A fixed slice of interpreter work like setlp's grid code: exact
    rational arithmetic and integer loops.  About 0.45 ms on a quiet
    2-core Xeon host."""
    acc = Fraction(0)
    for i in range(1, 120):
        acc += Fraction(i % 7, 3 * (1 << (i % 9)))
    s = 0
    for i in range(3000):
        s += i * i % 7
    return acc, s


def _run_child(args: list, workload, deadline: float, probes) -> tuple:
    """Run a worker to its end; return (start, ready, output after ``ready``).

    ``start`` is when it was launched and ``ready`` when it finished its
    set-up, both on ``time.perf_counter``, a system-wide clock.  If
    ``probes`` is a list, the probe kernel is run every PROBE_PERIOD_S
    while the worker runs and (start, CPU seconds) is appended to it.  The
    probe runs in this process, so it shares no interpreter lock with the
    worker, and its CPU time leaves out any wait for a free core.
    """
    cmd = [sys.executable, str(BENCH / "worker.py")] + args
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=_child_env(workload),
                            stdout=subprocess.PIPE, text=True)
    chunks = []
    reader = threading.Thread(target=lambda: chunks.append(proc.stdout.read()))
    reader.start()
    try:
        while proc.poll() is None:
            if time.perf_counter() > deadline:
                raise RuntimeError("worker ran past the run's time limit")
            time.sleep(PROBE_PERIOD_S)
            if probes is not None:
                t0 = time.perf_counter()
                cpu0 = time.thread_time()
                _probe_kernel()
                probes.append((t0, time.thread_time() - cpu0))
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        reader.join()
    first, _, rest = chunks[0].partition("\n")
    if proc.returncode != 0 or first.split()[:1] != ["ready"]:
        raise RuntimeError(f"worker exited with code {proc.returncode}: {' '.join(cmd)}")
    return start, float(first.split()[1]), rest


def _speed(probes: list, start: float, end: float) -> float:
    """Host speed in probe kernels per second during [start, end): the
    mean of 1 / probe time, leaving out the fastest and slowest tenth.

    A pass's wall time times this speed is its length in probe kernels, so
    a host that slows down for part of a pass is counted for that part.
    """
    inside = sorted(1.0 / s for t, s in probes if start <= t < end)
    if not inside:
        raise RuntimeError("a child ended before the speed probe ran")
    cut = len(inside) // 10
    kept = inside[cut:len(inside) - cut]
    return sum(kept) / len(kept)


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run: set-up-only children, then the measured child.

    Traced runs report per-layer metrics only, so they skip the set-ups
    and the speed probe.
    """
    workload = workloads.WORKLOADS[name]
    deadline = time.perf_counter() + RUN_TIMEOUT_S
    base = ["--workload", name, "--seed", str(seed)]
    # the children inherit the cores this process is pinned to, so the probe
    # times the cores they run on, whose speeds differ by up to a tenth at a
    # time; a set-up runs on one thread whatever the workload
    os.sched_setaffinity(0, CPUS[:1])
    setups = []  # (wall seconds, probe speed)
    for _ in range(0 if trace else SETUP_ONLY):
        probes = []
        start, ready, _ = _run_child(base + ["--setup-only"], workload, deadline, probes)
        setups.append((ready - start, _speed(probes, start, ready)))
    extra = ["--seconds", repr(seconds), "--trace", str(int(trace))]
    if trace:
        out_dir = BENCH / "out"
        out_dir.mkdir(exist_ok=True)
        extra += ["--spans-out", str(out_dir / f"spans-{name}.npz")]
    os.sched_setaffinity(0, CPUS[:workload.threads])
    probes = None if trace else []
    _, _, out = _run_child(base + extra, workload, deadline, probes)
    result = json.loads(out.strip().splitlines()[-1])
    if probes is not None:
        for p in result["passes"]:
            p["speed"] = _speed(probes, *p["span"])
    result["setups"] = setups
    return result


def end_to_end(result: dict) -> dict:
    """The gated metrics, plus wall_s, setup_raw_s and fail_frac for information."""
    passes = result["passes"]
    attempted = len(passes)
    failed = sum(1 for p in passes if p["failures"])
    return {
        "setup_s": statistics.median(wall * speed for wall, speed in result["setups"])
        * PROBE_REF_S,
        "wall_ref": statistics.median(p["wall_s"] * p["speed"] for p in passes),
        "peak_rss_mb": result["peak_rss_mb"],
        "ok_frac": (attempted - failed) / attempted,
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "setup_raw_s": statistics.median(wall for wall, _ in result["setups"]),
        "fail_frac": failed / attempted,
    }


def per_layer(result: dict) -> dict:
    per_pass = result["layers"]
    return {k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]}


def _git_sha():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted((ROOT / "src" / "setlp").glob("*.py")))


def facts(result: dict, seed: int) -> dict:
    return {"nproc": os.cpu_count(), **result["versions"], "git_sha": _git_sha(),
            "src_setlp_lines": _src_lines(), "seed": seed,
            "trials_per_pass": result["trials_per_pass"],
            "passes_per_run": len(result["passes"])}


def _line(metrics: dict, units: dict) -> dict:
    return {name: {"value": metrics[name], "unit": units[name]} for name in units}


def single(args, spec: dict) -> int:
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    attempted = len(result["passes"])
    failed = sum(1 for p in result["passes"] if p["failures"])
    print(f"workload {args.workload}: seed {args.seed}, {args.seconds:g} s, trace {args.trace}")
    print("facts " + json.dumps(facts(result, args.seed), sort_keys=True))
    for suite, digest in result["digests"].items():
        print(f"report sha256 {suite} {digest}")
    print(f"fail_frac {failed / attempted:.4g} ({failed} of {attempted} passes)")
    print(f"wall_s {statistics.median(p['wall_s'] for p in result['passes']):.4f} s "
          f"(median of {attempted} passes)")
    correct = failed == 0
    if args.trace:
        metrics = per_layer(result)
        for name in TRACE_INFO:
            print(f"{name} {metrics[name]:.6g} (information)")
        single_thread = workloads.WORKLOADS[args.workload].threads == 1
        if single_thread and abs(metrics["trace.self_sum_frac"] - 1.0) > 1e-6:
            print("layer self times do not add up to the pass time", file=sys.stderr)
            correct = False
        section = "per_layer"
    else:
        metrics = end_to_end(result)
        print(f"setup_raw_s {metrics['setup_raw_s']:.4f} s (median of "
              f"{len(result['setups'])} set-ups; setup_s is their median in seconds at the "
              "reference host speed)")
        section = "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[section]}
    for name, unit in units.items():
        print(f"  {name} {metrics[name]:.6g} {unit}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": _line(metrics, units)}))
    return 0


def steady(args, spec: dict) -> int:
    names = args.workload_list or list(workloads.WORKLOADS)
    seeds = ([args.seed + i for i in range(args.steady)] if args.vary_seed
             else [args.seed] * args.steady)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    units.update(INFO_UNITS)
    digests = {}
    ok = True
    summary = {}
    for name in names:
        values = {}
        for i, seed in enumerate(seeds):
            result = run_workload(name, seed, args.seconds, False)
            e2e = end_to_end(result)
            ok = ok and e2e["ok_frac"] == 1.0
            digests[name, i] = result["digests"]
            for m, v in e2e.items():
                values.setdefault(m, []).append(v)
            print(f"{name} run {i} seed {seed}: "
                  + ", ".join(f"{m} {v:.4f} {units[m]}" for m, v in e2e.items()), flush=True)
        for m, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else 0.0
            summary[f"{name}/{m}"] = {"median": med, "q1": q1, "q3": q3, "spread": spread}
            if m in bounds:
                mark = f"(bound {bounds[m]}) " + ("ok" if spread <= bounds[m] / 3 else "WIDE")
            else:
                mark = "(information)"
            print(f"  {name} {m}: median {med:.4f} q1 {q1:.4f} q3 {q3:.4f} "
                  f"spread {spread:.3f} {mark}", flush=True)
    for i, seed in enumerate(seeds):
        one, two = digests.get(("field-trials", i)), digests.get(("field-trials-2w", i))
        if one is not None and two is not None and one != two:
            print(f"seed {seed}: field-trials-2w reports differ from field-trials")
            ok = False
    print(json.dumps({"correct": ok, "summary": summary}))
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="setlp benchmark")
    parser.add_argument("--workload", dest="workload_list", action="append",
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steady", type=int, default=0, metavar="N",
                        help="run each workload N times at --seed and print the spread")
    parser.add_argument("--vary-seed", action="store_true",
                        help="with --steady, use seeds --seed, --seed + 1, ... instead")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "setlp" / "harness.py").is_file():
        print(f"error: no setlp package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = _spec()
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    if args.steady:
        return steady(args, spec)
    if not args.workload_list or len(args.workload_list) != 1:
        parser.error("give exactly one --workload")
    args.workload = args.workload_list[0]
    return single(args, spec)


if __name__ == "__main__":
    sys.exit(main())
