"""One benchmark run of one workload, in a fresh process.

run.py starts this script with PYTHONPATH pointing at the checkout's
``src`` and SETLP_THREADS set for the workload.  It prints ``ready`` and
the time once the imports and the suite configs are done (set-up time ends
there), runs passes until ``--seconds`` have gone by, checks each
pass's reports, and prints one JSON line with the per-pass results.

With ``--trace 1`` the passes run with the layer tracer installed and the
line also carries the per-layer metrics; the spans go to ``--spans-out``.
Each pass's ``span`` is its (start, end) on ``time.perf_counter``, a
system-wide clock, so run.py can match it with the speed probe it times
meanwhile in its own process.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time
import traceback

import workloads


def _run_pass(harness, cfgs, tracer, pass_id: int) -> dict:
    reports = []
    error = None
    if tracer is not None:
        tracer.begin_pass(pass_id)
    cpu0 = time.process_time()
    start = time.perf_counter()
    try:
        for suite, cfg in cfgs:
            report = harness.SUITE_RUNNERS[suite](cfg)
            reports.append((f"{suite} seed {cfg.seed}", bool(report.passed),
                            report.to_json().encode()))
    except Exception:  # a failed pass is counted, the run goes on
        error = traceback.format_exc()
    end = time.perf_counter()
    cpu = time.process_time() - cpu0
    wall = end - start
    layers = tracer.end_pass(wall, cpu) if tracer is not None else None
    return {"wall_s": wall, "cpu_s": cpu, "reports": reports, "error": error,
            "layers": layers, "span": (start, end)}


def _check(passes: list) -> list:
    """Failure reasons per pass: raised, a FAIL verdict, or report bytes that
    differ from the run's first pass."""
    first = {}
    for p in passes:
        for label, _, data in p["reports"]:
            first.setdefault(label, data)
    out = []
    for p in passes:
        reasons = []
        if p["error"] is not None:
            reasons.append("raised: " + p["error"].strip().splitlines()[-1])
        for label, passed, data in p["reports"]:
            if not passed:
                reasons.append(f"{label}: verdict FAIL")
            if data != first[label]:
                reasons.append(f"{label}: report bytes differ from the first pass")
        out.append(reasons)
    return out


def _write_spans(tracer, path: str):
    import numpy as np

    rows = [(pid, thread) + span for pid, thread, spans in tracer.pass_spans
            for span in spans]
    table = np.array(rows, dtype=float).reshape(-1, 7)
    np.savez_compressed(
        path, names=np.array(tracer.names),
        pass_id=table[:, 0].astype(np.int32), thread=table[:, 1].astype(np.int32),
        span_id=table[:, 2].astype(np.int64), name=table[:, 3].astype(np.int32),
        start=table[:, 4], end=table[:, 5], parent=table[:, 6].astype(np.int64))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans-out")
    args = parser.parse_args(argv)

    import setlp.harness as harness

    workload = workloads.WORKLOADS[args.workload]
    cfgs = workloads.configs(workload, args.seed)
    print(f"ready {time.perf_counter()!r}", flush=True)
    if args.setup_only:
        return 0

    tracer = None
    cost = (0.0, 0.0)
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        cost = tracer.wrapper_cost()
        tracer.install()
    passes = []
    start = time.perf_counter()
    try:
        while not passes or time.perf_counter() - start < args.seconds:
            passes.append(_run_pass(harness, cfgs, tracer, len(passes)))
    finally:
        if tracer is not None:
            tracer.uninstall()
    reasons = _check(passes)
    for i, why in enumerate(reasons):
        for line in why:
            print(f"pass {i}: {line}", file=sys.stderr)

    import numpy
    import scipy

    result = {
        "passes": [{"wall_s": p["wall_s"], "cpu_s": p["cpu_s"], "failures": r,
                    "span": p["span"]}
                   for p, r in zip(passes, reasons)],
        "digests": {label: hashlib.sha256(data).hexdigest()
                    for label, _, data in passes[0]["reports"]},
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                     "scipy": scipy.__version__},
        "trials_per_pass": workloads.trials_per_pass(workload),
    }
    if tracer is not None:
        fold_cost, span_cost = cost
        layers = [p["layers"] for p in passes]
        for p, m in zip(passes, layers):
            folded = m["trace.calls"] - m["trace.spans"]
            m["trace.overhead_frac"] = ((folded * fold_cost + m["trace.spans"] * span_cost)
                                        / p["wall_s"])
        result["layers"] = layers
        if args.spans_out:
            _write_spans(tracer, args.spans_out)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
