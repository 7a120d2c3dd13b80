"""Outside-in layer spans for the setlp library.

The tracer wraps the public functions and methods of each library module
(the layers) without touching the package source.  A wrapped name is
replaced in every ``setlp`` module namespace that holds it, and in the
module-level dicts that hold it (``harness.SUITE_RUNNERS``), so a call made
through any import path is seen.  ``uninstall`` puts every original back.

A call opens a span when it crosses a layer boundary (the caller's open
span belongs to another layer, or there is none) or when its own time is
reported by name (``ALWAYS_SPAN``).  A call from a layer into itself only
counts, which keeps the hot accessors cheap.  Each span records its id,
name, start, end and parent; a pass id groups them.  A span's self time is
its duration minus its children's durations, and a layer's self time is
the sum over its spans, so on one thread the layers' self times plus the
time outside every span add up to the pass time.

Each thread keeps its own stack, so a trial worker thread's first span is
a root of that thread; its ``parent`` field records the pass thread's open
span.  Self times are then thread-seconds.  While worker spans are open
the pass thread only waits for them, so ``harness.self_s`` leaves out the
union of the worker root spans, and the self times add up to the pass
time plus the time two worker spans were open at once.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import logging
import sys
import threading
import time
from contextlib import contextmanager

LAYERS = ("grids", "bodies", "fields", "operators", "seminorms", "matrices",
          "weights", "harness")

# names whose own self or total time is a per-layer metric: never folded
# into the caller's span even when the caller is in the same layer
ALWAYS_SPAN = frozenset({
    "bodies.ConvexBody.__init__",
    "fields.random_simple_field",
    "operators.cube_integral_tree",
    "operators.dyadic_frac_maximal",
    "seminorms.dual_values",
    "seminorms.Seminorm.of_body",
})

_CAP_PREFIX = "generator cap:"


def _rows(V) -> int:
    shape = getattr(V, "shape", None)
    if shape is not None:
        return 1 if len(shape) < 2 else int(shape[0])
    return len(V)


def _seminorm_key(p):
    matrix = getattr(p, "matrix", None)
    return ("matrix", matrix.tobytes(), matrix.shape) if matrix is not None else ("id", id(p))


# per-call observations summed into a per-name total; each gets the call's
# positional args, keyword args and result
SUM_OBSERVERS = {
    # the union returned one of its inputs unchanged
    "bodies.conv_union": lambda a, k, r: float(r is a[0] or r is a[1]),
    "operators.cube_integral_tree": lambda a, k, r: float(sum(len(lv) for lv in r[0])),
    "seminorms.dual_values": lambda a, k, r: float(_rows(a[2] if len(a) > 2 else k["V"])),
    "matrices.operator_norms": lambda a, k, r: float(_rows(a[0])),
    "weights.ap_matrix_constant": lambda a, k, r: float(a[0].domain.num_cells ** 2),
}

# per-call keys whose distinct count is reported: a GeometricMeanDoubleDual
# is fixed by its two seminorms' matrices, t and the direction count
KEY_OBSERVERS = {
    "seminorms.GeometricMeanDoubleDual.__init__": lambda a, k, r: (
        _seminorm_key(a[1]), _seminorm_key(a[2]), float(a[3]), k.get("directions")),
}

# metric name -> (source span name, statistic); statistics: calls, self_s,
# total_s, sum (SUM_OBSERVERS), distinct_ratio (KEY_OBSERVERS), sum_ratio
# (sum divided by calls)
NAMED_METRICS = {
    "grids.box.calls": ("grids.DyadicCube.box", "calls"),
    "grids.clip_volume.calls": ("grids.DyadicCube.clip_volume", "calls"),
    "grids.parent_cube.calls": ("grids.parent_cube", "calls"),
    "bodies.construct.calls": ("bodies.ConvexBody.__init__", "calls"),
    "bodies.construct.self_s": ("bodies.ConvexBody.__init__", "self_s"),
    "bodies.minkowski_sum.calls": ("bodies.minkowski_sum", "calls"),
    "bodies.conv_union.calls": ("bodies.conv_union", "calls"),
    "bodies.conv_union.shortcut_ratio": ("bodies.conv_union", "sum_ratio"),
    "fields.lp_norm.calls": ("fields.lp_norm", "calls"),
    "fields.random_simple_field.self_s": ("fields.random_simple_field", "self_s"),
    "operators.cube_integral_tree.calls": ("operators.cube_integral_tree", "calls"),
    "operators.cube_integral_tree.total_s": ("operators.cube_integral_tree", "total_s"),
    "operators.dyadic_frac_maximal.total_s": ("operators.dyadic_frac_maximal", "total_s"),
    "operators.cubes_visited": ("operators.cube_integral_tree", "sum"),
    "seminorms.dual_values.calls": ("seminorms.dual_values", "calls"),
    "seminorms.dual_values.rows": ("seminorms.dual_values", "sum"),
    "seminorms.dual_values.self_s": ("seminorms.dual_values", "self_s"),
    "seminorms.gmdd.constructions": ("seminorms.GeometricMeanDoubleDual.__init__", "calls"),
    "seminorms.gmdd.distinct_ratio": ("seminorms.GeometricMeanDoubleDual.__init__",
                                      "distinct_ratio"),
    "seminorms.of_body.calls": ("seminorms.Seminorm.of_body", "calls"),
    "seminorms.of_body.self_s": ("seminorms.Seminorm.of_body", "self_s"),
    "matrices.geometric_mean.calls": ("matrices.geometric_mean", "calls"),
    "matrices.operator_norms.rows": ("matrices.operator_norms", "sum"),
    "weights.ap_matrix_constant.calls": ("weights.ap_matrix_constant", "calls"),
    "weights.opnorm_pairs": ("weights.ap_matrix_constant", "sum"),
    "harness.trials": ("harness.trial_field", "calls"),
}


class _ThreadState:
    """One thread's spans and tallies for one pass."""

    __slots__ = ("pass_id", "thread", "stack", "calls", "self_s", "total_s",
                 "sums", "keys", "spans", "roots")

    def __init__(self, pass_id: int, thread: int, size: int):
        self.pass_id = pass_id
        self.thread = thread
        self.stack = []  # open frames: [span id, layer, start, child time]
        self.calls = [0] * size
        self.self_s = [0.0] * size
        self.total_s = [0.0] * size
        self.sums = [0.0] * size
        self.keys = []  # (name id, key)
        self.spans = []  # (span id, name id, start, end, parent id)
        self.roots = []  # (start, end) of the spans opened on an empty stack


class _CapObserver(logging.Handler):
    """Counts the body module's generator-cap records and their error."""

    def __init__(self):
        super().__init__(logging.DEBUG)
        self.events = 0
        self.err_max = 0.0

    def reset(self):
        with self.lock:
            self.events = 0
            self.err_max = 0.0

    def emit(self, record):
        # record: "generator cap: %d -> %d, support error %.3e"
        if isinstance(record.msg, str) and record.msg.startswith(_CAP_PREFIX):
            self.events += 1
            self.err_max = max(self.err_max, float(record.args[2]))


class Tracer:
    """Wraps the layer modules of one package and keeps per-pass spans.

    ``clock`` lets a test drive the tracer with a fake clock.
    """

    def __init__(self, package: str = "setlp", layers=LAYERS, clock=time.perf_counter):
        self.package = package
        self.layers = tuple(layers)
        self.clock = clock
        self.names: list[str] = []
        self._layer_of: list[int] = []
        self._patches: list = []
        self._local = threading.local()
        self._states: list[_ThreadState] = []
        self._states_lock = threading.Lock()
        self._ids = itertools.count()
        self._main: _ThreadState | None = None
        self.pass_id = -1
        self.pass_spans: list = []  # per finished pass: (pass id, thread, spans)
        self._cap = _CapObserver()
        self._cap_logger = logging.getLogger(f"{package}.bodies")
        self._cap_level = None

    # -- installation --------------------------------------------------------

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        originals = {}  # id(original function) -> (original, wrapper)
        for layer_idx, layer in enumerate(self.layers):
            mod = importlib.import_module(f"{self.package}.{layer}")
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and id(obj) not in originals):
                    wrapper = self._wrap(obj, f"{layer}.{attr}", layer_idx)
                    originals[id(obj)] = (obj, wrapper)
                elif (inspect.isclass(obj) and obj.__module__ == mod.__name__
                      and not issubclass(obj, BaseException)):
                    self._wrap_class(obj, f"{layer}.{attr}", layer_idx)
        # every setlp namespace and module-level dict that holds an original
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == self.package
                                   or mod_name.startswith(self.package + ".")):
                continue
            for attr, obj in list(vars(mod).items()):
                if id(obj) in originals:
                    self._patch(mod, attr, obj, originals[id(obj)][1])
                elif isinstance(obj, dict) and not attr.startswith("__"):
                    for key, val in list(obj.items()):
                        if id(val) in originals:
                            self._patch_item(obj, key, val, originals[id(val)][1])
        self._cap_level = self._cap_logger.level
        self._cap_logger.addHandler(self._cap)
        self._cap_logger.setLevel(logging.DEBUG)

    def uninstall(self):
        for restore in reversed(self._patches):
            restore()
        self._patches.clear()
        self._cap_logger.removeHandler(self._cap)
        if self._cap_level is not None:
            self._cap_logger.setLevel(self._cap_level)
            self._cap_level = None

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def _patch(self, owner, attr, original, replacement):
        setattr(owner, attr, replacement)
        self._patches.append(lambda: setattr(owner, attr, original))

    def _patch_item(self, mapping, key, original, replacement):
        mapping[key] = replacement
        self._patches.append(lambda: mapping.__setitem__(key, original))

    def _wrap_class(self, cls, qualname: str, layer_idx: int):
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_") and attr != "__init__":
                continue
            name = f"{qualname}.{attr}"
            if inspect.isfunction(raw):
                self._patch(cls, attr, raw, self._wrap(raw, name, layer_idx))
            elif isinstance(raw, (classmethod, staticmethod)):
                wrapped = type(raw)(self._wrap(raw.__func__, name, layer_idx))
                self._patch(cls, attr, raw, wrapped)

    def _wrap(self, fn, name: str, layer_idx: int):
        nid = len(self.names)
        self.names.append(name)
        self._layer_of.append(layer_idx)
        always = name in ALWAYS_SPAN
        sum_obs = SUM_OBSERVERS.get(name)
        key_obs = KEY_OBSERVERS.get(name)
        state = self._state
        clock = self.clock
        ids = self._ids

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            st = state()
            st.calls[nid] += 1
            stack = st.stack
            if not always and stack and stack[-1][1] == layer_idx:
                result = fn(*args, **kwargs)
            else:
                parent = stack[-1][0] if stack else self._foreign_parent(st)
                frame = [next(ids), layer_idx, clock(), 0.0]
                stack.append(frame)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    end = clock()
                    stack.pop()
                    dur = end - frame[2]
                    if stack:
                        stack[-1][3] += dur
                    else:
                        st.roots.append((frame[2], end))
                    st.self_s[nid] += dur - frame[3]
                    st.total_s[nid] += dur
                    st.spans.append((frame[0], nid, frame[2], end, parent))
            if sum_obs is not None:
                st.sums[nid] += sum_obs(args, kwargs, result)
            if key_obs is not None:
                st.keys.append((nid, key_obs(args, kwargs, result)))
            return result

        return wrapper

    # -- per-thread state ----------------------------------------------------

    def _state(self) -> _ThreadState:
        st = getattr(self._local, "state", None)
        if st is None or st.pass_id != self.pass_id:
            with self._states_lock:
                st = _ThreadState(self.pass_id, len(self._states), len(self.names))
                self._states.append(st)
            self._local.state = st
        return st

    def _foreign_parent(self, st: _ThreadState) -> int:
        main = self._main
        if main is None or main is st or not main.stack:
            return -1
        try:
            return main.stack[-1][0]
        except IndexError:  # the pass thread closed its span meanwhile
            return -1

    # -- passes --------------------------------------------------------------

    def begin_pass(self, pass_id: int):
        self.pass_id = pass_id
        with self._states_lock:
            self._states = []
        self._cap.reset()
        self._main = self._state()

    def end_pass(self, wall_s: float, cpu_s: float) -> dict:
        """Per-layer metrics of the pass that just ran; keeps its spans."""
        with self._states_lock:
            states = list(self._states)
        size = len(self.names)
        calls = [sum(st.calls[i] for st in states) for i in range(size)]
        self_s = [sum(st.self_s[i] for st in states) for i in range(size)]
        total_s = [sum(st.total_s[i] for st in states) for i in range(size)]
        sums = [sum(st.sums[i] for st in states) for i in range(size)]
        keys: dict[int, list] = {}
        for st in states:
            for nid, key in st.keys:
                keys.setdefault(nid, []).append(key)
        for st in states:
            if st.spans:
                self.pass_spans.append((self.pass_id, st.thread, st.spans))

        layer_self = {layer: 0.0 for layer in self.layers}
        for i, s in enumerate(self_s):
            layer_self[self.layers[self._layer_of[i]]] += s
        main = self._main
        # pass-thread time outside every span, less the time it waited on
        # worker threads' spans
        gap = wall_s - sum(end - start for start, end in main.roots)
        gap -= _union_length([iv for st in states if st is not main for iv in st.roots])
        out = {f"{layer}.self_s": s for layer, s in layer_self.items()}
        if "harness" in layer_self:
            out["harness.self_s"] = layer_self["harness"] + gap
            out["harness.cpu_s"] = cpu_s
            out["harness.cores_used"] = cpu_s / wall_s if wall_s > 0 else 0.0
        self_sum = sum(layer_self.values()) + gap
        out["trace.self_sum_frac"] = self_sum / wall_s if wall_s > 0 else 0.0
        out["trace.spans"] = float(sum(len(st.spans) for st in states))
        out["trace.calls"] = float(sum(calls))
        out["bodies.cap_events"] = float(self._cap.events)
        out["bodies.cap_support_err_max"] = self._cap.err_max

        index = {name: i for i, name in enumerate(self.names)}
        for metric, (name, stat) in NAMED_METRICS.items():
            i = index.get(name)
            if i is None:
                continue
            if stat == "calls":
                out[metric] = float(calls[i])
            elif stat == "self_s":
                out[metric] = self_s[i]
            elif stat == "total_s":
                out[metric] = total_s[i]
            elif stat == "sum":
                out[metric] = sums[i]
            elif stat == "sum_ratio":
                out[metric] = sums[i] / calls[i] if calls[i] else 0.0
            elif stat == "distinct_ratio":
                got = keys.get(i, [])
                out[metric] = len(set(got)) / len(got) if got else 0.0
        self._main = None
        self.pass_id = -1
        return out

    # -- calibration ----------------------------------------------------------

    def wrapper_cost(self, repeats: int = 5, count: int = 20000) -> tuple[float, float]:
        """Seconds added per folded call and per span, measured on a no-op.

        Uses a throwaway tracer with the same clock, so this tracer's
        tallies are untouched.
        """
        probe = Tracer(self.package, ("a", "b"), self.clock)

        def noop():
            return None

        inner = probe._wrap(noop, "b.noop", 1)
        same = probe._wrap(noop, "a.same", 0)

        def folded_loop():
            for _ in range(count):
                same()

        outer = probe._wrap(folded_loop, "a.outer", 0)
        timings = {"bare": [], "fold": [], "span": []}
        for _ in range(repeats):
            probe.begin_pass(0)
            t0 = time.perf_counter()
            for _ in range(count):
                noop()
            t1 = time.perf_counter()
            outer()
            t2 = time.perf_counter()
            for _ in range(count):
                inner()
            t3 = time.perf_counter()
            probe.end_pass(1.0, 1.0)
            probe.pass_spans.clear()
            timings["bare"].append(t1 - t0)
            timings["fold"].append(t2 - t1)
            timings["span"].append(t3 - t2)
        bare = min(timings["bare"])
        fold = max(0.0, (min(timings["fold"]) - bare) / count)
        per_span = max(0.0, (min(timings["span"]) - bare) / count)
        return fold, per_span


def _union_length(intervals) -> float:
    """Total length covered by a set of (start, end) intervals."""
    total = 0.0
    reach = None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total
