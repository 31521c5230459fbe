"""Spans and counters around interaction_lab's layers, installed from outside.

Each wrap replaces a function or method where its callers look it up: a
function object is swapped in every interaction_lab module that holds it (so
`interaction_lab.cli.train`, imported by name, is wrapped as well as
`interaction_lab.training.train`), and a method on its class. Targets that a
later version of the program no longer has are skipped, and their metrics
read 0.

Every wrapped call opens a frame on a per-thread stack. On exit the frame's
duration goes to its parent frame, its self time (duration minus the time of
its wrapped children; children on other threads count by the union of their
intervals) goes to its layer, and its counters are added. Coarse frames are
also kept in memory as spans (name, start, end, span id, parent span id,
thread, run id) and written out when the run ends. Hot frames (called up to
millions of times per round) only feed the counters.
"""
from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import time
from collections import defaultdict
from math import comb

_PACKAGE = "interaction_lab"


class _Frame:
    __slots__ = ("key", "layer", "coarse", "parent", "thread", "start", "child",
                 "others", "span_id", "span_parent", "nested")

    def __init__(self, key, layer, coarse, parent, thread):
        self.key = key
        self.layer = layer
        self.coarse = coarse
        self.parent = parent
        self.thread = thread
        self.child = 0.0
        self.others = []
        self.span_id = None
        self.span_parent = None
        self.nested = False


def _union_length(intervals) -> float:
    total = 0.0
    end = float("-inf")
    for a, b in sorted(intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


def _rows(value) -> int:
    shape = getattr(value, "shape", None)
    return int(shape[0]) if shape else len(value)


def _mlp_work(model, rows: int, passes: int) -> tuple[int, int]:
    """flops and bytes of `passes` dense sweeps over rows (forward 1, backward 2)."""
    sizes = model.layer_sizes
    params = sum(a * b + b for a, b in zip(sizes, sizes[1:]))
    flops = passes * rows * sum(2 * a * b for a, b in zip(sizes, sizes[1:]))
    moved = passes * 8 * (params + rows * sum(a + b for a, b in zip(sizes, sizes[1:])))
    return flops, moved


# Counter callbacks: (args, kwargs) -> [(counter, amount), ...]

def _count_rows(name, position):
    def count(args, kwargs):
        return [(name, _rows(args[position]))]
    return count


def _count_forward(args, kwargs):
    rows = _rows(args[1])
    flops, moved = _mlp_work(args[0], rows, 1)
    return [("mlp.forward_rows", rows), ("mlp.flops", flops), ("mlp.bytes", moved)]


def _count_backward(args, kwargs):
    rows = _rows(args[2])
    flops, moved = _mlp_work(args[0], rows, 2)
    return [("mlp.backward_rows", rows), ("mlp.flops", flops), ("mlp.bytes", moved)]


def _count_masked(site):
    def count(args, kwargs):
        rows = len(args[1])
        out = [("games.masked_matrix_rows", rows)]
        if site == f"{_PACKAGE}.modulation":
            out.append(("modulation.masked_rows", rows))
        return out
    return count


def _count_evaluated(kind):
    def count(args, kwargs):
        rows = len(args[1])
        out = [("interactions.coalitions_evaluated", rows)]
        if kind == "polynomial":
            out.append(("games.polynomial_rows", rows))
        return out
    return count


def _count_pgd(args, kwargs):
    x = args[1]
    rows = 1 if getattr(x, "ndim", 2) == 1 else _rows(x)
    return [("attack.row_steps", rows * args[3].steps)]


def _count_simulate(args, kwargs):
    cfg, m = args[0], args[1]
    return [("theory.gaussian_draws", comb(cfg.n - 2, m) * cfg.k * cfg.trials)]


# (layer, key, module, attribute, class or None, coarse, counter factory or None).
# A counter factory takes the wrap site (module name) and returns a callback.
TARGETS = [
    ("cli", "cli.main", "cli", "main", None, True, None),
    ("training", "training.train", "training", "train", None, True, None),
    ("modulation", "modulation.value_and_grad", "modulation", "combined_value_and_grad",
     None, True, None),
    ("modulation", "modulation.verify_theorem2", "modulation", "verify_theorem2", None,
     True, None),
    ("games", "games.sample_subset", "games", "sample_subset", None, False, None),
    ("games", "games.masked_matrix", "games", "masked_matrix", None, False, _count_masked),
    ("games", "games.polynomial_evaluate", "games", "evaluate_many", "PolynomialGame",
     False, lambda site: _count_evaluated("polynomial")),
    ("games", "games.log_odds_evaluate", "interactions", "evaluate_many", "LogOddsGame",
     False, lambda site: _count_evaluated("log_odds")),
    ("interactions", "interactions.order_profile", "interactions", "order_profile", None,
     True, None),
    ("interactions", "interactions.order_strength", "interactions", "order_strength", None,
     True, None),
    ("interactions", "interactions.efficiency_residual", "interactions",
     "efficiency_residual", None, True, None),
    ("interactions", "interactions.order_exact", "interactions", "interaction_order_exact",
     None, False, None),
    ("interactions", "interactions.order_mc", "interactions", "interaction_order_mc", None,
     False, None),
    ("interactions", "interactions.cache_values", "interactions", "values", "ValueCache",
     False, lambda site: _count_rows("interactions.coalitions_requested", 1)),
    ("mlp", "mlp.forward", "mlp", "forward", "MLP", False, lambda site: _count_forward),
    ("mlp", "mlp.forward", "mlp", "forward_trace", "MLP", False, lambda site: _count_forward),
    ("mlp", "mlp.backward", "mlp", "backward", "MLP", False, lambda site: _count_backward),
    ("attack", "attack.pgd", "attack", "pgd_attack", None, True, lambda site: _count_pgd),
    ("theory", "theory.simulate", "theory", "simulate_curve", None, True, None),
    ("theory", "theory.simulate", "theory", "simulate_learning_strength", None, True,
     lambda site: _count_simulate),
    ("theory", "theory.curve", "theory", "theory_curve", None, True, None),
    ("theory", "theory.curve", "theory", "learning_strength_hat", None, False, None),
    ("rng", "rng.make_rng", "rng", "make_rng", None, False, None),
    ("rng", "rng.child_seed", "rng", "child_seed", None, False, None),
    ("datasets", "datasets.load", "datasets", "resolve_dataset", None, True, None),
    ("textio", "textio.io", "textio", "write_csv", None, True, None),
    ("textio", "textio.io", "textio", "read_csv", None, True, None),
    ("textio", "textio.io", "datasets", "load_dataset_csv", None, True, None),
    ("textio", "textio.io", "datasets", "write_dataset_csv", None, True, None),
    ("textio", "textio.io", "mlp", "save_model", None, True, None),
    ("textio", "textio.io", "mlp", "load_model", None, True, None),
]

# Per-layer metrics: name -> (unit, better). Times are seconds per round.
LAYER_METRICS = {
    "training.steps": ("count", "lower"),
    "training.train_s": ("s", "lower"),
    "training.self_s": ("s", "lower"),
    "modulation.value_and_grad_calls": ("count", "lower"),
    "modulation.value_and_grad_s": ("s", "lower"),
    "modulation.self_s": ("s", "lower"),
    "modulation.masked_rows": ("count", "lower"),
    "modulation.verify_theorem2_s": ("s", "lower"),
    "games.sample_subset_calls": ("count", "lower"),
    "games.sample_subset_s": ("s", "lower"),
    "games.subset_masks": ("count", "lower"),
    "games.masked_matrix_calls": ("count", "lower"),
    "games.masked_matrix_rows": ("count", "lower"),
    "games.masked_matrix_s": ("s", "lower"),
    "games.polynomial_rows": ("count", "lower"),
    "interactions.order_profile_s": ("s", "lower"),
    "interactions.self_s": ("s", "lower"),
    "interactions.coalitions_requested": ("count", "lower"),
    "interactions.coalitions_evaluated": ("count", "lower"),
    "interactions.evaluated_per_requested": ("ratio", "lower"),
    "interactions.evaluate_batches": ("count", "lower"),
    "interactions.efficiency_residual_s": ("s", "lower"),
    "mlp.forward_calls": ("count", "lower"),
    "mlp.forward_rows": ("count", "lower"),
    "mlp.forward_s": ("s", "lower"),
    "mlp.backward_calls": ("count", "lower"),
    "mlp.backward_rows": ("count", "lower"),
    "mlp.backward_s": ("s", "lower"),
    "mlp.flops": ("flop", "lower"),
    "mlp.bytes": ("B", "lower"),
    "attack.pgd_s": ("s", "lower"),
    "attack.row_steps": ("count", "lower"),
    "theory.simulate_s": ("s", "lower"),
    "theory.gaussian_draws": ("count", "lower"),
    "theory.curve_s": ("s", "lower"),
    "parallel.map_calls": ("count", "lower"),
    "parallel.tasks": ("count", "lower"),
    "parallel.workers": ("threads", "lower"),
    "parallel.map_s": ("s", "lower"),
    "rng.make_rng_calls": ("count", "lower"),
    "rng.child_seed_calls": ("count", "lower"),
    "rng.s": ("s", "lower"),
    "datasets.load_s": ("s", "lower"),
    "textio.io_s": ("s", "lower"),
    "cli.self_s": ("s", "lower"),
}


class Tracer:
    """Installs the wraps, keeps spans in memory and sums counters per round."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._installed = []
        self.reset()

    # ------------------------------------------------------------ accounting

    def reset(self) -> None:
        self.calls = defaultdict(int)
        self.busy = defaultdict(float)
        self.self_time = defaultdict(float)
        self.counts = defaultdict(int)

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _enter(self, key, layer, coarse, parent=None) -> _Frame:
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1]
        frame = _Frame(key, layer, coarse, parent, threading.get_ident())
        frame.nested = any(f.key == key for f in stack)
        if parent is not None:
            frame.span_parent = parent.span_id if parent.coarse else parent.span_parent
        if coarse:
            frame.span_id = next(self._ids)
        stack.append(frame)
        frame.start = time.perf_counter()
        return frame

    def _exit(self, frame: _Frame, counted) -> None:
        end = time.perf_counter()
        self._stack().pop()
        duration = end - frame.start
        own = duration - frame.child - _union_length(frame.others)
        parent = frame.parent
        if parent is not None:
            if parent.thread == frame.thread:
                parent.child += duration
            else:
                parent.others.append((frame.start, end))
        with self._lock:
            self.calls[frame.key] += 1
            self.self_time[frame.layer] += own
            if not frame.nested:
                self.busy[frame.key] += duration
            for name, amount in counted:
                self.counts[name] += amount
        if frame.coarse:
            self.spans.append((frame.key, frame.start, end, frame.span_id,
                               frame.span_parent, frame.thread, self.run_id))

    # ------------------------------------------------------------ wrapping

    def _wrapper(self, fn, key, layer, coarse, counter):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = tracer._enter(key, layer, coarse)
            try:
                return fn(*args, **kwargs)
            finally:
                counted = ()
                if counter is not None:
                    try:
                        counted = counter(args, kwargs)
                    except Exception:  # a changed signature must not break the program
                        counted = ()
                tracer._exit(frame, counted)
        return wrapper

    def _map_wrapper(self, fn, workers):
        """ordered_map: tasks run on worker threads as children of the map frame."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(task_fn, items, *args, **kwargs):
            frame = tracer._enter("parallel.map", "parallel", True)
            caller = frame.parent.layer if frame.parent is not None else "parallel"

            def task(item):
                child = tracer._enter("parallel.task", caller, False, parent=frame)
                try:
                    return task_fn(item)
                finally:
                    tracer._exit(child, ())
            try:
                return fn(task, items, *args, **kwargs)
            finally:
                try:
                    tasks = len(items)
                    counted = [("parallel.tasks", tasks),
                               ("parallel.worker_slots", min(workers(), tasks))]
                except Exception:  # a changed signature must not break the program
                    counted = ()
                tracer._exit(frame, counted)
        return wrapper

    def _count_masks(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with tracer._lock:
                tracer.counts["games.subset_masks"] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _replace_everywhere(self, original, make) -> None:
        for name, module in list(sys.modules.items()):
            if name != _PACKAGE and not name.startswith(_PACKAGE + "."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, make(name))
                    self._installed.append((module, attr, original))

    def install(self) -> None:
        modules = {name: sys.modules.get(f"{_PACKAGE}.{name}") for name in
                   ("cli", "training", "modulation", "games", "interactions", "mlp",
                    "attack", "theory", "rng", "datasets", "textio", "parallel")}
        for layer, key, mod, attr, cls, coarse, factory in TARGETS:
            owner = modules.get(mod)
            if cls is not None:
                owner = getattr(owner, cls, None)
            original = getattr(owner, attr, None)
            if owner is None or not callable(original):
                continue
            def make(site, original=original, key=key, layer=layer, coarse=coarse,
                     factory=factory):
                counter = factory(site) if factory else None
                return self._wrapper(original, key, layer, coarse, counter)
            if cls is not None:
                setattr(owner, attr, make(f"{_PACKAGE}.{mod}"))
                self._installed.append((owner, attr, original))
            else:
                self._replace_everywhere(original, make)
        parallel = modules.get("parallel")
        ordered_map = getattr(parallel, "ordered_map", None)
        if ordered_map is not None:
            workers = getattr(parallel, "worker_count", lambda: 1)
            self._replace_everywhere(ordered_map,
                                     lambda site: self._map_wrapper(ordered_map, workers))
        subset_mask = getattr(modules.get("games"), "SubsetMask", None)
        post_init = getattr(subset_mask, "__post_init__", None)
        if post_init is not None:
            setattr(subset_mask, "__post_init__", self._count_masks(post_init))
            self._installed.append((subset_mask, "__post_init__", post_init))

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------ results

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer metrics of everything recorded since the last reset."""
        calls, busy, own, counts = self.calls, self.busy, self.self_time, self.counts
        requested = counts["interactions.coalitions_requested"]
        evaluated = counts["interactions.coalitions_evaluated"]
        maps = calls["parallel.map"]
        return {
            "training.steps": calls["modulation.value_and_grad"],
            "training.train_s": busy["training.train"],
            "training.self_s": own["training"],
            "modulation.value_and_grad_calls": calls["modulation.value_and_grad"],
            "modulation.value_and_grad_s": busy["modulation.value_and_grad"],
            "modulation.self_s": own["modulation"],
            "modulation.masked_rows": counts["modulation.masked_rows"],
            "modulation.verify_theorem2_s": busy["modulation.verify_theorem2"],
            "games.sample_subset_calls": calls["games.sample_subset"],
            "games.sample_subset_s": busy["games.sample_subset"],
            "games.subset_masks": counts["games.subset_masks"],
            "games.masked_matrix_calls": calls["games.masked_matrix"],
            "games.masked_matrix_rows": counts["games.masked_matrix_rows"],
            "games.masked_matrix_s": busy["games.masked_matrix"],
            "games.polynomial_rows": counts["games.polynomial_rows"],
            "interactions.order_profile_s": busy["interactions.order_profile"],
            "interactions.self_s": own["interactions"],
            "interactions.coalitions_requested": requested,
            "interactions.coalitions_evaluated": evaluated,
            "interactions.evaluated_per_requested": evaluated / requested if requested else 0.0,
            "interactions.evaluate_batches": (calls["games.polynomial_evaluate"]
                                              + calls["games.log_odds_evaluate"]),
            "interactions.efficiency_residual_s": busy["interactions.efficiency_residual"],
            "mlp.forward_calls": calls["mlp.forward"],
            "mlp.forward_rows": counts["mlp.forward_rows"],
            "mlp.forward_s": busy["mlp.forward"],
            "mlp.backward_calls": calls["mlp.backward"],
            "mlp.backward_rows": counts["mlp.backward_rows"],
            "mlp.backward_s": busy["mlp.backward"],
            "mlp.flops": counts["mlp.flops"],
            "mlp.bytes": counts["mlp.bytes"],
            "attack.pgd_s": busy["attack.pgd"],
            "attack.row_steps": counts["attack.row_steps"],
            "theory.simulate_s": busy["theory.simulate"],
            "theory.gaussian_draws": counts["theory.gaussian_draws"],
            "theory.curve_s": busy["theory.curve"],
            "parallel.map_calls": maps,
            "parallel.tasks": counts["parallel.tasks"],
            "parallel.workers": counts["parallel.worker_slots"] / maps if maps else 0.0,
            "parallel.map_s": busy["parallel.map"],
            "rng.make_rng_calls": calls["rng.make_rng"],
            "rng.child_seed_calls": calls["rng.child_seed"],
            "rng.s": busy["rng.make_rng"] + busy["rng.child_seed"],
            "datasets.load_s": busy["datasets.load"],
            "textio.io_s": busy["textio.io"],
            "cli.self_s": own["cli"],
        }

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, span_id, parent, thread, run_id in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end, "id": span_id,
                                     "parent": parent, "thread": thread, "run": run_id}) + "\n")
