"""Span tracer for the benchmark's traced runs.

`instrument` wraps the package's public functions where other modules (and
the benchmark) reach them, so each call *into* a module opens a span.  Calls
a module makes to its own functions are not spanned; their time is the
caller's self time.  `topology` only does indexing, so its time counts
inside whichever layer called it (in practice `oracle`).

Spans carry name, layer, parent, start, end and the repetition id.
Consecutive calls with the same name under the same parent are merged into
one aggregate record, so the `step` calls between two snapshots become one
record and memory stays bounded by the number of snapshots, not steps.

`step` spans belong to the walk the benchmark is running (its `scope`:
quantum, classical, or oracle for the dense-oracle audit), so the per-layer
numbers survive an engine refactor that moves `step` to another module.
"""

from __future__ import annotations

import ast
import functools
import importlib
import inspect
import pkgutil
import statistics
import time
from contextlib import contextmanager

PACKAGE = "lollipop_walk"
# indexing only: its time stays in the calling layer
UNSPANNED_MODULES = {"topology"}
# steps up to here keep the light cone narrow; their mean is the fixed step cost
NARROW_STEPS = 2000
MODELS = ("quantum", "classical")


class Record:
    """One span, or a run of consecutive same-name sibling spans."""

    __slots__ = ("id", "parent", "layer", "name", "rep", "count",
                 "start_ns", "end_ns", "total_ns", "child_ns", "last_child")

    def __init__(self, rid, parent, layer, name, rep, start_ns):
        self.id = rid
        self.parent = parent
        self.layer = layer
        self.name = name
        self.rep = rep
        self.count = 0
        self.start_ns = start_ns
        self.end_ns = start_ns
        self.total_ns = 0
        self.child_ns = 0
        self.last_child = None

    def as_dict(self) -> dict:
        return {
            "id": self.id, "parent": self.parent, "layer": self.layer,
            "name": self.name, "rep": self.rep, "count": self.count,
            "start_ns": self.start_ns, "end_ns": self.end_ns,
            "total_ns": self.total_ns, "self_ns": self.total_ns - self.child_ns,
        }


class Tracer:
    def __init__(self):
        self.records: list[Record] = []
        self.stack = []  # [record, start_ns, child_ns] per open span
        self.patches = []  # (owner, attribute, original)
        self.rep = None
        self.scope = None
        self.cycle_size = 0
        self.t = 0
        self.counters: dict = {}
        self.last_state: dict = {}
        self.last_dist: dict = {}

    # --- spans -------------------------------------------------------------

    def open(self, layer: str, name: str) -> None:
        now = time.perf_counter_ns()
        parent = self.stack[-1][0] if self.stack else None
        prev = parent.last_child if parent is not None else None
        if prev is not None and prev.name == name and prev.layer == layer:
            rec = prev
        else:
            rec = Record(len(self.records), parent.id if parent else None,
                         layer, name, self.rep, now)
            self.records.append(rec)
            if parent is not None:
                parent.last_child = rec
        rec.count += 1
        self.stack.append([rec, now, 0])

    def close(self) -> int:
        rec, start, child = self.stack.pop()
        end = time.perf_counter_ns()
        duration = end - start
        rec.total_ns += duration
        rec.child_ns += child
        rec.end_ns = end
        if self.stack:
            self.stack[-1][2] += duration
        return duration

    @contextmanager
    def span(self, layer: str, name: str):
        self.open(layer, name)
        try:
            yield
        finally:
            self.close()

    # --- benchmark context -------------------------------------------------

    def launch(self, scope: str, cycle_size: int) -> None:
        """A fresh walk at t = 0 on an n-cycle starts; its steps go to `scope`."""
        self.scope = scope
        self.cycle_size = cycle_size
        self.t = 0

    def count(self, key: str, value) -> None:
        self.counters[key] = self.counters.get(key, 0) + value

    def begin_rep(self, rep: int) -> None:
        self.rep = rep
        self.counters = {}
        self.last_state.clear()
        self.last_dist.clear()

    # --- wrappers ----------------------------------------------------------

    def wrap(self, fn, layer: str, name: str):
        if name.startswith("make_"):
            keep = self.last_state.__setitem__
        elif name == "position_distribution":
            keep = self.last_dist.__setitem__
        elif name.startswith("build_dense_"):
            keep = self.keep_dimension
        else:
            keep = None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.open(layer, name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close()
            if keep is not None:
                keep(self.scope, result)
            return result

        return traced

    def keep_dimension(self, scope, op) -> None:
        self.counters["oracle.dimension"] = max(
            self.counters.get("oracle.dimension", 0), op.dimension
        )

    def wrap_step(self, fn):
        @functools.wraps(fn)
        def traced(state):
            scope = self.scope
            self.open(scope, "step")
            try:
                fn(state)
            finally:
                duration = self.close()
            self.t += 1
            self.count(f"{scope}.site_updates", self.cycle_size + self.t)
            if self.t <= NARROW_STEPS:
                self.count(f"{scope}.narrow_ns", duration)
                self.count(f"{scope}.narrow_steps", 1)

        return traced

    def instrument(self) -> None:
        """Wrap the package's public functions and engines' `step` methods."""
        package = importlib.import_module(PACKAGE)
        modules = {
            info.name: importlib.import_module(f"{PACKAGE}.{info.name}")
            for info in pkgutil.iter_modules(package.__path__)
        }
        wrappers = {}  # id(original) -> (original, wrapper, defining module)
        for stem, module in modules.items():
            if stem in UNSPANNED_MODULES:
                continue
            for name, obj in vars(module).items():
                if getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj) and not name.startswith("_"):
                    wrappers[id(obj)] = (obj, self.wrap(obj, layer_of(stem, name), name), module)
                elif inspect.isclass(obj) and inspect.isfunction(vars(obj).get("step")):
                    self.patch(obj, "step", self.wrap_step(vars(obj)["step"]))
        called_inside = {m: names_called_in_functions(m) for m in modules.values()}
        for namespace in (package, *modules.values()):
            for name, obj in list(vars(namespace).items()):
                entry = wrappers.get(id(obj))
                if entry is None or entry[0] is not obj:
                    continue
                original, wrapper, home = entry
                # a module's calls to its own functions stay unspanned
                if namespace is home and name in called_inside[home]:
                    continue
                self.patch(namespace, name, wrapper)

    def patch(self, owner, attribute: str, value) -> None:
        self.patches.append((owner, attribute, getattr(owner, attribute)))
        setattr(owner, attribute, value)

    def uninstrument(self) -> None:
        for owner, attribute, original in reversed(self.patches):
            setattr(owner, attribute, original)
        self.patches = []

    # --- per-layer metrics -------------------------------------------------

    def rep_metrics(self, rep: int, wall_s: float) -> tuple[dict, float]:
        """Per-layer metrics of one traced repetition, and the gap between
        the sum of all self times and the independently timed wall."""
        recs = [r for r in self.records if r.rep == rep]
        total = {}
        calls = {}
        layer_self = {}
        for r in recs:
            total[(r.layer, r.name)] = total.get((r.layer, r.name), 0) + r.total_ns
            calls[r.layer] = calls.get(r.layer, 0) + r.count
            layer_self[r.layer] = layer_self.get(r.layer, 0) + r.total_ns - r.child_ns

        def seconds(pred) -> float:
            return sum(ns for key, ns in total.items() if pred(*key)) / 1e9

        c = self.counters
        m = {}
        for model in MODELS:
            step_s = seconds(lambda layer, name: layer == model and name == "step")
            updates = c.get(f"{model}.site_updates", 0)
            narrow = c.get(f"{model}.narrow_steps", 0)
            dist = self.last_dist.get(model)
            state = self.last_state.get(model)
            m[f"{model}.step_s"] = step_s
            m[f"{model}.steps"] = sum(r.count for r in recs
                                      if r.layer == model and r.name == "step")
            m[f"{model}.ns_per_site_update"] = step_s * 1e9 / updates if updates else 0.0
            m[f"{model}.step_fixed_us"] = (
                c.get(f"{model}.narrow_ns", 0) / narrow / 1e3 if narrow else 0.0
            )
            m[f"{model}.live_site_share"] = live_site_share(dist)
            m[f"{model}.extent"] = state.extent if state is not None else 0
        m["driver.evolve_s"] = seconds(lambda layer, name: name.startswith("evolve_"))
        m["driver.self_s"] = layer_self.get("driver", 0) / 1e9
        m["observables.position_distribution_s"] = seconds(
            lambda layer, name: name == "position_distribution")
        m["observables.summarize_s"] = seconds(lambda layer, name: name == "summarize")
        m["observables.calls"] = calls.get("observables", 0)
        writer_s = 0.0
        for fmt in ("csv", "json", "svg"):
            s = seconds(lambda layer, name: layer == "output" and fmt in name)
            m[f"output.{fmt}_s"] = s
            writer_s += s
        m["output.files"] = c.get("output.files", 0)
        m["output.bytes"] = c.get("output.bytes", 0)
        m["output.mb_per_s"] = m["output.bytes"] / 1e6 / writer_s if writer_s else 0.0
        m["oracle.build_s"] = seconds(
            lambda layer, name: layer == "oracle" and name.startswith("build_"))
        m["oracle.defect_s"] = seconds(lambda layer, name: name == "unitarity_defect")
        m["oracle.compare_s"] = seconds(lambda layer, name: name == "compare_step")
        m["oracle.dimension"] = c.get("oracle.dimension", 0)
        m["cli.self_s"] = layer_self.get("cli", 0) / 1e9
        gap = sum(layer_self.values()) / 1e9 - wall_s
        return m, gap

    def dump(self) -> list[dict]:
        return [r.as_dict() for r in self.records]


def layer_of(stem: str, name: str) -> str:
    """Module stem without its leading underscore; evolve_* is the driver's."""
    return "driver" if name.startswith("evolve_") else stem.lstrip("_")


def names_called_in_functions(module) -> set[str]:
    """Names a module loads inside its own function bodies."""
    tree = ast.parse(inspect.getsource(module))
    found = set()
    for fn in ast.walk(tree):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            for node in ast.walk(fn):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    found.add(node.id)
    return found


def live_site_share(dist) -> float:
    """Half-line sites with nonzero probability over the light-cone width t."""
    if dist is None or dist.time == 0:
        return 0.0
    return int((dist.halfline_probs[1:] > 0).sum()) / dist.time


def median_metrics(per_rep: list[dict]) -> dict:
    return {k: statistics.median(m[k] for m in per_rep) for k in per_rep[0]}
