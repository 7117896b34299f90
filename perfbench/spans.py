"""Span tracing of rtbsim from outside the program.

``Tracer.install`` replaces each traced function of the rtbsim modules with
a wrapper, at the module attribute and at every other module attribute
bound to the same object (the names ``cli``, ``stats``, ``models`` and
others import directly).  Calls inside a module go through its globals, so
they are traced too.  Each wrapper records a span (name, start, end,
parent) in memory and the counts behind ``EXTRA_METRICS``; ``uninstall``
puts the originals back.  A layer is a module, and its self time is the
time of its spans minus the time of their child spans.
"""

from __future__ import annotations

import inspect
import time
from array import array
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

LAYERS = ("cli", "logdata", "synthgen", "stats", "features", "models", "bidding", "replay", "kernels")

# Kernel dispatch names: numba dispatchers are not plain functions, so the
# kernels are listed by name rather than found by inspection.
KERNELS = ("win_scan", "sgd_epoch", "grow_tree", "apply_tree")

# Methods traced besides module functions: (module, class, method).
METHODS = (
    ("replay", "ReplayData", "from_cases"),
    ("replay", "ExperimentTables", "write"),
    ("models", "CtrScorer", "score_cases"),
    ("models", "CtrScorer", "save"),
    ("models", "CtrScorer", "load"),
    ("features", "Vocabulary", "save"),
    ("features", "Vocabulary", "load"),
    ("features", "CategoryEncodings", "save"),
    ("features", "CategoryEncodings", "load"),
)

# Per-layer metrics beyond <layer>.self_s and <layer>.calls, with units.
EXTRA_METRICS = {
    "cli.load_cases.calls": "count",
    "logdata.records": "count",
    "stats.cases_scanned": "count",
    "features.rows_encoded": "count",
    "features.derive_per_case": "1",
    "models.sgd_updates": "count",
    "models.trees_grown": "count",
    "models.predict.rows_per_call": "rows/call",
    "kernels.win_scan_s": "s",
    "kernels.sgd_epoch_s": "s",
    "kernels.grow_tree_s": "s",
    "kernels.apply_tree_s": "s",
    "kernels.apply_tree.rows_per_call": "rows/call",
    "bidding.tune.calls": "count",
    "replay.cases_replayed": "count",
    "replay.from_cases.calls": "count",
    "replay.from_cases_per_list": "1",
    "trace.overhead_pct": "%",
}


def per_layer_units() -> dict[str, str]:
    units = {}
    for layer in LAYERS:
        units[f"{layer}.self_s"] = "s"
        units[f"{layer}.calls"] = "count"
    units.update(EXTRA_METRICS)
    return units


def _rows(x) -> int:
    """Rows in a model input: a SparseBatch, a matrix, or one vector."""
    if hasattr(x, "indptr"):
        return len(x.indptr) - 1
    shape = getattr(x, "shape", None)
    return shape[0] if shape is not None and len(shape) == 2 else 1


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_id: dict[str, int] = {}
        self.layer_of: list[str] = []
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("q")
        self.stack: list[int] = []  # open span ids
        self.child_time: list[float] = []  # per open span, time of closed children
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)
        self.derived_ids: set[str] = set()
        self.case_lists: dict[int, object] = {}  # id -> list, held so ids stay unique
        self._patches: list[tuple[object, str, object]] = []
        self.paused = False  # set while the benchmark runs its own checks

    # -- recording ---------------------------------------------------------

    def _intern(self, name: str, layer: str) -> int:
        nid = self.name_id.get(name)
        if nid is None:
            nid = self.name_id[name] = len(self.names)
            self.names.append(name)
            self.layer_of.append(layer)
        return nid

    def _open(self, nid: int) -> int:
        sid = len(self.start)
        self.name.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.end.append(0.0)
        self.stack.append(sid)
        self.child_time.append(0.0)
        self.start.append(time.perf_counter())
        return sid

    def _close(self, sid: int, nid: int) -> None:
        t = time.perf_counter()
        self.end[sid] = t
        dur = t - self.start[sid]
        self.stack.pop()
        child = self.child_time.pop()
        if self.child_time:
            self.child_time[-1] += dur
        name = self.names[nid]
        self.self_s[self.layer_of[nid]] += dur - child
        self.total_s[name] += dur

    def _count(self, name: str, args) -> None:
        c = self.counts
        if name == "logdata.parse_record":
            c["logdata.records"] += 1
        elif name == "stats.feature_breakdown":
            c["stats.cases_scanned"] += len(args[0])
        elif name in ("features.binarize", "features.densify"):
            c["features.rows_encoded"] += 1
        elif name == "features.derive_fields":
            c["features.derive_fields"] += 1
            self.derived_ids.add(args[0].bid_id)
        elif name == "kernels.sgd_epoch":
            c["models.sgd_updates"] += args[4].shape[0]
        elif name == "kernels.grow_tree":
            c["models.trees_grown"] += 1
        elif name == "models.predict":
            c["models.predict.rows"] += _rows(args[1])
        elif name == "kernels.apply_tree":
            c["kernels.apply_tree.rows"] += args[0].shape[0]
        elif name == "replay.simulate":
            c["replay.cases_replayed"] += len(args[0])
        elif name == "replay.ReplayData.from_cases":
            cases = args[1]  # args[0] is the class
            self.case_lists.setdefault(id(cases), cases)

    def _wrap(self, fn, name: str, layer: str):
        nid = self._intern(name, layer)
        tracer = self

        if inspect.isgeneratorfunction(fn):
            # The span stays open across yields.  load_log, the one traced
            # generator, is only ever drained by list.extend, so no traced
            # call runs between its yields.
            def gen_wrapper(*args, **kwargs):
                if tracer.paused:
                    yield from fn(*args, **kwargs)
                    return
                tracer.calls[name] += 1
                sid = tracer._open(nid)
                try:
                    yield from fn(*args, **kwargs)
                finally:
                    tracer._close(sid, nid)
            gen_wrapper.__wrapped__ = fn
            return gen_wrapper

        def wrapper(*args, **kwargs):
            if tracer.paused:
                return fn(*args, **kwargs)
            tracer.calls[name] += 1
            tracer._count(name, args)
            sid = tracer._open(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(sid, nid)
        wrapper.__wrapped__ = fn
        return wrapper

    @contextmanager
    def region(self, name: str):
        """A span of the benchmark itself (layer ``bench``), e.g. one pass."""
        nid = self._intern(f"bench.{name}", "bench")
        sid = self._open(nid)
        try:
            yield
        finally:
            self._close(sid, nid)

    @contextmanager
    def pause(self):
        self.paused = True
        try:
            yield
        finally:
            self.paused = False

    # -- installation ------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self, package) -> None:
        modules = {layer: getattr(package, layer) for layer in LAYERS}
        originals: dict[int, tuple] = {}  # id(original) -> (original, wrapper)
        for layer, mod in modules.items():
            names = KERNELS if layer == "kernels" else sorted(
                n for n, obj in vars(mod).items()
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and not n.startswith("_")
            )
            for attr in names:
                fn = getattr(mod, attr)
                if id(fn) not in originals:
                    originals[id(fn)] = (fn, self._wrap(fn, f"{layer}.{attr}", layer))
        # Rebind every module attribute that holds a traced original, so
        # names imported with ``from .x import f`` are traced as well.
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                hit = originals.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._set(mod, attr, hit[1])
        for layer, cls_name, meth in METHODS:
            cls = getattr(modules[layer], cls_name)
            raw = cls.__dict__[meth]
            name = f"{layer}.{cls_name}.{meth}"
            if isinstance(raw, classmethod):
                self._set(cls, meth, classmethod(self._wrap(raw.__func__, name, layer)))
            else:
                self._set(cls, meth, self._wrap(raw, name, layer))

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._patches):
            setattr(owner, attr, value)
        self._patches.clear()

    # -- reporting ---------------------------------------------------------

    def layer_calls(self) -> dict[str, int]:
        out = {layer: 0 for layer in LAYERS}
        for name, n in self.calls.items():
            out[name.split(".", 1)[0]] += n
        return out

    def metrics(self, overhead_pct: float) -> dict[str, float]:
        m: dict[str, float] = {}
        calls = self.layer_calls()
        for layer in LAYERS:
            m[f"{layer}.self_s"] = self.self_s.get(layer, 0.0)
            m[f"{layer}.calls"] = calls[layer]
        c, n = self.counts, self.calls
        m["cli.load_cases.calls"] = n.get("cli.load_cases", 0)
        m["logdata.records"] = c.get("logdata.records", 0)
        m["stats.cases_scanned"] = c.get("stats.cases_scanned", 0)
        m["features.rows_encoded"] = c.get("features.rows_encoded", 0)
        m["features.derive_per_case"] = _ratio(c.get("features.derive_fields", 0), len(self.derived_ids))
        m["models.sgd_updates"] = c.get("models.sgd_updates", 0)
        m["models.trees_grown"] = c.get("models.trees_grown", 0)
        m["models.predict.rows_per_call"] = _ratio(c.get("models.predict.rows", 0), n.get("models.predict", 0))
        for k in KERNELS:
            m[f"kernels.{k}_s"] = self.total_s.get(f"kernels.{k}", 0.0)
        m["kernels.apply_tree.rows_per_call"] = _ratio(
            c.get("kernels.apply_tree.rows", 0), n.get("kernels.apply_tree", 0))
        m["bidding.tune.calls"] = n.get("bidding.tune", 0)
        m["replay.cases_replayed"] = c.get("replay.cases_replayed", 0)
        m["replay.from_cases.calls"] = n.get("replay.ReplayData.from_cases", 0)
        m["replay.from_cases_per_list"] = _ratio(m["replay.from_cases.calls"], len(self.case_lists))
        m["trace.overhead_pct"] = overhead_pct
        return {k: float(v) for k, v in m.items()}

    def function_table(self) -> list[tuple[str, int, float]]:
        """(function, calls, total seconds), busiest first."""
        rows = [(name, self.calls.get(name, 0), self.total_s.get(name, 0.0)) for name in self.names]
        return sorted(rows, key=lambda r: -r[2])

    def save_spans(self, path) -> None:
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
        )


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0
