"""Span tracing installed from outside the package.

Every public function of a layer is replaced, at each module attribute or
class attribute that binds it, by a wrapper that records a span: function
id, parent span, start and end. Nothing under src/ changes. Self time is a
span's duration minus the durations of its direct children, so the self
times of all spans add up to the durations of the root spans.

Aggregates (calls, self time) cover every span; the span log itself is kept
in memory up to SPAN_LOG_CAP entries and written out when tracing ends.
"""

from __future__ import annotations

import importlib
import time
from array import array

# layer -> wrapped functions; a dotted name is a class attribute
LAYERS = {
    "cli": ("main", "build_parser"),
    "ga": ("run", "step_generation", "Lfsr16.next_word", "lfsr_next",
           "roulette_select", "crossover", "mutate", "apply_elitism",
           "init_population"),
    "problems": ("parse_tsplib", "TspFitness.__init__", "TspFitness.__call__",
                 "lehmer_decode"),
    "flc": ("load_spec", "validate_spec", "infer", "active_rules", "active_pair",
            "membership", "antecedent_weight"),
    "flcref": ("lift", "infer_real", "membership_real", "quantization_bound"),
    "fixedq": ("quantize",),
    "tracksim": ("simulate", "interpolate_path", "closest_point", "tracking_errors",
                 "spatial_window_command", "step_kinematics", "path_distance",
                 "TraceLog.to_csv_text"),
}

# Bindings left unwrapped. flcref imports flc.membership by name and calls
# it about 115k times per 4-input / 12-bit quantization_bound; with a span
# per call there the traced flc-eval pass took 2.35x the untraced one
# (against 1.02x without), so that call site is charged to
# quantization_bound's self time instead.
SKIP_SITES = {("fuzzychip.flcref", "membership")}

SPAN_LOG_CAP = 200_000


def metric_name(layer: str, qualname: str) -> str:
    """`TspFitness.__init__` -> `problems.TspFitness.init`."""
    return f"{layer}.{qualname.replace('__', '')}"


class Tracer:
    """Span recorder. Extra span names (the benchmark's own code) are
    registered with span_id and entered with span()."""

    def __init__(self):
        self.names: list[str] = []
        self.calls: list[int] = []
        self.self_s: list[float] = []
        # one [child seconds] cell per open span; the sentinel absorbs roots
        self._stack: list[list[float]] = [[0.0]]
        self._open: list[int] = [-1]
        self.log_fn = array("i")
        self.log_parent = array("i")
        self.log_start = array("d")
        self.log_end = array("d")
        self.dropped = 0
        self.t0 = time.perf_counter()
        self._patches: list[tuple[object, str, object]] = []

    def span_id(self, name: str) -> int:
        self.names.append(name)
        self.calls.append(0)
        self.self_s.append(0.0)
        return len(self.names) - 1

    def _enter(self, fid: int):
        idx = len(self.log_fn)
        if idx < SPAN_LOG_CAP:
            self.log_fn.append(fid)
            self.log_parent.append(self._open[-1])
            self.log_end.append(0.0)
        else:
            idx = -1
        cell = [0.0]
        self._stack.append(cell)
        self._open.append(idx)
        start = time.perf_counter()
        if idx >= 0:
            self.log_start.append(start - self.t0)
        return cell, start

    def _exit(self, fid: int, cell, start: float) -> None:
        end = time.perf_counter()
        self._stack.pop()
        idx = self._open.pop()
        dur = end - start
        self._stack[-1][0] += dur
        self.self_s[fid] += dur - cell[0]
        self.calls[fid] += 1
        if idx >= 0:
            self.log_end[idx] = end - self.t0
        else:
            self.dropped += 1

    def span(self, fid: int):
        return _Span(self, fid)

    def wrap(self, fn, fid: int, observe=None):
        enter, leave = self._enter, self._exit

        def wrapper(*args, **kwargs):
            cell, start = enter(fid)
            try:
                result = fn(*args, **kwargs)
            finally:
                leave(fid, cell, start)
            if observe is not None:
                observe(args, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", "wrapper")
        wrapper.__doc__ = fn.__doc__
        return wrapper

    # ---- installation ----

    def install(self, observers: dict | None = None) -> None:
        """Wrap every LAYERS function at every binding in the package."""
        observers = observers or {}
        pkg = importlib.import_module("fuzzychip")
        mods = [pkg] + [importlib.import_module(f"fuzzychip.{m}") for m in LAYERS]
        for layer, qualnames in LAYERS.items():
            home = importlib.import_module(f"fuzzychip.{layer}")
            for qualname in qualnames:
                name = metric_name(layer, qualname)
                fid = self.span_id(name)
                if "." in qualname:
                    cls_name, attr = qualname.split(".")
                    cls = getattr(home, cls_name)
                    orig = cls.__dict__[attr]
                    self._patch(cls, attr, self.wrap(orig, fid, observers.get(name)))
                    continue
                orig = getattr(home, qualname)
                wrapper = self.wrap(orig, fid, observers.get(name))
                for mod in mods:
                    for attr, value in list(vars(mod).items()):
                        if value is orig and (mod.__name__, attr) not in SKIP_SITES:
                            self._patch(mod, attr, wrapper)

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    def patched_sites(self) -> list[str]:
        return sorted(f"{getattr(o, '__name__', o)}.{a}" for o, a, _ in self._patches)

    # ---- results ----

    def totals(self) -> dict[str, tuple[int, float]]:
        return {n: (c, s) for n, c, s in zip(self.names, self.calls, self.self_s)}

    def write_spans(self, path) -> None:
        """CSV: span index, name, parent span index (-1 for a root, or a
        parent past the log cap), start and end seconds from tracer start."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span,name,parent,start_s,end_s\n")
            for i, (fid, parent, start, end) in enumerate(zip(
                    self.log_fn, self.log_parent, self.log_start, self.log_end)):
                fh.write(f"{i},{self.names[fid]},{parent},{start:.9f},{end:.9f}\n")
            if self.dropped:
                fh.write(f"# {self.dropped} later spans counted in the totals only\n")


class _Span:
    __slots__ = ("tracer", "fid", "cell", "start")

    def __init__(self, tracer: Tracer, fid: int):
        self.tracer = tracer
        self.fid = fid

    def __enter__(self):
        self.cell, self.start = self.tracer._enter(self.fid)
        return self

    def __exit__(self, *exc):
        self.tracer._exit(self.fid, self.cell, self.start)
        return False
