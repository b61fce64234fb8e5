"""In-memory span tracer for the benchmark's traced runs.

Each wrapped callee is replaced, for the duration of one recording, at the
name its caller looks it up by (``smctune.tuning.band_rms`` is the name
``tune`` calls, ``smctune.cli.write_trace_csv`` the one ``cmd_simulate``
calls). A wrapper records one span (name, start, end, parent, root, failed)
per call and re-raises whatever the callee raised. Nothing inside ``src/`` is
edited. A name that no longer exists is skipped and listed in ``missing``, so
the benchmark keeps running after the program's internals change.

The program is single-threaded and has no queues, so no layer waits on
another: spans nest strictly and there is no waiting time to report.
"""
from __future__ import annotations

import functools
import importlib
import time
from contextlib import contextmanager

# (owner, attribute, span name). The owner is a module, or "module:Class" for
# a method. Several callees may share one span name; the layer is the span
# name's prefix.
WRAPPED = (
    ("smctune.cli", "main", "cli.main"),
    ("smctune.cli", "_write_json", "cli.output_write"),
    ("smctune.cli", "export_mesh", "cli.output_write"),
    ("smctune.tuning:TuningResult", "to_json", "cli.output_write"),
    ("smctune.cli", "load_building_config", "structure.load"),
    ("smctune.cli", "plant_from_setup", "structure.load"),
    ("smctune.structure", "load_building_config", "structure.load"),
    ("smctune.structure", "plant_from_setup", "structure.load"),
    ("smctune.cli", "load_tuning_config", "tuning.load_config"),
    ("smctune.cli", "tune", "tuning.tune"),
    ("smctune.tuning", "tune", "tuning.tune"),
    ("smctune.tuning", "design_sliding_controller", "smc.design"),
    ("smctune.tuning", "switching_gain", "smc.switching_gain"),
    ("smctune.tuning", "transfer_zeros", "freqresp.zeros"),
    ("smctune.tuning", "build_transfer_functions", "freqresp.tf_build"),
    ("smctune.tuning", "band_rms", "freqresp.band"),
    ("smctune.tuning", "band_peak", "freqresp.band"),
    ("smctune.cli", "solve_lqr", "lqr.solve"),
    ("smctune.lqr", "solve_lqr", "lqr.solve"),
    ("smctune.cli", "load_accelerogram", "sim.load_accelerogram"),
    ("smctune.sim", "load_accelerogram", "sim.load_accelerogram"),
    ("smctune.cli", "simulate", "sim.simulate"),
    ("smctune.sim", "simulate", "sim.simulate"),
    ("smctune.cli", "summarize", "sim.summarize"),
    ("smctune.sim", "summarize", "sim.summarize"),
    ("smctune.cli", "write_trace_csv", "sim.trace_write"),
)


# A span is a list [name, start, end, parent, root, failed]; parent and root
# are indexes into Tracer.spans, parent -1 for a root span. Lists keep the
# wrapper's own cost to a few microseconds per call.
NAME, START, END, PARENT, ROOT, FAILED = range(6)


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def _resolve_owner(owner: str):
    module_name, _, class_name = owner.partition(":")
    try:
        obj = importlib.import_module(module_name)
    except ImportError:
        return None
    return getattr(obj, class_name, None) if class_name else obj


class Tracer:
    """Records spans while a ``recording`` block is open; wrappers are
    installed on entry and the original callees restored on exit."""

    def __init__(self):
        self.spans: list[list] = []
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._installed: list[tuple[object, str, object]] = []
        self._checked = False

    def _open(self, name: str) -> list:
        stack = self._stack
        index = len(self.spans)
        span = [name, 0.0, 0.0, stack[-1] if stack else -1,
                stack[0] if stack else index, False]
        self.spans.append(span)
        stack.append(index)
        span[START] = time.perf_counter()
        return span

    def _close(self, span: list, failed: bool) -> None:
        span[END] = time.perf_counter()
        span[FAILED] = failed
        self._stack.pop()

    def _wrapper(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self._close(span, True)
                raise
            self._close(span, False)
            return result
        return wrapper

    def _install(self) -> None:
        for owner_name, attr, span_name in WRAPPED:
            owner = _resolve_owner(owner_name)
            original = getattr(owner, attr, None) if owner is not None else None
            if not callable(original):
                if not self._checked:
                    self.missing.append(f"{owner_name}.{attr}")
                continue
            self._installed.append((owner, attr, original))
            setattr(owner, attr, self._wrapper(span_name, original))
        self._checked = True

    def _uninstall(self) -> None:
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    @contextmanager
    def recording(self, root_name: str):
        """Trace one set-up or operation under a root span of this name."""
        self._install()
        span = self._open(root_name)
        failed = True
        try:
            yield
            failed = False
        finally:
            self._close(span, failed)
            self._uninstall()

    def write_csv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("id,parent,root,name,start_s,end_s,failed\n")
            for i, (name, start, end, parent, root, failed) in enumerate(self.spans):
                fh.write(f"{i},{parent},{root},{name},{start!r},{end!r},{int(failed)}\n")


class SpanStats:
    """Totals over the spans whose root span has a given name."""

    def __init__(self, tracer: Tracer, root_name: str):
        spans = tracer.spans
        child_seconds = [0.0] * len(spans)
        for span in spans:
            if span[PARENT] >= 0:
                child_seconds[span[PARENT]] += span[END] - span[START]
        self.calls: dict[str, int] = {}
        self.failed: dict[str, int] = {}
        self.seconds: dict[str, float] = {}
        self.layer_busy: dict[str, float] = {}
        self.layer_self: dict[str, float] = {}
        for i, (name, start, end, parent, root, failed) in enumerate(spans):
            if parent < 0 or spans[root][NAME] != root_name:
                continue
            seconds = end - start
            layer = layer_of(name)
            self.calls[name] = self.calls.get(name, 0) + 1
            self.failed[name] = self.failed.get(name, 0) + int(failed)
            self.seconds[name] = self.seconds.get(name, 0.0) + seconds
            self.layer_self[layer] = self.layer_self.get(layer, 0.0) + seconds - child_seconds[i]
            if layer_of(spans[parent][NAME]) != layer:  # outermost span of its layer
                self.layer_busy[layer] = self.layer_busy.get(layer, 0.0) + seconds
