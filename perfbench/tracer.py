"""Layer tracing from outside the package.

The tracer replaces public functions of the liftconv layers with thin
wrappers, at every module attribute that holds them (the names the
calling modules imported) and on the classes that own them. Each call
becomes a span: function, span id, parent span id, start, end and self
time (duration minus the time of wrapped calls made inside it). Spans
are kept in memory in flat arrays and written out when the run ends.

Worker processes forked while the wrappers are installed inherit them.
After a fork the child starts an empty span buffer and appends it to
``spans-<pid>.bin`` in the trace directory each time its outermost
wrapped call returns, since pool workers end without running exit
hooks. ``uninstall`` puts every original object back.
"""

from __future__ import annotations

import functools
import glob
import json
import os
import sys
from array import array
from time import perf_counter

import numpy as np

# Layer functions wrapped in a traced run: (module, attribute path).
# fourier is reached only through measurement and models, so its time is
# their self time; bounds is closed-form and not on any workload's path.
TARGETS = (
    ("measurement", "forward"),
    ("measurement", "partial_forward"),
    ("measurement", "PartialMap.apply"),
    ("measurement", "PartialMap.adjoint"),
    ("measurement", "adjoint_apply"),
    ("measurement", "Ensemble.generate"),
    ("models", "sample_model"),
    ("models", "project_flat"),
    ("models", "hard_threshold"),
    ("models", "orthogonalize_pair"),
    ("concentration", "estimate_rap"),
    ("concentration", "estimate_rop"),
    ("concentration", "isotropy_check"),
    ("solver", "recover"),
    ("cli", "parse_config"),
    ("cli", "run_sweep"),
    ("cli", "_execute_cell"),
    ("util", "rng_for"),
)

PACKAGE = "liftconv"

SPAN_DTYPE = np.dtype([
    ("fn", "<i4"), ("id", "<i8"), ("parent", "<i8"),
    ("start", "<f8"), ("end", "<f8"), ("self", "<f8"),
])


def target_names() -> list:
    return [f"{mod}.{attr}" for mod, attr in TARGETS]


class Tracer:
    """Installs span-recording wrappers on the liftconv layers."""

    def __init__(self, out_dir: str):
        self.out_dir = out_dir
        self.names = target_names()
        self.installed = False
        self.main_pid = os.getpid()
        self._restore: list = []
        self._reset_buffers()
        os.register_at_fork(after_in_child=self._after_fork)

    def _reset_buffers(self):
        self.pid = os.getpid()
        self._fn = array("i")
        self._id = array("q")
        self._parent = array("q")
        self._start = array("d")
        self._end = array("d")
        self._self = array("d")
        self._stack: list = []  # [span id, time spent in wrapped children]
        self._next_id = 0

    # -- wrapping -------------------------------------------------------------

    def _make_wrapper(self, fn_id: int, func):
        tracer = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            stack = tracer._stack
            span_id = tracer._next_id
            tracer._next_id += 1
            parent = stack[-1][0] if stack else -1
            frame = [span_id, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                return func(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                dur = end - start
                if stack:
                    stack[-1][1] += dur
                tracer._fn.append(fn_id)
                tracer._id.append(span_id)
                tracer._parent.append(parent)
                tracer._start.append(start)
                tracer._end.append(end)
                tracer._self.append(dur - frame[1])
                if not stack and tracer.pid != tracer.main_pid:
                    tracer._flush_child()

        return wrapper

    def install(self):
        """Wrap every target wherever a liftconv module or class holds it."""
        if self.installed:
            raise RuntimeError("tracer already installed")
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]
        for fn_id, (mod_name, attr) in enumerate(TARGETS):
            owner = sys.modules[f"{PACKAGE}.{mod_name}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._make_wrapper(fn_id, raw.__func__))
                else:
                    wrapped = self._make_wrapper(fn_id, raw)
                self._restore.append((cls, meth, raw))
                setattr(cls, meth, wrapped)
                continue
            original = getattr(owner, attr)
            wrapper = self._make_wrapper(fn_id, original)
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, name, original))
                        setattr(mod, name, wrapper)
        self.installed = True

    def uninstall(self):
        """Put every original function, method and classmethod back."""
        for owner, name, original in reversed(self._restore):
            setattr(owner, name, original)
        self._restore = []
        self.installed = False

    def _after_fork(self):
        if self.installed:
            self._reset_buffers()

    # -- output ---------------------------------------------------------------

    def _spans(self) -> np.ndarray:
        out = np.empty(len(self._fn), dtype=SPAN_DTYPE)
        out["fn"] = self._fn
        out["id"] = self._id
        out["parent"] = self._parent
        out["start"] = self._start
        out["end"] = self._end
        out["self"] = self._self
        return out

    def _flush_child(self):
        with open(os.path.join(self.out_dir, f"spans-{self.pid}.bin"), "ab") as fh:
            self._spans().tofile(fh)
        self._reset_buffers()

    def write(self) -> dict:
        """Write this process's spans and the name table; return all spans by pid."""
        os.makedirs(self.out_dir, exist_ok=True)
        self._spans().tofile(os.path.join(self.out_dir, f"spans-{self.pid}.bin"))
        with open(os.path.join(self.out_dir, "span_names.json"), "w") as fh:
            json.dump({"names": self.names, "dtype": SPAN_DTYPE.descr,
                       "main_pid": self.pid}, fh)
        return read_spans(self.out_dir)

    def clear_dir(self):
        os.makedirs(self.out_dir, exist_ok=True)
        for path in glob.glob(os.path.join(self.out_dir, "spans-*.bin")):
            os.remove(path)


def read_spans(out_dir: str) -> dict:
    out = {}
    for path in sorted(glob.glob(os.path.join(out_dir, "spans-*.bin"))):
        pid = int(os.path.basename(path)[len("spans-"):-len(".bin")])
        out[pid] = np.fromfile(path, dtype=SPAN_DTYPE)
    return out


def layer_totals(spans_by_pid: dict, names: list) -> dict:
    """Per target: calls, summed self time, summed and largest duration."""
    calls = np.zeros(len(names), dtype=np.int64)
    self_s = np.zeros(len(names))
    total_s = np.zeros(len(names))
    max_s = np.zeros(len(names))
    for spans in spans_by_pid.values():
        fn = spans["fn"]
        dur = spans["end"] - spans["start"]
        calls += np.bincount(fn, minlength=len(names))
        self_s += np.bincount(fn, weights=spans["self"], minlength=len(names))
        total_s += np.bincount(fn, weights=dur, minlength=len(names))
        np.maximum.at(max_s, fn, dur)
    return {name: {"calls": int(calls[i]), "self_s": float(self_s[i]),
                   "total_s": float(total_s[i]), "max_s": float(max_s[i])}
            for i, name in enumerate(names)}
