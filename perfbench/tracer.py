"""In-memory span recorder for the traced benchmark run.

A span is (name, start, end, parent, operation id).  Spans are opened by
wrappers that the benchmark installs around public functions of the hopfvar
modules, at the place where the caller looks the name up (a module global or
a class attribute), so nothing under src/ changes.  Spans stay in memory
until the run ends and are then written out in one file.

A span's self time is its duration minus the part of its interval covered by
its child spans.
"""

from __future__ import annotations

import gzip
import json
import threading
from array import array
from contextlib import contextmanager
from time import perf_counter


class Tracer:
    """Spans of one run.  Once it holds span_cap spans it reports itself
    full, and the run starts no new pass."""

    def __init__(self, span_cap: int = 500_000):
        self.span_cap = span_cap
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("l")
        self.parent = array("l")
        self.op = array("l")
        self.start = array("d")
        self.end = array("d")
        self.attrs: dict[int, dict] = {}
        self.op_kinds: list[str] = []
        self._current_op = -1
        self._lock = threading.Lock()
        self._local = threading.local()

    @property
    def full(self) -> bool:
        return len(self.name) >= self.span_cap

    def name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, attrs: dict | None = None) -> int:
        stack = self._stack()
        with self._lock:
            idx = len(self.name)
            self.name.append(self.name_id(name))
            self.parent.append(stack[-1] if stack else -1)
            self.op.append(self._current_op)
            self.start.append(perf_counter())
            self.end.append(0.0)
            if attrs:
                self.attrs[idx] = attrs
        stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack().pop()

    @contextmanager
    def operation(self, kind: str):
        """Root span of one benchmark operation; spans opened inside carry
        its id."""
        self._current_op = len(self.op_kinds)
        self.op_kinds.append(kind)
        idx = self.open("op")
        try:
            yield
        finally:
            self.close(idx)
            self._current_op = -1

    def wrap(self, fn, name, attrs=None):
        """Wrap fn so each call records a span.

        name is a string or a function of fn's arguments giving one; attrs,
        if given, is a function of fn's arguments giving a dict kept with
        the span.
        """
        def wrapper(*args, **kwargs):
            label = name if isinstance(name, str) else name(*args, **kwargs)
            idx = self.open(label, attrs(*args, **kwargs) if attrs else None)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(idx)
        return wrapper

    def self_times(self) -> list[float]:
        """Self time of every span: duration minus the union of its
        children's intervals, clipped to its own interval."""
        children: dict[int, list[int]] = {}
        for idx, par in enumerate(self.parent):
            if par >= 0:
                children.setdefault(par, []).append(idx)
        out = [e - s for s, e in zip(self.start, self.end)]
        for par, kids in children.items():
            lo, hi = self.start[par], self.end[par]
            covered = 0.0
            run_lo = run_hi = None
            for s, e in sorted((max(self.start[k], lo), min(self.end[k], hi))
                               for k in kids):
                if e <= s:
                    continue
                if run_hi is None or s > run_hi:
                    if run_hi is not None:
                        covered += run_hi - run_lo
                    run_lo, run_hi = s, e
                else:
                    run_hi = max(run_hi, e)
            if run_hi is not None:
                covered += run_hi - run_lo
            out[par] -= covered
        return out

    def write(self, path) -> None:
        """Write every span, columnar, as gzip-compressed JSON."""
        doc = {
            "names": self.names,
            "op_kinds": self.op_kinds,
            "name": self.name.tolist(),
            "parent": self.parent.tolist(),
            "op": self.op.tolist(),
            "start": self.start.tolist(),
            "end": self.end.tolist(),
            "attrs": {str(k): v for k, v in self.attrs.items()},
        }
        with gzip.open(path, "wt", compresslevel=1) as fh:
            json.dump(doc, fh, separators=(",", ":"))


@contextmanager
def patched(targets, tracer: Tracer):
    """Install tracer wrappers for (owner, attribute, name, attrs) targets,
    restoring the originals on exit."""
    saved = []
    try:
        for owner, attr, name, attrs in targets:
            original = getattr(owner, attr)
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(original, name, attrs))
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
