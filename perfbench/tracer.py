"""Outside-in tracer: wraps public ``paim`` functions where callers look them up.

Each wrapper records one span (name, start, end, parent) in flat arrays
held in memory; self time is derived afterwards as a span's duration
minus the durations of its direct child spans. Nothing under ``src/``
is modified: the wrappers replace module attributes (``paim.sampler.
cholesky``) and class attributes (``TargetDensity.log_density``) for the
duration of :meth:`Tracer.installed`, and the originals are restored on
exit. A wrapped name that no longer exists is reported as absent.
"""

from __future__ import annotations

import contextlib
import importlib
from array import array
from collections import defaultdict
from time import perf_counter
from typing import Callable, NamedTuple, Optional

import numpy as np


class Patch(NamedTuple):
    """One wrapped name.

    ``where`` is ``"module:attr"`` or ``"module:Class.attr"``. ``after``
    is passed to :meth:`Tracer.wrap`; ``inner(original)`` may return a
    replacement callable to wrap instead of the original.
    """

    layer: str
    where: str
    after: Optional[Callable] = None
    inner: Optional[Callable] = None


class Tracer:
    """Span store plus the patch table of one traced phase."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = [-1]
        self.counters: defaultdict[str, float] = defaultdict(float)
        self.absent: set[str] = set()
        self.present: set[str] = set()

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, name: str, fn, after=None):
        """Return ``fn`` wrapped in a span named ``name``.

        ``after(args, kwargs, result)`` runs outside the span, so work
        done to update counters is not charged to the layer.
        """
        nid = self._name_id(name)
        span_name, span_parent = self.span_name, self.span_parent
        span_start, span_end, stack = self.span_start, self.span_end, self._stack

        def traced(*args, **kwargs):
            i = len(span_start)
            span_name.append(nid)
            span_parent.append(stack[-1])
            span_start.append(0.0)
            span_end.append(0.0)
            stack.append(i)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                span_start[i] = t0
                span_end[i] = t1
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self, patches):
        """Patch every :class:`Patch` entry for the duration of the block.

        Entries whose target cannot be resolved are recorded in
        ``absent`` by layer name and skipped; the rest are restored on
        exit, in reverse order.
        """
        undo = []
        try:
            for patch in patches:
                owner, attr = _resolve(patch.where)
                if owner is None:
                    self.absent.add(patch.layer)
                    continue
                self.present.add(patch.layer)
                original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
                undo.append((owner, attr, original))
                inner = original if patch.inner is None else patch.inner(original)
                setattr(owner, attr, self.wrap(patch.layer, inner, patch.after))
            self.absent -= self.present
            yield self
        finally:
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.span_name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.span_parent, dtype=np.int32).copy(),
            "start": np.frombuffer(self.span_start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.span_end, dtype=np.float64).copy(),
        }

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """Per span name: call count, self seconds and inclusive seconds."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        child = np.bincount(a["parent"][has_parent], weights=dur[has_parent], minlength=dur.size)
        self_time = dur - child
        k = len(self.names)
        calls = np.bincount(a["name"], minlength=k)
        self_s = np.bincount(a["name"], weights=self_time, minlength=k)
        total_s = np.bincount(a["name"], weights=dur, minlength=k)
        return {
            name: {"calls": int(calls[i]), "s": float(self_s[i]), "total_s": float(total_s[i])}
            for i, name in enumerate(self.names)
        }

    def count_under(self, name: str, parent: str) -> int:
        """Number of ``name`` spans whose direct parent is a ``parent`` span."""
        if name not in self._name_ids or parent not in self._name_ids:
            return 0
        a = self.arrays()
        idx = a["parent"][a["name"] == self._name_ids[name]]
        idx = idx[idx >= 0]
        return int((a["name"][idx] == self._name_ids[parent]).sum())

    def save(self, path: str) -> None:
        np.savez(path, names=np.array(self.names), **self.arrays())


def _resolve(where: str):
    """``"paim.sampler:cholesky"`` -> (module, "cholesky"); ``"paim.targets:
    TargetDensity.log_density"`` -> (class, "log_density"); (None, None)
    when any part is missing."""
    module_name, _, dotted = where.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None, None
    *path, attr = dotted.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None, None
    if isinstance(owner, type):
        if attr not in owner.__dict__:
            return None, None
    elif not callable(getattr(owner, attr, None)):
        return None, None
    return owner, attr
