"""Runtime interposition on the package's layer boundaries, with in-memory spans.

A ``Tracer`` replaces the names a calling module looks up (for example
``beliefgames.engine.control_kernel``) with wrappers that record a span per
call: name, start, end, parent span and op id.  Spans are recorded only while
an op is open, so the benchmark's own input generation and output checks,
which call the same functions, never show up in the layer numbers.

Spans of one traced batch are kept in memory and folded into per-layer totals
when the batch ends; self time is a span's duration minus the durations of
its direct children.  The first traced batch's spans are kept whole and
written out at the end of the run.

A target that the program no longer defines is skipped and reported; a target
that is defined but never called reports zero calls.  Layers and work counts
exist only as the targets declare them, so asking for any other name fails.
"""

from __future__ import annotations

import inspect
import math
import os
from dataclasses import dataclass
from time import perf_counter
from typing import Callable

import numpy as np


@dataclass(frozen=True)
class Target:
    """One interposition point: attribute ``attr`` of ``owner`` is layer ``layer``.

    ``counter(tracer, arguments, result)`` adds to the work counts ``counts``.
    """

    owner: object
    attr: str
    layer: str
    counter: Callable | None = None
    counts: tuple[str, ...] = ()


class Tracer:
    def __init__(self, targets: list[Target]):
        self.targets = targets
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.op: int | None = None
        self._saved: list[tuple[object, str, object]] = []
        self.unpatched = sorted(
            {f"{t.layer} ({t.attr})" for t in targets if not hasattr(t.owner, t.attr)}
        )
        layers = {t.layer: 0 for t in targets}
        self.calls: dict[str, int] = dict(layers)
        self.self_s: dict[str, float] = dict.fromkeys(layers, 0.0)
        self.incl_s: dict[str, float] = dict.fromkeys(layers, 0.0)
        self.counts: dict[str, float] = {k: 0.0 for t in targets for k in t.counts}
        self.counter_errors: list[str] = []
        self.batches = 0
        self.kept: dict | None = None
        self._name: list[int] = []
        self._start: list[float] = []
        self._end: list[float] = []
        self._parent: list[int] = []
        self._op: list[int] = []
        self._stack: list[int] = []

    # -- spans -------------------------------------------------------------

    def _clear_spans(self) -> None:
        # Cleared in place: the wrappers hold these lists.
        for lst in (self._name, self._start, self._end, self._parent, self._op, self._stack):
            lst.clear()

    def _id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, nid: int) -> int:
        idx = len(self._start)
        self._name.append(nid)
        self._parent.append(self._stack[-1] if self._stack else -1)
        self._op.append(self.op)
        self._start.append(perf_counter())
        self._end.append(math.nan)
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self._end[idx] = perf_counter()
        self._stack.pop()

    def begin_op(self, op_id: int, name: str) -> int:
        self.op = op_id
        return self._open(self._id(name))

    def end_op(self, idx: int) -> None:
        self._close(idx)
        self.op = None

    def count(self, key: str, amount: float) -> None:
        self.counts[key] += amount

    # -- interposition -----------------------------------------------------

    def install(self) -> None:
        for t in self.targets:
            if not hasattr(t.owner, t.attr):
                continue
            orig = getattr(t.owner, t.attr)
            self._saved.append((t.owner, t.attr, orig))
            setattr(t.owner, t.attr, self._wrap(orig, t))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, orig = self._saved.pop()
            setattr(owner, attr, orig)

    def _wrap(self, orig: Callable, target: Target) -> Callable:
        nid = self._id(target.layer)
        counter = target.counter
        bind = _binder(orig) if counter is not None else None

        names, starts, ends = self._name, self._start, self._end
        parents, ops, stack = self._parent, self._op, self._stack

        def wrapper(*args, **kwargs):
            # _open and _close inlined: this runs ~10^5 times per sweep batch.
            if self.op is None:
                return orig(*args, **kwargs)
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ops.append(self.op)
            ends.append(math.nan)
            stack.append(idx)
            starts.append(perf_counter())
            try:
                result = orig(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                stack.pop()
            if counter is not None:
                try:
                    counter(self, bind(args, kwargs), result)
                except (TypeError, AttributeError, ValueError, KeyError, OSError) as exc:
                    self.counter_errors.append(f"{target.layer}: {exc!r}")
            return result

        wrapper.__wrapped__ = orig
        return wrapper

    # -- aggregation -------------------------------------------------------

    def end_batch(self) -> None:
        """Fold the current batch's spans into the per-layer totals."""
        self.batches += 1
        if self._start:
            name = np.array(self._name, dtype=np.int64)
            start = np.array(self._start)
            end = np.array(self._end)
            parent = np.array(self._parent, dtype=np.int64)
            dur = end - start
            child = np.zeros_like(dur)
            has_parent = parent >= 0
            np.add.at(child, parent[has_parent], dur[has_parent])
            self_dur = dur - child
            n_names = len(self.names)
            calls = np.bincount(name, minlength=n_names)
            self_sum = np.bincount(name, weights=self_dur, minlength=n_names)
            incl_sum = np.bincount(name, weights=dur, minlength=n_names)
            for nid, layer in enumerate(self.names):
                if layer not in self.calls:  # an op's own span
                    continue
                self.calls[layer] += int(calls[nid])
                self.self_s[layer] += float(self_sum[nid])
                self.incl_s[layer] += float(incl_sum[nid])
            if self.kept is None:
                self.kept = {
                    "name": name,
                    "start": start,
                    "end": end,
                    "parent": parent,
                    "op": np.array(self._op, dtype=np.int64),
                }
        self._clear_spans()

    def write_spans(self, path: str | os.PathLike) -> None:
        """Write the kept batch's spans as a compressed ``.npz``."""
        if self.kept is None:
            return
        np.savez_compressed(path, names=np.array(self.names), **self.kept)


def _binder(fn: Callable) -> Callable:
    """Map a call's positional and keyword arguments to parameter names."""
    sig = inspect.signature(fn)

    def bind(args, kwargs):
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        return bound.arguments

    return bind
