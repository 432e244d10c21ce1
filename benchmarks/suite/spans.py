"""In-memory span recorder that wraps callables from outside.

``Recorder.install(points)`` replaces each ``owner.attr`` with a wrapper
that records one span per call (label, start, end, parent span);
``uninstall()`` puts the originals back, so untraced ops run the
unmodified code.  Nothing is written out while measuring;
``summary()`` reduces the spans to per-label call counts, inclusive
time and self time (a span's duration minus the part its child spans
cover).  A point whose attribute no longer exists is listed in
``missing`` and its metrics read ``None`` rather than crashing the run.
"""

from __future__ import annotations

import inspect
from contextlib import contextmanager
from dataclasses import dataclass
from functools import wraps
from time import perf_counter
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

#: How a wrapper measures the ``amount`` of one call from its result.
AMOUNTS: Dict[str, Callable[[object], int]] = {
    "lanes": lambda out: int(np.size(out)),
    "cells": lambda out: len(out),
}


@dataclass
class LabelTotals:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    amount: int = 0


class Recorder:
    def __init__(self) -> None:
        self.label: List[str] = []
        self.parent: List[int] = []
        self.t0: List[float] = []
        self.t1: List[float] = []
        self.amount: List[int] = []
        self.missing: List[str] = []
        self._top = -1
        self._installed: List[Tuple[object, str, object]] = []

    # -- spans ----------------------------------------------------------------

    def begin(self, label: str) -> int:
        index = len(self.label)
        self.label.append(label)
        self.parent.append(self._top)
        self.amount.append(0)
        self.t1.append(0.0)
        self._top = index
        self.t0.append(perf_counter())
        return index

    def end(self, index: int) -> None:
        self.t1[index] = perf_counter()
        self._top = self.parent[index]

    @contextmanager
    def tracing(
        self, points: Sequence[Tuple[object, str, str, Optional[str]]]
    ) -> Iterator[None]:
        """Install *points* and hold one root span (label ``op``) open."""
        self.install(points)
        root = self.begin("op")
        try:
            yield
        finally:
            self.end(root)
            self.uninstall()

    # -- wrapping -------------------------------------------------------------

    def install(
        self, points: Sequence[Tuple[object, str, str, Optional[str]]]
    ) -> None:
        self.missing = []
        for owner, attr, label, amount in points:
            original = getattr(owner, attr, None)
            if original is None:
                self.missing.append(label)
                continue
            if inspect.isgeneratorfunction(original):
                wrapper = self._wrap_generator(original, label)
            else:
                wrapper = self._wrap(original, label, AMOUNTS.get(amount))
            # Restore exactly what the owner held: a plain function on a
            # class, an attribute on an instance or a module.
            held = vars(owner).get(attr, original)
            self._installed.append((owner, attr, held))
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, held in reversed(self._installed):
            setattr(owner, attr, held)
        self._installed = []

    def _wrap(self, fn, label: str, measure):
        begin, end, amounts = self.begin, self.end, self.amount

        @wraps(fn)
        def wrapper(*args, **kwargs):
            index = begin(label)
            try:
                out = fn(*args, **kwargs)
            finally:
                end(index)
            if measure is not None:
                amounts[index] = measure(out)
            return out

        return wrapper

    def _wrap_generator(self, fn, label: str):
        begin, end = self.begin, self.end

        @wraps(fn)
        def wrapper(*args, **kwargs):
            iterator = fn(*args, **kwargs)
            while True:
                index = begin(label)
                try:
                    item = next(iterator)
                except StopIteration:
                    return
                finally:
                    end(index)
                yield item

        return wrapper

    # -- reduction ------------------------------------------------------------

    def summary(self) -> Dict[str, LabelTotals]:
        totals: Dict[str, LabelTotals] = {}
        if not self.label:
            return totals
        duration = np.asarray(self.t1) - np.asarray(self.t0)
        parent = np.asarray(self.parent)
        has_parent = parent >= 0
        covered = np.bincount(
            parent[has_parent], weights=duration[has_parent],
            minlength=duration.size,
        )
        self_time = duration - covered
        for i, label in enumerate(self.label):
            entry = totals.setdefault(label, LabelTotals())
            entry.calls += 1
            entry.total_s += float(duration[i])
            entry.self_s += float(self_time[i])
            entry.amount += self.amount[i]
        return totals
