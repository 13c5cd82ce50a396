"""Span tracer that wraps a package's functions from outside the package.

A target is named relative to the package: ``"abelian.smith_normal_form"``
(a module attribute) or ``"gf2.Gf2Matrix.rank"`` (a plain method looked up in
the class dictionary).  Wrapping a module attribute also rebinds every name that
another module of the package bound to the same object with
``from .x import y``, so calls through those names are traced too.  Targets
that do not exist are recorded in ``absent`` instead of raising.

Spans are kept in memory as ``[name, start_ns, end_ns, parent, op]`` lists,
where ``parent`` is the index of the enclosing span (or None) and ``op`` is
the operation id current when the span opened.  They are summarised once the
traced pass is over.
"""

from __future__ import annotations

import functools
import sys
import time
import types
from collections import defaultdict

NAME, START, END, PARENT, OP = range(5)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.absent: list[str] = []
        self.op_id: int | None = None
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter_ns(), 0, parent, self.op_id])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, index: int) -> None:
        self._stack.pop()
        self.spans[index][END] = time.perf_counter_ns()

    def wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = tracer.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(index)

        return traced

    # -- installing wrappers ---------------------------------------------

    def install(self, package: str, targets) -> None:
        modules = [
            m for key, m in list(sys.modules.items())
            if m is not None and (key == package or key.startswith(package + "."))
        ]
        for target in targets:
            if not self._install_one(package, modules, target):
                self.absent.append(target)

    def _install_one(self, package: str, modules, target: str) -> bool:
        parts = target.split(".")
        module = sys.modules.get(f"{package}.{parts[0]}")
        if module is None or len(parts) not in (2, 3):
            return False
        if len(parts) == 2:
            original = vars(module).get(parts[1])
            if not callable(original):
                return False
            wrapper = self.wrap(target, original)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        self._restore.append((m, attr, original))
                        setattr(m, attr, wrapper)
            return True
        cls = vars(module).get(parts[1])
        method = vars(cls).get(parts[2]) if isinstance(cls, type) else None
        if not isinstance(method, types.FunctionType):
            return False
        self._restore.append((cls, parts[2], method))
        setattr(cls, parts[2], self.wrap(target, method))
        return True

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)


# ---------------------------------------------------------------------------
# Summaries


def _covered_ns(intervals, lo: int, hi: int) -> int:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0
    cursor = lo
    for start, end in sorted(intervals):
        start, end = max(start, cursor), min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total


def self_times_ns(spans) -> dict[str, int]:
    """Per name: span durations minus the time their child spans cover."""
    children: dict[int, list[tuple[int, int]]] = defaultdict(list)
    for span in spans:
        if span[PARENT] is not None:
            children[span[PARENT]].append((span[START], span[END]))
    out: dict[str, int] = defaultdict(int)
    for index, span in enumerate(spans):
        duration = span[END] - span[START]
        out[span[NAME]] += duration - _covered_ns(children.get(index, ()), span[START], span[END])
    return dict(out)


def durations_ns(spans) -> dict[str, list[int]]:
    out: dict[str, list[int]] = defaultdict(list)
    for span in spans:
        out[span[NAME]].append(span[END] - span[START])
    return dict(out)
