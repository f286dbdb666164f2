"""In-memory spans recorded around the public calls of each layer.

A span is (name, start, end, parent index, run id).  Spans live in memory
while the traced calls run and are written out afterwards; the tracer only
wraps callables from outside, so the program's code is unchanged and the
untraced runs execute exactly the code users run.

A span's self time is its duration minus the part of its interval that its
children cover.  Over one run the self times of all spans add up to the
duration of the run's root span.
"""

from __future__ import annotations

import gzip
import time
from array import array
from collections import Counter
from dataclasses import dataclass, field


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into the span list, -1 for a root
    run: int

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


def covered(lo: float, hi: float, intervals) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Duration of each span minus the time its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent >= 0:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return [s.duration - covered(s.start, s.end, children.get(i, ())) for i, s in enumerate(spans)]


def descendants_of(spans: list[Span], name: str) -> list[bool]:
    """Flags spans that are ``name`` spans or lie below one.

    Parents are appended before their children, so one pass in index order
    suffices.
    """
    flags = [False] * len(spans)
    for i, s in enumerate(spans):
        flags[i] = s.name == name or (s.parent >= 0 and flags[s.parent])
    return flags


@dataclass
class Tracer:
    """Records spans for wrapped callables; ``run`` tags the current call.

    Spans are stored column-wise in arrays, which the garbage collector does
    not traverse, so a long traced call does not slow down as spans pile up.
    """

    run: int = 0
    _ids: dict[str, int] = field(default_factory=dict)
    _name: array = field(default_factory=lambda: array("l"))
    _start: array = field(default_factory=lambda: array("d"))
    _end: array = field(default_factory=lambda: array("d"))
    _parent: array = field(default_factory=lambda: array("l"))
    _run: array = field(default_factory=lambda: array("l"))
    _stack: list[int] = field(default_factory=list)
    _patched: list[tuple[object, str, object]] = field(default_factory=list)

    def wrap(self, name: str, fn):
        name_id = self._ids.setdefault(name, len(self._ids))
        names, starts, ends, parents, runs = self._name, self._start, self._end, self._parent, self._run
        stack, clock = self._stack, time.perf_counter

        def traced(*args, **kwargs):
            i = len(ends)
            names.append(name_id)
            parents.append(stack[-1] if stack else -1)
            runs.append(self.run)
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def patch(self, owner, attr: str, wrapper) -> None:
        """Replace ``owner.attr`` with ``wrapper(original)`` until ``restore``."""
        original = getattr(owner, attr)
        self._patched.append((owner, attr, original))
        setattr(owner, attr, wrapper(original))

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    @property
    def spans(self) -> list[Span]:
        names = list(self._ids)
        return [
            Span(names[n], a, b, p, r)
            for n, a, b, p, r in zip(self._name, self._start, self._end, self._parent, self._run)
        ]

    def of_run(self, run: int) -> list[Span]:
        """The spans of one run, with parent indices renumbered to the sublist."""
        index = {}
        out = []
        for i, s in enumerate(self.spans):
            if s.run == run:
                index[i] = len(out)
                out.append(Span(s.name, s.start, s.end, index.get(s.parent, -1), run))
        return out


def call_counts(spans: list[Span]) -> Counter:
    return Counter(s.name for s in spans)


def write_csv(spans: list[Span], path) -> None:
    """Gzipped CSV, one span per line."""
    with gzip.open(path, "wt", compresslevel=1) as fh:
        fh.write("run,index,parent,name,start,end\n")
        for i, s in enumerate(spans):
            fh.write(f"{s.run},{i},{s.parent},{s.name},{s.start!r},{s.end!r}\n")
