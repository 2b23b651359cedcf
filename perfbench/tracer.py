"""Spans around calls into snmod's layers, recorded from outside the program.

The benchmark does not edit the program: it rebinds the public functions and
methods it traces, in every loaded ``snmod`` module that holds them, to a
wrapper that records a span (name, start, end, parent) plus one integer the
span's layer counts.  Times are CPU seconds of the process.  Spans stay in
memory in flat arrays and are written out as gzipped JSON when the run ends.
"""

import gzip
import json
import sys
import time
from array import array

clock = time.process_time


def _rebind(owner, attr: str, make) -> None:
    """Replace ``owner.attr`` by ``make(owner.attr)``.

    For a function, every binding of it in the loaded snmod modules is
    replaced, so calls through ``from .x import f`` names are seen too.
    """
    original = getattr(owner, attr)
    replacement = make(original)
    if isinstance(owner, type):
        setattr(owner, attr, replacement)
        return
    for name, module in list(sys.modules.items()):
        if name != "snmod" and not name.startswith("snmod."):
            continue
        for key, value in list(vars(module).items()):
            if value is original:
                setattr(module, key, replacement)


class Tracer:
    """Span recorder; ``value`` holds each span's count (see :meth:`trace`)."""

    def __init__(self):
        self.names: list[str] = []
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.value = array("q")
        self._stack = [-1]

    def _name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def wrap(self, fn, name: str, count=None):
        """A wrapper recording one span per call of ``fn``.

        ``count(args, kwargs, result)`` gives the span's value; without it
        the value is 1.
        """
        nid = self._name_id(name)
        names, parents, starts, ends, values, stack = (
            self.name, self.parent, self.start, self.end, self.value, self._stack,
        )

        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            values.append(1)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if count is not None:
                values[idx] = count(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def trace(self, owner, attr: str, name: str, count=None) -> None:
        """Record a span named ``name`` for each call of ``owner.attr``."""
        _rebind(owner, attr, lambda fn: self.wrap(fn, name, count))

    def __len__(self) -> int:
        return len(self.start)

    def outer_seconds(self, first: int) -> float:
        """Summed duration of the outermost spans recorded from index ``first`` on."""
        return sum(
            self.end[i] - self.start[i] for i in range(first, len(self.start)) if self.parent[i] < 0
        )

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, summed value, total time and self time.

        Self time is a span's duration minus the durations of the spans it
        called directly.
        """
        child = array("d", bytes(8 * len(self.start)))
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        out = {n: {"calls": 0, "value": 0, "total_s": 0.0, "self_s": 0.0} for n in self.names}
        for i, nid in enumerate(self.name):
            row = out[self.names[nid]]
            dur = self.end[i] - self.start[i]
            row["calls"] += 1
            row["value"] += self.value[i]
            row["total_s"] += dur
            row["self_s"] += dur - child[i]
        return out

    def dump(self, path) -> None:
        """Write the spans as columnar gzipped JSON, a few columns at a time.

        ``names[name[i]]`` is span i's name and ``parent[i]`` the index of
        the span that called it (-1 for a command's root span).
        """
        t0 = self.start[0] if len(self.start) else 0.0
        columns = (
            ("name", self.name, False),
            ("parent", self.parent, False),
            ("start_us", self.start, True),
            ("end_us", self.end, True),
            ("value", self.value, False),
        )
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write('{"clock":"process CPU time, microseconds after the first span",')
            fh.write(f'"names":{json.dumps(self.names)}')
            for key, column, is_time in columns:
                fh.write(f',"{key}":[')
                for lo in range(0, len(column), 65536):
                    part = column[lo : lo + 65536]
                    if is_time:
                        part = [round((t - t0) * 1e6) for t in part]
                    fh.write(("," if lo else "") + ",".join(map(str, part)))
                fh.write("]")
            fh.write("}\n")
