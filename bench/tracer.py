"""In-memory spans recorded around calls into driftlab.

A span holds a name, start and end on the monotonic clock, the span that
was open when it began (its parent) and the id of the iteration it belongs
to.  Spans stay in memory and are written out once, when the run ends.

``patched`` records spans around the program's own calls: it swaps a
module's or a class's attribute for a wrapper while a stage runs, so every
call the stage makes through that name is timed where it happens.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

clock = time.perf_counter


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.run_id: int | str | None = None
        self.first_args: dict[str, tuple] = {}  # span name -> (args, kwargs)
        self._open: list[int] = []

    def begin(self, run_id: int | str) -> None:
        """Start recording the spans of one iteration (or of set-up)."""
        self.run_id = run_id
        self.first_args = {}

    @contextmanager
    def span(self, name: str):
        rec = {
            "id": len(self.spans),
            "name": name,
            "run": self.run_id,
            "parent": self._open[-1] if self._open else None,
            "start": clock(),
            "end": None,
        }
        self.spans.append(rec)
        self._open.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = clock()
            self._open.pop()

    def wrap(self, fn, name: str, observe=None):
        """``fn`` with a span named ``name`` around every call.

        The arguments of the first call under each name in an iteration are
        kept in ``first_args``; ``observe(args, kwargs, result, exc)`` sees
        the outcome of every call.
        """

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.first_args.setdefault(name, (args, kwargs))
            try:
                with self.span(name):
                    result = fn(*args, **kwargs)
            except Exception as exc:
                if observe is not None:
                    observe(args, kwargs, None, exc)
                raise
            if observe is not None:
                observe(args, kwargs, result, None)
            return result

        return wrapper

    def run_ids(self) -> list:
        return list(dict.fromkeys(s["run"] for s in self.spans))

    def self_times(self, run_id) -> dict[str, list[float]]:
        """Self time (duration minus the children's durations) of every
        span of one iteration, grouped by name."""
        spans = [s for s in self.spans if s["run"] == run_id]
        child = defaultdict(float)
        for s in spans:
            if s["parent"] is not None:
                child[s["parent"]] += s["end"] - s["start"]
        out: dict[str, list[float]] = defaultdict(list)
        for s in spans:
            out[s["name"]].append(s["end"] - s["start"] - child[s["id"]])
        return out

    def write(self, path: Path, header: dict) -> None:
        path.write_text(json.dumps({"header": header, "spans": self.spans}) + "\n")


@contextmanager
def patched(tracer: Tracer, targets):
    """Swap each ``(owner, attribute, span name[, observe])`` target for a
    span-recording wrapper; put every original back on exit.

    The original is taken from the owner's own ``__dict__``, so a method is
    wrapped on the class that defines it and a subclass's override is a
    target of its own.
    """
    saved = []
    try:
        for owner, attr, name, *observe in targets:
            orig = vars(owner)[attr]
            saved.append((owner, attr, orig))
            setattr(owner, attr, tracer.wrap(orig, name, *observe))
        yield
    finally:
        for owner, attr, orig in reversed(saved):
            setattr(owner, attr, orig)


class NullTracer:
    """Stands in for a Tracer in untraced iterations; records nothing."""

    run_id = None

    @contextmanager
    def span(self, name: str):
        yield None
