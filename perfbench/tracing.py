"""In-memory spans around calls into misoid's public functions.

A span records its name, start, end (``time.perf_counter``, which is
CLOCK_MONOTONIC on Linux and therefore comparable across processes), the
index of the span that was open when it started, the iteration id and
optional counts taken from the call's arguments and result.  Spans stay in
a list until ``dump`` writes them out at the end of the process.
"""
from __future__ import annotations

import contextlib
import functools
import json
import sys
import time


class Tracer:
    def __init__(self, iteration: int):
        self.iteration = iteration
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        """Record the enclosed block as a span; yields the span's index."""
        span = {
            "name": name, "start": time.perf_counter(), "end": None,
            "parent": self._open[-1] if self._open else None,
            "iteration": self.iteration, "counts": {}, "failed": False,
        }
        self.spans.append(span)
        self._open.append(len(self.spans) - 1)
        try:
            yield self._open[-1]
        except BaseException:
            span["failed"] = True
            raise
        finally:
            span["end"] = time.perf_counter()
            self._open.pop()

    def wrap(self, name: str, fn, count=None):
        """Return fn wrapped in a span; count(args, kwargs, result) -> dict."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as idx:
                result = fn(*args, **kwargs)
            if count is not None:
                self.spans[idx]["counts"] = count(args, kwargs, result)
            return result

        return traced

    def install(self, module, attr: str, name: str, count=None):
        """Replace module.attr, and every from-import alias of it, by a traced wrapper."""
        original = getattr(module, attr)
        traced = self.wrap(name, original, count)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.split(".")[0] != "misoid" or mod is None:
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, traced)

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump(self.spans, fh)


def self_times(spans: list[dict]) -> list[float]:
    """Duration of each span minus the durations of its direct children."""
    out = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            out[s["parent"]] -= s["end"] - s["start"]
    return out
