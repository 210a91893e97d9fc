"""Spans recorded from outside the program, by wrapping module functions.

A ``Tracer`` replaces a function at the module attribute its callers look
it up on, records one span per call (name, start, end, parent span, the op
it belongs to and what the call returned or raised) and puts every
original back on ``restore``.  Spans stay in memory, in ``spans``, for
the caller to read and write out when its run ends.
"""

import functools
import time


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.op: int | None = None
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def patch(self, module, attr: str, name: str, describe=None) -> None:
        """Wrap ``module.attr`` so each call records a span called ``name``.

        ``describe(args, kwargs, outcome)`` returns extra span fields; the
        outcome is the return value, or the exception the call raised.
        """
        original = getattr(module, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            span = {
                "id": len(self.spans),
                "parent": self._stack[-1] if self._stack else None,
                "op": self.op,
                "name": name,
                "start": time.perf_counter(),
            }
            self.spans.append(span)
            self._stack.append(span["id"])
            outcome = None
            try:
                outcome = original(*args, **kwargs)
                return outcome
            except Exception as exc:
                outcome = exc
                span["error"] = type(exc).__name__
                raise
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
                if describe is not None:
                    span.update(describe(args, kwargs, outcome))

        self._saved.append((module, attr, original))
        setattr(module, attr, wrapper)

    def restore(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.restore()


def duration(span: dict) -> float:
    return span["end"] - span["start"]


def self_time(span: dict, spans: list[dict]) -> float:
    """A span's duration minus the part its direct children cover."""
    children = [s for s in spans if s["parent"] == span["id"]]
    return duration(span) - sum(duration(c) for c in children)
