"""Span tracing of the program's public functions, applied from outside.

``Tracer`` replaces each target function in every ``catalyq`` module
namespace that binds it by name (``circuit_unitary`` is bound in ``sim``,
``lowering`` and ``synth``), so calls between the program's own modules are
recorded too. Each call becomes a ``Span`` (name, start, end, parent span,
item id). Spans stay in memory; the caller writes them out when the run ends.
Leaving the ``with`` block puts the original functions back.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any, Callable

Annotator = Callable[[tuple, dict, Any], dict]


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    item: int | None
    error: bool = False
    attrs: dict = field(default_factory=dict)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover.

    Children are clipped to the parent's interval and their union is taken,
    so overlapping children are not subtracted twice.
    """
    children: dict[int, list[int]] = defaultdict(list)
    for i, s in enumerate(spans):
        if s.parent is not None:
            children[s.parent].append(i)
    out = []
    for i, s in enumerate(spans):
        covered, reach = 0.0, s.start
        clipped = sorted(
            (max(spans[c].start, s.start), min(spans[c].end, s.end)) for c in children[i]
        )
        for lo, hi in clipped:
            if hi > reach:
                covered += hi - max(lo, reach)
                reach = hi
        out.append((s.end - s.start) - covered)
    return out


class Tracer:
    """Records a span per call of each target while ``enabled`` is set.

    ``targets`` maps ``"<module>.<function>"`` (module relative to
    ``catalyq``) to an optional annotator, called with the arguments and the
    result after the span has ended, whose dict lands in ``Span.attrs``.
    Targets the program does not define are skipped and listed in ``missing``.
    """

    package = "catalyq"

    def __init__(self, targets: dict[str, Annotator | None]):
        self.targets = targets
        self.spans: list[Span] = []
        self.item: int | None = None
        self.enabled = False
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _modules(self) -> list[object]:
        prefix = self.package + "."
        return [
            mod
            for name, mod in list(sys.modules.items())
            if mod is not None and (name == self.package or name.startswith(prefix))
        ]

    def _wrap(self, name: str, fn: Callable, annotate: Annotator | None) -> Callable:
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            span = Span(name, 0.0, 0.0, stack[-1] if stack else None, self.item)
            stack.append(len(spans))
            spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.error = True
                raise
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if annotate is not None:
                span.attrs = annotate(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def __enter__(self) -> "Tracer":
        modules = self._modules()
        for name, annotate in self.targets.items():
            mod_name, _, fn_name = name.rpartition(".")
            home = sys.modules.get(f"{self.package}.{mod_name}")
            fn = getattr(home, fn_name, None) if home is not None else None
            if fn is None:
                self.missing.append(name)
                continue
            wrapper = self._wrap(name, fn, annotate)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, attr, wrapper)
                        self._patched.append((mod, attr, fn))
        return self

    def __exit__(self, *exc) -> None:
        for mod, attr, fn in reversed(self._patched):
            setattr(mod, attr, fn)
        self._patched.clear()
        self.enabled = False
