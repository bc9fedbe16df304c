"""Spans recorded around the program's layers, from outside the program.

For a traced round the benchmark replaces each layer's public function
or method with a timing wrapper and puts the originals back afterwards;
the program itself is never edited.  Module-level functions are replaced
in *every* ``repro`` module that holds them, because several callers
import them by name (``render_document``, ``parse_html``, ``tokenize``,
``normalize_url``, the ``extract_*`` family): patching only the defining
module would miss those calls.

Spans live in memory (four flat arrays) and are written out once, at the
end of the run.  A re-entrant call of a layer that is already open — an
override calling ``super()``, say — is folded into the outermost span, so
each layer's time is that of its outermost calls.  A span's *self* time
is its duration minus the part covered by its child spans.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import sys
import time
from array import array
from typing import Callable, Dict, List, Optional, Tuple

_clock = time.perf_counter_ns


class Tracer:
    """Open-span stack, per-layer totals and the in-memory span log."""

    def __init__(self) -> None:
        self._ids: Dict[str, int] = {}
        self.names: List[str] = []
        self._stack: List[list] = []  # [name, start_ns, child_ns, span index]
        self._open: set = set()
        self.calls: Dict[str, int] = {}
        self.incl_ns: Dict[str, int] = {}
        self.self_ns: Dict[str, int] = {}
        #: Untimed tallies: count-only probes and call outcomes.
        self.tally: Dict[str, float] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("q")
        self.span_end = array("q")

    # -- the span stack ------------------------------------------------------

    def enter(self, name: str) -> None:
        name_id = self._ids.get(name)
        if name_id is None:
            name_id = self._ids[name] = len(self.names)
            self.names.append(name)
        index = len(self.span_start)
        parent = self._stack[-1][3] if self._stack else -1
        self.span_name.append(name_id)
        self.span_parent.append(parent)
        self.span_end.append(0)
        frame = [name, 0, 0, index]
        self._stack.append(frame)
        self._open.add(name)
        start = _clock()
        frame[1] = start
        self.span_start.append(start)

    def exit(self) -> None:
        end = _clock()
        name, start, child_ns, index = self._stack.pop()
        self._open.discard(name)
        duration = end - start
        self.span_end[index] = end
        self.calls[name] = self.calls.get(name, 0) + 1
        self.incl_ns[name] = self.incl_ns.get(name, 0) + duration
        self.self_ns[name] = self.self_ns.get(name, 0) + duration - child_ns
        if self._stack:
            self._stack[-1][2] += duration

    def count(self, key: str, amount: float = 1) -> None:
        self.tally[key] = self.tally.get(key, 0) + amount

    # -- wrappers ------------------------------------------------------------

    def span(self, name: str, fn: Callable,
             after: Optional[Callable] = None) -> Callable:
        """``fn`` inside a span; ``after(result)`` runs once it closed."""
        tracer = self

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            if name in tracer._open:
                return fn(*args, **kwargs)
            tracer.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.exit()
            if after is not None:
                after(result)
            return result

        return timed

    def span_by(self, name_of: Callable, fn: Callable) -> Callable:
        """A span named by ``name_of(*args)``; ``None`` means no span."""
        tracer = self

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            name = name_of(*args, **kwargs)
            if name is None or name in tracer._open:
                return fn(*args, **kwargs)
            tracer.enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.exit()

        return timed

    def span_iter(self, name: str, fn: Callable) -> Callable:
        """A generator function whose every step runs inside a span, so
        the consumer's work between items is not charged to it."""
        tracer = self

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            iterator = fn(*args, **kwargs)
            while True:
                if name in tracer._open:
                    yield from iterator
                    return
                tracer.enter(name)
                try:
                    item = next(iterator)
                except StopIteration:
                    return
                finally:
                    tracer.exit()
                yield item

        return timed

    def counter(self, key: str, fn: Callable) -> Callable:
        """Count calls without timing them (for very hot functions)."""
        tally = self.tally

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            tally[key] = tally.get(key, 0) + 1
            return fn(*args, **kwargs)

        return counted

    # -- results -------------------------------------------------------------

    def layers(self) -> Dict[str, dict]:
        """name -> outermost calls, inclusive and self seconds."""
        return {
            name: {
                "calls": self.calls[name],
                "incl_s": self.incl_ns[name] / 1e9,
                "self_s": self.self_ns[name] / 1e9,
            }
            for name in sorted(self.calls)
        }

    def top_level_s(self) -> float:
        """Seconds covered by spans that have no parent span."""
        return sum(
            end - start
            for start, end, parent in zip(self.span_start, self.span_end,
                                          self.span_parent)
            if parent < 0
        ) / 1e9

    def write_spans(self, path: str, meta: dict) -> None:
        """The span log as columnar gzip'd JSON: ``names`` plus parallel
        ``name``/``parent``/``start_ns``/``end_ns`` lists (``parent`` is
        a span index, -1 for a top-level span)."""
        document = dict(meta)
        document.update({
            "names": self.names,
            "name": self.span_name.tolist(),
            "parent": self.span_parent.tolist(),
            "start_ns": self.span_start.tolist(),
            "end_ns": self.span_end.tolist(),
        })
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            json.dump(document, handle, separators=(",", ":"))


class Installation:
    """Replaces program attributes with wrappers; :meth:`remove` undoes
    every replacement, including copies a module made while installed."""

    def __init__(self) -> None:
        self._class_patches: List[Tuple[type, str, object]] = []
        self._wrapper_of: Dict[int, Callable] = {}
        self._original_of: Dict[int, Callable] = {}

    def function(self, module: str, attr: str,
                 make: Callable[[Callable], Callable]) -> None:
        original = getattr(importlib.import_module(module), attr)
        wrapper = make(original)
        self._wrapper_of[id(original)] = wrapper
        self._original_of[id(wrapper)] = original

    def method(self, module: str, cls_name: str, attr: str,
               make: Callable[[Callable], Callable]) -> None:
        cls = getattr(importlib.import_module(module), cls_name)
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            replacement = classmethod(make(raw.__func__))
        else:
            replacement = make(raw)
        setattr(cls, attr, replacement)
        self._class_patches.append((cls, attr, raw))

    def apply(self) -> None:
        """Swap every module-level reference to a wrapped function."""
        self._swap(self._wrapper_of)

    def remove(self) -> None:
        self._swap(self._original_of)
        for cls, attr, raw in reversed(self._class_patches):
            setattr(cls, attr, raw)
        self._class_patches.clear()

    @staticmethod
    def _swap(mapping: Dict[int, Callable]) -> None:
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "repro"
                                      or name.startswith("repro.")):
                continue
            namespace = vars(module)
            for key, value in list(namespace.items()):
                replacement = mapping.get(id(value))
                if replacement is not None:
                    namespace[key] = replacement
