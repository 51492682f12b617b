"""Span recording around the simulator's public functions, installed from outside.

A target names one function of the simulator. Installing it replaces every
binding of that function object in every ``wsn_track_sim.*`` module namespace
(plus the class attribute, for a method) with a wrapper that records a span:
name, start, end, parent span and an optional note taken from the call. The
simulator's code is never edited, and `installed` restores every binding in
``finally``.
"""

from __future__ import annotations

import functools
import gc
import importlib
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, NamedTuple

PKG = "wsn_track_sim"


class Target(NamedTuple):
    """One function to wrap, named after its layer (module) and function."""

    name: str                 # e.g. "field.detectors_of"
    module: str               # e.g. "wsn_track_sim.field"
    attr: str                 # function name, or "Class.method"
    note: Callable | None = None   # (args) -> (result -> value), called around the call
    collect: bool = False     # gc.collect() before the call, outside the span


@dataclass
class Span:
    name: str
    parent: int               # index of the enclosing span, -1 at the root
    start: float = 0.0
    end: float = 0.0
    note: Any = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span log for one process; single-threaded by design."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.gc_s = 0.0   # time spent in the collections the wrappers ran
        self._stack: list[int] = []

    def wrap(self, target: Target, fn: Callable) -> Callable:
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if target.collect:
                t0 = clock()
                gc.collect()
                self.gc_s += clock() - t0
            finish = target.note(args) if target.note else None
            span = Span(target.name, stack[-1] if stack else -1)
            stack.append(len(spans))
            spans.append(span)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            if finish is not None:
                span.note = finish(result)
            return result

        return traced


def package_modules() -> list:
    return [mod for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == PKG or name.startswith(PKG + "."))]


def resolve(target: Target) -> tuple[Any, str, Callable]:
    """(owner, attribute, function) of a target; AttributeError if it moved."""
    owner: Any = importlib.import_module(target.module)
    *path, attr = target.attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attr, getattr(owner, attr)


def bindings(fn: Callable, owner: Any, attr: str) -> list[tuple[Any, str]]:
    """Every (namespace, name) in the package bound to `fn`, plus the class
    attribute when `fn` is a method."""
    places = [(mod, key) for mod in package_modules()
              for key, value in vars(mod).items() if value is fn]
    if isinstance(owner, type):
        places.append((owner, attr))
    return places


def install(tracer: Tracer, targets) -> list[tuple[Any, str, Callable]]:
    """Wrap every binding of every target; returns what `restore` puts back."""
    saved: list[tuple[Any, str, Callable]] = []
    try:
        for target in targets:
            owner, attr, fn = resolve(target)
            wrapped = tracer.wrap(target, fn)
            for place, key in bindings(fn, owner, attr):
                saved.append((place, key, fn))
                setattr(place, key, wrapped)
    except BaseException:
        restore(saved)
        raise
    return saved


def restore(saved) -> None:
    for place, key, fn in reversed(saved):
        setattr(place, key, fn)


@contextmanager
def installed(tracer: Tracer, targets):
    saved = install(tracer, targets)
    try:
        yield tracer
    finally:
        restore(saved)


def self_times(spans: list[Span]) -> list[float]:
    """Span duration minus the time its direct children cover."""
    child = [0.0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            child[span.parent] += span.duration
    return [span.duration - c for span, c in zip(spans, child)]
