"""In-memory spans around the public functions of the monoseq layers.

A span is ``[name, start, end, parent, tag]``: ``parent`` is the index of
the enclosing span in the same recorder (-1 at top level) and ``tag`` is an
optional annotation taken from the call's arguments (a poset's kind, a
permutation's length, whether a cached statistic was already present).

The wrappers are installed by :func:`patched`, which replaces a function in
*every* ``monoseq`` module namespace that bound it -- ``from .posets import
width`` copies the name into ``cuts``, ``decomposition``, ``lemmas`` and
``cli``, so patching ``posets.width`` alone would miss those callers -- and
puts every original back when the block exits.
"""

from __future__ import annotations

import inspect
import sys
import time
from contextlib import contextmanager
from typing import Callable, Iterator, Optional

# Layers whose public functions are traced; numeric, config and errors are
# helpers whose cost is counted under their callers.
LAYERS = ("perms", "counting", "posets", "decomposition", "cuts", "lemmas", "search", "cli")


class Recorder:
    """Collects the spans of one traced pass, as ``[name, start, end, parent, tag]``."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn: Callable, tag: Optional[Callable] = None) -> Callable:
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            sid = len(spans)
            label = tag(*args, **kwargs) if tag else None
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, label]
            spans.append(span)
            stack.append(sid)
            span[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        return traced


def self_times(spans: list) -> list[float]:
    """Per span: its duration minus the part of it covered by its child spans.

    Children of one parent may overlap only if the program ran them
    concurrently; the union of their intervals, clipped to the parent, is
    subtracted, so nothing is counted twice.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s[3] >= 0:
            children.setdefault(s[3], []).append((s[1], s[2]))
    out = []
    for idx, s in enumerate(spans):
        start, end = s[1], s[2]
        covered = 0.0
        cursor = start
        for a, b in sorted(children.get(idx, ())):
            a, b = max(a, cursor), min(b, end)
            if b > a:
                covered += b - a
                cursor = b
        out.append((end - start) - covered)
    return out


def monoseq_modules() -> dict[str, object]:
    """Every imported ``monoseq`` module, the package itself included."""
    return {
        name: mod
        for name, mod in sorted(sys.modules.items())
        if mod is not None and (name == "monoseq" or name.startswith("monoseq."))
    }


def public_functions() -> dict[str, Callable]:
    """``layer.name`` -> function, for the public functions each layer defines."""
    out: dict[str, Callable] = {}
    for layer in LAYERS:
        mod = sys.modules[f"monoseq.{layer}"]
        for name, obj in vars(mod).items():
            if (
                not name.startswith("_")
                and inspect.isfunction(obj)
                and obj.__module__ == mod.__name__
            ):
                out[f"{layer}.{name}"] = obj
    return out


@contextmanager
def patched(replace: Callable[[str, Callable], Optional[Callable]]) -> Iterator[int]:
    """Swap public layer functions for ``replace(name, fn)`` everywhere they are bound.

    ``replace`` returns the substitute, or None to leave a function alone.
    The construction check ``Permutation.__post_init__`` is offered as
    ``perms.Permutation``, since the class itself must stay a class.  Yields
    the number of bindings replaced; all of them are restored on exit.
    """
    import monoseq.perms as perms

    undo: list[tuple[object, str, object]] = []
    try:
        targets = public_functions()
        modules = monoseq_modules().values()
        for qualname, fn in targets.items():
            sub = replace(qualname, fn)
            if sub is None:
                continue
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        undo.append((mod, attr, value))
                        setattr(mod, attr, sub)
        post_init = perms.Permutation.__dict__["__post_init__"]
        sub = replace("perms.Permutation", post_init)
        if sub is not None:
            undo.append((perms.Permutation, "__post_init__", post_init))
            perms.Permutation.__post_init__ = sub
        yield len(undo)
    finally:
        for owner, attr, value in reversed(undo):
            setattr(owner, attr, value)
