"""Spans and call counts recorded around qtk's public functions, from outside.

The benchmark never edits qtk.  A traced pass installs wrappers around the
public functions of the layer modules and around four methods, records
spans in memory, and derives per-layer call counts, work counts and self
times when the pass ends.

A span is ``[name, start, end, parent, item]``: ``parent`` is the index of
the enclosing span (-1 at top level) and ``item`` the id of the benchmark
item running when it opened.  A layer's self time is its span's duration
minus the durations of its direct child spans; the program is
single-threaded, so children nest strictly inside their parent.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import sys
import time

#: Layer modules whose public functions are wrapped.  For ``cli`` only the
#: entry point is wrapped, so its self time holds argument parsing, the
#: subcommand handler and JSON emission.
LAYERS = ("gf", "poly", "transform", "moebius", "counting", "hfactor", "cli")
ENTRY_ONLY = {"cli": ("main",)}

#: Methods wrapped on their class: (module, class, attribute) -> name.
SPAN_METHODS = {
    ("poly", "Polynomial", "__mul__"): "poly.mul",
    ("poly", "Polynomial", "__divmod__"): "poly.divmod",
}
#: Called hundreds of thousands of times per pass: counted, never timed, so
#: their time stays in the caller's self time.
COUNT_METHODS = {
    ("gf", "FieldSpec", "raw_mul"): "gf.raw_mul",
    ("gf", "FieldSpec", "raw_inv"): "gf.raw_inv",
}


def _size(poly) -> int:
    return 0 if poly.is_zero() else int(poly.degree) + 1


#: Work counts derived from arguments and results: name -> (key, fn).
WORK = {
    "poly.mul": ("out_coeffs", lambda args, res: _size(res)),
    "poly.divmod": ("quot_coeffs", lambda args, res: _size(res[0])),
    "poly.pow_mod": ("bits", lambda args, res: int(args[1]).bit_length()),
    "poly.is_irreducible": ("true", lambda args, res: 1 if res else 0),
}


class Tracer:
    """In-memory span store plus per-name call, raise and work counters."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.item = None
        self.calls: dict[str, int] = {}
        self.raised: dict[str, int] = {}
        self.work: dict[str, int] = {}

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, self.clock(), None, parent, self.item])
        self.stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = self.clock()
        self.stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self.open(name)
        try:
            yield
        finally:
            self.close(idx)

    def stats(self) -> dict[str, dict]:
        """Per name: calls, raised, work counts, total and self seconds."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, dict] = {}

        def entry(name):
            return out.setdefault(name, {"calls": 0, "raised": 0,
                                         "total_s": 0.0, "self_s": 0.0})

        for i, (name, start, end, _, _) in enumerate(self.spans):
            e = entry(name)
            e["total_s"] += end - start
            e["self_s"] += end - start - child[i]
        for name, n in self.calls.items():
            entry(name)["calls"] = n
        for name, n in self.raised.items():
            entry(name)["raised"] = n
        for key, n in self.work.items():
            name, _, stat = key.rpartition(".")
            entry(name)[stat] = n
        return out


def _span_wrapper(tracer: Tracer, name: str, fn):
    calls, raised, work = tracer.calls, tracer.raised, tracer.work
    derive = WORK.get(name)
    key = f"{name}.{derive[0]}" if derive else None

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        calls[name] = calls.get(name, 0) + 1
        idx = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            raised[name] = raised.get(name, 0) + 1
            raise
        finally:
            tracer.close(idx)
        if derive:
            work[key] = work.get(key, 0) + derive[1](args, result)
        return result

    return wrapper


def _generator_wrapper(tracer: Tracer, name: str, fn):
    # A generator does its work while resumed, so each resumption is a span;
    # `calls` counts generators created.
    calls, raised = tracer.calls, tracer.raised

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        calls[name] = calls.get(name, 0) + 1
        it = fn(*args, **kwargs)
        while True:
            idx = tracer.open(name)
            try:
                value = next(it)
            except StopIteration:
                return
            except BaseException:
                raised[name] = raised.get(name, 0) + 1
                raise
            finally:
                tracer.close(idx)
            yield value

    return wrapper


def _count_wrapper(tracer: Tracer, name: str, fn):
    calls, raised = tracer.calls, tracer.raised

    @functools.wraps(fn)
    def wrapper(*args):
        calls[name] = calls.get(name, 0) + 1
        try:
            return fn(*args)
        except BaseException:
            raised[name] = raised.get(name, 0) + 1
            raise

    return wrapper


def public_functions(module, layer: str):
    """(name, function) for each function the module defines and exports."""
    wanted = ENTRY_ONLY.get(layer)
    for attr, value in vars(module).items():
        if attr.startswith("_") or not inspect.isfunction(value):
            continue
        if value.__module__ != module.__name__:
            continue  # imported from another layer; wrapped there
        if wanted is None or attr in wanted:
            yield attr, value


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Wrap every layer function and method while the block runs.

    Each wrapper is bound in every ``qtk`` module namespace that holds the
    original object, since modules import one another's functions by name
    (``from .poly import pow_mod``); patching only the defining module would
    silently drop those calls.
    """
    modules = {layer: importlib.import_module(f"qtk.{layer}") for layer in LAYERS}
    replace: dict[int, object] = {}
    for layer, module in modules.items():
        for attr, fn in public_functions(module, layer):
            name = f"{layer}.{attr}"
            if inspect.isgeneratorfunction(fn):
                replace[id(fn)] = _generator_wrapper(tracer, name, fn)
            else:
                replace[id(fn)] = _span_wrapper(tracer, name, fn)

    undo = []
    for modname, module in list(sys.modules.items()):
        if module is None or not (modname == "qtk" or modname.startswith("qtk.")):
            continue
        for attr, value in list(vars(module).items()):
            wrapper = replace.get(id(value))
            if wrapper is not None:
                undo.append((module, attr, value))
                setattr(module, attr, wrapper)
    for table, make in ((SPAN_METHODS, _span_wrapper),
                        (COUNT_METHODS, _count_wrapper)):
        for (layer, cls_name, attr), name in table.items():
            cls = getattr(modules[layer], cls_name)
            original = cls.__dict__[attr]
            undo.append((cls, attr, original))
            setattr(cls, attr, make(tracer, name, original))
    try:
        yield tracer
    finally:
        for holder, attr, original in reversed(undo):
            setattr(holder, attr, original)
