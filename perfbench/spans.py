"""In-memory span tracer that wraps grayspace's public functions from outside.

Every wrapped call records a span (id, parent id, op id, name, start, end)
and adds to per-name aggregates: calls, self time (duration minus the time
covered by child spans) and total time (outermost calls only, so recursion
is not counted twice).  Field operations are only counted: the tracer
replaces the add/sub/neg/mul/inv attributes of the field contexts it is
given, or that a traced field function returns, with counting closures.

Spans beyond `span_cap` are aggregated but not stored, so a long traced run
keeps a bounded amount of memory; `dropped` says how many were left out.
"""

from __future__ import annotations

import functools
import inspect
from collections import Counter
from time import perf_counter

# modules whose public functions are traced, in import order
MODULES = ("field", "linalg", "qcombin", "grassmann_gray", "codec",
           "projective_gray", "cli")

# time spent under these spans is broken down by descendant name
ROOTS = ("codec.decode",)

FIELD_OPS = (("add", "add"), ("sub", "add"), ("neg", "add"),
             ("mul", "mul"), ("inv", "inv"))


def _traceable(module, name, obj):
    if name.startswith("_") or inspect.isclass(obj):
        return False
    if not (inspect.isfunction(obj) or hasattr(obj, "cache_info")):
        return False
    return getattr(obj, "__module__", None) == module.__name__


class Tracer:
    def __init__(self, span_cap=100_000):
        self.span_cap = span_cap
        self.spans = []
        self.dropped = 0
        self.op = 0
        self._next_id = 0
        self._stack = []        # frames: [name, span id, start, child time]
        self.active = Counter()
        self.calls = Counter()
        self.self_s = Counter()
        self.total_s = Counter()
        self.child_calls = Counter()   # (parent name, child name) -> calls
        self.under = Counter()         # (root name, name) -> seconds
        self.field_calls = Counter()
        self._field_cells = []          # (kind, [count])
        self._patched = []              # (owner, attribute, original)
        self._counted_ctx = set()
        self._field_type = None

    # -- spans ---------------------------------------------------------------

    def _enter(self, name):
        self._next_id += 1
        frame = [name, self._next_id, perf_counter(), 0.0]
        self.active[name] += 1
        self._stack.append(frame)
        return frame

    def _exit(self, frame, count_call=True):
        end = perf_counter()
        stack = self._stack
        stack.pop()
        name, span_id, start, child = frame
        dur = end - start
        if count_call:
            self.calls[name] += 1
        self.self_s[name] += dur - child
        active = self.active
        active[name] -= 1
        parent_id = 0
        if stack:
            parent = stack[-1]
            parent[3] += dur
            parent_id = parent[1]
            self.child_calls[(parent[0], name)] += 1
        if not active[name]:
            self.total_s[name] += dur
            for root in ROOTS:
                if active[root] and root != name:
                    self.under[(root, name)] += dur
        if len(self.spans) < self.span_cap:
            self.spans.append((span_id, parent_id, self.op, name, start, end))
        else:
            self.dropped += 1

    def wrap(self, name, fn):
        enter, leave = self._enter, self._exit
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(name, fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                leave(frame)
        return traced

    def _wrap_generator(self, name, fn):
        """One span per resume of the outermost generator of this name.

        Generators created while one of the same name is being resumed
        (recursion through the module global) run unwrapped, so a recursive
        generator is timed once, at the top.
        """
        enter, leave, active, calls = (self._enter, self._exit, self.active,
                                       self.calls)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if active[name]:
                return fn(*args, **kwargs)
            calls[name] += 1
            return _resumes(fn(*args, **kwargs))

        def _resumes(gen):
            while True:
                frame = enter(name)
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    leave(frame, count_call=False)
                yield item
        return traced

    # -- field counters ------------------------------------------------------

    def count_field(self, ctx):
        """Replace the arithmetic attributes of ctx with counting closures."""
        if id(ctx) in self._counted_ctx:
            return
        self._counted_ctx.add(id(ctx))
        for attr, kind in FIELD_OPS:
            original = getattr(ctx, attr)
            cell = [0]
            self._field_cells.append((kind, cell))
            self._patched.append((ctx, attr, original))
            setattr(ctx, attr, _counting(original, cell))

    def _field_hook(self, fn):
        field_type = self._field_type

        @functools.wraps(fn)
        def hooked(*args, **kwargs):
            out = fn(*args, **kwargs)
            if isinstance(out, field_type):
                self.count_field(out)
            return out
        return hooked

    # -- installing ----------------------------------------------------------

    def install(self, modules):
        """Wrap every public function of `modules` (a name -> module dict).

        A function is replaced in its own module and under every name
        another traced module imported it as, so calls through
        `from .linalg import reduce_vector` are seen too.
        """
        self._field_type = modules["field"].FieldContext
        replace = {}
        for short in MODULES:
            module = modules[short]
            for attr, obj in list(vars(module).items()):
                if not _traceable(module, attr, obj):
                    continue
                fn = self._field_hook(obj) if short == "field" else obj
                name = "%s.%s" % (short, attr)
                replace[id(obj)] = (obj, self.wrap(name, fn))
        for module in modules.values():
            for attr, obj in list(vars(module).items()):
                hit = replace.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patched.append((module, attr, obj))
                    setattr(module, attr, hit[1])

    def uninstall(self):
        """Put back every replaced function and field attribute."""
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()
        self._counted_ctx.clear()
        for kind, cell in self._field_cells:
            self.field_calls[kind] += cell[0]
        self._field_cells.clear()

    # -- output --------------------------------------------------------------

    def write_spans(self, path):
        """Write the stored spans as CSV, in microseconds from the first."""
        t0 = self.spans[0][4] if self.spans else 0.0
        with open(path, "w") as f:
            f.write("span,parent,op,name,start_us,end_us\n")
            for span_id, parent, op, name, start, end in self.spans:
                f.write("%d,%d,%d,%s,%.3f,%.3f\n" % (
                    span_id, parent, op, name, (start - t0) * 1e6,
                    (end - t0) * 1e6))


def _counting(fn, cell):
    def counted(*args):
        cell[0] += 1
        return fn(*args)
    return counted
