"""In-memory span tracing of fairseed's layers, from outside the package.

`Tracer.install` replaces every module-level function of the traced
fairseed modules (plus `trainer._bellman_targets` and the per-rollout
`RolloutStreams.at`) with a timing wrapper, in every fairseed namespace that
bound it, so calls between modules are caught as well as the benchmark's
own calls. Each wrapped call records a span (id, parent, name, start, end);
`RolloutStreams.at`, called once per rollout, is recorded as one aggregated
count-and-time span per parent span instead. `uninstall` puts the original
functions back. Spans stay in memory until `write_jsonl`.

Functions can also carry observers, called with (args, kwargs, result)
after each call, or with (args, kwargs, item) for each item a generator
yields. With `timing=False` only observed functions are wrapped and no
spans are kept; untraced rounds use that to record the calls their output
checks read (training transitions, seed-set evaluations).
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import itertools
import json
import sys
from time import perf_counter

TRACED_MODULES = ("graph", "seeding", "diffusion", "metrics", "embedding",
                  "qnet", "trainer", "baselines", "experiment")
# private functions wrapped besides the public module-level ones
PRIVATE = ("trainer._bellman_targets",)
AGGREGATED = "seeding.RolloutStreams.at"


class Tracer:
    def __init__(self, timing: bool = True, observers: dict | None = None):
        self.timing = timing
        self.observers = dict(observers or {})
        # (id, parent, root, name, start, end, child seconds); root is the
        # outermost open span, 0 for none
        self.spans: list[tuple] = []
        self.aggregates: list[tuple] = []  # (parent, root, name, calls, seconds)
        self._ids = itertools.count(1)
        # open spans: [id, child seconds, aggregated calls, aggregated seconds]
        self._stack: list[list] = []
        self._patched: list[tuple] = []    # (namespace, attribute, original)

    # -- recording -------------------------------------------------------

    def _open(self) -> list:
        frame = [next(self._ids), 0.0, 0, 0.0]
        self._stack.append(frame)
        return frame

    def _close(self, frame: list, name: str, start: float, end: float) -> None:
        self._stack.pop()
        parent, root = 0, frame[0]
        if self._stack:
            self._stack[-1][1] += end - start
            parent, root = self._stack[-1][0], self._stack[0][0]
        self.spans.append((frame[0], parent, root, name, start, end, frame[1]))
        if frame[2]:
            self.aggregates.append((frame[0], root, AGGREGATED, frame[2],
                                    frame[3]))

    def _exclude(self, seconds: float) -> None:
        """Charge observer time to no span: the caller's self time omits it."""
        if self._stack:
            self._stack[-1][1] += seconds

    @contextlib.contextmanager
    def span(self, name: str):
        """A span the benchmark itself opens around a block; yields its id."""
        frame = self._open()
        start = perf_counter()
        try:
            yield frame[0]
        finally:
            self._close(frame, name, start, perf_counter())

    # -- wrappers --------------------------------------------------------

    def _wrap(self, name: str, fn):
        observe = self.observers.get(name)
        timing = self.timing

        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                gen = fn(*args, **kwargs)
                while True:
                    if timing:
                        frame = self._open()
                        start = perf_counter()
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        if timing:
                            self._close(frame, name, start, perf_counter())
                    if observe is not None:
                        t = perf_counter()
                        observe(args, kwargs, item)
                        self._exclude(perf_counter() - t)
                    yield item
            return gen_wrapper

        if not timing:
            @functools.wraps(fn)
            def observed(*args, **kwargs):
                result = fn(*args, **kwargs)
                observe(args, kwargs, result)
                return result
            return observed

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = self._open()
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(frame, name, start, perf_counter())
            if observe is not None:
                t = perf_counter()
                observe(args, kwargs, result)
                self._exclude(perf_counter() - t)
            return result
        return wrapper

    def _wrap_aggregated(self, fn):
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = perf_counter()
            result = fn(*args, **kwargs)
            elapsed = perf_counter() - start
            if stack:
                top = stack[-1]
                top[1] += elapsed
                top[2] += 1
                top[3] += elapsed
            return result
        return wrapper

    # -- installation ----------------------------------------------------

    def install(self) -> "Tracer":
        targets = {}  # original function -> traced name
        for short in TRACED_MODULES:
            mod = importlib.import_module(f"fairseed.{short}")
            for attr, obj in vars(mod).items():
                name = f"{short}.{attr}"
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and (not attr.startswith("_") or name in PRIVATE)
                        and (self.timing or name in self.observers)):
                    targets[obj] = name
        wrappers = {fn: self._wrap(name, fn) for fn, name in targets.items()}
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "fairseed" and not mod_name.startswith("fairseed."):
                continue
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patch(mod, attr, wrappers[obj])
        if self.timing:
            from fairseed.seeding import RolloutStreams
            self._patch(RolloutStreams, "at",
                        self._wrap_aggregated(RolloutStreams.at))
        return self

    def _patch(self, namespace, attr: str, new) -> None:
        self._patched.append((namespace, attr, getattr(namespace, attr)))
        setattr(namespace, attr, new)

    def uninstall(self) -> None:
        while self._patched:
            namespace, attr, original = self._patched.pop()
            setattr(namespace, attr, original)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> bool:
        self.uninstall()
        return False

    # -- results ---------------------------------------------------------

    def totals(self, roots: set[int]) -> dict[str, list]:
        """name -> [calls, inclusive seconds, self seconds], summed over the
        spans under the given outermost spans."""
        out: dict[str, list] = {}
        for _, _, root, name, start, end, child in self.spans:
            if root in roots:
                t = out.setdefault(name, [0, 0.0, 0.0])
                t[0] += 1
                t[1] += end - start
                t[2] += end - start - child
        for _, root, name, calls, seconds in self.aggregates:
            if root in roots:
                t = out.setdefault(name, [0, 0.0, 0.0])
                t[0] += calls
                t[1] += seconds
                t[2] += seconds
        return out

    def write_jsonl(self, path: str) -> None:
        with open(path, "w") as fh:
            for sid, parent, _, name, start, end, _ in sorted(self.spans):
                fh.write(json.dumps({"id": sid, "parent": parent, "name": name,
                                     "start": start, "end": end}) + "\n")
            for parent, _, name, calls, seconds in self.aggregates:
                fh.write(json.dumps({"parent": parent, "name": name,
                                     "calls": calls, "seconds": seconds}) + "\n")
