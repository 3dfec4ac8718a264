"""Span tracer that measures hambif's layers from outside the package.

The tracer replaces public functions at every module attribute where a
caller looks them up (``hambif.orbits.gradient_of`` and
``hambif.model.gradient_of`` are both wrapped, so calls from either module
are seen), and wraps the evaluator callables of the systems handed to the
program.  Each span knows its parent through a stack; a span's self time
is its duration minus the time of the spans it encloses, and each span
name keeps a count of calls by parent name.  Spans are folded
into per-name totals as they close, so memory stays flat however many
evaluator calls a run makes, and the totals are written out at the end.

Nothing in ``src/`` is changed; ``installed`` restores every attribute.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import math
from collections import Counter
from dataclasses import replace
from time import perf_counter

# Functions wrapped by module.  linalg is wrapped whole (its ``__all__``).
TARGETS = {
    "model": ("refine_equilibrium", "gradient_of", "hessian_of"),
    "analysis": ("analyze", "spectral_report", "morse_jump"),
    "degree": ("section_degree",),
    "orbits": ("continue_branch", "solve_orbit", "residual_field", "kernel_direction"),
    "cli": ("main",),
}


class Tracer:
    """Per-span-name call counts, total and self time, parent edges and counters."""

    def __init__(self):
        self.stats = {}  # name -> [calls, total seconds, self seconds]
        self.parents = {}  # name -> {parent name: calls}
        self.counts = Counter()
        self.max_modes = 0
        self._stack = []

    def wrap(self, name, fn, on_return=None):
        stack = self._stack
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        parents = self.parents.setdefault(name, {})

        @functools.wraps(fn)
        def span(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [0.0, name]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                stats[0] += 1
                stats[1] += elapsed
                stats[2] += elapsed - frame[0]
                key = ""
                if parent is not None:
                    parent[0] += elapsed
                    key = parent[1]
                parents[key] = parents.get(key, 0) + 1
            if on_return is not None:
                on_return(self, args, kwargs, result)
            return result

        return span

    def wrap_system(self, system):
        """A copy of ``system`` whose supplied evaluators are spans."""
        wrapped = {
            key: self.wrap(f"evaluator.{key}", getattr(system, key))
            for key in ("energy", "gradient", "hessian")
            if getattr(system, key) is not None
        }
        return replace(system, **wrapped)

    def calls(self, *names) -> int:
        return sum(self.stats[n][0] for n in names if n in self.stats)

    def self_s(self, *names) -> float:
        return sum(self.stats[n][2] for n in names if n in self.stats)

    def names(self, prefix: str) -> list:
        return [n for n in self.stats if n.startswith(prefix)]

    def to_json(self) -> dict:
        return {
            "spans": {
                name: {"calls": c, "total_s": t, "self_s": s, "parents": self.parents[name]}
                for name, (c, t, s) in sorted(self.stats.items())
                if c
            },
            "counts": dict(self.counts),
            "max_modes": self.max_modes,
        }

    def merge_json(self, data: dict) -> None:
        for name, span in data["spans"].items():
            stats = self.stats.setdefault(name, [0, 0.0, 0.0])
            stats[0] += span["calls"]
            stats[1] += span["total_s"]
            stats[2] += span["self_s"]
            parents = self.parents.setdefault(name, {})
            for parent, n in span["parents"].items():
                parents[parent] = parents.get(parent, 0) + n
        self.counts.update(data["counts"])
        self.max_modes = max(self.max_modes, data["max_modes"])


def _count_degree_path(tracer, args, kwargs, report):
    tracer.counts[f"degree.path.{report.path}"] += 1


def _count_orbits(tracer, args, kwargs, branch):
    tracer.counts["orbits.orbits"] += len(branch.orbits)


def _mode_hook(solve_orbit):
    signature = inspect.signature(solve_orbit)

    def hook(tracer, args, kwargs, orbit):
        start = signature.bind(*args, **kwargs)
        start.apply_defaults()
        modes = start.arguments.get("modes")
        if modes:
            tracer.counts["orbits.mode_doublings"] += int(round(math.log2(orbit.m / modes)))
        tracer.max_modes = max(tracer.max_modes, orbit.m)

    return hook


@contextlib.contextmanager
def installed(tracer: Tracer, hambif):
    """Wrap the target functions at every hambif module attribute bound to them."""
    modules = [hambif] + [getattr(hambif, name) for name in ("model", "analysis", "degree", "orbits", "linalg", "cli")]
    wanted = [(mod, fn_name) for mod, names in TARGETS.items() for fn_name in names]
    wanted += [("linalg", fn_name) for fn_name in hambif.linalg.__all__]
    hooks = {"section_degree": _count_degree_path, "continue_branch": _count_orbits}
    wrappers = {}
    for mod_name, fn_name in wanted:
        fn = getattr(getattr(hambif, mod_name), fn_name, None)
        if fn is None:  # a later version may drop a function; its spans read 0
            continue
        hook = _mode_hook(fn) if fn_name == "solve_orbit" else hooks.get(fn_name)
        wrappers[id(fn)] = (fn, tracer.wrap(f"{mod_name}.{fn_name}", fn, hook))
    patched = []
    for module in modules:
        for attr, value in list(vars(module).items()):
            entry = wrappers.get(id(value))
            if entry is not None and entry[0] is value:
                setattr(module, attr, entry[1])
                patched.append((module, attr, value))
    try:
        yield tracer
    finally:
        for module, attr, value in reversed(patched):
            setattr(module, attr, value)
