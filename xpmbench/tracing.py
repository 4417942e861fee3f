"""Spans around the public functions of the package's layer modules.

``install`` wraps every public function defined in a layer module, in every
``rydberg_xpm`` module namespace that holds it (``fitting`` imports
``spectrum`` by name, ``cli`` imports ``integrated_phase``, ...), plus
``RunConfig.__init__``; ``uninstall`` puts the originals back.  The package
source stays untouched.

A span records its name, start, end and parent.  Self time is a span's
duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from array import array

LAYERS = ("susceptibility", "blockade", "polarization", "photostatistics",
          "fitting", "config", "cli")


class Tracer:
    """Spans kept in memory as parallel arrays; parents precede children."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("l")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self._stack: list[int] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn):
        """``fn`` inside a span; spans of ``blockade.integrated_phase`` are
        named by excitation number (``#n0``, ``#n1``)."""
        by_excitations = name == "blockade.integrated_phase"
        fixed_id = self._id(name)
        clock = time.perf_counter
        stack, ids, start, end, parent = (
            self._stack, self.name_id, self.start, self.end, self.parent)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(start)
            if by_excitations:
                n = kwargs.get("n_excitations", args[4] if len(args) > 4 else None)
                ids.append(self._id(f"{name}#n{n}"))
            else:
                ids.append(fixed_id)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()

        return traced

    def __len__(self) -> int:
        return len(self.start)


def install(tracer: Tracer) -> list:
    """Wrap the layer functions; returns what ``uninstall`` restores."""
    originals = {}
    for layer in LAYERS:
        mod = importlib.import_module(f"rydberg_xpm.{layer}")
        for name, obj in vars(mod).items():
            if (not name.startswith("_") and inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__):
                originals[obj] = f"{layer}.{name}"
    wrappers = {fn: tracer.wrap(qname, fn) for fn, qname in originals.items()}
    patched = []
    for modname, mod in list(sys.modules.items()):
        if modname != "rydberg_xpm" and not modname.startswith("rydberg_xpm."):
            continue
        for name, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in wrappers:
                setattr(mod, name, wrappers[obj])
                patched.append((mod, name, obj))
    run_config = importlib.import_module("rydberg_xpm.config").RunConfig
    patched.append((run_config, "__init__", run_config.__init__))
    run_config.__init__ = tracer.wrap("config.RunConfig", run_config.__init__)
    return patched


def uninstall(patched: list) -> None:
    for owner, name, original in reversed(patched):
        setattr(owner, name, original)


def summarize(tracer: Tracer) -> dict:
    """Per span name: calls, total and self seconds; plus, for the count
    metrics, calls of a name inside spans of another name."""
    n = len(tracer)
    names = tracer.names
    ids, start, end, parent = tracer.name_id, tracer.start, tracer.end, tracer.parent
    child = [0.0] * n
    for i in range(n):
        p = parent[i]
        if p >= 0:
            child[p] += end[i] - start[i]
    calls, total, self_s = {}, {}, {}
    for i in range(n):
        name = names[ids[i]]
        dur = end[i] - start[i]
        calls[name] = calls.get(name, 0) + 1
        total[name] = total.get(name, 0.0) + dur
        self_s[name] = self_s.get(name, 0.0) + dur - child[i]

    def inside(outer: str, inner: str) -> int:
        """Calls of ``inner`` with an ``outer`` span among their ancestors."""
        outer_ids = {k for k, v in enumerate(names) if v == outer}
        inner_ids = {k for k, v in enumerate(names) if v == inner}
        flag = bytearray(n)
        count = 0
        for i in range(n):
            p = parent[i]
            flag[i] = ids[i] in outer_ids or (p >= 0 and flag[p])
            if ids[i] in inner_ids and p >= 0 and flag[p]:
                count += 1
        return count

    return {"calls": calls, "total": total, "self": self_s, "inside": inside}
