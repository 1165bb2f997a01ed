"""Spans and counts around calls into gabp's modules, recorded from outside.

The tracer replaces the public functions of the given modules with timing
wrappers for as long as it is installed.  This reaches calls made between
and inside the modules because gabp calls them through module attributes
(``engine.run``, ``analysis.bounds_ul``, ``cones.symmetrize``) or through
module globals (``combined_update`` calling ``var_to_factor``), and a
module's globals are its attribute dictionary.

Every wrapped call records one span: name, start, end, parent span and
command id.  Spans live in flat arrays so that a command with a hundred
thousand engine calls stays small, and are written out with ``save`` when
the benchmark ends.  Layers listed as ``counted`` get a call counter instead
of spans: their calls are too many and too short to time one by one, and
their time stays in the self time of the layer that called them.
"""

import contextlib
import time
import types
from array import array

import numpy as np

ROOT_NAME = "cli.main"


class Tracer:
    def __init__(self, modules, counted=(), observers=None):
        """``modules`` maps a layer name to its module.  ``observers`` maps
        a span name to a function of the call's return value that gives a
        dict of numbers; they are summed per command, after the command
        span has closed, so their cost stays out of every span."""
        self._modules = dict(modules)
        self._counted = set(counted)
        self._observers = dict(observers or {})
        self.names = [ROOT_NAME]
        self._ids = {ROOT_NAME: 0}
        self.name = array("l")
        self.parent = array("l")
        self.command = array("l")
        self.start = array("d")
        self.end = array("d")
        self.counts = {}
        self.observed = {}
        self._pending = []
        self._stack = []
        self._cmd = -1
        self._commands = 0
        self._originals = []

    # -- installation ------------------------------------------------------

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def install(self):
        if self._originals:
            raise RuntimeError("tracer is already installed")
        for layer, module in self._modules.items():
            for attr in module.__all__:
                fn = getattr(module, attr)
                if not isinstance(fn, types.FunctionType):
                    continue
                name = f"{layer}.{attr}"
                if layer in self._counted:
                    wrapper = self._count_wrapper(fn, name)
                else:
                    wrapper = self._span_wrapper(fn, self._name_id(name))
                self._originals.append((module, attr, fn))
                setattr(module, attr, wrapper)

    def uninstall(self):
        while self._originals:
            module, attr, fn = self._originals.pop()
            setattr(module, attr, fn)

    def _name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    # -- recording ---------------------------------------------------------

    def _open(self, name_id):
        idx = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.command.append(self._cmd)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx):
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def _span_wrapper(self, fn, name_id):
        observer = self._observers.get(self.names[name_id])

        def wrapper(*args, **kwargs):
            idx = self._open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if observer is not None and self._cmd >= 0:
                self._pending.append((observer, result))
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _count_wrapper(self, fn, name):
        def wrapper(*args, **kwargs):
            if self._cmd >= 0:
                bucket = self.counts[self._cmd]
                bucket[name] = bucket.get(name, 0) + 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    @contextlib.contextmanager
    def command_span(self):
        """One traced command: the root span that all layer spans of the
        command hang under.  Yields the command id."""
        if self._stack:
            raise RuntimeError("a command span is already open")
        cmd = self._cmd = self._commands
        self._commands += 1
        self.counts[cmd] = {}
        idx = self._open(0)
        try:
            yield cmd
        finally:
            self._close(idx)
            bucket = self.observed.setdefault(cmd, {})
            while self._pending:
                observer, result = self._pending.pop()
                for key, value in observer(result).items():
                    bucket[key] = bucket.get(key, 0) + value
            self._cmd = -1

    # -- reading -----------------------------------------------------------

    def summary(self, cmd):
        """Per-name totals of one command.

        Returns {name: (calls, inclusive seconds, self seconds)}, where a
        span's self time is its duration minus the durations of its direct
        children.  Children of one span run one after another on one
        thread, so their durations never overlap.
        """
        sel = np.flatnonzero(np.frombuffer(self.command, dtype=np.int64) == cmd)
        names = np.frombuffer(self.name, dtype=np.int64)[sel]
        parents = np.frombuffer(self.parent, dtype=np.int64)[sel]
        dur = (np.frombuffer(self.end, dtype=float) - np.frombuffer(self.start, dtype=float))[sel]
        child = np.zeros(len(self.start))
        has_parent = parents >= 0
        np.add.at(child, parents[has_parent], dur[has_parent])
        self_time = dur - child[sel]
        out = {}
        for nid in np.unique(names):
            mask = names == nid
            out[self.names[nid]] = (
                int(mask.sum()),
                float(dur[mask].sum()),
                float(self_time[mask].sum()),
            )
        return out

    def save(self, path):
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.int64),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            command=np.frombuffer(self.command, dtype=np.int64),
            start=np.frombuffer(self.start, dtype=float),
            end=np.frombuffer(self.end, dtype=float),
        )
