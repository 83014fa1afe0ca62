"""In-memory span tracer that wraps the package's public functions from outside.

``from .x import f`` binds ``f`` again in every importing module, so each
function is wrapped under every name it is looked up by: every attribute of
a ``cqcovert`` module that is the original object.  ``numpy.linalg.eigh``,
``numpy.linalg.eigvalsh`` and ``numpy.kron`` are wrapped on numpy itself,
which is where the package looks them up; ``scipy.optimize.linprog`` gets
one span name per module that imports it (``regime.linprog``,
``scaling.linprog``).  Nothing under ``src/`` changes.

A span is (name, start, end, parent).  Spans stay in memory while tracing
runs and are written out afterwards as one JSON object of columns.
"""

from __future__ import annotations

import json
import sys
import time
from array import array
from collections import Counter, defaultdict
from contextlib import contextmanager

import numpy as np

import cqcovert

MODULES = ("operators", "divergences", "channel", "simulate", "scaling", "regime")
FUNCTIONS = (
    "operators.tensor_power",
    "divergences.relative_entropy",
    "divergences.von_neumann_entropy",
    "divergences.holevo_information",
    "divergences.chi_squared",
    "channel.product_output_state",
    "simulate.covertness_divergence",
    "simulate.pgm_error_probability",
    "simulate.sample_codebook",
    "simulate.sqrt_law_sweep",
    "scaling.converse_chain",
    "scaling.scaling_constant",
    "scaling.covert_rate",
    "regime.classify",
)


def _targets():
    """(span name, original object, owner, attribute) for every wrapped name."""
    mods = {name: sys.modules[f"cqcovert.{name}"] for name in MODULES}
    out = [
        ("operators.eigh", np.linalg.eigh, np.linalg, "eigh"),
        ("operators.eigvalsh", np.linalg.eigvalsh, np.linalg, "eigvalsh"),
        ("operators.kron", np.kron, np, "kron"),
        ("operators.hermitian_init", cqcovert.HermitianOperator.__init__,
         cqcovert.HermitianOperator, "__init__"),
    ]
    owners = [cqcovert] + list(mods.values())
    for span in FUNCTIONS:
        layer, name = span.split(".")
        fn = getattr(mods[layer], name)
        for owner in owners:
            for attr, value in list(vars(owner).items()):
                if value is fn:
                    out.append((span, fn, owner, attr))
    linprog = mods["regime"].linprog
    for name in ("regime", "scaling"):
        out.append((f"{name}.linprog", linprog, mods[name], "linprog"))
    return out


class Tracer:
    """Wraps the targets on ``install`` and restores them on ``uninstall``."""

    def __init__(self):
        self.names: list = []
        # One span per index across four flat arrays: the garbage collector
        # does not traverse them, so a long trace does not slow later rounds.
        self.name_ids = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("i")
        self.stack: list = []
        self.eigh_dim3 = 0
        self._patched: list = []

    def _open(self, name_id: int) -> int:
        index = len(self.name_ids)
        self.name_ids.append(name_id)
        self.parents.append(self.stack[-1] if self.stack else -1)
        self.starts.append(0.0)
        self.ends.append(0.0)
        self.stack.append(index)
        return index

    def _name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def _wrap(self, name: str, fn):
        name_id = self._name_id(name)
        count_dim3 = name in ("operators.eigh", "operators.eigvalsh")
        starts, ends, stack, clock = self.starts, self.ends, self.stack, time.perf_counter

        def wrapper(*args, **kwargs):
            if count_dim3:
                self.eigh_dim3 += int(np.shape(args[0])[-1]) ** 3
            index = self._open(name_id)
            starts[index] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()

        wrapper.__wrapped__ = fn
        return wrapper

    @contextmanager
    def span(self, name: str):
        """A span around the benchmark's own calls into the package."""
        index = self._open(self._name_id(name))
        self.starts[index] = time.perf_counter()
        try:
            yield
        finally:
            self.ends[index] = time.perf_counter()
            self.stack.pop()

    def install(self):
        wrappers = {}
        for span, fn, owner, attr in _targets():
            key = (span, id(fn))
            if key not in wrappers:
                wrappers[key] = self._wrap(span, fn)
            setattr(owner, attr, wrappers[key])
            self._patched.append((owner, attr, fn))

    def uninstall(self):
        for owner, attr, fn in reversed(self._patched):
            setattr(owner, attr, fn)
        self._patched.clear()

    def summary(self) -> dict:
        """Calls, inclusive time (outermost spans of a name) and per-layer self time."""
        name_ids, parents = self.name_ids, self.parents
        durations = [end - start for start, end in zip(self.starts, self.ends)]
        child_time = defaultdict(float)
        for parent, duration in zip(parents, durations):
            if parent >= 0:
                child_time[parent] += duration
        calls = Counter()
        inclusive = defaultdict(float)
        layer_self = defaultdict(float)
        for index, (name_id, duration) in enumerate(zip(name_ids, durations)):
            name = self.names[name_id]
            calls[name] += 1
            layer_self[name.split(".")[0]] += duration - child_time[index]
            ancestor = parents[index]
            while ancestor >= 0 and name_ids[ancestor] != name_id:
                ancestor = parents[ancestor]
            if ancestor < 0:
                inclusive[name] += duration
        return {"calls": dict(calls), "inclusive_s": dict(inclusive),
                "self_s": dict(layer_self), "eigh_dim3_sum": self.eigh_dim3}

    def write(self, path: str):
        with open(path, "w") as fh:
            json.dump({"names": self.names, "name": self.name_ids.tolist(),
                       "start": self.starts.tolist(), "end": self.ends.tolist(),
                       "parent": self.parents.tolist()}, fh)
