"""Span tracer for the rabinsig package, installed from outside the package.

The package imports functions by name (`from .numtheory import jacobi` in
keygen, schemes, blind and cli), and schemes dispatches through module-level
dicts, so wrapping `numtheory.jacobi` alone would miss most calls.  `Tracer`
wraps every public function of every rabinsig module, rebinds the wrapper
wherever the original is bound (module attributes and module-level dict
values), wraps `KeyPair.from_primes`, and restores every binding on exit.

Spans live in parallel arrays (about 26 bytes each) and are written out once,
when the run ends.  A span records its name, start, end and parent; the root
of its parent chain is the benchmark operation that caused it.
"""

import functools
import gzip
import inspect
import json
import sys
from array import array
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

_PREFIX = "rabinsig"
_FROM_PRIMES = "keygen.KeyPair.from_primes"


def _package_modules():
    return [mod for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == _PREFIX or name.startswith(_PREFIX + "."))]


def _short(module_name: str) -> str:
    return module_name.rsplit(".", 1)[-1]


def public_functions():
    """Every public function defined in a rabinsig module, keyed by span name."""
    found = {}
    for mod in _package_modules():
        for name, obj in vars(mod).items():
            if (inspect.isfunction(obj) and name == obj.__name__ and not name.startswith("_")
                    and obj.__module__ == mod.__name__):
                found[f"{_short(mod.__name__)}.{name}"] = obj
    return found


class Tracer:
    """Records one span per call into the package while installed.

    Use `with tracer:` around the traced phase and `with tracer.op(name):`
    around each benchmark operation; calls beneath an operation become its
    descendants.  `verdicts` counts, per span name, the calls that returned
    True (prime tests) or a valid verification report; `op_counts` sums the
    (squares, products) of those valid reports.
    """

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("H")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.verdicts: Counter = Counter()
        self.op_counts: dict[str, list[int]] = {}
        self._stack: list[int] = []
        self._undo: list = []
        self.t0 = perf_counter()

    # -- recording ---------------------------------------------------------

    def _name_id(self, name: str) -> int:
        idx = self._name_ids.get(name)
        if idx is None:
            idx = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return idx

    def _open(self, name_id: int) -> int:
        sid = len(self.parent)
        self.name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(sid)
        self.start.append(perf_counter())
        return sid

    def _close(self, sid: int):
        self.end[sid] = perf_counter()
        self._stack.pop()

    @contextmanager
    def op(self, name: str):
        """A root span for one benchmark operation."""
        sid = self._open(self._name_id(name))
        try:
            yield
        finally:
            self._close(sid)

    def _wrap(self, fn, span_name: str):
        name_id = self._name_id(span_name)
        tracer = self

        def traced(*args, **kwargs):
            sid = tracer._open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(sid)
            if result is True or getattr(result, "valid", False) is True:
                tracer.verdicts[span_name] += 1
                counts = getattr(result, "op_counts", None)
                if counts is not None:
                    total = tracer.op_counts.setdefault(span_name, [0, 0])
                    total[0] += counts[0]
                    total[1] += counts[1]
            return result

        return functools.wraps(fn)(traced)

    # -- installation --------------------------------------------------------

    def __enter__(self):
        originals = public_functions()
        wrappers = {id(fn): self._wrap(fn, name) for name, fn in originals.items()}
        for mod in _package_modules():
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and id(value) in wrappers:
                    self._undo.append((setattr, mod, attr, value))
                    setattr(mod, attr, wrappers[id(value)])
                elif isinstance(value, dict):
                    for key, entry in list(value.items()):
                        if inspect.isfunction(entry) and id(entry) in wrappers:
                            self._undo.append((dict.__setitem__, value, key, entry))
                            value[key] = wrappers[id(entry)]
        keygen = sys.modules[f"{_PREFIX}.keygen"]
        original = vars(keygen.KeyPair)["from_primes"]
        self._undo.append((setattr, keygen.KeyPair, "from_primes", original))
        keygen.KeyPair.from_primes = classmethod(self._wrap(original.__func__, _FROM_PRIMES))
        return self

    def __exit__(self, *exc):
        while self._undo:
            restore, target, key, value = self._undo.pop()
            restore(target, key, value)
        return False

    # -- analysis ------------------------------------------------------------

    def __len__(self):
        return len(self.parent)

    def analyse(self):
        """Per-span self time (duration minus the time its children cover) and root span."""
        n = len(self.parent)
        child_time = array("d", bytes(8 * n))
        root = array("l", range(n))
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child_time[p] += self.end[i] - self.start[i]
                root[i] = root[p]
        self_time = array("d", (self.end[i] - self.start[i] - child_time[i] for i in range(n)))
        return self_time, root

    def flags_under(self, ancestor: str) -> bytearray:
        """Flag the spans that have an ancestor span named `ancestor`."""
        target = self._name_ids.get(ancestor, -1)
        flags = bytearray(len(self.parent))
        for i, p in enumerate(self.parent):
            if p >= 0 and (self.name[p] == target or flags[p]):
                flags[i] = 1
        return flags

    def write(self, path, root):
        """Write the spans as a gzipped JSON object of columns; times in ns from tracer creation."""
        t0 = self.t0
        columns = {
            "names": self.names,
            "parent": self.parent.tolist(),
            "root": root.tolist(),
            "name": self.name.tolist(),
            "start_ns": [int((t - t0) * 1e9) for t in self.start],
            "end_ns": [int((t - t0) * 1e9) for t in self.end],
        }
        with gzip.open(path, "wt", compresslevel=1) as out:
            json.dump(columns, out)
