"""Span tracing of the library's layers, installed from outside the library.

``Tracer.installed()`` wraps every public function and public classmethod of
the traced modules and rebinds each name wherever a ``spin_transfer`` module
imported it, so calls between modules are seen too.  Spans are kept in
memory as (name, op id, parent index, start, end, work) and aggregated into
per-layer metrics when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

import numpy as np

from spin_transfer import cli, entanglement, model, protocol, qla, qutritmax, transfer

LAYERS = (cli, transfer, model, qla, entanglement, qutritmax, protocol)
SETUP_OP = -1


def _short(module) -> str:
    return module.__name__.rsplit(".", 1)[-1]


def _iterate_name(args, kwargs) -> str:
    mode = kwargs.get("mode", args[3] if len(args) > 3 else protocol.MODE_PURE_RESET)
    return "pure_reset" if mode == protocol.MODE_PURE_RESET else "mixed"


def _columns(args, kwargs) -> int:
    amps = np.asarray(args[1] if len(args) > 1 else kwargs["amplitudes"])
    return 1 if amps.ndim == 1 else amps.shape[1]


def _elements(args, kwargs) -> int:
    return np.broadcast(*args).size


def _evolution_key(args, kwargs) -> tuple[int, float]:
    m = args[0] if args else kwargs["model"]
    t = args[1] if len(args) > 1 else kwargs["t"]
    return (m.source_dim, float(t))


#: Span-name suffixes and per-call work counts for the spans that need them.
_SUFFIX: dict[str, Callable] = {"protocol.iterate_transfer": _iterate_name}
_WORK: dict[str, Callable] = {
    "qutritmax.negativity_at_half_period": _columns,
    "entanglement.xstate_negativity_raw": _elements,
    "model.full_evolution": _evolution_key,
}


@dataclass
class Span:
    name: str
    op: int
    parent: int
    start: float
    end: float = 0.0
    work: Any = None


@dataclass
class Tracer:
    """Collects spans for the op whose id is in ``op``; records nothing while
    ``op`` is None."""

    spans: list[Span] = field(default_factory=list)
    op: int | None = None
    _stack: list[int] = field(default_factory=list)

    def _wrap(self, name: str, fn: Callable) -> Callable:
        suffix = _SUFFIX.get(name)
        work = _WORK.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            span = Span(
                f"{name}.{suffix(args, kwargs)}" if suffix else name,
                self.op,
                self._stack[-1] if self._stack else -1,
                0.0,
                work=work(args, kwargs) if work else None,
            )
            index = len(self.spans)
            self.spans.append(span)
            self._stack.append(index)
            span.start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()

        return traced

    @contextlib.contextmanager
    def installed(self) -> Iterator["Tracer"]:
        """Wrap the layers' public callables for the duration of the block."""
        wrappers: dict[int, Callable] = {}
        restore: list[tuple[Any, str, Any]] = []
        for module in LAYERS:
            layer = _short(module)
            for attr, value in vars(module).items():
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(value) and value.__module__ == module.__name__:
                    wrappers[id(value)] = self._wrap(f"{layer}.{attr}", value)
                elif inspect.isclass(value) and value.__module__ == module.__name__:
                    for meth, raw in vars(value).items():
                        if isinstance(raw, classmethod) and not meth.startswith("_"):
                            name = f"{layer}.{attr}.{meth}"
                            restore.append((value, meth, raw))
                            setattr(value, meth, classmethod(self._wrap(name, raw.__func__)))
        for mod_name, module in list(sys.modules.items()):
            if mod_name == "spin_transfer" or mod_name.startswith("spin_transfer."):
                for attr, value in list(vars(module).items()):
                    if id(value) in wrappers:
                        restore.append((module, attr, value))
                        setattr(module, attr, wrappers[id(value)])
        try:
            yield self
        finally:
            for owner, attr, value in reversed(restore):
                setattr(owner, attr, value)


@dataclass
class LayerStats:
    calls: int = 0
    s: float = 0.0
    self_s: float = 0.0
    work: list = field(default_factory=list)


def aggregate(spans: list[Span], ops: set[int] | None = None) -> dict[str, LayerStats]:
    """Calls, total time and self time (total minus direct children) per
    span name, over the spans of the given ops (all ops when None)."""
    child_time = defaultdict(float)
    for span in spans:
        if span.parent >= 0:
            child_time[span.parent] += span.end - span.start
    stats: dict[str, LayerStats] = defaultdict(LayerStats)
    for index, span in enumerate(spans):
        if ops is not None and span.op not in ops:
            continue
        entry = stats[span.name]
        duration = span.end - span.start
        entry.calls += 1
        entry.s += duration
        entry.self_s += duration - child_time[index]
        if span.work is not None:
            entry.work.append(span.work)
    return stats


def top_level_time(spans: list[Span], names: set[str], ops: set[int]) -> float:
    """Time in spans with one of ``names`` that have no ancestor among them."""
    total = 0.0
    for span in spans:
        if span.op in ops and span.name in names:
            parent = span.parent
            while parent >= 0 and spans[parent].name not in names:
                parent = spans[parent].parent
            if parent < 0:
                total += span.end - span.start
    return total


def calls_per_op(spans: list[Span], name: str) -> dict[int, int]:
    counts: dict[int, int] = defaultdict(int)
    for span in spans:
        if span.name == name:
            counts[span.op] += 1
    return counts


#: Real floating-point operations per amplitude column of
#: ``negativity_at_half_period``, counted from its array shapes (complex
#: multiply 6, complex multiply-add 8): the 4x9 product state, the 36x36
#: propagator product, the three 9-term block inner products, and about a
#: dozen scalar operations of the X-state formula.
KERNEL_FLOPS_PER_COLUMN = 36 * 6 + 36 * 36 * 8 + 3 * 9 * 8 + 12


def kernel_bytes_per_column(columns_per_call: float) -> float:
    """Bytes per column of ``negativity_at_half_period``, counted from array
    shapes with each array written once and read once: 3 float amplitudes
    read, the 9-entry source, the 36-entry initial and evolved states
    (complex), 5 length-N result vectors, and the 36x36 complex propagator
    read once per call.  Cache misses are not counted."""
    per_column = 3 * 8 + 2 * 16 * (9 + 36 + 36) + 2 * 8 * 5
    return per_column + 36 * 36 * 16 / columns_per_call
