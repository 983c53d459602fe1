"""Outside-in tracer for the ackflow layers.

Each public callable is replaced where its caller looks it up (a module
global or a class attribute) by a wrapper that times the call.  A parent
stack attributes every span's duration to its caller, so a layer's self
time is its span time minus the time of the spans it caused.  The hot
methods run millions of times per run, so spans are folded into per-name
totals in memory instead of being kept one by one.  Leaving the ``with``
block restores every original.
"""

from __future__ import annotations

import importlib
from time import perf_counter


class Tracer:
    """Span recorder; use as a context manager so the patches come off."""

    def __init__(self):
        # span name -> [calls, total_s, child_s]
        self.stats: dict[str, list] = {}
        self._stack: list[float] = []
        self._saved: list[tuple[object, str, object]] = []

    def _stats_for(self, name: str) -> list:
        return self.stats.setdefault(name, [0, 0.0, 0.0])

    def wrap(self, owner, attr: str, name: str) -> None:
        """Time every call to ``owner.attr`` as span ``name``."""
        original = vars(owner)[attr]
        stats = self._stats_for(name)
        stack = self._stack

        def traced(*args, **kwargs):
            stack.append(0.0)
            t0 = perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                elapsed = perf_counter() - t0
                stats[0] += 1
                stats[1] += elapsed
                stats[2] += stack.pop()
                if stack:
                    stack[-1] += elapsed

        self.patch(owner, attr, traced)

    def count(self, owner, attr: str, name: str) -> None:
        """Count calls to ``owner.attr`` without timing them."""
        original = vars(owner)[attr]
        stats = self._stats_for(name)

        def counted(*args, **kwargs):
            stats[0] += 1
            return original(*args, **kwargs)

        self.patch(owner, attr, counted)

    def patch(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def calls(self, name: str) -> int:
        return self.stats.get(name, [0, 0.0, 0.0])[0]

    def total_s(self, name: str) -> float:
        return self.stats.get(name, [0, 0.0, 0.0])[1]

    def self_s(self, name: str) -> float:
        calls, total, child = self.stats.get(name, [0, 0.0, 0.0])
        return total - child

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()


# (owner module, attribute path, span name).  The engine imports the three
# free functions by name, so they are patched in ``ackflow.engine``; methods
# are patched on their classes, where every instance looks them up.
ENGINE_SPAN = ("ackflow.engine", "simulate", "engine")
LAYER_SPANS = (
    ("ackflow.history", "Trajectory.record", "history.record"),
    ("ackflow.history", "Trajectory.eval_at", "history.eval_at"),
    ("ackflow.history", "Trajectory.invert_monotone", "history.invert_monotone"),
    ("ackflow.history", "Trajectory.integrate_hold", "history.integrate_hold"),
    ("ackflow.history", "Trajectory.prune_before", "history.prune_before"),
    ("ackflow.fifo_queue", "FifoQueue.record_inputs", "fifo_queue.record_inputs"),
    ("ackflow.fifo_queue", "FifoQueue.step", "fifo_queue.step"),
    ("ackflow.fifo_queue", "FifoQueue.transport_outputs", "fifo_queue.transport_outputs"),
    ("ackflow.fifo_queue", "FifoQueue.record_outputs", "fifo_queue.record_outputs"),
    ("ackflow.fifo_queue", "FifoQueue.backward_time", "fifo_queue.backward_time"),
    ("ackflow.user", "UserState.step", "user.step"),
    ("ackflow.engine", "circuit_backward_time", "user.circuit_backward_time"),
    ("ackflow.engine", "fast_wdot", "protocol.fast_wdot"),
    ("ackflow.engine", "equilibrium_queue", "oracle.equilibrium"),
)


def trace_layers(tracer: Tracer, spans) -> None:
    """Apply the given (module, attribute path, span name) patches."""
    for module_name, path, name in spans:
        owner = importlib.import_module(module_name)
        *classes, attr = path.split(".")
        for cls in classes:
            owner = getattr(owner, cls)
        tracer.wrap(owner, attr, name)
