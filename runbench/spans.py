"""Host-time spans around each layer's public entry points.

The program reads no clock, so the traced pass measures it from outside:
:meth:`Tracer.install` replaces the entry points named in
:data:`ENTRY_POINTS` with wrappers that open a span on a stack, and
:meth:`Tracer.uninstall` puts the originals back.  A layer's *self time*
is the sum over its spans of each span's duration minus the time its
child spans cover, so self times never double count and

    sum(self times) + (wall - top-level span time) == wall

holds by construction; the benchmark checks it after every traced pass.

Layer 5 has no entry point of its own: the recursion engine resumes the
user's generator, so the tracer wraps the function handed to
``RecursionEngine`` and times each resumption as an ``apps`` span.
"""

from __future__ import annotations

import importlib
from time import perf_counter
from typing import Any, Callable, Dict, List, Tuple

#: (layer, module, owner attribute or "", attribute): what the tracer wraps.
#: The layer-1 send path has no public entry point and is not wrapped, so
#: its cost lands in the self time of the layer that sent.
ENTRY_POINTS: Tuple[Tuple[str, str, str, str], ...] = (
    ("engine", "repro.engine", "", "validate"),
    ("engine", "repro.engine", "", "topology_from_spec"),
    ("engine", "repro.engine", "", "HyperspaceStack"),
    ("engine", "repro.netsim.backend", "Machine", "__init__"),
    ("netsim", "repro.netsim.backend", "Machine", "step"),
    ("reliability", "repro.reliability.protocol", "ReliableDelivery", "send"),
    ("reliability", "repro.reliability.protocol", "ReliableDelivery", "on_step"),
    ("reliability", "repro.reliability.protocol", "ReliableDelivery", "end_step"),
    ("sched", "repro.sched.scheduler", "SchedulerProgram", "on_message"),
    ("sched", "repro.sched.scheduler", "SchedulerProgram", "on_step"),
    ("mapping", "repro.mapping.service", "MappingService", "on_message"),
    ("mapping", "repro.mapping.service", "MappingContext", "call"),
    ("mapping", "repro.mapping.service", "MappingContext", "reply"),
    ("recursion", "repro.recursion.engine", "RecursionEngine", "on_work"),
    ("recursion", "repro.recursion.engine", "RecursionEngine", "on_reply"),
    ("state", "repro.netsim.backend", "Machine", "snapshot"),
    ("state", "repro.sched.scheduler", "SchedulerProgram", "snapshot"),
    ("state", "repro.reliability.protocol", "ReliableDelivery", "snapshot"),
    ("state", "repro.state", "StackCheckpoint", "build"),
    ("state", "repro.state", "", "save_checkpoint"),
    ("state", "repro.state", "", "load_checkpoint"),
    ("state", "repro.state", "", "state_digest_of"),
    ("state", "repro.engine", "", "state_digest_of"),
    ("state", "repro.netsim.backend", "Machine", "restore"),
    ("state", "repro.sched.scheduler", "SchedulerProgram", "restore"),
    ("state", "repro.reliability.protocol", "ReliableDelivery", "restore"),
)

#: every layer a span can be charged to, in report order
LAYERS = ("engine", "netsim", "reliability", "sched", "mapping", "recursion",
          "apps", "state")


class _TimedGenerator:
    """A layer-5 generator whose every resumption is an ``apps`` span."""

    __slots__ = ("_gen", "_tracer")

    def __init__(self, gen: Any, tracer: "Tracer") -> None:
        self._gen = gen
        self._tracer = tracer

    def send(self, value: Any) -> Any:
        tracer = self._tracer
        tracer.enter()
        try:
            return self._gen.send(value)
        finally:
            tracer.leave("apps", "resume")

    def close(self) -> None:
        self._gen.close()


class Tracer:
    """Span stack plus per-layer self time and per-entry-point call counts."""

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = dict.fromkeys(LAYERS, 0.0)
        self.inclusive_s: Dict[str, float] = {}
        self.calls: Dict[str, int] = {}
        #: time covered by spans that had no parent span
        self.top_s = 0.0
        self._stack: List[List[float]] = []
        self._saved: List[Tuple[Any, str, Any]] = []

    # -- span bookkeeping -------------------------------------------------

    def enter(self) -> None:
        self._stack.append([perf_counter(), 0.0])

    def leave(self, layer: str, name: str) -> None:
        start, child = self._stack.pop()
        duration = perf_counter() - start
        self.self_s[layer] += duration - child
        self.inclusive_s[name] = self.inclusive_s.get(name, 0.0) + duration
        self.calls[name] = self.calls.get(name, 0) + 1
        if self._stack:
            self._stack[-1][1] += duration
        else:
            self.top_s += duration

    def totals(self) -> Dict[str, Any]:
        """Plain-data copy of the accumulated figures (picklable)."""
        return {
            "self_s": dict(self.self_s),
            "inclusive_s": dict(self.inclusive_s),
            "calls": dict(self.calls),
            "top_s": self.top_s,
            "open": len(self._stack),
        }

    # -- installation -------------------------------------------------------

    def _wrap(self, layer: str, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        enter, leave = self.enter, self.leave

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            enter()
            try:
                return fn(*args, **kwargs)
            finally:
                leave(layer, name)

        return wrapper

    def _replace(self, owner: Any, attr: str, value: Any) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every entry point until :meth:`uninstall`."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        for layer, module_name, owner_name, attr in ENTRY_POINTS:
            module = importlib.import_module(module_name)
            owner = getattr(module, owner_name) if owner_name else module
            raw = owner.__dict__[attr]
            name = f"{owner_name or module_name.rsplit('.', 1)[-1]}.{attr}"
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(layer, name, raw.__func__))
            else:
                wrapped = self._wrap(layer, name, raw)
            self._replace(owner, attr, wrapped)
        from repro.recursion.engine import RecursionEngine

        original_init = RecursionEngine.__init__
        tracer = self

        def init(engine: Any, fn: Any, *args: Any, **kwargs: Any) -> None:
            def timed_fn(payload: Any) -> _TimedGenerator:
                return _TimedGenerator(fn(payload), tracer)

            timed_fn.__name__ = getattr(fn, "__name__", "fn")
            original_init(engine, timed_fn, *args, **kwargs)

        self._replace(RecursionEngine, "__init__", init)

    def uninstall(self) -> None:
        """Restore every wrapped attribute, most recent first."""
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)
