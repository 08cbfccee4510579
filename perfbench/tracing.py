"""Layer spans recorded from outside the program.

A :class:`Tracer` wraps the public entry points of each layer -- and the
callbacks the program hands to the simulator and to RPCs -- in spans, for
the duration of one traced run (:meth:`Tracer.installed` restores every
original on exit).  The program's code is not changed: objects built while
the tracer is installed bind the wrapped methods, so the run's simulated
result is identical to an untraced run of the same seed, which the
benchmark checks.

A span records its name, start, end, parent span and the id of the
simulator event it ran in.  Spans are kept in flat arrays in memory and
written out when the run ends.  A layer's self time is the time of its
spans minus the time of their child spans.

Each span belongs to a layer, given by the module that defines the code
it times (``repro.dht`` -> ``dht`` ...), and may carry a tag that follows
the work across callbacks: a callback created inside a ``query`` or
``maintenance`` span inherits that tag, so the continuation of a query's
RPC is counted as query work when its reply arrives.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import time
from array import array
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

#: module prefix -> layer; the first matching prefix wins.
_MODULE_LAYERS = (
    ("repro.sim.sharded", "shard"),
    ("repro.sim", "sim"),
    ("repro.net.shardnet", "shardnet"),
    ("repro.experiments.sharded", "shardnet"),
    ("repro.net.bandwidth", "bandwidth"),
    ("repro.net", "net"),
    ("repro.dht", "dht"),
    ("repro.gossip", "gossip"),
    ("repro.cdn.swarm", "swarm"),
    ("repro.cdn", "cdn"),
    ("repro.workload.openloop", "workload.openloop"),
    ("repro.workload.churn", "workload.churn"),
    ("repro.workload", "workload"),
    ("repro.metrics", "metrics"),
)

#: Chord message kinds that only ring upkeep sends.
_MAINTENANCE_KINDS = frozenset(
    {
        "handle_chord_get_state",
        "handle_chord_notify",
        "handle_chord_ping",
        "handle_chord_successor_hint",
        "handle_chord_predecessor_hint",
    }
)

_INHERIT = object()


def layer_of_module(module: Optional[str]) -> str:
    if module:
        for prefix, layer in _MODULE_LAYERS:
            if module == prefix or module.startswith(prefix + "."):
                return layer
    return "other"


def _layer_of_callback(callback: Any) -> str:
    layer = getattr(callback, "_span_layer", None)
    if layer is not None:
        return layer
    func = getattr(callback, "__func__", callback)
    func = getattr(func, "func", func)  # functools.partial
    module = getattr(func, "__module__", None) or type(callback).__module__
    return layer_of_module(module)


class Tracer:
    """Spans of one traced run, plus the counts taken at the same calls."""

    def __init__(self) -> None:
        #: span name id -> (layer, label, tag)
        self.names: List[Tuple[str, str, Optional[str]]] = []
        self._ids: Dict[Tuple[str, str, Optional[str]], int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.event = array("i")
        self._stack: List[int] = [-1]
        self._in_event = False
        self._current_event = -1
        self.events = 0
        self.counts: Dict[str, int] = {
            "dht.lookups": 0,
            "dht.lookups.fix_finger": 0,
            "dht.lookups_done": 0,
            "dht.hops": 0,
        }

    def clear(self) -> None:
        """Drop the spans and counts recorded so far (those of set-up)."""
        for column in (self.name, self.start, self.end, self.parent, self.event):
            del column[:]
        self.events = 0
        for key in self.counts:
            self.counts[key] = 0

    # ------------------------------------------------------------ spans
    def _intern(self, layer: str, label: str, tag: Optional[str]) -> int:
        key = (layer, label, tag)
        nid = self._ids.get(key)
        if nid is None:
            nid = self._ids[key] = len(self.names)
            self.names.append(key)
        return nid

    def current_tag(self) -> Optional[str]:
        top = self._stack[-1]
        return self.names[self.name[top]][2] if top >= 0 else None

    def _run(self, nid: int, event: bool, fn: Callable, args, kwargs):
        new_event = event and not self._in_event
        if new_event:
            self._in_event = True
            self._current_event = self.events
            self.events += 1
        stack = self._stack
        index = len(self.start)
        self.name.append(nid)
        self.parent.append(stack[-1])
        self.event.append(self._current_event)
        self.end.append(0.0)
        stack.append(index)
        self.start.append(time.perf_counter())
        try:
            return fn(*args, **kwargs)
        finally:
            self.end[index] = time.perf_counter()
            stack.pop()
            if new_event:
                self._in_event = False
                self._current_event = -1

    def span(
        self,
        fn: Callable,
        layer: str,
        label: str,
        tag: Any = _INHERIT,
        event: bool = False,
        namer: Optional[Callable] = None,
    ) -> Callable:
        """*fn* wrapped in a span; *namer(args)* may pick (layer, label, tag)."""
        tracer = self
        intern = self._intern
        by_tag: Dict[Optional[str], int] = {}
        if namer is not None:

            def name_of(args) -> int:
                return intern(*namer(args))

        elif tag is _INHERIT:

            def name_of(args) -> int:
                current = tracer.current_tag()
                nid = by_tag.get(current)
                if nid is None:
                    nid = by_tag[current] = intern(layer, label, current)
                return nid

        else:
            fixed = intern(layer, label, tag)

            def name_of(args) -> int:
                return fixed

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return tracer._run(name_of(args), event, fn, args, kwargs)

        wrapper._span_layer = layer
        wrapper._span_event = event
        return wrapper

    def continuation(self, callback: Optional[Callable]) -> Optional[Callable]:
        """A callback handed to the simulator or an RPC, as an event span.

        Named by the layer that defines the callback; tagged with the tag
        of the span that created it.
        """
        if callback is None or getattr(callback, "_span_event", False):
            return callback
        nid = self._intern(_layer_of_callback(callback), "cont", self.current_tag())
        return _Continuation(self, nid, callback)

    # ---------------------------------------------------------- results
    def self_times(self) -> Dict[int, float]:
        """Span name id -> summed self time (span minus its children)."""
        start, end, parent, name = self.start, self.end, self.parent, self.name
        count = len(start)
        child = [0.0] * count
        for index in range(count):
            owner = parent[index]
            if owner >= 0:
                child[owner] += end[index] - start[index]
        totals: Dict[int, float] = {}
        for index in range(count):
            nid = name[index]
            own = end[index] - start[index] - child[index]
            totals[nid] = totals.get(nid, 0.0) + own
        return totals

    def root_time(self) -> float:
        """Time covered by spans that have no parent."""
        return sum(
            self.end[i] - self.start[i]
            for i in range(len(self.start))
            if self.parent[i] < 0
        )

    def span_counts(self) -> Dict[int, int]:
        counts: Dict[int, int] = {}
        for nid in self.name:
            counts[nid] = counts.get(nid, 0) + 1
        return counts

    def write(self, directory: str, stem: str) -> str:
        """Write the spans as ``<stem>.json`` (names) + ``<stem>.bin``.

        The binary file holds, in order, the arrays ``name`` (int32),
        ``start``, ``end`` (float64, seconds of ``time.perf_counter``),
        ``parent`` and ``event`` (int32); each has ``spans`` entries.
        """
        os.makedirs(directory, exist_ok=True)
        path = os.path.join(directory, stem)
        with open(path + ".bin", "wb") as handle:
            for column in (self.name, self.start, self.end, self.parent, self.event):
                column.tofile(handle)
        header = {
            "spans": len(self.start),
            "events": self.events,
            "columns": ["name:i4", "start:f8", "end:f8", "parent:i4", "event:i4"],
            "names": [
                {"layer": layer, "label": label, "tag": tag}
                for layer, label, tag in self.names
            ],
        }
        with open(path + ".json", "w") as handle:
            json.dump(header, handle, indent=1)
        return path

    # ------------------------------------------------------ installation
    @contextlib.contextmanager
    def installed(self) -> Iterator["Tracer"]:
        """Wrap the layers' entry points; restore every original on exit."""
        patches = _Patches()
        try:
            _install(self, patches)
            yield self
        finally:
            patches.restore()


class _Continuation:
    """An event span around one callback (cheaper than ``functools.wraps``)."""

    __slots__ = ("tracer", "nid", "callback")
    _span_event = True

    def __init__(self, tracer: Tracer, nid: int, callback: Callable) -> None:
        self.tracer = tracer
        self.nid = nid
        self.callback = callback

    def __call__(self, *args):
        return self.tracer._run(self.nid, True, self.callback, args, {})


class _Patches:
    """Attribute replacements, undone in reverse order."""

    def __init__(self) -> None:
        self._undo: List[Tuple[Any, str, Any]] = []

    def set(self, owner: Any, attribute: str, value: Any) -> None:
        self._undo.append((owner, attribute, owner.__dict__[attribute]))
        setattr(owner, attribute, value)

    def restore(self) -> None:
        while self._undo:
            owner, attribute, value = self._undo.pop()
            setattr(owner, attribute, value)


def _subclasses(cls) -> List[type]:
    found = [cls]
    for sub in cls.__subclasses__():
        found.extend(_subclasses(sub))
    return found


def _install(tracer: Tracer, patches: _Patches) -> None:
    # Import every class whose methods are wrapped, so subclass walks
    # find the concrete ones.
    import repro.cdn.flower.peer as flower_peer
    import repro.cdn.petalup.system  # noqa: F401
    import repro.experiments.sharded as experiments_sharded
    import repro.sim.sharded as sim_sharded
    from repro.cdn.base import BasePeer, CdnSystem
    from repro.cdn.flower.sharded import ShardedFlowerSystem  # noqa: F401
    from repro.cdn.swarm import SwarmTransfer
    from repro.dht.node import ChordNode
    from repro.gossip.cyclon import CyclonProtocol
    from repro.metrics.collector import MetricsCollector
    from repro.net.bandwidth import BandwidthModel
    from repro.net.shardnet import ShardedNetwork
    from repro.net.transport import Network, NetworkNode, _RpcContext
    from repro.sim.engine import Simulator
    from repro.sim.process import PeriodicProcess

    span = tracer.span
    cont = tracer.continuation

    def wrap(owner, attribute, layer, label, tag=_INHERIT, event=False, namer=None):
        original = owner.__dict__[attribute]
        patches.set(
            owner,
            attribute,
            span(original, layer, label, tag=tag, event=event, namer=namer),
        )

    def wrap_hierarchy(base, attribute, layer, label, tag=_INHERIT):
        for cls in _subclasses(base):
            if attribute in cls.__dict__:
                wrap(cls, attribute, layer, label, tag)

    # --- sim: the dispatch loop, and every callback it is handed.
    wrap(Simulator, "run", "sim", "run", tag=None)
    for method in ("schedule", "defer", "schedule_at"):
        original = Simulator.__dict__[method]

        def scheduler(sim, when, callback, *args, _original=original):
            return _original(sim, when, cont(callback), *args)

        patches.set(Simulator, method, functools.wraps(original)(scheduler))

    def tick_namer(args):
        layer = _layer_of_callback(args[0]._callback)
        return layer, "tick", "maintenance" if layer == "dht" else None

    wrap(PeriodicProcess, "_tick", "sim", "tick", event=True, namer=tick_namer)

    # --- net: transmit, delivery, replies and RPC timeouts.
    wrap(Network, "_deliver", "net", "deliver", tag=None, event=True)
    wrap(Network, "_deliver_reply", "net", "reply", event=True)
    wrap(_RpcContext, "__call__", "net", "timeout", event=True)
    wrap(NetworkNode, "send", "net", "send")
    rpc = NetworkNode.__dict__["rpc"]

    def traced_rpc(
        node, dst, kind, payload=None, on_reply=None, on_timeout=None, timeout_ms=None
    ):
        return rpc(node, dst, kind, payload, cont(on_reply), cont(on_timeout), timeout_ms)

    patches.set(
        NetworkNode, "rpc", span(functools.wraps(rpc)(traced_rpc), "net", "rpc")
    )

    # --- dht: lookups (with hop counts), handlers, routing, upkeep.
    lookup = ChordNode.__dict__["lookup"]
    counts = tracer.counts

    def traced_lookup(node, key, on_done, start=None):
        counts["dht.lookups"] += 1
        if tracer.current_tag() == "maintenance":
            counts["dht.lookups.fix_finger"] += 1

        def done(result):
            counts["dht.lookups_done"] += 1
            counts["dht.hops"] += result.hops
            on_done(result)

        return lookup(node, key, done, start)

    patches.set(
        ChordNode, "lookup", span(functools.wraps(lookup)(traced_lookup), "dht", "lookup")
    )
    for attribute in [a for a in ChordNode.__dict__ if a.startswith("handle_")]:
        tag = "maintenance" if attribute in _MAINTENANCE_KINDS else None
        wrap(ChordNode, attribute, "dht", attribute[len("handle_"):], tag=tag)
    wrap(ChordNode, "_maintenance_tick", "dht", "maintenance", tag="maintenance")
    for attribute in ("route_step", "deliver_route_result"):
        wrap(flower_peer, attribute, "dht", attribute, tag=None)

    # --- gossip
    wrap(CyclonProtocol, "gossip_round", "gossip", "round")
    wrap(CyclonProtocol, "handle_shuffle", "gossip", "shuffle", tag=None)

    # --- cdn: query path, directory role, membership; swarm handlers.
    wrap_hierarchy(BasePeer, "resolve_query", "cdn", "query", tag="query")
    wrap_hierarchy(CdnSystem, "on_arrival", "cdn", "membership", tag=None)
    wrap_hierarchy(CdnSystem, "on_departure", "cdn", "membership", tag=None)

    def handler_namer(args):
        peer = args[0]
        role = "directory" if getattr(peer, "directory", None) is not None else None
        return "cdn", "handler", role

    for cls in _subclasses(NetworkNode):
        if not cls.__module__.startswith("repro.cdn"):
            continue
        for attribute in [a for a in cls.__dict__ if a.startswith("handle_")]:
            if attribute.startswith("handle_swarm_"):
                wrap(cls, attribute, "swarm", "serve", tag=None)
            else:
                wrap(cls, attribute, "cdn", "handler", namer=handler_namer)

    # --- swarm: transfers and the bandwidth model.
    for attribute in ("start", "abort"):
        wrap(SwarmTransfer, attribute, "swarm", attribute)
    for attribute in ("start", "cancel", "abort_uploads_of"):
        wrap(BandwidthModel, attribute, "bandwidth", attribute)

    # --- metrics
    wrap(MetricsCollector, "record", "metrics", "record")

    # --- sharded engine: window loop, routing, bus exchange.
    wrap(ShardedNetwork, "_deliver", "shardnet", "deliver", tag=None, event=True)
    wrap(ShardedNetwork, "inject_entries", "shardnet", "inject", tag=None)
    wrap(experiments_sharded.ShardCell, "drain", "shardnet", "drain", tag=None)
    wrap(sim_sharded, "run_windows", "shard", "windows", tag=None)
    wrap(sim_sharded, "route_entries", "shard", "route", tag=None)
