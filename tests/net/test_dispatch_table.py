"""Class-level message dispatch tables (``repro.net.dispatch``).

Every node class maps a message kind to a plain function, resolved on the
class the first time the kind arrives and called as ``handler(node,
message)``.  These tests pin what that table may and may not do.
"""

import pytest

from repro.errors import TransportError
from repro.net.message import Message
from repro.net.shardnet import MSG, ShardedNetwork, ShardedTopology, ShardMap
from repro.net.topology import ExplicitTopology
from repro.net.transport import Network, NetworkNode
from repro.sim.engine import Simulator


class Parent(NetworkNode):
    __slots__ = ()

    def handle_x(self, message):
        return {"from": "parent", "value": message.payload.get("value")}

    def handle_y(self, message):
        return {"from": "parent-y"}


class Child(Parent):
    __slots__ = ()

    def handle_x(self, message):
        return {"from": "child", "value": message.payload.get("value")}


class Sibling(NetworkNode):
    __slots__ = ()

    def handle_x(self, message):
        return {"from": "sibling"}


def _network():
    sim = Simulator(seed=1)
    topology = ExplicitTopology([[0.0, 10.0, 10.0], [10.0, 0.0, 10.0], [10.0, 10.0, 0.0]])
    return sim, Network(sim, topology, default_timeout_ms=1000.0)


def _message(dst, kind, **payload):
    return Message(0, dst, kind, payload, sent_at=0.0)


def test_each_class_owns_its_table():
    assert Parent._handlers is not Child._handlers
    assert Parent._handlers is not Sibling._handlers
    assert NetworkNode._handlers is not Parent._handlers
    __, network = _network()
    parent, sibling = Parent(network), Sibling(network)
    parent.on_message(_message(parent.address, "x"))
    assert "x" in Parent._handlers
    assert "x" not in Sibling._handlers
    assert sibling.on_message(_message(sibling.address, "x")) == {"from": "sibling"}
    assert Sibling._handlers["x"] is Sibling.__dict__["handle_x"]


def test_cached_handler_answers_like_on_message():
    sim, network = _network()
    parent = Parent(network)
    first = parent.on_message(_message(parent.address, "x", value=3))
    handler = Parent._handlers["x"]
    assert not hasattr(handler, "__self__")  # a plain function, not bound
    assert handler(parent, _message(parent.address, "x", value=3)) == first
    # And through the transport, which dispatches from the table directly.
    sender = Parent(network)
    replies = []
    sender.rpc(parent.address, "x", {"value": 3}, on_reply=replies.append)
    sim.run()
    assert replies == [first]


def test_unknown_kind_raises_transport_error():
    __, network = _network()
    node = Parent(network)
    with pytest.raises(TransportError, match="no handler"):
        node.on_message(_message(node.address, "nope"))
    assert "nope" not in Parent._handlers


def test_override_is_not_shadowed_by_the_parents_cached_entry():
    __, network = _network()
    parent, child = Parent(network), Child(network)
    assert parent.on_message(_message(parent.address, "x"))["from"] == "parent"
    assert child.on_message(_message(child.address, "x"))["from"] == "child"
    # An inherited handler resolves into the child's own table.
    assert child.on_message(_message(child.address, "y")) == {"from": "parent-y"}
    assert Child._handlers["y"] is Parent.__dict__["handle_y"]


def test_rebinding_a_handler_empties_the_tables_below_it():
    __, network = _network()
    parent, child = Parent(network), Child(network)
    parent.on_message(_message(parent.address, "y"))
    child.on_message(_message(child.address, "y"))
    original = Parent.__dict__["handle_y"]
    try:
        Parent.handle_y = lambda node, message: {"from": "patched"}
        assert "y" not in Parent._handlers and "y" not in Child._handlers
        assert child.on_message(_message(child.address, "y")) == {"from": "patched"}
    finally:
        Parent.handle_y = original
    assert "y" not in Child._handlers
    assert child.on_message(_message(child.address, "y")) == {"from": "parent-y"}


def test_cross_shard_delivery_dispatches_through_the_table():
    smap = ShardMap(num_shards=2, num_localities=2, num_websites=1)
    sim = Simulator(seed=7)
    network = ShardedNetwork(sim, ShardedTopology(smap, topology_seed=7), smap, shard_id=0)
    parent, child = Parent(network, cluster_hint=0), Child(network, cluster_hint=0)
    token = (1, 0)  # an RPC from shard 1
    for node in (parent, child):
        entry = (MSG, 10.0, 0, node.address, "x", {"value": 5}, 99, 0.0, token)
        network._apply_remote_message(entry)
    replies = [entry[4] for entry in network.outbox]
    assert replies == [
        {"from": "parent", "value": 5},
        {"from": "child", "value": 5},
    ]
    assert Child._handlers["x"] is Child.__dict__["handle_x"]
