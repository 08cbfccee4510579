"""The per-peer memory layout.

A run keeps every peer identity that ever arrived, so per-peer bytes scale
the whole simulation.  These tests pin the layout that keeps them small:
slotted peers and contacts, dispatch tables on the classes, and shared
read-only empties in place of the state of extension planes that are off.
"""

import pytest

from repro.cdn.base import NO_ENTRIES, NO_KEYS
from repro.cdn.flower.replication import NO_REPLICAS, ReplicaStore
from repro.cdn.squirrel.system import SquirrelSystem
from repro.gossip.view import Contact

from tests.cdn.conftest import CdnWorld, make_params


def _fresh_peer(world):
    return world.arrive(website=0, locality=0)


def _plane_on_world():
    return CdnWorld(
        params=make_params(
            swarming=True,
            replication_k=2,
            redirect_hints=True,
            directory_queue_limit=4,
        )
    )


class TestNoInstanceDict:
    def test_flower_peer(self, flower_world):
        peer = _fresh_peer(flower_world)
        assert not hasattr(peer, "__dict__")
        with pytest.raises(AttributeError):
            peer.not_an_attribute = 1

    def test_squirrel_peer(self):
        world = CdnWorld(SquirrelSystem)
        peer = _fresh_peer(world)
        assert not hasattr(peer, "__dict__")

    def test_contact(self):
        contact = Contact(7, age=2)
        assert not hasattr(contact, "__dict__")
        assert contact == Contact(7, 2)
        assert contact != Contact(7, 3)
        assert contact.aged() == Contact(7, 3)
        assert repr(contact) == "Contact(address=7, age=2)"


class TestPlaneOffPeer:
    def test_holds_the_shared_read_only_empties(self, flower_world):
        peer = _fresh_peer(flower_world)
        assert peer.chunk_holdings is NO_ENTRIES
        assert peer._swarm_hints is NO_ENTRIES
        assert peer._swarms is NO_ENTRIES
        assert peer._petal_loads is NO_ENTRIES
        assert peer._placed is NO_KEYS
        assert peer.replica_store is NO_REPLICAS
        assert peer._search_replicas == () and peer._search_members == ()

    def test_writes_to_an_empty_raise(self, flower_world):
        peer = _fresh_peer(flower_world)
        with pytest.raises(TypeError):
            peer.chunk_holdings[(0, 1)] = {0}
        with pytest.raises(TypeError):
            peer._petal_loads[3] = (1, 0.0)
        with pytest.raises(AttributeError):
            peer._placed.add((0, 1))
        assert peer.replica_store.get(1) is None and len(peer.replica_store) == 0
        with pytest.raises(AttributeError):
            peer.replica_store.drop(1)
        with pytest.raises(AttributeError):
            peer.replica_store.clear()

    def test_crash_and_rejoin_keep_the_empties(self, flower_world):
        peer = _fresh_peer(flower_world)
        flower_world.run(60_000.0)
        peer.crash()
        peer.begin_session()
        assert peer._petal_loads is NO_ENTRIES
        assert peer.replica_store is NO_REPLICAS
        assert peer._search_replicas == ()
        assert peer._pending_pushes == 0

    def test_plane_on_peer_gets_its_own_containers(self):
        world = _plane_on_world()
        peer, other = _fresh_peer(world), _fresh_peer(world)
        for attribute in ("chunk_holdings", "_swarm_hints", "_swarms", "_petal_loads"):
            mine, theirs = getattr(peer, attribute), getattr(other, attribute)
            assert type(mine) is dict and mine is not theirs
        assert type(peer._placed) is set and peer._placed is not other._placed
        assert type(peer.replica_store) is ReplicaStore
        assert peer.replica_store is not other.replica_store


def test_no_peer_stores_bound_dispatch_methods(flower_world):
    peer = _fresh_peer(flower_world)
    flower_world.run(120_000.0)  # deliver traffic so dispatch tables fill
    assert type(peer)._handlers, "no kind was dispatched"
    assert all(not hasattr(h, "__self__") for h in type(peer)._handlers.values())
    slots = [s for cls in type(peer).__mro__ for s in cls.__dict__.get("__slots__", ())]
    for slot in slots:
        value = getattr(peer, slot, None)
        if isinstance(value, dict):
            bound = [v for v in value.values() if getattr(v, "__self__", None) is peer]
            assert not bound, slot
