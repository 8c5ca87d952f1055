"""Tests for the packet recycling pool, alone and over a whole trial."""

import pytest

from repro.core import variants
from repro.experiments.harness import run_trial
from repro.experiments.spec import TrialSpec
from repro.experiments.topology import Router
from repro.net.packet import Packet, PacketPool


def test_empty_pool_constructs_and_counts():
    pool = PacketPool()
    packet = pool.acquire(src=1, dst=2)
    assert isinstance(packet, Packet)
    assert pool.allocated == 1
    assert pool.reused == 0
    assert pool.free_count == 0


def test_release_then_acquire_reuses_object():
    pool = PacketPool()
    packet = pool.acquire(src=1, dst=2, dst_port=9, flow="f1")
    packet.mark_nic_arrival(100)
    packet.mark_transmitted(200)
    old_id = packet.packet_id
    pool.release(packet)
    assert pool.free_count == 1

    recycled = pool.acquire(src=3, dst=4, dst_port=7, flow="f2")
    assert recycled is packet
    assert pool.reused == 1
    # Fully re-initialised: fresh identity, no stale lifecycle state.
    assert recycled.packet_id != old_id
    assert recycled.src == 3
    assert recycled.dst == 4
    assert recycled.dst_port == 7
    assert recycled.flow == "f2"
    assert recycled.nic_arrival_ns is None
    assert recycled.transmitted_ns is None
    assert recycled.dropped_at is None


def test_recycled_packet_id_sequence_matches_construction():
    """acquire() consumes the global id sequence exactly as Packet()
    does, whether the packet is fresh or recycled."""
    pool = PacketPool()
    first = pool.acquire(src=1, dst=2)
    pool.release(first)
    recycled = pool.acquire(src=1, dst=2)
    fresh = Packet(src=1, dst=2)
    assert fresh.packet_id == recycled.packet_id + 1


def test_double_release_raises():
    pool = PacketPool()
    packet = pool.acquire(src=1, dst=2)
    pool.release(packet)
    with pytest.raises(ValueError):
        pool.release(packet)


def test_freelist_capped():
    pool = PacketPool(max_free=2)
    packets = [pool.acquire(src=1, dst=2) for _ in range(4)]
    for packet in packets:
        pool.release(packet)
    assert pool.free_count == 2


def test_disable_clears_freelist_and_ignores_releases():
    pool = PacketPool()
    retained = pool.acquire(src=1, dst=2)
    pool.release(retained)
    pool.disable()
    assert pool.free_count == 0
    # Releases become no-ops; acquire always constructs.
    other = pool.acquire(src=1, dst=2)
    assert other is not retained
    pool.release(other)
    assert pool.free_count == 0
    assert pool.acquire(src=1, dst=2) is not other


def test_disabled_pool_from_construction():
    pool = PacketPool(enabled=False)
    packet = pool.acquire(src=1, dst=2)
    pool.release(packet)
    assert pool.free_count == 0


def test_negative_cap_rejected():
    with pytest.raises(ValueError):
        PacketPool(max_free=-1)


def test_pool_stays_within_ring_capacity_over_a_whole_trial():
    """Over a polling trial at overload, live packets are bounded by the
    rings and queues, so the pool allocates at most what the two rings
    hold (plus a margin) and recycles everything else."""
    config = variants.polling()
    router = Router(config)
    spec = TrialSpec(config, 12_000, duration_s=0.3, warmup_s=0.05, seed=0)
    result = run_trial(spec, router=router)
    pool = router.packet_pool
    bound = config.rx_ring_capacity + config.tx_ring_capacity + 128
    assert result.generated > bound
    assert pool.allocated <= bound
    assert pool.free_count <= pool.max_free
