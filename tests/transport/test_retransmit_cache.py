"""The SendVC retransmit cache keeps exactly the old policy's contents.

The cache used to evict with ``pop(min(cache))`` and prune acked
entries by rebuilding a list of every key.  Keys are inserted only by
``_transmit``, in increasing sequence order, so evicting the first key
and pruning from the front keep the same entries in O(1) per send.
These tests replay scripted sends, sequence gaps (what a flush or a
retracted write leaves), NACKs and ACKs into a real SendVC and into a
model of the old policy, and compare the cache after every step.
"""

from __future__ import annotations

import random

import pytest

from repro.sim.scheduler import Simulator
from repro.transport.addresses import TransportAddress
from repro.transport.osdu import OSDU
from repro.transport.profiles import ClassOfService, ProtocolProfile
from repro.transport.qos import QoSContract
from repro.transport.vc import RETRANSMIT_CACHE, SendVC


class _OldPolicy:
    """The pre-change cache upkeep, verbatim."""

    def __init__(self):
        self.cache = {}
        self.evictions = 0

    def transmit(self, seq):
        self.cache[seq] = seq
        if len(self.cache) > RETRANSMIT_CACHE:
            self.cache.pop(min(self.cache))
            self.evictions += 1

    def nack(self, missing):
        return [seq for seq in missing if seq in self.cache]

    def ack(self, cumulative_seq):
        for seq in [s for s in self.cache if s < cumulative_seq]:
            del self.cache[seq]


def _send_vc(sim, packets):
    contract = QoSContract(
        throughput_bps=1e6, delay_s=0.1, jitter_s=0.01,
        packet_error_rate=0.01, bit_error_rate=1e-6, max_osdu_bytes=1000,
    )
    return SendVC(
        sim, packets.append, "vc-cache",
        TransportAddress("a", 1), TransportAddress("b", 1),
        contract, ProtocolProfile.WINDOW_BASED,
        ClassOfService.detect_and_correct(),
    )


def _script(seed, n_ops=1500):
    # ACKs only in the second half, so the first half overfills the
    # cache and exercises eviction.
    rng = random.Random(seed)
    ops = []
    for i in range(n_ops):
        roll = rng.random() if i >= n_ops // 2 else rng.random() * 0.95
        if roll < 0.80:
            ops.append(("send", None))
        elif roll < 0.85:
            ops.append(("gap", rng.randint(1, 20)))
        elif roll < 0.95:
            ops.append(("nack", rng.randint(1, 6)))
        else:
            ops.append(("ack", rng.randint(-40, 300)))
    return ops


@pytest.mark.parametrize("seed", range(6))
def test_cache_matches_old_policy(seed):
    sim = Simulator()
    packets = []
    vc = _send_vc(sim, packets)
    old = _OldPolicy()
    rng = random.Random(seed + 1000)
    for op, arg in _script(seed):
        if op == "send":
            seq = vc.alloc_seq()
            vc._transmit(OSDU(size_bytes=100, payload=seq).with_opdu(seq))
            old.transmit(seq)
        elif op == "gap":
            for _ in range(arg):
                vc.alloc_seq()
        elif op == "nack":
            top = max(vc._next_seq, 1)
            missing = sorted(rng.sample(range(top), min(arg, top)))
            before = vc.retransmit_count
            vc.on_nack(missing)
            resent = packets[len(packets) - (vc.retransmit_count - before):]
            assert [p.payload.seq for p in resent] == old.nack(missing)
        else:
            cumulative = vc._next_seq - arg
            vc.on_ack(cumulative)
            old.ack(cumulative)
        assert list(vc._cache) == list(old.cache)
    assert old.evictions > 0
