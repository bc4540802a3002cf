"""The three benchmark workloads, each built on the public stack API.

Every workload is a small object driven in the same order:

``setup()``
    Stack up, every VC connected, the ``film`` session primed.  Its end
    is the first timed step.
``timed_phase()``
    The timed data phase, returning the wall seconds of each step: one
    virtual second of play-out (``film``, ``mux``) or one closed-loop
    control cycle (``churn``).  The simulator advances in
    one-virtual-second chunks either way.
``finish()``
    Untimed: drain in-flight data, collect the counters, close every
    stream and session, and let the simulator go quiet.
``failures()``
    The correctness gate: a list of human-readable failures (empty when
    the run is correct).
``outputs()``
    Virtual-time outputs only (counts, skew series, link counters,
    verdict counts).  They are the same for every run of one seed and
    feed the determinism digest.

Inputs come from the seed alone: the stack's RNG streams are seeded
with it and the few workload parameters that vary (clock drift, the
churn cycle's endpoints and renegotiated rate) are drawn from a
``random.Random`` seeded with it.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
import time
from typing import Dict, List

from repro.ansa.stream import AudioQoS, VideoQoS
from repro.core import Stack
from repro.media.encodings import audio_pcm, video_cbr
from repro.media.lipsync import LIP_SYNC_THRESHOLD, interstream_skew_series
from repro.media.sink import PlayoutSink
from repro.media.source import StoredMediaSource
from repro.netsim.link import BernoulliLoss, UniformJitter
from repro.orchestration.policy import OrchestrationPolicy
from repro.sim.scheduler import Timeout
from repro.transport.addresses import TransportAddress
from repro.transport.buffers import ROLE_APPLICATION
from repro.transport.osdu import OSDU
from repro.transport.primitives import TDisconnectRequest
from repro.transport.profiles import ClassOfService
from repro.transport.service import ConnectionRefused

#: The E6 bound on orchestrated inter-stream skew: the 80 ms lip-sync
#: threshold plus 12 ms of slack (``benchmarks/bench_e06_regulation.py``).
FILM_SKEW_BOUND_S = LIP_SYNC_THRESHOLD + 0.012

#: Virtual seconds allowed for in-flight data to drain after the timed
#: phase; much longer than any gap timeout or playout delay here.
DRAIN_S = 5.0


class RecordedLoss(BernoulliLoss):
    """Bernoulli loss that also notes what every dropped packet carried.

    It draws from the link's RNG exactly as :class:`BernoulliLoss` does,
    so a run is unchanged.  ``is_lost`` is not handed the packet, so on
    a loss (and only then) the packet is read from the calling link
    frame; when it cannot be found the drop is noted as unknown, and
    the checks built on these notes then fail rather than guess.
    """

    def __init__(self, p: float):
        super().__init__(p)
        #: One ``(TPDU type name, vc id, seq)`` per dropped packet.
        self.dropped: List[tuple] = []

    def is_lost(self, rng) -> bool:
        if rng.random() < self.p:
            packet = sys._getframe(1).f_locals.get("packet")
            tpdu = getattr(packet, "payload", None)
            self.dropped.append((type(tpdu).__name__,
                                 getattr(tpdu, "vc_id", None),
                                 getattr(tpdu, "seq", None)))
            return True
        return False

    def dropped_seqs(self, vc_id: str) -> set:
        return {seq for kind, vc, seq in self.dropped
                if kind == "DataTPDU" and vc == vc_id}

    def dropped_disconnects(self) -> set:
        return {vc for kind, vc, _seq in self.dropped
                if kind == "DisconnectTPDU"}


class _VCTotals:
    """Transport counters summed over VCs, read before they are closed."""

    FIELDS = ("data_tpdus", "retransmitted_tpdus", "recovered_osdus",
              "lost_osdus", "duplicate_osdus", "source_dropped_osdus",
              "send_blocked_s")

    def __init__(self) -> None:
        self.values: Dict[str, float] = {name: 0 for name in self.FIELDS}
        self.values["send_blocked_s"] = 0.0

    def add_stream(self, stream) -> None:
        send_vc = stream.send_endpoint.vc
        recv_vc = stream.recv_endpoint.vc
        v = self.values
        v["data_tpdus"] += send_vc.sent_count
        v["retransmitted_tpdus"] += send_vc.retransmit_count
        v["recovered_osdus"] += recv_vc.reorder.recovered_count
        v["lost_osdus"] += recv_vc.lost_count
        v["duplicate_osdus"] += recv_vc.reorder.duplicate_count
        v["source_dropped_osdus"] += recv_vc.source_dropped_count
        v["send_blocked_s"] += send_vc.blocked_time(ROLE_APPLICATION)


class Workload:
    """Shared plumbing: counters, the quiescence gate, the digest."""

    name = "?"

    def __init__(self, seed: int, length: int):
        self.seed = seed
        self.length = length
        self.rand = random.Random(seed)
        self.stack: Stack = None  # type: ignore[assignment]
        self.vc_totals = _VCTotals()
        self.connects_attempted = 0
        self.connects_failed = 0
        self.renegotiations_attempted = 0
        self.renegotiations_failed = 0
        #: VCs whose T-Disconnect never reached the sink.
        self.disconnects_lost: List[str] = []
        #: Per VC, final OSDUs lost without the sink ever detecting it.
        self.tail_undetected: Dict[str, int] = {}
        #: Wall seconds per control-path operation, by operation name
        #: (read with ``time.perf_counter`` inside benchmark code only).
        self.op_wall: Dict[str, List[float]] = {
            "connect": [], "renegotiate": [], "disconnect": [],
        }
        self.presented_in_phase = 0

    # -- helpers for subclasses ---------------------------------------------

    def _connect(self, source, sink, media_qos, cos=None):
        """Coroutine: one T-Connect through the stream factory, timed."""
        self.connects_attempted += 1
        t0 = time.perf_counter()
        try:
            stream = yield from self.stack.factory.create(
                source, sink, media_qos, cos=cos
            )
        except ConnectionRefused:
            self.connects_failed += 1
            raise
        self.op_wall["connect"].append(time.perf_counter() - t0)
        return stream

    def _close(self, stream) -> None:
        t0 = time.perf_counter()
        stream.close()
        self.op_wall["disconnect"].append(time.perf_counter() - t0)

    def link_counters(self) -> Dict[str, Dict[str, float]]:
        out = {}
        for node in self.stack.network.nodes.values():
            for link in node.links.values():
                s = link.stats
                out[f"{link.src}->{link.dst}"] = {
                    "sent": s.sent_packets,
                    "delivered": s.delivered_packets,
                    "lost": s.lost_packets,
                    "buffer_drops": s.buffer_drops,
                    "sent_bits": s.sent_bits,
                    "queue_delay_s": s.total_queue_delay,
                }
        return dict(sorted(out.items()))

    def quiescence_failures(self) -> List[str]:
        """Everything released once every stream and session is closed."""
        failures = []
        reservations = self.stack.reservations.reservations
        if reservations:
            failures.append(f"{len(reservations)} reservations still held")
        for name, entity in sorted(self.stack.entities.items()):
            for what, table in (("TSAP bindings", entity.bindings),
                                ("send VCs", entity.send_vcs),
                                ("recv VCs", entity.recv_vcs)):
                if table:
                    failures.append(f"{name}: {len(table)} {what} left")
        pending = self.stack.sim.pending_events
        if pending:
            failures.append(f"{pending} simulator events still pending")
        return failures

    def digest(self) -> str:
        blob = json.dumps(self.outputs(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:16]

    # -- interface ------------------------------------------------------------

    def setup(self) -> None:
        raise NotImplementedError

    def timed_phase(self, chunked: bool = True) -> List[float]:
        """The timed phase; returns the wall seconds of each step."""
        raise NotImplementedError

    def finish(self) -> None:
        raise NotImplementedError

    def failures(self) -> List[str]:
        raise NotImplementedError

    def outputs(self) -> Dict:
        raise NotImplementedError

    def counts(self) -> Dict[str, float]:
        """Orchestration and audit counts (virtual time); only film has
        orchestration and audit, so they are 0 elsewhere."""
        return {
            "orchestration.regulate_calls": 0,
            "orchestration.prime_start_ms": 0.0,
            "orchestration.max_skew_ms": 0.0,
            "obs.periods": 0,
            "obs.periods_violated": 0,
        }

    def delivery(self) -> Dict[str, int]:
        """OSDUs written, presented and presented late, after the drain."""
        raise NotImplementedError


class _PlayoutWorkload(Workload):
    """A workload whose timed steps are virtual seconds of play-out."""

    def __init__(self, seed: int, length: int):
        super().__init__(seed, length)
        self.streams: Dict[str, object] = {}
        self.sources: Dict[str, StoredMediaSource] = {}
        self.sinks: Dict[str, PlayoutSink] = {}
        self.t0 = 0.0

    def timed_phase(self, chunked: bool = True) -> List[float]:
        """Play ``length`` virtual seconds, one step per virtual second.

        ``chunked=False`` plays the same span as a single ``run()``
        and returns one wall time: the chunking cross-check.
        """
        walls = []
        clock = time.perf_counter
        ends = range(1, self.length + 1) if chunked else [self.length]
        for k in ends:
            w0 = clock()
            self.stack.sim.run(until=self.t0 + k)
            walls.append(clock() - w0)
        self.presented_in_phase = self.presented()
        return walls

    def presented(self) -> int:
        return sum(sink.presented for sink in self.sinks.values())

    def written(self) -> int:
        return sum(src.generated for src in self.sources.values())

    def delivery(self) -> Dict[str, int]:
        return {
            "written": self.written(),
            "presented": self.presented(),
            "late": sum(sink.late_count for sink in self.sinks.values()),
        }

    def per_vc(self) -> Dict[str, Dict[str, int]]:
        return {
            name: {
                "written": self.sources[name].generated,
                "presented": self.sinks[name].presented,
                "late": self.sinks[name].late_count,
            }
            for name in sorted(self.sinks)
        }


class Film(_PlayoutWorkload):
    """E6's film: 25 fps video + 250 blk/s audio, HLO-orchestrated."""

    name = "film"

    def setup(self) -> None:
        drift = self.rand.uniform(150.0, 200.0)
        stack = self.stack = Stack(seed=self.seed)
        stack.host("video-srv", clock_skew_ppm=drift)
        stack.host("audio-srv", clock_skew_ppm=-drift)
        stack.host("ws", clock_skew_ppm=self.rand.uniform(-50.0, 50.0))
        stack.router("net")
        for name in ("video-srv", "audio-srv", "ws"):
            stack.link(name, "net", 20e6, prop_delay=0.003)
        stack.up()
        self.auditor = stack.enable_audit()
        streams = self.streams
        marks = self.marks = {}

        def orchestrated_start():
            streams["video"] = yield from self._connect(
                TransportAddress("video-srv", 1), TransportAddress("ws", 1),
                VideoQoS.of(fps=25.0, compression_ratio=80.0),
            )
            streams["audio"] = yield from self._connect(
                TransportAddress("audio-srv", 2), TransportAddress("ws", 2),
                AudioQoS.telephone(),
            )
            encodings = {
                "video": video_cbr(25.0, streams["video"].media_qos.osdu_bytes),
                "audio": audio_pcm(8000.0, 1, 32),
            }
            for name in ("video", "audio"):
                rate = encodings[name].osdu_rate
                self.sources[name] = StoredMediaSource(
                    stack.sim, streams[name].send_endpoint, encodings[name],
                    total_osdus=int(self.length * rate),
                )
                self.sinks[name] = PlayoutSink(
                    stack.sim, streams[name].recv_endpoint, rate,
                    clock=stack.clock("ws"), mode="gated",
                )
            self.session = yield from stack.hlo.orchestrate(
                [streams["video"].spec(max_drop_per_interval=2),
                 streams["audio"].spec(max_drop_per_interval=0)],
                OrchestrationPolicy(interval_length=0.2),
            )
            marks["prime"] = stack.sim.now
            primed = yield from self.session.prime()
            marks["primed"] = primed.accept
            started = yield from self.session.start()
            marks["started"] = started.accept
            marks["start"] = stack.sim.now

        stack.spawn(orchestrated_start())
        # Connect, orchestrate, prime and start, then stop the clock
        # exactly at Orch.Start: the timed play-out begins there.
        while "start" not in marks and stack.sim.pending_events:
            stack.sim.step()
        self.t0 = stack.sim.now

    def finish(self) -> None:
        stack = self.stack
        stack.sim.run(until=self.t0 + self.length + DRAIN_S)
        series = interstream_skew_series(
            [self.sinks["video"], self.sinks["audio"]],
            self.t0 + 3.0, self.t0 + self.length - 1.0,
        )
        # Skew is a difference of media times that are multiples of the
        # 4 ms audio unit, so a skew of exactly 92 ms can read 92 ms plus
        # 1e-15 s of float error; at 1 ns resolution it reads 92 ms.
        self.skew = [round(s, 9) for _t, s in series]
        self.max_skew_s = max(abs(s) for s in self.skew)
        self.regulate_calls = (
            self.session.agent.config.intervals_issued
            * len(self.session.agent.streams)
        )
        self.audit = self.auditor.snapshot()["summary"]
        for stream in self.streams.values():
            self.vc_totals.add_stream(stream)
        self.links = self.link_counters()
        done = {}

        def closer():
            yield from self.session.stop()
            self.session.release()
            for stream in self.streams.values():
                self._close(stream)
            done["closed"] = True

        stack.spawn(closer())
        stack.sim.run(until=stack.sim.now + DRAIN_S)
        self.closed = done.get("closed", False)

    def failures(self) -> List[str]:
        out = []
        if not (self.marks.get("primed") and self.marks.get("started")):
            out.append("Orch.Prime/Orch.Start not confirmed")
        if self.max_skew_s > FILM_SKEW_BOUND_S:
            out.append(
                f"max skew {self.max_skew_s * 1e3:.1f} ms exceeds "
                f"{FILM_SKEW_BOUND_S * 1e3:.1f} ms"
            )
        if not self.closed:
            out.append("session stop / stream close did not complete")
        return out + self.quiescence_failures()

    def outputs(self) -> Dict:
        return {
            "per_vc": self.per_vc(),
            "skew": self.skew,
            "links": self.links,
            "audit": self.audit["counts"],
            "vc": self.vc_totals.values,
        }

    def counts(self) -> Dict[str, float]:
        return {
            "orchestration.regulate_calls": self.regulate_calls,
            "orchestration.prime_start_ms":
                (self.t0 - self.marks["prime"]) * 1e3,
            "orchestration.max_skew_ms": self.max_skew_s * 1e3,
            "obs.periods": self.audit["periods"],
            "obs.periods_violated": self.audit["counts"]["violated"],
        }


class Mux(_PlayoutWorkload):
    """Many small audio VCs and a few video VCs over one lossy leg."""

    name = "mux"
    AUDIO_VCS = 8
    VIDEO_VCS = 2
    LOSS = 0.01
    JITTER_S = 0.002
    #: Most final OSDUs per VC that may be lost undetected: with 1 %
    #: independent loss, 3 or more in a row end a VC once in 10^6.
    MAX_TAIL = 2

    def setup(self) -> None:
        stack = self.stack = Stack(seed=self.seed)
        stack.host("server", clock_skew_ppm=self.rand.uniform(-100.0, 100.0))
        stack.host("ws", clock_skew_ppm=self.rand.uniform(-100.0, 100.0))
        stack.router("net")
        stack.link("server", "net", 20e6, prop_delay=0.003)
        # The delivery leg: seeded Bernoulli loss and uniform jitter on
        # the data direction only; the feedback direction is clean.
        self.leg_loss = RecordedLoss(self.LOSS)
        stack.link("net", "ws", 20e6, prop_delay=0.003,
                   loss=self.leg_loss,
                   jitter=UniformJitter(self.JITTER_S), bidirectional=False)
        stack.link("ws", "net", 20e6, prop_delay=0.003, bidirectional=False)
        stack.up()
        plan = [(f"a{i}", AudioQoS.telephone(),
                 ClassOfService.detect_and_correct())
                for i in range(self.AUDIO_VCS)]
        plan += [(f"v{i}", VideoQoS.of(fps=25.0, compression_ratio=80.0),
                  ClassOfService.detect_and_indicate())
                 for i in range(self.VIDEO_VCS)]
        done = {}

        def connector():
            for tsap, (name, qos, cos) in enumerate(plan, start=1):
                self.streams[name] = yield from self._connect(
                    TransportAddress("server", tsap),
                    TransportAddress("ws", tsap), qos, cos=cos,
                )
            done["connected"] = stack.sim.now

        stack.spawn(connector())
        while "connected" not in done and stack.sim.pending_events:
            stack.sim.step()
        ws_clock = stack.clock("ws")
        for name, stream in self.streams.items():
            qos = stream.media_qos
            encoding = (audio_pcm(8000.0, 1, 32) if name.startswith("a")
                        else video_cbr(25.0, qos.osdu_bytes))
            self.sources[name] = StoredMediaSource(
                stack.sim, stream.send_endpoint, encoding,
                total_osdus=int(self.length * encoding.osdu_rate),
            )
            self.sinks[name] = PlayoutSink(
                stack.sim, stream.recv_endpoint, encoding.osdu_rate,
                clock=ws_clock, mode="paced", playout_delay=0.05,
            )
            self.sources[name].play()
        self.t0 = stack.sim.now

    def finish(self) -> None:
        stack = self.stack
        stack.sim.run(until=self.t0 + self.length + DRAIN_S)
        for stream in self.streams.values():
            self.vc_totals.add_stream(stream)
        self.links = self.link_counters()
        leg = self.leg_loss
        self.problems: List[str] = []
        if len(leg.dropped) != self.links["net->ws"]["lost"]:
            self.problems.append(
                f"{len(leg.dropped)} drops recorded on net->ws, link "
                f"counted {self.links['net->ws']['lost']}")
        self.lost_per_vc = {}
        for name, stream in sorted(self.streams.items()):
            source = self.sources[name]
            send_vc = stream.send_endpoint.vc
            recv_vc = stream.recv_endpoint.vc
            self.lost_per_vc[name] = recv_vc.lost_count
            if source.generated != source.total_osdus:
                self.problems.append(
                    f"{name}: source wrote {source.generated} of "
                    f"{source.total_osdus} OSDUs")
            if send_vc.sent_count != source.generated:
                self.problems.append(
                    f"{name}: {send_vc.sent_count} of {source.generated} "
                    f"written OSDUs transmitted")
            # Loss is only detected when a later unit arrives, so when
            # the last units a source writes are lost the sink never
            # learns of them: they are neither presented nor lost.  Such
            # a tail is excused only when it is short and every unit in
            # it was seen dropped on the lossy leg; a unit stuck anywhere
            # else (send buffer, in flight, behind an unfilled gap)
            # fails the run.
            released = recv_vc.highest_released_seq
            first = 0 if released is None else released + 1
            tail = set(range(first, source.generated))
            if not tail:
                continue
            self.tail_undetected[name] = len(tail)
            not_dropped = tail - leg.dropped_seqs(stream.vc_id)
            if len(tail) > self.MAX_TAIL or not_dropped:
                self.problems.append(
                    f"{name}: {len(tail)} final OSDUs neither presented "
                    f"nor lost, {len(not_dropped)} of them never dropped "
                    f"on the lossy leg")
        for stream in self.streams.values():
            self._close(stream)
        stack.sim.run(until=stack.sim.now + DRAIN_S)
        # T-Disconnect travels as one unacknowledged control TPDU, so
        # on the lossy leg it can be lost and leave the sink's VC (and
        # its QoS monitor) open for ever.  Where the DR TPDU for a VC was
        # seen dropped, the sink application releases its own end, as a
        # real one would after a timeout, and the case counts as a
        # failed operation; a sink VC left open for any other reason
        # stays open and fails the quiescence gate.
        sink_entity = stack.entities["ws"]
        dropped_drs = leg.dropped_disconnects()
        for stream in self.streams.values():
            if stream.vc_id not in sink_entity.recv_vcs:
                continue
            if stream.vc_id not in dropped_drs:
                self.problems.append(
                    f"{stream.vc_id}: sink VC still open though its "
                    f"T-Disconnect was not dropped")
                continue
            self.disconnects_lost.append(stream.vc_id)
            sink_entity.request(TDisconnectRequest(
                initiator=stream.sink, vc_id=stream.vc_id))
        stack.sim.run(until=stack.sim.now + DRAIN_S)

    def failures(self) -> List[str]:
        out = list(self.problems)
        for name, row in self.per_vc().items():
            lost = self.lost_per_vc[name]
            tail = self.tail_undetected.get(name, 0)
            if row["presented"] + lost + tail != row["written"]:
                out.append(
                    f"{name}: presented {row['presented']} + lost {lost} "
                    f"+ undetected tail {tail} != written {row['written']}"
                )
        if self.vc_totals.values["recovered_osdus"] <= 0:
            out.append("no OSDU was recovered by NACK (correction unused)")
        return out + self.quiescence_failures()

    def outputs(self) -> Dict:
        return {
            "per_vc": self.per_vc(),
            "lost": self.lost_per_vc,
            "disconnects_lost": self.disconnects_lost,
            "tail_undetected": self.tail_undetected,
            "links": self.links,
            "vc": self.vc_totals.values,
        }


class Churn(Workload):
    """One closed-loop client: connect, 5 OSDUs, renegotiate, close."""

    name = "churn"
    LEAVES = 3
    OSDUS_PER_CYCLE = 5
    PAUSE_S = 0.05

    def setup(self) -> None:
        self.stack = Stack.star(seed=self.seed, leaves=self.LEAVES)
        self.stack.up()
        # The cycle plan is the workload's input: drawn from the seed
        # before the clock starts.
        leaves = [f"leaf{i}" for i in range(self.LEAVES)]
        self.plan = []
        for _ in range(self.length):
            src, dst = self.rand.sample(leaves, 2)
            samples = self.rand.choice((16, 32, 64))
            self.plan.append((src, dst, samples))
        self.cycle_ends: List[float] = []
        self.cycle_vtimes: List[float] = []
        self.presented = 0
        self.written = 0
        self.done = False

    def _client(self):
        sim = self.stack.sim
        for src, dst, samples in self.plan:
            began = sim.now
            try:
                stream = yield from self._connect(
                    TransportAddress(src, 1), TransportAddress(dst, 1),
                    AudioQoS.telephone(),
                )
            except ConnectionRefused:
                continue
            for k in range(self.OSDUS_PER_CYCLE):
                yield from stream.send_endpoint.write(OSDU(size_bytes=32,
                                                           payload=k))
                self.written += 1
            for _ in range(self.OSDUS_PER_CYCLE):
                yield from stream.recv_endpoint.read()
                self.presented += 1
            self.renegotiations_attempted += 1
            t0 = time.perf_counter()
            ok = yield from stream.renegotiate(
                AudioQoS.of(8000.0, 1, samples)
            )
            self.op_wall["renegotiate"].append(time.perf_counter() - t0)
            if not ok:
                self.renegotiations_failed += 1
            self.vc_totals.add_stream(stream)
            self._close(stream)
            yield Timeout(sim, self.PAUSE_S)
            self.cycle_vtimes.append(round(sim.now - began, 9))
            self.cycle_ends.append(time.perf_counter())
        self.done = True

    def timed_phase(self, chunked: bool = True) -> List[float]:
        """Run every cycle; each cycle is one step.

        The simulator advances in one-virtual-second chunks; each
        cycle's wall time is read by the client itself as it finishes,
        so chunk boundaries fall anywhere inside a cycle.
        ``chunked=False`` runs until the simulator goes quiet instead.
        """
        sim = self.stack.sim
        self.stack.spawn(self._client(), name="churn-client")
        began = time.perf_counter()
        while not self.done:
            if not chunked:
                sim.run()
                break
            sim.run(until=sim.now + 1.0)
        self.presented_in_phase = self.presented
        ends = [began] + self.cycle_ends
        return [b - a for a, b in zip(ends, ends[1:])]

    def finish(self) -> None:
        self.stack.sim.run(until=self.stack.sim.now + DRAIN_S)
        self.links = self.link_counters()

    def failures(self) -> List[str]:
        out = []
        if not self.done:
            out.append("the client did not finish its cycles")
        if self.connects_failed or self.connects_attempted != self.length:
            out.append(
                f"T-Connect: {self.connects_failed} of "
                f"{self.connects_attempted} failed ({self.length} cycles)"
            )
        if self.renegotiations_failed:
            out.append(
                f"T-Renegotiate: {self.renegotiations_failed} of "
                f"{self.renegotiations_attempted} refused"
            )
        if self.presented != self.written:
            out.append(f"read {self.presented} of {self.written} OSDUs")
        return out + self.quiescence_failures()

    def delivery(self) -> Dict[str, int]:
        return {"written": self.written, "presented": self.presented,
                "late": 0}

    def outputs(self) -> Dict:
        return {
            "cycles": len(self.cycle_vtimes),
            "cycle_vtimes": self.cycle_vtimes,
            "presented": self.presented,
            "links": self.links,
            "vc": self.vc_totals.values,
        }


WORKLOADS = {cls.name: cls for cls in (Film, Mux, Churn)}
