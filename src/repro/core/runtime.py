"""Unified virtual-time runtime shared by every layer of the stack.

Before this module existed, each app module and benchmark hand-wired
the same pile: a :class:`~repro.sim.scheduler.Simulator`, a
:class:`~repro.sim.random.RandomStreams`, a
:class:`~repro.netsim.topology.Network`, a reservation manager, one
transport entity and one LLO per host, the HLO, and the ANSA platform
objects -- then fished per-node clocks back out of the network when an
experiment needed local time.  Component-platform follow-ups to the
paper (Korrontea, the component-based multimedia platforms) argue for
exactly the opposite shape: one small shared runtime/connector core
that media components plug into.

Three objects provide that core:

``Runtime``
    Owns the simulator, the seeded named RNG streams and the per-node
    clock registry.  Everything time- or randomness-related hangs off
    one object with one seed.

``Stack``
    A ``Runtime`` plus the layered service built on it (Figure 1 of
    the paper): network emulator, transport entities, LLOs, HLO,
    trader/REX/stream factory.  Topology is declared first
    (:meth:`Stack.host` / :meth:`Stack.link`), then :meth:`Stack.up`
    instantiates all layers.

``HostBuilder``
    The handle returned by :meth:`Stack.host`: it composes the netsim
    node, the node clock, and -- once the stack is up -- that host's
    transport entity and LLO instance, so call sites stop reaching
    through ``bed.network.host(name).clock`` and friends.

:class:`repro.apps.testbed.Testbed` is now a thin alias of ``Stack``
kept for existing call sites.
"""

from __future__ import annotations

import atexit
import itertools
import os
from typing import Dict, Iterator, Optional, Tuple

from repro.ansa.rex import RexRPC
from repro.ansa.stream import StreamFactory
from repro.ansa.trader import Trader
from repro.netsim.link import JitterModel, Link, LossModel
from repro.netsim.reservation import ReservationManager
from repro.netsim.topology import Host, Network
from repro.obs.trace import NULL_TRACER, TraceLevel, Tracer
from repro.orchestration.hlo import HighLevelOrchestrator
from repro.orchestration.llo import LLOInstance, build_llos
from repro.sim.clock import NodeClock
from repro.sim.random import RandomStreams
from repro.sim.scheduler import Process, Simulator
from repro.transport.entity import TransportEntity
from repro.transport.service import build_transport


class Runtime:
    """The virtual-time substrate: simulator + RNG streams + clocks.

    One ``Runtime`` per experiment; every layer built on top shares its
    simulator and draws named, independently-seeded randomness from
    :meth:`stream`.  Node clocks register here as hosts are created, so
    per-node local time is one registry lookup instead of a dig through
    the topology.
    """

    #: Sequence numbers for the ``REPRO_TRACE`` auto-export files.
    _trace_auto_ids = itertools.count()

    def __init__(self, seed: int = 0):
        self.sim = Simulator()
        self.rng = RandomStreams(seed)
        self._clocks: Dict[str, NodeClock] = {}
        self._maybe_auto_trace()

    def _maybe_auto_trace(self) -> None:
        """Honour the ``REPRO_TRACE`` environment hook.

        ``REPRO_TRACE=<prefix>`` turns tracing on for every runtime in
        the process and exports ``<prefix>.<n>.json`` at interpreter
        exit -- how CI smoke-runs a benchmark traced without the
        benchmark knowing.  ``REPRO_TRACE_LEVEL=packet`` raises the
        verbosity.
        """
        prefix = os.environ.get("REPRO_TRACE")
        if not prefix:
            return
        level_name = os.environ.get("REPRO_TRACE_LEVEL", "lifecycle")
        tracer = self.enable_tracing(TraceLevel[level_name.upper()])
        path = f"{prefix}.{next(Runtime._trace_auto_ids)}.json"

        def export() -> None:
            if len(tracer):
                directory = os.path.dirname(path)
                if directory:
                    os.makedirs(directory, exist_ok=True)
                tracer.export(path)

        atexit.register(export)

    # -- time --------------------------------------------------------------

    @property
    def now(self) -> float:
        return self.sim.now

    def run(self, duration: float) -> float:
        """Advance the simulation by ``duration`` seconds."""
        return self.sim.run(until=self.sim.now + duration)

    def spawn(self, gen, name: Optional[str] = None) -> Process:
        return self.sim.spawn(gen, name=name)

    # -- randomness --------------------------------------------------------

    def stream(self, name: str):
        """Named RNG stream, deterministic given the runtime seed."""
        return self.rng.stream(name)

    # -- observability -----------------------------------------------------

    def enable_tracing(self, level: TraceLevel = TraceLevel.LIFECYCLE) -> Tracer:
        """Install a sim-time tracer on the simulator and return it.

        All instrumentation sites across the stack start recording;
        ``level=TraceLevel.PACKET`` additionally records per-packet link
        occupancy and host receive events.  Call before (or after) the
        run; tracing only appends to an in-memory list and never
        perturbs simulation event ordering.
        """
        tracer = Tracer(lambda: self.sim.now, level)
        self.sim.trace = tracer
        return tracer

    def disable_tracing(self) -> None:
        """Revert to the zero-cost null tracer."""
        self.sim.trace = NULL_TRACER

    def export_trace(self, path: str) -> str:
        """Write the recorded trace as Chrome-trace JSON (Perfetto-ready)."""
        tracer = self.sim.trace
        if isinstance(tracer, Tracer):
            return tracer.export(path)
        raise RuntimeError(
            "tracing is not enabled; call enable_tracing() before export"
        )

    def enable_audit(self, flight_capacity: int = 4096,
                     max_drilldowns: int = 8,
                     flight_recorder: bool = True,
                     max_timeline: Optional[int] = None):
        """Install a QoS conformance auditor; returns the auditor.

        Registers every subsequent T-Connect's negotiated contract and
        files per-sample-period conformance verdicts, renegotiation
        outcomes and orchestration skew (see :mod:`repro.obs.audit`).
        When tracing is off, a bounded flight-recorder ring is
        installed so violated periods can still be drilled down to
        their causal packets; an already-enabled tracer is reused.
        Fleet-scale soaks pass ``flight_recorder=False`` (skip the
        per-packet ring entirely) and a small ``max_timeline`` (bound
        each connection's retained verdict timeline) to keep a
        100k-connection snapshot a tractable document.  Like tracing,
        the audit only records in memory: it never schedules simulator
        events or perturbs a run.
        """
        from repro.obs.audit import install_audit

        return install_audit(
            self.sim, flight_capacity=flight_capacity,
            max_drilldowns=max_drilldowns,
            flight_recorder=flight_recorder,
            max_timeline=max_timeline,
        )

    def export_audit(self, path: str) -> str:
        """Write the audit snapshot as JSON (``repro.obs.report run``)."""
        auditor = self.sim.auditor
        if auditor is None:
            raise RuntimeError(
                "auditing is not enabled; call enable_audit() before export"
            )
        return auditor.export(path)

    def enable_profiling(self, max_events: int = 100_000):
        """Install a wall-clock span profiler; returns the profiler.

        Instruments scheduler dispatch, link commit, transport delivery
        and audit evaluation with :func:`time.perf_counter` spans (see
        :mod:`repro.obs.profile`).  Every site is guarded inline, so
        runs with profiling disabled execute the exact same event
        sequence -- the zero-perturbation identity is pinned by
        ``tests/obs/test_profile.py``.  Enable *before* calling
        ``sim.run``: the dispatch loop latches the profiler per run()
        call.
        """
        from repro.obs.profile import WallProfiler

        profiler = WallProfiler(max_events=max_events)
        self.sim.profile = profiler
        return profiler

    # -- fault injection ---------------------------------------------------

    def with_fault_plan(self, plan, network=None) -> "Runtime":
        """Arm a fault plan (or :class:`~repro.faults.plan.ChaosPlan`).

        ``network`` defaults to the runtime's own ``network`` attribute
        (present on :class:`Stack`); a bare ``Runtime`` must pass one
        explicitly.  A :class:`~repro.faults.plan.ChaosPlan` is
        materialised from the dedicated ``"faults"`` RNG stream, so the
        generated episodes are a pure function of the runtime seed and
        never perturb any other stream.  Armed injectors are appended
        to :attr:`fault_injectors` for inspection.  An empty plan arms
        into nothing: zero simulator events, zero counters, zero
        randomness -- fault-free runs stay bit-identical.
        """
        from repro.faults.injector import FaultInjector
        from repro.faults.plan import ChaosPlan, FaultPlan

        if network is None:
            network = getattr(self, "network", None)
            if network is None:
                raise ValueError(
                    "this runtime has no network; pass one explicitly"
                )
        if isinstance(plan, ChaosPlan):
            plan = plan.materialise(self.stream("faults"))
        if not isinstance(plan, FaultPlan):
            plan = FaultPlan(plan)
        injector = FaultInjector(self.sim, network, plan).arm()
        if not hasattr(self, "fault_injectors"):
            #: Armed injectors, in installation order.
            self.fault_injectors = []
        self.fault_injectors.append(injector)
        return self

    # -- clock registry ----------------------------------------------------

    def register_clock(self, name: str, clock: NodeClock) -> NodeClock:
        self._clocks[name] = clock
        return clock

    def clock(self, name: str) -> NodeClock:
        return self._clocks[name]

    def clocks(self) -> Iterator[Tuple[str, NodeClock]]:
        return iter(self._clocks.items())


class HostBuilder:
    """Composed per-host view: netsim node + clock + entity + LLO.

    Returned by :meth:`Stack.host`.  The node and clock exist
    immediately; :attr:`entity` and :attr:`llo` become available once
    the stack is up.
    """

    def __init__(self, stack: "Stack", node: Host):
        self._stack = stack
        self.node = node

    @property
    def name(self) -> str:
        return self.node.name

    @property
    def clock(self) -> NodeClock:
        return self.node.clock

    def link(
        self,
        other: str,
        bandwidth_bps: float = 10e6,
        prop_delay: float = 0.002,
        jitter: Optional[JitterModel] = None,
        loss: Optional[LossModel] = None,
        ber: float = 0.0,
        buffer_bytes: int = 256 * 1024,
        bidirectional: bool = True,
    ) -> "HostBuilder":
        """Attach this host to ``other`` (host or router); chainable."""
        self._stack.link(
            self.name, other, bandwidth_bps, prop_delay=prop_delay,
            jitter=jitter, loss=loss, ber=ber, buffer_bytes=buffer_bytes,
            bidirectional=bidirectional,
        )
        return self

    @property
    def entity(self) -> TransportEntity:
        """This host's transport entity (stack must be up)."""
        return self._stack.entities[self.name]

    @property
    def llo(self) -> LLOInstance:
        """This host's low-level orchestrator (stack must be up)."""
        return self._stack.llos[self.name]

    def publishes(
        self,
        stream_id: str,
        to: str,
        media_qos,
        tsap: Optional[int] = None,
        sink_tsap: Optional[int] = None,
        worker_factory=None,
        orch_policy=None,
    ):
        """Register this host as the publisher of ``stream_id``.

        Declares a control-plane stream template whose source is this
        host and whose sink is host ``to``, and returns the
        :class:`~repro.orchestration.controlplane.PublisherHandle`
        whose ``ready()``/``unready()`` calls drive the reconciler.
        TSAPs are auto-allocated from the stack's control-plane range
        unless given.  Requires :meth:`Stack.enable_controlplane` first.
        """
        from repro.orchestration.controlplane import StreamTemplate
        from repro.transport.addresses import TransportAddress

        controlplane = self._stack.controlplane
        if controlplane is None:
            raise RuntimeError(
                "no control plane; call stack.enable_controlplane() first"
            )
        if tsap is None:
            tsap = self._stack._allocate_cp_tsap()
        if sink_tsap is None:
            sink_tsap = self._stack._allocate_cp_tsap()
        template = StreamTemplate(
            stream_id=stream_id,
            source=TransportAddress(self.name, tsap),
            sink=TransportAddress(to, sink_tsap),
            media_qos=media_qos,
            worker_factory=worker_factory,
            orch_policy=orch_policy,
        )
        return controlplane.register(template)


class Stack(Runtime):
    """Builder and container for a complete experiment environment.

    Usage::

        stack = Stack(seed=1)
        stack.host("client")
        stack.host("server", clock_skew_ppm=120).link("client")
        stack.up()                    # instantiate all layers
        ... stack.sim, stack.entities, stack.hlo, stack.factory ...
    """

    #: Not a pytest test class despite subclasses' names.
    __test__ = False

    def __init__(self, seed: int = 0, sample_period: float = 1.0,
                 gap_timeout: float = 0.05, reservable_fraction: float = 0.9):
        super().__init__(seed)
        self.network = Network(self.sim, self.rng)
        self.sample_period = sample_period
        self.gap_timeout = gap_timeout
        self.reservable_fraction = reservable_fraction
        self.reservations: Optional[ReservationManager] = None
        self.entities: Dict[str, TransportEntity] = {}
        self.llos: Dict[str, LLOInstance] = {}
        self.hlo: Optional[HighLevelOrchestrator] = None
        self.trader: Optional[Trader] = None
        self.rpc: Optional[RexRPC] = None
        self.factory: Optional[StreamFactory] = None
        self.controlplane = None
        self._hosts: Dict[str, HostBuilder] = {}
        self._cp_tsaps = itertools.count(7000)
        self._up = False

    # -- topology ----------------------------------------------------------

    def host(self, name: str, clock_skew_ppm: float = 0.0) -> HostBuilder:
        """Add an end-system before :meth:`up`."""
        self._check_down()
        node = self.network.add_host(name, clock_skew_ppm=clock_skew_ppm)
        self.register_clock(name, node.clock)
        builder = HostBuilder(self, node)
        self._hosts[name] = builder
        return builder

    def router(self, name: str):
        self._check_down()
        return self.network.add_router(name)

    def link(
        self,
        a: str,
        b: str,
        bandwidth_bps: float = 10e6,
        prop_delay: float = 0.002,
        jitter: Optional[JitterModel] = None,
        loss: Optional[LossModel] = None,
        ber: float = 0.0,
        buffer_bytes: int = 256 * 1024,
        bidirectional: bool = True,
    ) -> Tuple[Link, Optional[Link]]:
        self._check_down()
        return self.network.add_link(
            a, b, bandwidth_bps, prop_delay=prop_delay, jitter=jitter,
            loss=loss, ber=ber, buffer_bytes=buffer_bytes,
            bidirectional=bidirectional,
        )

    def host_stack(self, name: str) -> HostBuilder:
        """The composed per-host view for an existing host."""
        return self._hosts[name]

    def _check_down(self) -> None:
        if self._up:
            raise RuntimeError("topology is frozen once the stack is up")

    # -- stack -------------------------------------------------------------

    def up(self, max_orch_sessions: int = 8) -> "Stack":
        """Instantiate transport, orchestration and platform layers."""
        if self._up:
            return self
        self._up = True
        self.reservations = ReservationManager(
            self.network, reservable_fraction=self.reservable_fraction
        )
        self.entities = build_transport(
            self.sim,
            self.network,
            self.reservations,
            sample_period=self.sample_period,
            gap_timeout=self.gap_timeout,
        )
        self.llos = build_llos(
            self.sim, self.network, self.entities,
            max_sessions=max_orch_sessions,
        )
        self.hlo = HighLevelOrchestrator(self.sim, self.llos)
        self.trader = Trader()
        self.rpc = RexRPC(self.sim, self.network, self.trader)
        self.factory = StreamFactory(self.sim, self.entities)
        return self

    def _allocate_cp_tsap(self) -> int:
        """Next TSAP from the control-plane range (7000 upward)."""
        return next(self._cp_tsaps)

    def enable_controlplane(
        self,
        policy=None,
        delivery=None,
        rng_stream: str = "controlplane",
    ):
        """Install the desired-state control plane; returns it.

        Builds a :class:`~repro.orchestration.controlplane.ControlPlane`
        over this stack's HLO, stream factory, and reservation manager.
        ``delivery`` is an optional
        :class:`~repro.orchestration.events.HookDeliveryConfig` making
        hook-event delivery flaky (late, reordered, duplicated) from
        the named runtime RNG stream -- the chaos-test configuration.
        If auditing is enabled (before or after this call), the
        control-plane snapshot is attached to the audit report as a
        ``controlplane`` section.
        """
        from repro.orchestration.controlplane import ControlPlane

        if not self._up:
            raise RuntimeError("bring the stack up before the control plane")
        if self.controlplane is not None:
            return self.controlplane
        self.controlplane = ControlPlane(
            self.sim,
            self.hlo,
            self.factory,
            self.reservations,
            clock_of=self.clock,
            policy=policy,
            delivery=delivery,
            rng=self.stream(rng_stream),
        )
        auditor = self.sim.auditor
        if auditor is not None:
            auditor.attach_section("controlplane", self.controlplane.snapshot)
        return self.controlplane

    def enable_audit(self, flight_capacity: int = 4096,
                     max_drilldowns: int = 8,
                     flight_recorder: bool = True,
                     max_timeline: Optional[int] = None):
        """As :meth:`Runtime.enable_audit`, plus control-plane linkage.

        When the control plane is already enabled its snapshot is
        attached to the auditor as a ``controlplane`` report section.
        """
        auditor = super().enable_audit(
            flight_capacity=flight_capacity, max_drilldowns=max_drilldowns,
            flight_recorder=flight_recorder, max_timeline=max_timeline,
        )
        if self.controlplane is not None:
            auditor.attach_section("controlplane", self.controlplane.snapshot)
        return auditor

    # -- conveniences ------------------------------------------------------

    @classmethod
    def star(
        cls,
        seed: int = 0,
        leaves: int = 3,
        bandwidth_bps: float = 20e6,
        prop_delay: float = 0.003,
        jitter: Optional[JitterModel] = None,
        clock_skew_ppm: float = 100.0,
        centre_name: str = "hub",
    ) -> "Stack":
        """A hub-and-spoke topology: ``leaf0..leafN`` around a router.

        Leaf clocks drift at alternating ±``clock_skew_ppm`` so that
        drift experiments have genuine divergence out of the box.
        """
        stack = cls(seed=seed)
        stack.router(centre_name)
        for i in range(leaves):
            skew = clock_skew_ppm if i % 2 == 0 else -clock_skew_ppm
            stack.host(f"leaf{i}", clock_skew_ppm=skew * (1 + i / 10))
            stack.link(
                f"leaf{i}", centre_name, bandwidth_bps,
                prop_delay=prop_delay, jitter=jitter,
            )
        return stack
