"""Fluid-fidelity testbed: same wiring as :class:`Testbed`, fluid data
plane.

``Testbed(cfg)`` with ``cfg.fidelity == "flow"`` constructs one of
these (dispatch lives in ``Testbed.__new__``), so every experiment,
sweep and oracle selects fidelity purely through the config knob.  The
control surface is identical — real topology, real LB objects
registered with the real :class:`PrestoController`, the modeled
control plane, fault schedules — only hosts and transport are
replaced: a :class:`FluidHost` has no TCP stack or GRO, and
``add_elephant``/``add_mice``/``add_probe`` open
:class:`~repro.fluid.engine.FluidTransfer` fluids instead of
packet-level apps.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.experiments.harness import Testbed, TestbedConfig
from repro.fluid.engine import FluidEngine, FluidTransfer, _Probe
from repro.host.app import FlowIdAllocator
from repro.presto.controller import PrestoController
from repro.sim.engine import Simulator
from repro.sim.rand import RandomStreams
from repro.telemetry import NULL_TELEMETRY, Telemetry, TelemetryConfig
from repro.units import KB, msec


class _FluidNic:
    """Counter-compatible NIC stub: accountants read these fields."""

    def __init__(self):
        self.port = None       # set to the real egress Port on attach
        self.tx_pkts = 0
        self.tx_segments = 0
        self.rx_pkts = 0
        self.ring_drops = 0


class _FluidRx:
    """Receiver-side mirror of one wire flow, so closed-loop workloads
    (``shuffle_workload``) can read ``receivers[f].delivered_bytes``
    exactly as on a packet host."""

    __slots__ = ("_transfer", "_flow_id")

    def __init__(self, transfer: FluidTransfer, flow_id: int):
        self._transfer = transfer
        self._flow_id = flow_id

    @property
    def delivered_bytes(self) -> int:
        return self._transfer.delivered_by_flow().get(self._flow_id, 0)


class FluidHost:
    """Duck-typed host: enough surface for Topology, the controller and
    the metric accountants; no packet machinery."""

    def __init__(self, host_id: int, lb):
        self.host_id = host_id
        self.lb = lb
        self.nic = _FluidNic()
        self.receivers: Dict[int, _FluidRx] = {}
        self.senders: Dict[int, object] = {}
        self.tx_pkts = 0
        self.rx_ring_drops = 0

    def attach(self, egress_port, topo) -> None:
        self.nic.port = egress_port

    def receive(self, pkt, in_port=None) -> None:
        pass  # nothing packet-shaped ever arrives at fluid fidelity


class RepFlowFluidApp:
    """Fluid-fidelity RepFlow transfer: two full-size fluid copies
    raced over disjoint trees (mirrors :class:`repro.host.app.RepFlowApp`).

    Each copy is an ordinary bounded :class:`FluidTransfer`, so the
    engine's conservation invariants hold per copy; the wrapper does
    the first-finisher-wins FCT accounting and suppresses the
    duplicate's bytes from the application-level ledger."""

    def __init__(self, tb: "FluidTestbed", src: int, dst: int,
                 size_bytes: int, start_ns: int = 0, on_complete=None):
        if size_bytes is None or size_bytes <= 0:
            raise ValueError(
                f"RepFlow replicates bounded transfers only, "
                f"got size_bytes={size_bytes}")
        self.size_bytes = size_bytes
        self.on_complete = on_complete
        self.winner = None
        lb = tb.hosts[src].lb
        primary = tb.flow_ids.next()
        replica = tb.flow_ids.next()
        pair = getattr(lb, "pair", None)
        if pair is not None:
            pair(primary, replica)
        self.copies = tuple(
            tb.engine.open_transfer(
                src, dst, lb, [flow_id], size_bytes=size_bytes,
                start_ns=start_ns, on_complete=self._copy_done)
            for flow_id in (primary, replica)
        )
        receivers = tb.hosts[dst].receivers
        for copy in self.copies:
            for flow_id in copy.flow_ids():
                receivers[flow_id] = _FluidRx(copy, flow_id)

    def _copy_done(self, copy: FluidTransfer) -> None:
        if self.winner is None:
            self.winner = copy
            if self.on_complete is not None:
                self.on_complete(self)

    def _leader(self) -> FluidTransfer:
        if self.winner is not None:
            return self.winner
        return max(self.copies, key=lambda c: (c.delivered_bytes(),
                                               -c.flow_ids()[0]))

    @property
    def dup_suppressed_bytes(self) -> int:
        """Payload bytes the receiver discarded as duplicates."""
        leader = self._leader()
        return sum(c.delivered_bytes() for c in self.copies
                   if c is not leader)

    # --- Transfer protocol ------------------------------------------------

    def flow_ids(self) -> tuple:
        return tuple(f for c in self.copies for f in c.flow_ids())

    def delivered_by_flow(self) -> dict:
        leader = self._leader()
        out: dict = {}
        for copy in self.copies:
            for flow_id in copy.flow_ids():
                out[flow_id] = (copy.delivered_by_flow()[flow_id]
                                if copy is leader else 0)
        return out

    def delivered_bytes(self) -> int:
        return self._leader().delivered_bytes()

    @property
    def fct_ns(self):
        return self.winner.fct_ns if self.winner is not None else None

    @property
    def fcts_ns(self) -> tuple:
        fct = self.fct_ns
        return (fct,) if fct is not None else ()


class FluidMiceApp:
    """Periodic mice at fluid fidelity; mirrors ``MiceApp``'s shape
    (``fcts_ns``, ``sent``, Transfer protocol over spawned flows)."""

    def __init__(self, tb: "FluidTestbed", src: int, dst: int,
                 size_bytes: int, interval_ns: int, start_ns: int = 0,
                 stop_ns: Optional[int] = None):
        self.tb = tb
        self.src = src
        self.dst = dst
        self.size_bytes = size_bytes
        self.interval_ns = interval_ns
        self.stop_ns = stop_ns
        self.fcts_ns: List[int] = []
        self.sent = 0
        self._transfers: List[FluidTransfer] = []
        tb.sim.schedule(start_ns, self._tick)

    def _tick(self) -> None:
        if self.stop_ns is not None and self.tb.sim.now >= self.stop_ns:
            return
        transfer = self.tb._open(self.src, self.dst,
                                 size_bytes=self.size_bytes,
                                 on_complete=self._done)
        self._transfers.append(transfer)
        self.sent += 1
        self.tb.sim.schedule(self.interval_ns, self._tick)

    def _done(self, transfer: FluidTransfer) -> None:
        if transfer.fct_ns is not None:
            self.fcts_ns.append(transfer.fct_ns)

    @property
    def dup_suppressed_bytes(self) -> int:
        """RepFlow duplicate suppression, rolled up over spawned mice
        (0 for single-copy transports)."""
        return sum(getattr(t, "dup_suppressed_bytes", 0)
                   for t in self._transfers)

    # --- Transfer protocol ------------------------------------------------

    def flow_ids(self) -> tuple:
        return tuple(f for t in self._transfers for f in t.flow_ids())

    def delivered_by_flow(self) -> dict:
        out: dict = {}
        for transfer in self._transfers:
            out.update(transfer.delivered_by_flow())
        return out

    def delivered_bytes(self) -> int:
        return sum(t.delivered_bytes() for t in self._transfers)


class FluidProbeApp:
    """RTT probe at fluid fidelity: resolves the probe's path through
    the real LB + switch state and reports the queueless floor —
    propagation plus per-hop serialization, doubled for the echo."""

    PROBE_BYTES = 64

    def __init__(self, tb: "FluidTestbed", src: int, dst: int,
                 interval_ns: int = msec(1), start_ns: int = 0,
                 stop_ns: Optional[int] = None):
        self.tb = tb
        self.src = src
        self.dst = dst
        self.interval_ns = interval_ns
        self.stop_ns = stop_ns
        # two ids, like the packet probe's request/reply pair
        self.flow_id = tb.flow_ids.next()
        self.reply_flow_id = tb.flow_ids.next()
        self.rtts_ns: List[int] = []
        tb.sim.schedule(start_ns, self._tick)

    def _tick(self) -> None:
        sim = self.tb.sim
        if self.stop_ns is not None and sim.now >= self.stop_ns:
            return
        lb = self.tb.hosts[self.src].lb
        probe = _Probe(self.flow_id, self.src, self.dst, self.PROBE_BYTES)
        lb.select(probe)
        labeler = lb.packet_labeler()
        if labeler is not None:
            labeler(probe)
        path = self.tb.engine.resolve_path(
            self.src, self.dst, self.flow_id, probe.dst_mac,
            probe.flowcell_id, sim.now)
        if path is not None:
            one_way = self.tb.engine.path_latency_ns(path, self.PROBE_BYTES)
            self.rtts_ns.append(2 * one_way)
        sim.schedule(self.interval_ns, self._tick)

    # --- Transfer protocol (probes carry no payload) ----------------------

    def flow_ids(self) -> tuple:
        return (self.flow_id, self.reply_flow_id)

    def delivered_by_flow(self) -> dict:
        return {self.flow_id: 0, self.reply_flow_id: 0}

    def delivered_bytes(self) -> int:
        return 0


class FluidTestbed(Testbed):
    """Flow-level counterpart of :class:`Testbed` (one per run)."""

    __test__ = False  # not a pytest class, despite the name

    def __init__(self, cfg: TestbedConfig,
                 telemetry: Optional[TelemetryConfig] = None):
        # Mirrors Testbed.__init__ step for step; divergences are the
        # fluid engine, FluidHost construction and telemetry sampling.
        from repro.experiments.schemes import get_scheme

        self.cfg = cfg
        self.scheme_def = get_scheme(cfg.scheme)
        self.sim = Simulator()
        self.telemetry = (
            Telemetry(self.sim, telemetry)
            if telemetry is not None else NULL_TELEMETRY
        )
        self.streams = RandomStreams(cfg.seed)
        self.flow_ids = FlowIdAllocator()
        self.topo = self._build_topology()
        self.hosts: List[FluidHost] = []
        self._build_hosts()
        self.engine = FluidEngine(
            self.sim, self.topo, cfg.flowcell_bytes,
            failover_latency_ns=cfg.failover_latency_ns,
            validate=bool(cfg.validate))
        self.controller = PrestoController(self.topo)
        self.controller.register_vswitch(*(host.lb for host in self.hosts))
        self.topo.install_underlay(
            leaf_hash_mode=self.scheme_def.leaf_hash_mode)
        self._wrap_schedules()
        self.engine.watch_links()
        self.apps: List[object] = []
        self.control_plane = None
        if self.telemetry.enabled:
            self.telemetry.add_sampler(self._fluid_sampler)
        self.validation = None
        self.last_invariant_report = None

    # --- construction -----------------------------------------------------

    def _build_hosts(self) -> None:
        cfg = self.cfg
        spec = cfg.topology_spec()
        for host_id in range(self._n_hosts()):
            host = FluidHost(host_id, lb=self._make_lb(host_id))
            if self.scheme_def.single_switch:
                leaf = self.topo.leaves[0]
            else:
                leaf = self.topo.leaves[spec.edge_of(host_id)]
            self.topo.attach_host(
                host,
                leaf,
                rate_bps=cfg.link_rate_bps,
                prop_delay_ns=cfg.prop_delay_ns,
                buffer_bytes=cfg.switch_buffer_bytes,
                host_buffer_bytes=cfg.host_buffer_bytes,
            )
            self.hosts.append(host)

    def _wrap_schedules(self) -> None:
        """Intercept every LB's ``set_schedule`` so controller pushes
        (initial install, control-plane reweights) re-slice active
        fluids over the new labels."""
        engine = self.engine
        for host in self.hosts:
            original = host.lb.set_schedule

            def wrapped(dst_host, labels, _orig=original):
                _orig(dst_host, labels)
                engine.schedules_changed()

            host.lb.set_schedule = wrapped

    def pod_of(self, host_id: int) -> int:
        """Rack (edge switch) index a host logically belongs to, for any
        fabric shape (mirrors :meth:`Testbed.pod_of`)."""
        return self.cfg.topology_spec().edge_of(host_id)

    # --- traffic ----------------------------------------------------------

    def _open(self, src: int, dst: int, size_bytes: Optional[int],
              start_ns: int = 0, on_complete=None):
        if self._replicates(size_bytes):
            return RepFlowFluidApp(self, src, dst, size_bytes,
                                   start_ns=start_ns,
                                   on_complete=on_complete)
        n_flows = self.cfg.mptcp_subflows if self.is_mptcp else 1
        ids = [self.flow_ids.next() for _ in range(n_flows)]
        transfer = self.engine.open_transfer(
            src, dst, self.hosts[src].lb, ids,
            size_bytes=size_bytes, start_ns=start_ns,
            on_complete=on_complete)
        receivers = self.hosts[dst].receivers
        for flow_id in ids:
            receivers[flow_id] = _FluidRx(transfer, flow_id)
        return transfer

    def add_elephant(self, src: int, dst: int,
                     size_bytes: Optional[int] = None, start_ns: int = 0,
                     on_complete=None):
        transfer = self._open(src, dst, size_bytes, start_ns, on_complete)
        self.apps.append(transfer)
        return transfer

    def add_mice(self, src: int, dst: int, size_bytes: int = 50 * KB,
                 interval_ns: int = msec(100), start_ns: int = 0,
                 stop_ns: Optional[int] = None):
        app = FluidMiceApp(self, src, dst, size_bytes=size_bytes,
                           interval_ns=interval_ns, start_ns=start_ns,
                           stop_ns=stop_ns)
        self.apps.append(app)
        return app

    def add_probe(self, src: int, dst: int, interval_ns: int = msec(1),
                  start_ns: int = 0,
                  stop_ns: Optional[int] = None) -> FluidProbeApp:
        app = FluidProbeApp(self, src, dst, interval_ns=interval_ns,
                            start_ns=start_ns, stop_ns=stop_ns)
        self.apps.append(app)
        return app

    # --- running ----------------------------------------------------------

    def run(self, until_ns: int) -> None:
        self.sim.run(until=until_ns)
        self.engine.sync()
        if self.cfg.validate:
            from repro.validate.invariants import InvariantViolation

            report = self._fluid_check()
            self.last_invariant_report = report
            if not report.ok:
                raise InvariantViolation(
                    f"{len(report.violations)} invariant violation(s) "
                    f"after fluid run to t={until_ns}: "
                    + "; ".join(report.violations))

    def _fluid_check(self):
        """Fluid conservation laws: allocations never exceeded any link
        capacity (checked at every realloc) and completed transfers
        delivered exactly their size."""
        from repro.validate.invariants import InvariantReport

        violations = list(self.engine.violations)
        for transfer in self.engine.transfers:
            delivered = transfer.delivered_bytes()
            size = transfer.size_bytes
            if size is None:
                continue
            if transfer.done and delivered != size:
                violations.append(
                    f"transfer {transfer.flow_ids()} completed with "
                    f"{delivered} of {size} bytes")
            elif delivered > size:
                violations.append(
                    f"transfer {transfer.flow_ids()} delivered {delivered} "
                    f"> size {size}")
        return InvariantReport(
            violations=violations,
            stats={
                "fluid_transfers": len(self.engine.transfers),
                "fluid_reallocs": self.engine.reallocs,
                "fluid_path_resolves": self.engine.path_resolves,
                "fluid_slices": self.engine.slices,
            },
        )

    # --- telemetry --------------------------------------------------------

    def _fluid_sampler(self, reg) -> None:
        reg.counter("fluid.reallocs").record_total(self.engine.reallocs)
        reg.counter("fluid.path_resolves").record_total(
            self.engine.path_resolves)
        reg.counter("fluid.slices").record_total(self.engine.slices)
        reg.counter("fluid.transfers").record_total(
            len(self.engine.transfers))
        for name, nbytes in self.engine.link_bytes().items():
            reg.counter(f"fluid.port.{name}.tx_bytes").record_total(nbytes)
