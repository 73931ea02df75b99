"""Execute a traffic spec: the window pipeline, splicing, ledger verdicts.

Run model
---------

A run is ``spec.windows`` independent time segments.  Each window
builds a fresh network from idle, submits its slice of the global
schedule at window-local bit times while ``engine.time <
spec.window_bits``, then *drains*: ``run_until_idle`` keeps the bus
alive until every online controller is quiet, so no message is cut off
at a window boundary.  The spliced global trace concatenates the
windows' actual bit streams (active + drain), offsetting every event
and delivery time by the cumulative length of the preceding windows.

Windows are the sharding unit over ``repro.parallel``: each
:func:`run_window` call is pure in (spec, window, submissions, noise
child seed), so ``--jobs 1`` and ``--jobs N`` produce bit-identical
ledgers by construction.

Window pipeline
---------------

Every window is a rendered clean prefix plus an optional engine
suffix, and :func:`run_window` is the one router between them:

- the *prefix* is the window's fault-free timeline, planned and
  rendered frame by frame by :mod:`repro.traffic.batch` up to the
  first noise flip or burst (the whole window when none lands on it);
- the *suffix* is the per-bit engine run by :func:`_run_engine`, the
  only engine runner, from the cut to the drained end of the window,
  with the uncommitted submissions, the noise generator advanced to the
  cut, the bursts shifted by it and the losers' attempt counters
  carried over.  A plain engine run is the cut-0 case;
- :func:`_assemble` joins the parts into the :class:`WindowResult` and
  names which ran: ``"engine"`` (suffix only), ``"batch"`` (prefix
  only) or ``"resume"`` (both).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Dict, List, Optional, Tuple

from repro.errors import SimulationError, check_backend
from repro.traffic.schedule import build_schedule, traffic_seed_tree
from repro.traffic.spec import ID_BASE, Submission, TrafficSpec

#: Quiet bits that end a drained window.  The busy-bit rule uses the
#: same horizon: the first ``SETTLE_BITS`` recessive bits after traffic
#: still count as busy.
SETTLE_BITS = 12

#: HLP runs settle longer so protocol timeouts (retransmission timers)
#: get a chance to fire after the controllers fall idle.
_SETTLE_BITS_HLP = 128

#: Backlog sampling stride (bit times); a power of two so the hook is
#: one mask test on the hot path.
BACKLOG_STRIDE = 16


@dataclass
class WindowResult:
    """Picklable observables of one window's run."""

    window: int
    bits: int
    bus: str
    #: node name -> ((origin, seq, local_time), ...) in delivery order.
    deliveries: Dict[str, Tuple[Tuple[str, int, int], ...]]
    #: Event-kind -> count over the whole window (always present).
    event_counts: Dict[str, int]
    #: Serialized event records (local times); None when events are off.
    events: Optional[Tuple[dict, ...]]
    #: Nodes that were offline at any point (bus-off/crash/disconnect).
    ever_offline: Tuple[str, ...]
    offline_at_end: Tuple[str, ...]
    max_backlog: int
    busy_bits: int
    errors_injected: int
    #: Which parts evaluated this window: ``"engine"`` (engine suffix
    #: only), ``"batch"`` (rendered clean prefix only, incl. zero-flip
    #: noisy windows) or ``"resume"`` (prefix + engine from the cut).
    #: Aggregated into :attr:`TrafficOutcome.backend_stats`.
    backend: str = "engine"


@dataclass
class WindowPart:
    """One evaluated stretch of a window, in part-local bit times.

    Either the clean prefix rendered by :mod:`repro.traffic.batch` or
    the engine suffix of :func:`_run_engine`; :func:`_assemble` joins
    them into a :class:`WindowResult`.
    """

    bits: int
    bus: str
    #: Time-ordered :class:`repro.can.events.Event` objects.
    events: list
    #: Per node index: [(origin, seq, time), ...] in delivery order.
    deliveries: List[List[Tuple[str, int, int]]]
    max_backlog: int
    ever_offline: Tuple[str, ...] = ()
    offline_at_end: Tuple[str, ...] = ()
    errors_injected: int = 0


@dataclass(frozen=True)
class MessageVerdict:
    """Per-message delivery verdict over the correct nodes.

    ``status`` is one of ``delivered`` (every correct node exactly
    once), ``duplicated`` (some correct node more than once),
    ``omitted`` (delivered somewhere but missing at a correct node) or
    ``lost`` (no correct node delivered it) — checked in that
    precedence order, duplication first.
    """

    origin: str
    seq: int
    window: int
    submitted_at: int
    status: str
    counts: Dict[str, int]
    first_delivered: Optional[int]


@dataclass(frozen=True)
class TrafficStats:
    """Aggregate run statistics."""

    frames_submitted: int
    delivered: int
    duplicated: int
    omitted: int
    lost: int
    total_bits: int
    busy_bits: int
    bus_load: float
    max_backlog: int
    arbitration_lost: int
    errors_detected: int
    errors_injected: int
    bus_off: int
    bus_off_recovered: int
    window_bits: Tuple[int, ...]


@dataclass
class TrafficOutcome:
    """Everything a traffic run produced."""

    spec: TrafficSpec
    schedule: Tuple[Submission, ...]
    verdicts: Tuple[MessageVerdict, ...]
    ledger: object
    properties: Dict[str, object]
    stats: TrafficStats
    bus: str
    events: Optional[List[dict]]
    #: Windows per evaluation backend (``{"batch": ..., "resume": ...,
    #: "engine": ...}``) when the run was asked for the batch backend;
    #: None on the engine backend.  Same counter shape as the analytic
    #: workloads' ``repro.analysis.batchreplay`` stats.
    backend_stats: Optional[Dict[str, int]] = None

    @property
    def atomic(self) -> bool:
        """Whether every AB1–AB5 property held over the whole stream."""
        return all(bool(result) for result in self.properties.values())

    def summary(self) -> str:
        stats = self.stats
        lines = [
            "traffic %r: %s%s, %d nodes, %d window(s) x %d bits (+drain)"
            % (
                self.spec.name,
                self.spec.protocol,
                "+%s" % self.spec.hlp if self.spec.hlp else "",
                self.spec.n_nodes,
                self.spec.windows,
                self.spec.window_bits,
            ),
            "frames: %d submitted - %d delivered, %d omitted, %d duplicated, %d lost"
            % (
                stats.frames_submitted,
                stats.delivered,
                stats.omitted,
                stats.duplicated,
                stats.lost,
            ),
            "bus: %d bits, measured load %.3f, max backlog %d, arbitration lost %d"
            % (stats.total_bits, stats.bus_load, stats.max_backlog,
               stats.arbitration_lost),
            "faults: %d injected, %d errors detected, bus-off %d (recovered %d)"
            % (stats.errors_injected, stats.errors_detected, stats.bus_off,
               stats.bus_off_recovered),
        ]
        for name in sorted(self.properties):
            lines.append(str(self.properties[name]))
        return "\n".join(lines)


def controller_config(spec: TrafficSpec):
    """Controller config honouring the spec's fault-confinement knobs."""
    if spec.protocol == "majorcan":
        from repro.core.majorcan import majorcan_config

        return majorcan_config(
            spec.m,
            bus_off_recovery=spec.bus_off_recovery,
            fast_path=spec.fast_path,
        )
    from repro.can.controller_config import ControllerConfig

    return ControllerConfig(
        bus_off_recovery=spec.bus_off_recovery, fast_path=spec.fast_path
    )


def noise_draw_width(spec: TrafficSpec) -> int:
    """Uniform draws the noise injector consumes per engine tick.

    ``RandomViewErrorInjector`` draws once per ``perturb_view`` call —
    one per node per tick in engine node order — except that nodes
    outside ``only_nodes`` return early *before* the draw.
    """
    if spec.noise_ber <= 0.0:
        return 0
    if spec.noise_nodes is None:
        return spec.n_nodes
    allowed = set(spec.noise_nodes)
    return sum(1 for name in spec.node_names if name in allowed)


def busy_bits(bus: str) -> int:
    """Busy bits of a ``d``/``r`` bus string: every dominant bit plus
    the first :data:`SETTLE_BITS` bits of every recessive run."""
    return len(bus) - sum(max(0, len(run) - SETTLE_BITS) for run in bus.split("d"))


def _decode_wire_key(frame, n_nodes: int) -> Optional[Tuple[str, int]]:
    """(origin, seq) of a traffic data frame; None for foreign frames."""
    index = frame.can_id.value - ID_BASE
    data = frame.data
    if frame.remote or not 0 <= index < n_nodes or len(data) < 2:
        return None
    return ("n%d" % index, data[0] | (data[1] << 8))


def run_window(
    spec: TrafficSpec,
    window: int,
    submissions: Tuple[Submission, ...],
    noise_seed=None,
    backend: str = "engine",
) -> WindowResult:
    """Run one window of ``spec`` from idle and summarise it.

    ``submissions`` is the window's slice of the global schedule (still
    carrying global nominal times); ``noise_seed`` the spawned child
    seed for this window's noise injector (None when noise is off).
    ``backend="engine"`` runs the whole window on the per-bit engine
    and plans nothing.  ``backend="batch"`` renders the clean prefix
    (:func:`repro.traffic.batch.render_prefix`) and resumes the engine
    only from the first fault on it; windows with neither noise nor a
    burst are memoised.  HLP windows always run on the engine: their
    timers submit frames mid-run, so there is no clean timeline to
    render.
    """
    from repro.traffic.batch import (
        cached_window,
        render_prefix,
        store_window,
        window_backend,
        window_cache_key,
    )

    route = window_backend(spec, window) if backend == "batch" else "engine"
    if route == "batch":
        key = window_cache_key(spec, window, submissions)
        cached = cached_window(key, window)
        if cached is not None:
            return cached
    prefix = handoff = None
    if route != "engine":
        prefix, handoff = render_prefix(spec, window, submissions, noise_seed)
    if prefix is None:
        offset = window * spec.window_bits
        handoff = ([(sub.time - offset, sub) for sub in submissions], 0, ())
    suffix = None
    if handoff is not None:
        suffix = _run_engine(spec, window, noise_seed, *handoff)
    result = _assemble(spec, window, prefix, suffix)
    if route == "batch" and suffix is None:
        store_window(key, result)
    return result


def _run_engine(
    spec: TrafficSpec,
    window: int,
    noise_seed,
    carried: List[Tuple[int, Submission]],
    cut: int = 0,
    attempts: Tuple[int, ...] = (),
) -> WindowPart:
    """The per-bit engine from window tick ``cut`` to the drained end.

    ``carried`` holds the submissions still to make, as (tick relative
    to the cut, submission) in (tick, node) order.  The engine replays
    window ticks ``cut..`` at local ``0..``: the noise generator skips
    the ``cut`` ticks' draws, bursts shift by ``cut``, backlog samples
    keep the window's stride phase, and ``attempts`` restores the retry
    counters of nodes that lost a committed arbitration round, so their
    next TX_START numbers exactly like an uninterrupted run.  At
    ``cut=0`` every one of these is the identity.
    """
    from repro.faults.scenarios import make_controller
    from repro.simulation.engine import SimulationEngine

    config = controller_config(spec)
    injectors: List[object] = []
    if spec.noise_ber > 0.0:
        from repro.faults.bit_errors import RandomViewErrorInjector
        from repro.parallel.seeds import rng_from

        rng = rng_from(noise_seed)
        if cut:
            from repro.analysis.noisebatch import advance

            advance(rng, cut * noise_draw_width(spec))
        injectors.append(
            RandomViewErrorInjector(
                spec.noise_ber, seed=rng, only_nodes=spec.noise_nodes
            )
        )
    for burst in spec.bursts_for_window(window):
        from repro.faults.bit_errors import BurstViewErrorInjector

        injectors.append(
            BurstViewErrorInjector(burst.node, burst.start - cut, burst.length)
        )
    if len(injectors) > 1:
        from repro.faults.injector import CompositeInjector

        injector = CompositeInjector(injectors)
    else:
        injector = injectors[0] if injectors else None

    app_nodes = None
    if spec.hlp is None:
        controllers = [
            make_controller(spec.protocol, name, m=spec.m, config=config)
            for name in spec.node_names
        ]
        engine = SimulationEngine(
            controllers, injector=injector, record_bits=False
        )
    else:
        from repro.protocols import PROTOCOL_FACTORIES, build_protocol_network

        engine, app_nodes = build_protocol_network(
            PROTOCOL_FACTORIES[spec.hlp],
            spec.n_nodes,
            controller_factory=lambda name: make_controller(
                spec.protocol, name, m=spec.m, config=config
            ),
            engine_kwargs={"injector": injector, "record_bits": False},
        )
        controllers = [node.controller for node in app_nodes]
        first_seq: Dict[int, int] = {}
        for _, sub in carried:
            first_seq.setdefault(sub.node_index, sub.seq)
        for node_index, seq in first_seq.items():
            app_nodes[node_index].advance_sequence_to(seq)

    cursor = [0]

    def _submit(now: int) -> None:
        index = cursor[0]
        while index < len(carried) and carried[index][0] == now:
            sub = carried[index][1]
            if app_nodes is None:
                controllers[sub.node_index].submit(sub.frame())
            else:
                message = app_nodes[sub.node_index].broadcast(sub.payload)
                if message.seq != sub.seq:
                    raise SimulationError(
                        "window %d: node n%d minted seq %d for scheduled seq %d"
                        % (window, sub.node_index, message.seq, sub.seq)
                    )
            index += 1
        cursor[0] = index
        if now == 0:
            for node_index, carry in enumerate(attempts):
                if carry and controllers[node_index].tx_queue:
                    controllers[node_index].tx_queue[0].attempts = carry

    backlog = [0]

    def _sample_backlog(now: int) -> None:
        if (now + cut) & (BACKLOG_STRIDE - 1) == 0:
            depth = max(c.pending_transmissions for c in controllers)
            if depth > backlog[0]:
                backlog[0] = depth

    engine.add_tick_hook(_submit)
    engine.add_tick_hook(_sample_backlog)

    try:
        if cut < spec.window_bits:
            engine.run(spec.window_bits - cut)
            drain_budget = spec.max_window_bits
        else:
            # A committed prefix already spent part of the drain budget;
            # the resumed engine gets exactly the remainder.
            drain_budget = spec.max_window_bits - (cut - spec.window_bits)
        engine.run_until_idle(
            max_bits=drain_budget,
            settle_bits=_SETTLE_BITS_HLP if spec.hlp else SETTLE_BITS,
        )
    except SimulationError as exc:
        if str(exc).startswith("bus did not become idle"):
            raise SimulationError(
                "bus did not become idle within %d bits" % spec.max_window_bits
            )
        raise

    if app_nodes is None:
        deliveries = []
        for controller in controllers:
            rows = []
            for delivery in controller.deliveries:
                key = _decode_wire_key(delivery.frame, spec.n_nodes)
                if key is not None:
                    rows.append((key[0], key[1], delivery.time))
            deliveries.append(rows)
    else:
        deliveries = [
            [
                ("n%d" % origin_id, seq, delivery.time)
                for (origin_id, seq), delivery in zip(
                    node.delivered_keys, node.app_deliveries
                )
            ]
            for node in app_nodes
        ]

    from repro.can.events import EventKind

    events = engine.collect_events().events
    offline = (EventKind.BUS_OFF, EventKind.CRASHED, EventKind.DISCONNECTED)
    ever_offline = {event.node for event in events if event.kind in offline}
    ever_offline.update(c.name for c in controllers if c.offline)
    return WindowPart(
        bits=engine.time,
        bus="".join(level.symbol for level in engine.bus.history),
        events=events,
        deliveries=deliveries,
        max_backlog=backlog[0],
        ever_offline=tuple(sorted(ever_offline)),
        offline_at_end=tuple(c.name for c in controllers if c.offline),
        errors_injected=sum(getattr(part, "injected", 0) for part in injectors),
    )


def _assemble(
    spec: TrafficSpec,
    window: int,
    prefix: Optional[WindowPart],
    suffix: Optional[WindowPart],
) -> WindowResult:
    """Join the rendered prefix and the engine suffix into one result.

    Suffix times are local to the cut, so they shift by the prefix's
    length; every prefix event precedes the cut, so concatenation is
    the engine's time-ordered merge.
    """
    from repro.tracestore.recorder import event_record

    parts = [part for part in (prefix, suffix) if part is not None]
    event_counts: Dict[str, int] = {}
    records: Optional[List[dict]] = [] if spec.record_events else None
    rows: List[List[Tuple[str, int, int]]] = [[] for _ in range(spec.n_nodes)]
    offset = 0
    for part in parts:
        # The first part keeps its rows and times as they are, so a
        # clean window shares them instead of holding shifted copies.
        for event in part.events:
            event_counts[event.kind] = event_counts.get(event.kind, 0) + 1
            if records is not None:
                record = event_record(event)
                if offset:
                    record["t"] += offset
                records.append(record)
        for node_rows, part_rows in zip(rows, part.deliveries):
            if offset:
                part_rows = [(origin, seq, time + offset) for origin, seq, time in part_rows]
            node_rows.extend(part_rows)
        offset += part.bits
    bus = "".join(part.bus for part in parts)
    if prefix is None:
        backend = "engine"
    else:
        backend = "batch" if suffix is None else "resume"
    return WindowResult(
        window=window,
        bits=offset,
        bus=bus,
        deliveries=dict(zip(spec.node_names, map(tuple, rows))),
        event_counts=event_counts,
        events=tuple(records) if records is not None else None,
        ever_offline=tuple(
            sorted(set().union(*(part.ever_offline for part in parts)))
        ),
        offline_at_end=parts[-1].offline_at_end,
        max_backlog=max(part.max_backlog for part in parts),
        busy_bits=busy_bits(bus),
        errors_injected=sum(part.errors_injected for part in parts),
        backend=backend,
    )


def splice_windows(
    spec: TrafficSpec,
    schedule: Tuple[Submission, ...],
    results: List[WindowResult],
    backend_stats: Optional[Dict[str, int]] = None,
) -> TrafficOutcome:
    """Concatenate the window results into one global outcome."""
    from repro.can.events import EventKind
    from repro.properties.broadcast import check_atomic_broadcast
    from repro.properties.ledger import NodeLedger, SystemLedger

    offsets: List[int] = []
    total_bits = 0
    for result in results:
        offsets.append(total_bits)
        total_bits += result.bits

    bus = "".join(result.bus for result in results)
    events: Optional[List[dict]] = None
    if spec.record_events:
        events = []
        for result, offset in zip(results, offsets):
            for record in result.events or ():
                shifted = dict(record)
                shifted["t"] += offset
                events.append(shifted)

    ever_offline = set()
    for result in results:
        ever_offline.update(result.ever_offline)

    # Global per-node delivery streams (times offset into spliced time).
    delivered: Dict[str, List[Tuple[str, int]]] = {
        name: [] for name in spec.node_names
    }
    delivery_times: Dict[str, List[int]] = {name: [] for name in spec.node_names}
    counts: Dict[str, Dict[Tuple[str, int], int]] = {
        name: {} for name in spec.node_names
    }
    first_time: Dict[Tuple[str, int], int] = {}
    for result, offset in zip(results, offsets):
        for name, rows in result.deliveries.items():
            for origin, seq, local_time in rows:
                key = (origin, seq)
                time = local_time + offset
                delivered[name].append(key)
                delivery_times[name].append(time)
                counts[name][key] = counts[name].get(key, 0) + 1
                if key not in first_time or time < first_time[key]:
                    first_time[key] = time

    broadcasts: Dict[str, List[Tuple[str, int]]] = {
        name: [] for name in spec.node_names
    }
    for sub in schedule:
        broadcasts[sub.node].append(sub.key)

    ledger = SystemLedger()
    for name in spec.node_names:
        node = NodeLedger(name=name, correct=name not in ever_offline)
        node.broadcasts = broadcasts[name]
        node.deliveries = delivered[name]
        node.delivery_times = delivery_times[name]
        ledger.nodes[name] = node

    correct_names = [
        name for name in spec.node_names if name not in ever_offline
    ]
    verdicts: List[MessageVerdict] = []
    tally = {"delivered": 0, "duplicated": 0, "omitted": 0, "lost": 0}
    for sub in schedule:
        key = sub.key
        per_node = {
            name: counts[name].get(key, 0) for name in spec.node_names
        }
        correct_counts = [per_node[name] for name in correct_names]
        if any(count > 1 for count in correct_counts):
            status = "duplicated"
        elif correct_counts and all(count == 1 for count in correct_counts):
            status = "delivered"
        elif any(count > 0 for count in correct_counts):
            status = "omitted"
        else:
            status = "lost"
        tally[status] += 1
        verdicts.append(
            MessageVerdict(
                origin=sub.node,
                seq=sub.seq,
                window=sub.window,
                submitted_at=sub.time,
                status=status,
                counts=per_node,
                first_delivered=first_time.get(key),
            )
        )

    event_totals: Dict[str, int] = {}
    for result in results:
        for kind, count in result.event_counts.items():
            event_totals[kind] = event_totals.get(kind, 0) + count

    busy = sum(result.busy_bits for result in results)
    stats = TrafficStats(
        frames_submitted=len(schedule),
        delivered=tally["delivered"],
        duplicated=tally["duplicated"],
        omitted=tally["omitted"],
        lost=tally["lost"],
        total_bits=total_bits,
        busy_bits=busy,
        bus_load=busy / total_bits if total_bits else 0.0,
        max_backlog=max((result.max_backlog for result in results), default=0),
        arbitration_lost=event_totals.get(EventKind.ARBITRATION_LOST, 0),
        errors_detected=event_totals.get(EventKind.ERROR_DETECTED, 0),
        errors_injected=sum(result.errors_injected for result in results),
        bus_off=event_totals.get(EventKind.BUS_OFF, 0),
        bus_off_recovered=event_totals.get(EventKind.BUS_OFF_RECOVERED, 0),
        window_bits=tuple(result.bits for result in results),
    )

    return TrafficOutcome(
        spec=spec,
        schedule=schedule,
        verdicts=tuple(verdicts),
        ledger=ledger,
        properties=check_atomic_broadcast(ledger),
        stats=stats,
        bus=bus,
        events=events,
        backend_stats=backend_stats,
    )


def run_traffic(
    spec: TrafficSpec,
    jobs: Optional[int] = None,
    backend: str = "engine",
) -> TrafficOutcome:
    """Run ``spec``, sharding its windows over ``jobs`` workers.

    The ledger, verdicts and property results are bit-identical for
    any ``jobs`` at the same spec: the schedule is precomputed
    serially, the per-window noise seeds are spawned from the root
    seed, and ``run_tasks`` preserves submission order.

    ``backend="batch"`` renders each window's clean prefix frame by
    frame (:mod:`repro.traffic.batch`) and runs the engine only from
    the first noise flip or burst on it — same ledger, stats and
    events; HLP windows run on the engine outright.  The per-window
    provenance is reported in :attr:`TrafficOutcome.backend_stats`.
    """
    from repro.parallel.pool import run_tasks

    check_backend(backend)
    schedule = build_schedule(spec)
    per_window: List[List[Submission]] = [[] for _ in range(spec.windows)]
    for sub in schedule:
        per_window[sub.window].append(sub)
    if spec.noise_ber > 0.0:
        _, noise_children = traffic_seed_tree(spec)
    else:
        noise_children = [None] * spec.windows
    tasks = [
        partial(
            run_window,
            spec,
            window,
            tuple(per_window[window]),
            noise_children[window],
            backend=backend,
        )
        for window in range(spec.windows)
    ]
    results = run_tasks(tasks, jobs=jobs)
    backend_stats: Optional[Dict[str, int]] = None
    if backend == "batch":
        # Measured provenance, not a prediction: noisy windows resolve
        # to "batch" (zero-flip), "resume" (fault-point re-entry) or
        # "engine" (nothing committable) only once their masks are
        # drawn.
        backend_stats = {}
        for result in results:
            backend_stats[result.backend] = backend_stats.get(result.backend, 0) + 1
    return splice_windows(spec, schedule, results, backend_stats=backend_stats)
