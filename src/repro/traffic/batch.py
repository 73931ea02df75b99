"""The clean prefix of a traffic window, planned and rendered per frame.

A window free of noise, bursts and higher-level protocols is fully
determined by its submission schedule: identifiers are fixed per node,
so arbitration under contention resolves deterministically (lowest
identifier = lowest node index wins), every frame is acknowledged, no
error flag ever fires, and the bus trace is the concatenation of the
winners' cached :class:`repro.can.encoding.BusImage` wire images with
recessive gaps in between.  :func:`_plan_frames` lays the frames on
that clean timeline by scanning the per-node queue heads at each
bus-idle instant, and :func:`_render_frames` turns any planned prefix
into the engine's observable surface *exactly* — bus string, per-node
deliveries, event stream (times, payloads and merge order) and backlog
samples — without stepping
:class:`repro.simulation.engine.SimulationEngine` bit by bit.

:func:`render_prefix` is the batch half of
:func:`repro.traffic.run.run_window`.  It plans a window once.  When
no noise flip or burst lands on the clean timeline, the rendered
timeline is the whole window.  Otherwise it renders only the frames
that provably finish before the first fault and hands the rest to the
engine, which resumes from the cut.

Timing model (verified against the engine's step order — drive, bus
resolve, ``on_bit``, tick hooks, ``time += 1``):

- a submission at tick ``a`` enters the node's queue after ``on_bit``
  of that tick, so the earliest SOF it can drive is ``a + 1``;
- a frame's SOF lands at ``t0 = max(idle_from, a_min + 1)`` where
  ``idle_from`` is the first drive instant after the previous frame's
  intermission (``t_end + 4``; ``0`` at the window start) and
  ``a_min`` the earliest queued arrival;
- the contenders are the nodes whose head-of-queue arrival is
  ``<= t0 - 1``; the winner is the lowest node index; each loser
  withdraws at its first wire-level divergence from the winner (an
  arbitration position by construction) and turns receiver;
- receivers deliver at the protocol's EOF rule — standard CAN at the
  last-but-one EOF bit, MinorCAN and MajorCAN at the last — and the
  winner self-delivers at ``t_end``;
- the drained window ends after twelve quiet bits:
  ``total = max(window_bits, t_last_end + 3) + 12``.

Clean window outcomes are memoised in a process-wide content-addressed
cache keyed like :func:`repro.sweep.cell.cell_key` — protocol, ``m``,
the config knobs and the exact window-local schedule — so identical
window shapes (empty windows, warm re-runs, sweep re-evaluations)
collapse to cache hits.  Note the honest limit: periodic workloads
advance their sequence numbers every window, so distinct windows of one
run rarely collide; the speedup comes from eliminating the engine, the
cache from eliminating *repeated* evaluation.
"""

from __future__ import annotations

import hashlib
import heapq
from dataclasses import replace
from typing import Dict, List, Optional, Tuple

from repro.can.events import Event, EventKind
from repro.errors import SimulationError
from repro.traffic.run import (
    BACKLOG_STRIDE,
    SETTLE_BITS,
    WindowPart,
    controller_config,
    noise_draw_width,
)
from repro.traffic.spec import Submission, TrafficSpec

#: Version of the window-cache key schema.  Bump whenever the batch
#: evaluator's semantics change in a way that invalidates cached
#: window results.
WINDOW_KEY_VERSION = 1

#: Bit times between a frame's last EOF bit and the next possible SOF:
#: three intermission bits consumed, then the first idle drive instant.
_TURNAROUND = 4

#: Process-wide memo of evaluated windows, insertion-ordered for FIFO
#: eviction.  Values are canonical :class:`WindowResult` objects; hits
#: return copies re-stamped with the caller's window index.
_WINDOW_CACHE: Dict[str, object] = {}
_WINDOW_CACHE_MAX = 1024
_CACHE_STATS = {"hits": 0, "misses": 0}

#: Engine hand-off of a faulted window: (carried submissions as (tick
#: relative to the cut, submission) in (tick, node) order, the cut
#: tick, per-node carried arbitration attempt counters).
Handoff = Tuple[List[Tuple[int, Submission]], int, Tuple[int, ...]]


def window_backend(spec: TrafficSpec, window: int) -> str:
    """How ``window`` of ``spec`` evaluates under ``backend="batch"``.

    ``"batch"``: nothing can perturb the deterministic arbitration
    timeline, so the rendered prefix is the whole window (memoised).
    ``"noise"``: random view noise or a scheduled burst may land on the
    clean timeline; the window is scanned for its first fault and only
    a faulted window resumes the engine from the cut.  ``"engine"``:
    higher-level protocols run on the engine outright — HLP timers
    submit frames mid-run, so the clean timeline is not known in
    advance.
    """
    if spec.hlp is not None:
        return "engine"
    if spec.noise_ber > 0.0 or spec.bursts_for_window(window):
        return "noise"
    return "batch"


def window_cache_key(
    spec: TrafficSpec, window: int, submissions: Tuple[Submission, ...]
) -> str:
    """Content-addressed key of one window evaluation.

    Keyed like :func:`repro.sweep.cell.cell_key`: SHA-256 over the
    canonical JSON of everything the result depends on — protocol,
    ``m``, node count, the window/drain geometry, the config knobs and
    the *window-local* schedule (times relative to the window start, so
    two windows with the same shape share a key regardless of their
    position in the run).
    """
    from repro.metrics.export import json_line

    offset = window * spec.window_bits
    payload = {
        "key_version": WINDOW_KEY_VERSION,
        "protocol": spec.protocol,
        "m": spec.m,
        "n_nodes": spec.n_nodes,
        "window_bits": spec.window_bits,
        "max_window_bits": spec.max_window_bits,
        "bus_off_recovery": spec.bus_off_recovery,
        "fast_path": spec.fast_path,
        "record_events": spec.record_events,
        "schedule": [
            [
                sub.time - offset,
                sub.node_index,
                sub.seq,
                sub.identifier,
                sub.payload.hex(),
                sub.message_id,
            ]
            for sub in submissions
        ],
    }
    return hashlib.sha256(json_line(payload).encode("utf-8")).hexdigest()


def cached_window(key: str, window: int):
    """The memoised result under ``key`` re-stamped as ``window``; None on a miss."""
    cached = _WINDOW_CACHE.get(key)
    if cached is None:
        _CACHE_STATS["misses"] += 1
        return None
    _CACHE_STATS["hits"] += 1
    return replace(
        cached,
        window=window,
        deliveries=dict(cached.deliveries),
        event_counts=dict(cached.event_counts),
    )


def store_window(key: str, result) -> None:
    """Memoise a clean window's result, evicting the oldest when full."""
    if len(_WINDOW_CACHE) >= _WINDOW_CACHE_MAX:
        _WINDOW_CACHE.pop(next(iter(_WINDOW_CACHE)))
    _WINDOW_CACHE[key] = result


def window_cache_stats() -> Dict[str, int]:
    """Hit/miss/size counters of the process-wide window cache."""
    return {
        "entries": len(_WINDOW_CACHE),
        "hits": _CACHE_STATS["hits"],
        "misses": _CACHE_STATS["misses"],
    }


def clear_window_cache() -> None:
    """Empty the window cache and reset its counters (tests, benches)."""
    _WINDOW_CACHE.clear()
    _CACHE_STATS["hits"] = 0
    _CACHE_STATS["misses"] = 0


def _arbitration_divergence(loser_values, winner_values) -> int:
    """First wire position where the loser's program leaves the bus.

    Both programs share SOF and every stuffed prefix bit up to the
    first identifier bit where the winner drives dominant and the loser
    recessive (stuff decisions depend only on the identical prefix), so
    the first level difference is the loser's arbitration-loss
    position.
    """
    for position, (loser, winner) in enumerate(zip(loser_values, winner_values)):
        if loser != winner:
            return position
    raise SimulationError("contending frames share an identifier")


def _max_sampled_backlog(
    arrivals: List[List[int]], completions: List[List[int]], total_bits: int
) -> int:
    """The engine's stride-sampled queue-depth maximum, in closed form.

    The engine samples ``max(pending_transmissions)`` at every tick
    divisible by the stride, *after* the submission hook at the same
    tick and after any ``on_bit`` queue pop — so a submission at tick
    ``t`` and a completion at tick ``t`` are both visible at sample
    ``t``.  Walking each node's piecewise-constant depth segments and
    testing whether a sample tick lands inside reproduces the maximum
    without materialising the samples.
    """
    deepest = 0
    for node_arrivals, node_completions in zip(arrivals, completions):
        depth = 0
        arrival_index = completion_index = 0
        n_arrivals = len(node_arrivals)
        n_completions = len(node_completions)
        while arrival_index < n_arrivals or completion_index < n_completions:
            next_arrival = (
                node_arrivals[arrival_index]
                if arrival_index < n_arrivals
                else total_bits
            )
            next_completion = (
                node_completions[completion_index]
                if completion_index < n_completions
                else total_bits
            )
            start = min(next_arrival, next_completion)
            while arrival_index < n_arrivals and node_arrivals[arrival_index] == start:
                depth += 1
                arrival_index += 1
            while (
                completion_index < n_completions
                and node_completions[completion_index] == start
            ):
                depth -= 1
                completion_index += 1
            end = min(
                node_arrivals[arrival_index]
                if arrival_index < n_arrivals
                else total_bits,
                node_completions[completion_index]
                if completion_index < n_completions
                else total_bits,
                total_bits,
            )
            if depth > deepest:
                first_sample = -(-start // BACKLOG_STRIDE) * BACKLOG_STRIDE
                if first_sample < end:
                    deepest = depth
    return deepest


class _FramePlan:
    """One planned frame on the clean timeline (plan/render split)."""

    __slots__ = ("t0", "t_end", "winner", "contenders")

    def __init__(self, t0: int, t_end: int, winner: int, contenders: Tuple[int, ...]):
        self.t0 = t0
        self.t_end = t_end
        self.winner = winner
        self.contenders = contenders


def _local_queues(
    spec: TrafficSpec, window: int, submissions: Tuple[Submission, ...]
) -> List[List[Tuple[int, object, Submission]]]:
    """Per-node (window-local arrival, frame, submission) queues."""
    offset = window * spec.window_bits
    queues: List[List[Tuple[int, object, Submission]]] = [
        [] for _ in range(spec.n_nodes)
    ]
    for sub in submissions:
        queues[sub.node_index].append((sub.time - offset, sub.frame(), sub))
    return queues


def _plan_frames(
    spec: TrafficSpec, queues: List[List[Tuple[int, object, Submission]]]
) -> Tuple[List[_FramePlan], int]:
    """Lay the window's frames on the clean timeline; no rendering.

    Returns the time-ordered frame plans and the window's total bit
    length (active + drain), raising the engine's drain-parity
    ``SimulationError`` when the clean timeline alone would overflow
    the window's drain budget.
    """
    from repro.can.encoding import bus_image

    eof_length = controller_config(spec).eof_length
    n_nodes = spec.n_nodes
    heads = [0] * n_nodes
    plans: List[_FramePlan] = []
    idle_from = 0
    remaining = sum(len(queue) for queue in queues)
    while remaining:
        a_min = min(
            queues[index][heads[index]][0]
            for index in range(n_nodes)
            if heads[index] < len(queues[index])
        )
        t0 = max(idle_from, a_min + 1)
        contenders = tuple(
            index
            for index in range(n_nodes)
            if heads[index] < len(queues[index])
            and queues[index][heads[index]][0] < t0
        )
        winner = contenders[0]
        image = bus_image(queues[winner][heads[winner]][1], eof_length)
        t_end = t0 + image.length - 1
        plans.append(_FramePlan(t0, t_end, winner, contenders))
        heads[winner] += 1
        remaining -= 1
        idle_from = t_end + _TURNAROUND
    if not plans:
        total_bits = spec.window_bits + SETTLE_BITS
    else:
        total_bits = (
            max(spec.window_bits, plans[-1].t_end + _TURNAROUND - 1) + SETTLE_BITS
        )
    if total_bits - spec.window_bits > spec.max_window_bits:
        raise SimulationError(
            "bus did not become idle within %d bits" % spec.max_window_bits
        )
    return plans, total_bits


def _render_frames(
    spec: TrafficSpec,
    queues: List[List[Tuple[int, object, Submission]]],
    plans: List[_FramePlan],
    bits: int,
) -> Tuple[WindowPart, Handoff]:
    """Engine-exact surface of the planned frames over ticks ``0..bits-1``.

    ``plans`` is the whole window on a fault-free timeline (``bits`` its
    drained length) or the committed frames of a faulted one (``bits``
    the cut).  Returns the rendered :class:`WindowPart` and the engine
    hand-off at tick ``bits``: the unplanned submissions re-queued at
    ``max(0, arrival - bits)`` in a stable (tick, node) order — which
    preserves each node's queue order, all the per-node controllers can
    observe — and the retry counters left standing, so losers of
    committed arbitration rounds number their next TX_START exactly like
    the engine.
    """
    from repro.can.frame import Frame
    from repro.can.encoding import bus_image
    from repro.can.identifiers import CanId

    config = controller_config(spec)
    eof_length = config.eof_length
    names = spec.node_names
    n_nodes = spec.n_nodes
    # Receivers of a standard CAN frame deliver at the last-but-one EOF
    # bit; MinorCAN and MajorCAN postpone delivery to the last.
    rx_lag = 1 if spec.protocol == "can" else 0

    heads = [0] * n_nodes
    attempts = [0] * n_nodes
    node_events: List[List[Event]] = [[] for _ in range(n_nodes)]
    deliveries: List[List[Tuple[str, int, int]]] = [[] for _ in range(n_nodes)]
    completions: List[List[int]] = [[] for _ in range(n_nodes)]
    symbols = ["r"] * bits

    for plan in plans:
        t0 = plan.t0
        t_end = plan.t_end
        winner = plan.winner
        contenders = plan.contenders
        _, winner_frame, winner_sub = queues[winner][heads[winner]]
        image = bus_image(winner_frame, eof_length)

        contending = set(contenders)
        for index in range(n_nodes):
            if index in contending:
                attempts[index] += 1
                frame = queues[index][heads[index]][1]
                node_events[index].append(
                    Event(
                        time=t0,
                        node=names[index],
                        kind=EventKind.TX_START,
                        data={
                            "frame": str(frame),
                            "attempt": attempts[index],
                            "message_id": frame.message_id,
                        },
                    )
                )
            else:
                node_events[index].append(
                    Event(time=t0, node=names[index], kind=EventKind.RX_START, data={})
                )
        for index in contenders[1:]:
            loser_program = bus_image(queues[index][heads[index]][1], eof_length).program
            position = _arbitration_divergence(
                loser_program.bit_values, image.program.bit_values
            )
            field, field_index = loser_program.positions[position]
            node_events[index].append(
                Event(
                    time=t0 + position,
                    node=names[index],
                    kind=EventKind.ARBITRATION_LOST,
                    data={"field": field, "index": field_index},
                )
            )

        origin = names[winner]
        seq = winner_sub.payload[0] | (winner_sub.payload[1] << 8)
        received = Frame(
            can_id=CanId(winner_sub.identifier), data=winner_sub.payload
        )
        received_str = str(received)
        rx_time = t_end - rx_lag
        for index in range(n_nodes):
            if index == winner:
                continue
            node_events[index].append(
                Event(
                    time=rx_time,
                    node=names[index],
                    kind=EventKind.FRAME_DELIVERED,
                    data={"frame": received_str, "message_id": None, "attempt": None},
                )
            )
            deliveries[index].append((origin, seq, rx_time))
        node_events[winner].append(
            Event(
                time=t_end,
                node=names[winner],
                kind=EventKind.TX_SUCCESS,
                data={
                    "frame": str(winner_frame),
                    "attempt": attempts[winner],
                    "message_id": winner_frame.message_id,
                },
            )
        )
        if config.self_delivery:
            node_events[winner].append(
                Event(
                    time=t_end,
                    node=names[winner],
                    kind=EventKind.FRAME_DELIVERED,
                    data={
                        "frame": str(winner_frame),
                        "message_id": winner_frame.message_id,
                        "attempt": attempts[winner],
                    },
                )
            )
            deliveries[winner].append((origin, seq, t_end))
        completions[winner].append(t_end)
        heads[winner] += 1
        attempts[winner] = 0
        symbols[t0 : t0 + len(image.symbols)] = image.symbols

    # Arrivals at or after ``bits`` belong to the engine's own sampler
    # (re-submitted at ``max(0, arrival - bits)``); the closed-form walk
    # must never see ticks beyond its horizon.
    arrivals = [[entry[0] for entry in queue if entry[0] < bits] for queue in queues]
    carried = [
        (max(0, arrival - bits), sub)
        for index in range(n_nodes)
        for arrival, _, sub in queues[index][heads[index]:]
    ]
    carried.sort(key=lambda item: (item[0], item[1].node_index))
    part = WindowPart(
        bits=bits,
        bus="".join(symbols),
        events=list(heapq.merge(*node_events, key=lambda event: event.time)),
        deliveries=deliveries,
        max_backlog=_max_sampled_backlog(arrivals, completions, bits),
    )
    return part, (carried, bits, tuple(attempts))


def _first_fault(
    spec: TrafficSpec, window: int, noise_seed, bits: int
) -> Optional[int]:
    """First tick of the ``bits``-long clean timeline a fault lands on.

    Draws the window's noise mask in the engine's stream order (one
    uniform per noise-eligible node per tick) and thresholds it against
    the BER, then lets any earlier scheduled burst win.  The generator
    is restored afterwards, so the resumed engine's own draws start from
    the same stream position.
    """
    fault = None
    width = noise_draw_width(spec)
    if width:
        from repro.analysis.noisebatch import first_flip, generator_state, restore_state
        from repro.parallel.seeds import rng_from

        rng = rng_from(noise_seed)
        state = generator_state(rng)
        flip = first_flip(rng, bits * width, spec.noise_ber)
        restore_state(rng, state)
        if flip is not None:
            fault = flip // width
    for burst in spec.bursts_for_window(window):
        if burst.start < bits and (fault is None or burst.start < fault):
            fault = burst.start
    return fault


def render_prefix(
    spec: TrafficSpec,
    window: int,
    submissions: Tuple[Submission, ...],
    noise_seed=None,
) -> Tuple[Optional[WindowPart], Optional[Handoff]]:
    """Plan ``window`` once and render its clean prefix.

    Returns ``(prefix, None)`` when no fault lands on the clean
    timeline — the prefix is then the whole window — and ``(prefix,
    handoff)`` when one does: the frames whose whole extent *including
    their three intermission bits* ends strictly before the first fault
    tick are committed, so the frame carrying the fault (in body or
    intermission) is never committed, no frame is mid-flight at the cut
    and every committed tick is provably fault-free.  The cut is the
    latest tick with those guarantees: the first fault tick itself,
    clamped below the next uncommitted frame's SOF.  Returns ``(None,
    None)`` when nothing commits (a cut at tick 0) or the clean timeline
    overflows the drain budget (only the engine reproduces the exact
    overflow surface): the whole window then belongs to the engine.
    """
    queues = _local_queues(spec, window, submissions)
    try:
        plans, bits = _plan_frames(spec, queues)
    except SimulationError:
        return None, None
    fault = _first_fault(spec, window, noise_seed, bits)
    if fault is None:
        return _render_frames(spec, queues, plans, bits)[0], None
    committed = 0
    while (
        committed < len(plans)
        and plans[committed].t_end + _TURNAROUND - 1 < fault
    ):
        committed += 1
    cut = fault
    if committed < len(plans):
        cut = min(fault, plans[committed].t0 - 1)
    if cut <= 0:
        return None, None
    return _render_frames(spec, queues, plans[:committed], cut)
