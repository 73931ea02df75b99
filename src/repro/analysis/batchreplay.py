"""Flip-placement classification: the engine oracle and the batch replay.

Every analysis driver (``verify_consistency``,
``enumerate_tail_patterns``, ``monte_carlo_tail``, ``ablation_row``)
classifies placements through one evaluator interface —
``evaluate(combos)``, ``counterexample(combo, outcome)`` and ``stats``
— built by :func:`placement_evaluator` for its backend.
:func:`engine_placement` is the one oracle: a full engine run of the
frame under the placement's view flips.  :class:`EngineEvaluator` runs
it per placement; :class:`BatchReplayEvaluator` runs it only for what
its models cannot represent.

One engine run per placement re-simulates the whole frame bit by bit
even though all the tail fault sites (CRC delimiter, ACK slot, ACK
delimiter, EOF, and the MajorCAN sampling window) live after an
identical, error-free pre-tail prefix.  The batch replay exploits that:
it reads the tail layout off the cached
:class:`repro.can.encoding.WireProgram`, treats the error-signalling
sequences as fixed run lengths per config (error and overload flags
are always :data:`FLAG_LENGTH` dominant bits, delimiters fixed
recessive runs — the same table treatment the transmit program already
gets), and replays each tail placement on :func:`_simulate_scalar`, a
tail-only micro-model of the controller state machine.

The micro-model is *exact by construction* on the placements it
understands, and it refuses the rest:

* every supported fault site is announced at a fixed tail time, so the
  per-placement state is a handful of small integers per node;
* any situation outside the modelled envelope — an unexpected program
  layout, a fault field neither model announces, a dominant bit
  reaching an idle node outside the orchestrated retransmission
  restart, or a step-budget overflow that a widened-budget retry does
  not absorb — *bails out* and the placement is re-classified by the
  real engine (the oracle).

Combos are reduced before anything runs: duplicate triggers on one
position cancel by parity (they all fire at the same first
announcement, and a flip of a flip is the identity), and faulted
receivers are relabelled into a canonical arrangement so one verdict
serves every placement of the same fault groups over any receivers.

Combos touching a header site (the F1 desync universe: SOF through the
CRC sequence, where a flip can add or remove a stuff condition and
shift a receiver's parse of everything downstream) classify through
cached *reduced* engine runs over transmitter + distinct fault carriers
+ one witness: all non-faulted in-sync receivers are bit-identical,
and the wired-AND bus is invariant under duplicating identical drivers.
A full header universe costs a handful of two- or three-node runs
instead of one n-node engine run per site.  The full engine remains
only for combos naming unknown nodes or fields outside every model.

The differential suite pins the micro-model and the reduced runs
against the engine over the full tail-site universe of every corpus
frame and the full header-site universe.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.can.fields import (
    ACK_DELIM,
    ACK_SLOT,
    CRC_DELIM,
    EOF,
    FLAG_LENGTH,
    INTERMISSION_LENGTH,
    SAMPLING,
)
from repro.can.frame import Frame, data_frame
from repro.can.encoding import (
    HEADER_SITE_FIELDS,
    OP_ACK,
    OP_EOF,
    OP_MATCH,
    wire_program,
)
from repro.errors import check_backend
from repro.faults.injector import ScriptedInjector, Trigger, ViewFault
from repro.faults.scenarios import make_controller, run_single_frame_scenario

logger = logging.getLogger(__name__)

#: A fault site: (node name, field label, index within the field).
Site = Tuple[str, str, int]

# Micro-model states.  PROG states follow the compiled wire program
# (which never stalls, so the program index is the shared tail clock);
# the rest mirror the controller's error/overload epilogue states.
TX_PROG = 0
RX_PROG = 1
FLAG = 2
WAIT = 3
DELIM = 4
OVL_FLAG = 5
OVL_WAIT = 6
OVL_DELIM = 7
INTER = 8
IDLE = 9
MAJ_FLAG = 10
MAJ_QUIET = 11
MAJ_EXT = 12

P_CAN = 0
P_MINOR = 1
P_MAJOR = 2

_PROTO_CODES = {"can": P_CAN, "minorcan": P_MINOR, "majorcan": P_MAJOR}

#: Site-key sentinels: inert sites can never fire (the engine never
#: announces their position either), unsupported ones force the engine.
_INERT = -1
_UNSUPPORTED = -2


@dataclass(frozen=True)
class TailShape:
    """Precompiled tail geometry for one (protocol, m, frame).

    The error-signalling lengths come from the controller's
    :meth:`signal_shape` table: flag and delimiter sequences are fixed
    shapes per config, so the micro-model treats them as run lengths
    instead of per-bit handlers — the same treatment
    :func:`repro.can.encoding.wire_program` gives the steady transmit
    path.
    """

    protocol: str
    proto: int
    m: int
    eof_length: int
    delimiter_length: int
    window_start: int
    window_end: int
    majority: int
    #: Index of ``(CRC_DELIM, 0)`` in the wire program (tail time 0).
    tail_offset: int
    #: The ``(field, index)`` positions the program announces before
    #: tail time 0: a header trigger fires only on one of these.
    announced: frozenset
    #: Generous per-attempt step bound; overflow bails to the engine.
    attempt_cap: int
    supported: bool


@lru_cache(maxsize=256)
def tail_shape(protocol: str, m: int, frame: Frame) -> TailShape:
    """Build (and cache) the tail shape for one protocol + frame."""
    proto = _PROTO_CODES.get(protocol)
    probe = make_controller(protocol, "shape-probe", m=m)
    eof_length = probe.config.eof_length
    signalling = probe.signal_shape()
    delimiter_length = signalling.delimiter
    window_start = getattr(probe, "window_start", 0) or 0
    window_end = signalling.extended_flag_end
    majority = getattr(probe, "majority", 0) or 0
    program = wire_program(frame, eof_length)
    supported = proto is not None
    tail_offset = 0
    expected_positions = [(CRC_DELIM, 0), (ACK_SLOT, 0), (ACK_DELIM, 0)]
    expected_positions += [(EOF, index) for index in range(eof_length)]
    expected_ops = [OP_MATCH, OP_ACK, OP_MATCH] + [OP_EOF] * eof_length
    try:
        tail_offset = program.positions.index((CRC_DELIM, 0))
    except ValueError:
        supported = False
    if supported:
        tail = slice(tail_offset, None)
        supported = (
            list(program.positions[tail]) == expected_positions
            and list(program.ops[tail]) == expected_ops
            and all(value == 1 for value in program.bit_values[tail])
        )
    attempt_cap = (
        (3 + eof_length)
        + (window_end + 2)
        + signalling.error_flag
        + 4 * delimiter_length
        + signalling.intermission
        + 32
    )
    return TailShape(
        protocol=protocol,
        proto=proto if proto is not None else -1,
        m=m,
        eof_length=eof_length,
        delimiter_length=delimiter_length,
        window_start=window_start,
        window_end=window_end,
        majority=majority,
        tail_offset=tail_offset,
        announced=frozenset(program.positions[:tail_offset]),
        attempt_cap=attempt_cap,
        supported=supported,
    )


def _site_key(shape: TailShape, field: str, index: int) -> int:
    """Map a fault site to its tail key (or a sentinel).

    Keys 0..2 are the CRC delimiter / ACK slot / ACK delimiter bits,
    3+i the EOF bits, and (MajorCAN only) 3+E+p the sampling position
    ``p`` that quiet nodes announce.  Sites the tail never announces
    (out-of-range EOF indices, SAMPLING under CAN/MinorCAN) are inert:
    their trigger can never fire, exactly as in the engine.
    """
    if field == CRC_DELIM:
        return 0 if index == 0 else _INERT
    if field == ACK_SLOT:
        return 1 if index == 0 else _INERT
    if field == ACK_DELIM:
        return 2 if index == 0 else _INERT
    if field == EOF:
        if 0 <= index < shape.eof_length:
            return 3 + index
        return _INERT
    if field == SAMPLING:
        if shape.proto == P_MAJOR and 0 <= index <= shape.window_end:
            return 3 + shape.eof_length + index
        return _INERT
    return _UNSUPPORTED


@dataclass(frozen=True)
class PlacementOutcome:
    """Classification of one placement, aligned with ``node_names``."""

    deliveries: Tuple[int, ...]
    attempts: int
    via: str  # "batch" | "engine"

    @property
    def consistent(self) -> bool:
        return len(set(self.deliveries)) <= 1

    @property
    def inconsistent_omission(self) -> bool:
        return any(count == 0 for count in self.deliveries) and any(
            count > 0 for count in self.deliveries
        )

    @property
    def double_reception(self) -> bool:
        return any(count > 1 for count in self.deliveries)

    @property
    def kind(self) -> Optional[str]:
        """Counterexample kind: ``"imo"``, ``"double"``, ``"inconsistent"``."""
        if self.inconsistent_omission:
            return "imo"
        if self.double_reception:
            return "double"
        if not self.consistent:
            return "inconsistent"
        return None


def network_names(n_nodes: int) -> Tuple[str, ...]:
    """Node names of an ``n_nodes`` analysis network: ``tx``, ``r1``, ..."""
    return ("tx",) + tuple("r%d" % i for i in range(1, n_nodes))


def engine_placement(
    protocol: str,
    m: int,
    node_names: Sequence[str],
    frame: Frame,
    combo: Sequence[Site],
) -> PlacementOutcome:
    """The oracle: one engine run of ``frame`` under the flips of ``combo``.

    ``node_names[0]`` transmits and the deliveries align with
    ``node_names``.  Every engine-classified placement goes through
    here: the engine backend, the batch backend's fallback and its
    reduced header runs.
    """
    nodes = [make_controller(protocol, name, m=m) for name in node_names]
    faults = [
        ViewFault(name, Trigger(field=field_name, index=index), force=None)
        for name, field_name, index in combo
    ]
    outcome = run_single_frame_scenario(
        "placement",
        nodes,
        ScriptedInjector(view_faults=faults),
        frame=frame,
        record_bits=False,
        max_bits=60000,
    )
    return PlacementOutcome(
        deliveries=tuple(outcome.deliveries[name] for name in node_names),
        attempts=outcome.attempts,
        via="engine",
    )


class _Evaluator:
    """The network, frame and hit tuples both backends share."""

    def __init__(
        self,
        protocol: str,
        m: int,
        node_names: Sequence[str],
        payload: bytes = b"\x55",
        frame: Optional[Frame] = None,
    ) -> None:
        self.protocol = protocol
        self.m = m
        self.node_names = tuple(node_names)
        self.frame = frame if frame is not None else data_frame(
            0x123, payload, message_id="m"
        )
        #: Outcome provenance counters (empty on the engine backend).
        self.stats: Dict[str, int] = {}

    def counterexample(
        self, combo: Sequence[Site], outcome: PlacementOutcome
    ) -> Optional[Tuple]:
        """The picklable ``Counterexample`` arguments of a hit, or None."""
        kind = outcome.kind
        if kind is None:
            return None
        deliveries = tuple(sorted(zip(self.node_names, outcome.deliveries)))
        return (tuple(combo), deliveries, outcome.attempts, kind)


class EngineEvaluator(_Evaluator):
    """The engine backend: one :func:`engine_placement` per placement.

    ``evaluate`` is lazy, so a consumer that stops at its first hit runs
    no further placements.
    """

    def evaluate(
        self, combos: Iterable[Sequence[Site]]
    ) -> Iterator[PlacementOutcome]:
        for combo in combos:
            yield engine_placement(
                self.protocol, self.m, self.node_names, self.frame, combo
            )


class BatchReplayEvaluator(_Evaluator):
    """Classify batches of tail error placements without engine runs.

    Placements the micro-model cannot represent (unsupported fields,
    unexpected program layout, bailed simulations) transparently fall
    back to the engine, so every returned outcome is exact.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.shape = tail_shape(self.protocol, self.m, self.frame)
        self._node_index = {name: i for i, name in enumerate(self.node_names)}
        #: Outcome provenance counters: placements classified by the
        #: tail micro-sim, by reduced header runs, and by the engine
        #: fallback.  ``batch`` stays as a zero column: sweep cell
        #: records store the dict, so its keys are part of their bytes.
        self.stats = {"batch": 0, "scalar": 0, "header": 0, "engine": 0}

    def evaluate(self, combos: Iterable[Sequence[Site]]) -> List[PlacementOutcome]:
        """Classify every placement; order follows the input.

        Verdicts are memoised in the process-wide :data:`_COMBO_CACHE`
        under a *canonical* combo key: duplicate triggers cancel by
        parity, and fault groups are relabelled onto the first
        receivers (receiver symmetry — see :meth:`_reduced_outcome`) with
        the cached delivery tuple permuted back on retrieval.  Repeated
        placements — Monte-Carlo draws across chunks, the F1 universe
        re-visiting tail-window sites — therefore classify at
        dictionary-lookup cost.  Cache hits count toward ``stats``
        under the provenance that first computed the verdict.
        """
        combos = [tuple(combo) for combo in combos]
        outcomes: List[Optional[PlacementOutcome]] = [None] * len(combos)
        pending: Dict[Tuple, List[Tuple[int, Optional[int]]]] = {}
        order: List[Tuple[Tuple, Tuple[Site, ...]]] = []
        for position, combo in enumerate(combos):
            key, back, canon = self._canonical(combo)
            if key is None:
                # A site names an unknown node: exact semantics live in
                # the engine and the combo is not worth caching.
                self.stats["engine"] += 1
                outcomes[position] = self._engine_outcome(combo)
                continue
            cached = _COMBO_CACHE.get(key)
            if cached is not None:
                self.stats[cached[2]] += 1
                outcomes[position] = self._expand(cached, back)
                continue
            if key in pending:
                pending[key].append((position, back))
                continue
            pending[key] = [(position, back)]
            order.append((key, canon))
        for key, canon in order:
            route, resolved = self._resolve(canon)
            if route == "fast":
                outcome, stat = self._tail_outcome(canon, resolved)
            elif route == "reduced":
                outcome, stat = self._reduced_outcome(resolved), "header"
            else:
                outcome, stat = self._engine_outcome(canon), "engine"
            self._finish(outcomes, pending[key], key, outcome, stat)
        return outcomes  # type: ignore[return-value]

    # -- internals -----------------------------------------------------

    def _canonical(
        self, combo: Sequence[Site]
    ) -> Tuple[Optional[Tuple], Optional[Tuple[int, ...]], Tuple[Site, ...]]:
        """Canonical cache key for ``combo`` plus its expansion hint.

        Returns ``(key, back, canon)``: ``key`` is the process-wide
        cache key (``None`` when a site names an unknown node and the
        combo must bypass the cache), ``canon`` is the combo actually
        evaluated, and ``back`` maps canonical receiver labels back to
        the real faulted nodes when the combo was re-targeted.

        Two exact reductions happen here so equivalent combos share one
        cache entry:

        * *parity*: duplicate triggers on one ``(node, field, index)``
          position all fire at the same first announcement, and a flip
          of a flip is the identity — an even repeat count cancels to
          nothing, an odd one collapses to a single flip;
        * *receiver symmetry*: the receivers are identical
          deterministic controllers, so permuting which of them carry
          which fault group permutes the deliveries and nothing else.
          The faulted receivers are relabelled ``1..k`` in sorted
          fault-group order, and ``back`` records the real node index
          behind each canonical label (``back[j-1]`` for label ``j``;
          ``None`` when the relabelling is the identity).
        """
        counts: Dict[Tuple[int, str, int], int] = {}
        try:
            for name, field_name, index in combo:
                site = (self._node_index[name], field_name, index)
                counts[site] = counts.get(site, 0) + 1
        except KeyError:
            return None, None, tuple(combo)
        sites = tuple(
            sorted(site for site, hits in counts.items() if hits % 2)
        )
        back: Optional[Tuple[int, ...]] = None
        rx_nodes = sorted({node for node, _, _ in sites if node != 0})
        if rx_nodes:
            groups = {
                node: tuple(
                    (f, i) for node2, f, i in sites if node2 == node
                )
                for node in rx_nodes
            }
            order = sorted(rx_nodes, key=lambda node: (groups[node], node))
            relabel = {node: 1 + j for j, node in enumerate(order)}
            if any(relabel[node] != node for node in rx_nodes):
                back = tuple(order)
                sites = tuple(
                    sorted(
                        (relabel.get(node, node), f, i)
                        for node, f, i in sites
                    )
                )
        key = (self.protocol, self.m, self.frame, len(self.node_names), sites)
        canon = tuple(
            (self.node_names[node], f, i) for node, f, i in sites
        )
        return key, back, canon

    def _expand(
        self,
        cached: Tuple[Tuple[int, ...], int, str],
        back: Optional[Tuple[int, ...]],
    ) -> PlacementOutcome:
        """Rebuild an outcome from a cache entry, undoing ``back``.

        The cached deliveries are for the canonical arrangement —
        transmitter at 0, faulted receivers at ``1..k``, witnesses
        after — and every witness delivery is equal by symmetry, so the
        permutation only needs the canonical-label-to-real-node map.
        """
        deliveries, attempts, stat = cached
        if back is not None:
            k = len(back)
            n = len(deliveries)
            witness = deliveries[k + 1] if k + 1 < n else 0
            rebuilt = [witness] * n
            rebuilt[0] = deliveries[0]
            for label, node in enumerate(back, start=1):
                rebuilt[node] = deliveries[label]
            deliveries = tuple(rebuilt)
        via = "engine" if stat == "engine" else "batch"
        return PlacementOutcome(
            deliveries=deliveries, attempts=attempts, via=via
        )

    def _finish(
        self,
        outcomes: List[Optional[PlacementOutcome]],
        waiters: List[Tuple[int, Optional[int]]],
        key: Tuple,
        outcome: PlacementOutcome,
        stat: str,
    ) -> None:
        """Record a fresh canonical verdict and fan it out to waiters."""
        entry = (outcome.deliveries, outcome.attempts, stat)
        bounded_put(_COMBO_CACHE, key, entry)
        self.stats[stat] += len(waiters)
        for position, back in waiters:
            outcomes[position] = self._expand(entry, back)

    def _tail_outcome(
        self, combo: Sequence[Site], armed: Sequence[Tuple[int, int]]
    ) -> Tuple[PlacementOutcome, str]:
        """Classify a pure tail placement on the micro-model.

        The common bail on dense placements is the step budget: every
        flip can restart the frame and the cascade outruns the nominal
        cap.  A single retry with a widened budget stays exact (same
        transition table, more steps) and keeps these off the engine;
        genuine envelope violations bail again and fall through to the
        oracle.
        """
        n = len(self.node_names)
        verdict = _simulate_scalar(self.shape, n, armed)
        if verdict is None:
            verdict = _simulate_scalar(self.shape, n, armed, cap_scale=8)
        if verdict is None:
            return self._engine_outcome(combo), "engine"
        deliveries, attempts = verdict
        outcome = PlacementOutcome(
            deliveries=deliveries, attempts=attempts, via="batch"
        )
        return outcome, "scalar"

    def _resolve(self, combo: Sequence[Site]) -> Tuple[str, object]:
        """Route a combo to one of the three classification paths.

        Returns ``("fast", armed_keys)`` for pure tail placements,
        ``("reduced", (header_hits, tail_sites))`` for combos touching
        an announced header site, and ``("engine", None)`` for anything
        outside the modelled envelope (unknown nodes or fields,
        unexpected program layouts).
        Duplicate triggers never reach this point — :meth:`_canonical`
        cancels them by parity before the combo is resolved.

        Config-inert tail sites — positions no parse of this controller
        configuration can ever announce — are dropped outright, exactly
        as in the engine where their trigger can never fire.  A header
        site outside the nominal announced set is subtler: an earlier
        fault on the *same* node can shift that node's parse until the
        position appears (a corrupted DLC lengthens the data field, a
        mid-frame error truncates attempt one and re-announces in the
        retry), while faults on other nodes only ever truncate the
        bus's nominal prefix and cannot conjure new positions.  Such a
        site is therefore dropped only when its node carries no other
        live site in the combo; otherwise it rides along into the
        reduced run, which replays the real engine and needs no
        announcement reasoning.
        """
        if not self.shape.supported:
            return ("engine", None)
        armed: List[Tuple[int, int]] = []
        tail_sites: List[Tuple[int, str, int]] = []
        header_hits: List[Tuple[int, str, int]] = []
        silent: List[Tuple[int, str, int]] = []
        live_nodes = set()
        for name, field_name, index in combo:
            node = self._node_index.get(name)
            if node is None:
                return ("engine", None)
            if field_name in HEADER_SITE_FIELDS:
                if (field_name, index) in self.shape.announced:
                    header_hits.append((node, field_name, index))
                    live_nodes.add(node)
                else:
                    silent.append((node, field_name, index))
                continue
            key = _site_key(self.shape, field_name, index)
            if key == _UNSUPPORTED:
                return ("engine", None)
            if key == _INERT:
                continue
            armed.append((node, key))
            tail_sites.append((node, field_name, index))
            live_nodes.add(node)
        header_hits += [site for site in silent if site[0] in live_nodes]
        if header_hits:
            return ("reduced", (tuple(header_hits), tuple(tail_sites)))
        return ("fast", armed)

    def _reduced_outcome(
        self,
        spec: Tuple[Tuple[Tuple[int, str, int], ...], Tuple[Tuple[int, str, int], ...]],
    ) -> PlacementOutcome:
        """Classify a combo touching announced header sites exactly.

        Rests on receiver symmetry: the controllers are deterministic
        and a view fault never disturbs the bus until the faulted node
        itself drives, so every non-faulted in-sync receiver behaves
        bit-identically, and the wired-AND bus is invariant under
        collapsing all clean receivers into a single witness.  The
        n-node verdict therefore follows from one *reduced* engine run
        over transmitter + the distinct faulted receivers + one witness
        (the witness is dropped when every receiver is faulted — its
        ACK and error flags would change the bus).
        Verdicts are cached per fault-group arrangement in
        :data:`_REDUCED_CACHE`; combined with the canonical relabelling
        in :meth:`_canonical`, one run serves every placement of the
        same fault groups over any receivers.
        """
        header_hits, tail_sites = spec
        sites = sorted(header_hits + tail_sites)
        rx_nodes = sorted({node for node, _, _ in sites if node != 0})
        n = len(self.node_names)
        k = len(rx_nodes)
        has_witness = k < n - 1
        groups = tuple(
            tuple((f, i) for node2, f, i in sites if node2 == node)
            for node in [0] + rx_nodes
        )
        cache_key = (self.protocol, self.m, self.frame, groups, has_witness)
        verdict = _REDUCED_CACHE.get(cache_key)
        if verdict is None:
            verdict = _reduced_class_run(
                self.protocol, self.m, self.frame, groups, has_witness
            )
            bounded_put(_REDUCED_CACHE, cache_key, verdict)
        tx_count, faulted_counts, witness_count, attempts = verdict
        by_node = dict(zip(rx_nodes, faulted_counts))
        deliveries = tuple(
            tx_count if i == 0 else by_node.get(i, witness_count)
            for i in range(n)
        )
        return PlacementOutcome(
            deliveries=deliveries, attempts=attempts, via="batch"
        )

    def _engine_outcome(self, combo: Sequence[Site]) -> PlacementOutcome:
        return engine_placement(
            self.protocol, self.m, self.node_names, self.frame, combo
        )


#: Reduced-run verdicts per fault-group arrangement, keyed by
#: ``(protocol, m, frame, groups, has_witness)`` — ``groups`` being the
#: per-carrier fault-site tuples, transmitter first — and holding
#: ``(tx_count, faulted_counts, witness_count, attempts)``.  Module-level
#: so every evaluator in a process (and every chunk a long-lived pool
#: worker runs) shares one cache; entries are tiny tuples.
_REDUCED_CACHE: Dict[Tuple, Tuple[int, Tuple[int, ...], int, int]] = {}

#: Final verdicts per canonical placement, keyed by
#: ``(protocol, m, frame, n_nodes, canonical_sites)`` and holding
#: ``(deliveries, attempts, stat)``.  Shared by every evaluator in a
#: process, so chunked Monte-Carlo draws and overlapping verification
#: universes classify repeats at lookup cost.
_COMBO_CACHE: Dict[Tuple, Tuple[Tuple[int, ...], int, str]] = {}

#: Entry bound of every module-level verdict cache (see
#: :func:`bounded_put`).  Entries are tiny and the universes that feed
#: the caches are small, so the limit only guards runaway many-frame
#: campaigns and the memory of long-lived pool workers.
_COMBO_CACHE_LIMIT = 1 << 19


def bounded_put(cache: Dict, key, value) -> None:
    """Store ``key`` in a module-level cache, clearing it when full.

    The one eviction policy of the verdict caches: a wholesale clear at
    :data:`_COMBO_CACHE_LIMIT` entries.  Cached values are pure
    functions of their keys, so a clear only costs recomputation.
    """
    if len(cache) >= _COMBO_CACHE_LIMIT:
        cache.clear()
    cache[key] = value


def clear_caches() -> None:
    """Empty the process-wide verdict caches (benchmarks and tests)."""
    _REDUCED_CACHE.clear()
    _COMBO_CACHE.clear()


def placement_evaluator(
    backend: str,
    protocol: str,
    m: int,
    node_names: Sequence[str],
    payload: bytes = b"\x55",
    frame: Optional[Frame] = None,
) -> _Evaluator:
    """The placement classifier of ``backend`` (``"engine"`` or ``"batch"``).

    Both backends classify every placement identically; the batch one
    records its provenance split in ``stats``.
    """
    check_backend(backend)
    evaluators = {"engine": EngineEvaluator, "batch": BatchReplayEvaluator}
    return evaluators[backend](protocol, m, node_names, payload=payload, frame=frame)


def _reduced_class_run(
    protocol: str,
    m: int,
    frame: Frame,
    groups: Sequence[Tuple[Tuple[str, int], ...]],
    has_witness: bool,
) -> Tuple[int, Tuple[int, ...], int, int]:
    """One reduced engine run classifying a multi-fault arrangement.

    ``groups`` holds the fault sites per carrier, transmitter first;
    the run instantiates one node per carrier plus one witness when the
    full network has a clean receiver left.
    """
    carriers = ("tx",) + tuple("f%d" % j for j in range(1, len(groups)))
    names = carriers + (("wit",) if has_witness else ())
    combo = tuple(
        (name, field_name, index)
        for name, group in zip(carriers, groups)
        for field_name, index in group
    )
    outcome = engine_placement(protocol, m, names, frame, combo)
    deliveries = outcome.deliveries
    witness_count = deliveries[-1] if has_witness else 0
    return (
        deliveries[0],
        deliveries[1 : len(carriers)],
        witness_count,
        outcome.attempts,
    )


#: Display order of the provenance counters in stats lines.
_STAT_KEYS = ("batch", "scalar", "header", "resume", "engine")

#: Engine share above which :func:`engine_share_notice` speaks up.
ENGINE_SHARE_NOTICE = 0.10


def merge_stats(parts: Iterable[Optional[Dict[str, int]]]) -> Dict[str, int]:
    """Sum any number of optional provenance dicts into one.

    Keys keep their first-seen order; ``None`` and empty parts add
    nothing, so an all-empty input merges to ``{}``.
    """
    merged: Dict[str, int] = {}
    for stats in parts:
        for key, value in (stats or {}).items():
            merged[key] = merged.get(key, 0) + value
    return merged


def format_stats(stats: Dict[str, int]) -> str:
    """One-line ``backend stats:`` summary of a provenance split."""
    total = sum(stats.get(key, 0) for key in _STAT_KEYS)
    parts = " ".join(
        "%s=%d" % (key, stats.get(key, 0)) for key in _STAT_KEYS
    )
    return "backend stats: %s (total %d)" % (parts, total)


def engine_share_notice(stats: Dict[str, int]) -> Optional[str]:
    """Log and return a notice when the engine share exceeds 10%.

    Silent engine bail-outs erode the batch backend's speedup without
    changing results; the notice makes a coverage gap visible in CLI
    output and logs.  Returns ``None`` when the share is acceptable.
    """
    total = sum(stats.get(key, 0) for key in _STAT_KEYS)
    engine = stats.get("engine", 0)
    if not total or engine / total <= ENGINE_SHARE_NOTICE:
        return None
    message = (
        "notice: engine fallback classified %d/%d placements (%.0f%% > %.0f%%)"
        % (engine, total, 100.0 * engine / total, 100.0 * ENGINE_SHARE_NOTICE)
    )
    logger.info(message)
    return message


# ---------------------------------------------------------------------------
# The tail micro-simulator
# ---------------------------------------------------------------------------


def _simulate_scalar(
    shape: TailShape,
    n_nodes: int,
    armed_pairs: Sequence[Tuple[int, int]],
    cap_scale: int = 1,
) -> Optional[Tuple[Tuple[int, ...], int]]:
    """Replay one placement on the tail micro-model.

    Returns ``(deliveries, attempts)`` or None to bail to the engine.
    ``cap_scale`` widens the step budget for the cascade-overflow
    retry: placements whose flips keep restarting the frame legally
    outrun the nominal per-attempt bound without leaving the modelled
    envelope.
    """
    eof = shape.eof_length
    last = eof - 1
    dl = shape.delimiter_length
    proto = shape.proto
    mm = shape.majority
    ws = shape.window_start
    we = shape.window_end
    n = n_nodes
    quiet_base = 3 + eof

    st = [TX_PROG] + [RX_PROG] * (n - 1)
    flag = [0] * n
    drem = [0] * n
    ipos = [0] * n
    first = [False] * n
    defer = [False] * n
    samp = [False] * n
    votes = [0] * n
    deliver = [0] * n
    pending = True
    attempts = 1
    t = 0
    armed = set(armed_pairs)
    cap = ((len(armed) + 2) * shape.attempt_cap + 16) * cap_scale

    for _ in range(cap):
        # Drive phase: active flags are dominant; receivers acknowledge.
        bus = False
        for i in range(n):
            s = st[i]
            if s in (FLAG, OVL_FLAG, MAJ_FLAG, MAJ_EXT) or (
                s == RX_PROG and t == 1
            ):
                bus = True
                break
        # Fault firing: each node announces at most one tail key.
        seen = [bus] * n
        if armed:
            for i in range(n):
                s = st[i]
                if s == TX_PROG or s == RX_PROG:
                    key = t
                elif s == MAJ_QUIET and 0 <= t - 2 <= we:
                    key = quiet_base + (t - 2)
                else:
                    continue
                pair = (i, key)
                if pair in armed:
                    armed.discard(pair)
                    seen[i] = not bus
        # Bit phase.
        for i in range(n):
            s = st[i]
            d = seen[i]
            if s == TX_PROG or s == RX_PROG:
                is_tx = s == TX_PROG
                if t >= 3:
                    index = t - 3
                    if proto == P_CAN:
                        if is_tx:
                            if d:
                                st[i] = FLAG
                                flag[i] = FLAG_LENGTH
                                first[i] = True
                                defer[i] = False
                            elif index == last:
                                pending = False
                                deliver[i] += 1
                                st[i] = INTER
                                ipos[i] = 0
                        else:
                            if index < last:
                                if d:
                                    st[i] = FLAG
                                    flag[i] = FLAG_LENGTH
                                    first[i] = True
                                    defer[i] = False
                                elif index == last - 1:
                                    deliver[i] += 1
                            elif d:
                                st[i] = OVL_FLAG
                                flag[i] = FLAG_LENGTH
                            else:
                                st[i] = INTER
                                ipos[i] = 0
                    elif proto == P_MINOR:
                        if d:
                            st[i] = FLAG
                            flag[i] = FLAG_LENGTH
                            first[i] = True
                            defer[i] = index == last
                        elif index == last:
                            if is_tx:
                                pending = False
                            deliver[i] += 1
                            st[i] = INTER
                            ipos[i] = 0
                    else:  # MajorCAN
                        if d:
                            if index + 1 <= mm:
                                st[i] = MAJ_FLAG
                                flag[i] = FLAG_LENGTH
                                samp[i] = True
                                votes[i] = 0
                            else:
                                # Second sub-field: accept now.
                                if is_tx:
                                    pending = False
                                deliver[i] += 1
                                st[i] = MAJ_EXT
                        elif index == last:
                            if is_tx:
                                pending = False
                            deliver[i] += 1
                            st[i] = INTER
                            ipos[i] = 0
                elif (t != 1 and d) or (t == 1 and is_tx and not d):
                    # Dominant delimiter bit, or a missing ACK: an
                    # error whose flag starts inside the frame tail.
                    if proto == P_MAJOR:
                        st[i] = MAJ_FLAG
                        flag[i] = FLAG_LENGTH
                        samp[i] = False
                    else:
                        st[i] = FLAG
                        flag[i] = FLAG_LENGTH
                        first[i] = True
                        defer[i] = False
            elif s == FLAG:
                flag[i] -= 1
                if flag[i] <= 0:
                    st[i] = WAIT
            elif s == WAIT:
                if first[i]:
                    first[i] = False
                    if defer[i]:
                        defer[i] = False
                        if d:  # primary error: accept
                            if i == 0:
                                pending = False
                            deliver[i] += 1
                if not d:
                    drem[i] = dl - 1
                    st[i] = DELIM
            elif s == DELIM or s == OVL_DELIM:
                if d:
                    if drem[i] <= 1:
                        st[i] = OVL_FLAG
                        flag[i] = FLAG_LENGTH
                    else:
                        st[i] = FLAG
                        flag[i] = FLAG_LENGTH
                        first[i] = True
                        defer[i] = False
                else:
                    drem[i] -= 1
                    if drem[i] <= 0:
                        st[i] = INTER
                        ipos[i] = 0
            elif s == OVL_FLAG:
                flag[i] -= 1
                if flag[i] <= 0:
                    st[i] = OVL_WAIT
            elif s == OVL_WAIT:
                if not d:
                    drem[i] = dl - 1
                    st[i] = OVL_DELIM
            elif s == INTER:
                if d:
                    if ipos[i] < INTERMISSION_LENGTH - 1:
                        st[i] = OVL_FLAG
                        flag[i] = FLAG_LENGTH
                    else:
                        return None  # un-orchestrated start of frame
                else:
                    ipos[i] += 1
                    if ipos[i] >= INTERMISSION_LENGTH:
                        st[i] = IDLE
            elif s == IDLE:
                if d:
                    return None  # reception outside the restart
            elif s == MAJ_FLAG:
                flag[i] -= 1
                if flag[i] <= 0:
                    st[i] = MAJ_QUIET
            elif s == MAJ_QUIET:
                clock = t - 2
                if samp[i] and ws <= clock <= we and d:
                    votes[i] += 1
                if clock >= we:
                    if samp[i]:
                        samp[i] = False
                        if votes[i] >= mm:
                            if i == 0:
                                pending = False
                            deliver[i] += 1
                    st[i] = WAIT
                    first[i] = False
                    defer[i] = False
            else:  # MAJ_EXT
                if t - 2 >= we:
                    st[i] = WAIT
                    first[i] = False
                    defer[i] = False
        t += 1
        # End of step: finished, or an orchestrated retransmission.
        if st[0] == IDLE:
            if not pending:
                if all(s == IDLE for s in st):
                    return tuple(deliver), attempts
            else:
                for j in range(1, n):
                    if st[j] != IDLE and not (
                        st[j] == INTER and ipos[j] == INTERMISSION_LENGTH - 1
                    ):
                        return None
                attempts += 1
                t = 0
                st = [TX_PROG] + [RX_PROG] * (n - 1)
                for j in range(n):
                    flag[j] = drem[j] = ipos[j] = votes[j] = 0
                    first[j] = defer[j] = samp[j] = False
    return None  # step budget exhausted
