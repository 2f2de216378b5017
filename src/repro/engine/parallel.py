"""Process-parallel execution: shard relational and confidence work
across a worker pool.

MayBMS's heavy paths are embarrassingly parallel several times over:
``conf() ... group by`` runs one independent #P-hard computation per
group, ``aconf(ε,δ)``'s Monte-Carlo main runs draw independent sample
blocks, ``esum``/``ecount`` reduce independent per-row terms, and the
relational operators underneath (scan/filter/project, hash join) are
data-parallel by row range.  The GIL pins all of it to one core, so this
module moves the work into a persistent :class:`ParallelExecutionPool`
of worker *processes* shared by every session of a store (and by every
connection of a server front-end).

Handoff is zero-copy in the sense that matters for a Python engine: no
row tuples are ever pickled.  The coordinator serializes column
snapshots through the PR-5 segment codec (:mod:`repro.engine.segments`,
including its v2 compressed encodings) and publishes one framed blob per
query in ``multiprocessing.shared_memory``; workers attach the block
once and cache the decoded payload in a small LRU (bounded by
``REPRO_PARALLEL_WORKER_CACHE``), keyed by a stable per-table-version
cache key where one exists so repeat queries over the same snapshot skip
the decode entirely.  Tasks themselves are tiny picklable descriptors
(segment name + shard ordinals or row ranges).

Sharding strategies, chosen per operator:

- **group shards** (``conf``, ``aconf``) -- workers receive group
  ordinals, build each group's lineage from the shared condition
  columns, and run the full
  :class:`~repro.core.confidence.dispatch.ConfidenceDispatcher`
  pipeline per group;
- **component shards** (``conf``, ``auto`` policy, few groups) -- the
  coordinator splits big group lineages into independent components and
  workers dispatch single components; the coordinator recombines
  1 − ∏(1 − pᵢ) in serial component order;
- **row-range shards** (scan/filter/project, ``esum``/``ecount``) --
  tables partition by tid range into contiguous shards; workers run the
  batch engine's compiled kernels (or the expectation sum) over their
  slice and the coordinator concatenates/reduces in range order;
- **probe shards** (hash join) -- the build side is broadcast through
  the shared payload and hashed once per worker (cached across shards
  and queries), the probe side partitions by row range; workers return
  global (probe, build) index pairs and the coordinator assembles the
  output from its own batches, so joined values never round-trip.

Determinism: every parallel path is bit-identical to serial execution
at any worker count.  Scans and joins preserve serial output order by
construction (range order × bucket insertion order).  esum/ecount
workers return Shewchuk grow-expansion partials -- exact partial sums --
and the coordinator reduces with ``math.fsum``, which equals the serial
fsum over all terms.  conf()'s closed-form/SPROUT/exact strategies
preserve clause order, registry floats (``<d`` round trip), component
order, and the δ-per-component split; its Monte-Carlo components draw
from per-unit RNGs seeded by :func:`~repro.core.confidence.dklr.fnv_mix`
over (store seed, group ordinal, component ordinal).  aconf() uses
:func:`~repro.core.confidence.dklr.aconf_unit_seed` per group plus the
blocked main run, so serial and parallel agree bit-for-bit.

A cost gate keeps small inputs serial (``parallel_min_rows`` semantics,
applied per operator); worker crashes degrade to serial evaluation
instead of failing the query; the pool shuts down on
:meth:`~repro.db.MayBMS.close` and at interpreter exit, unlinking any
shared-memory blocks it still owns.
"""

from __future__ import annotations

import atexit
import bisect
import math
import os
import pickle
import threading
import time
import weakref
from collections import OrderedDict
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager
from multiprocessing import get_context, shared_memory
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro import faults as _faults
from repro.core.conditions import Condition
from repro.core.confidence.dispatch import (
    STRATEGY_CLOSED_FORM,
    ComponentDecision,
    ConfidenceDispatcher,
    DispatchPolicy,
    DispatchResult,
)
from repro.core.confidence.dklr import aconf_unit_seed, fnv_mix
from repro.core.confidence.vectorized import single_atom_confidences
from repro.core.lineage import ClauseArena, Lineage, combine_independent
from repro.core.variables import TOP_VARIABLE, VariableRegistry
from repro.engine import sanitizer as _sanitizer
from repro.engine import segments
from repro.engine.columnar import ColumnBatch, batches_of_columns, concat_batches
from repro.engine.kernels import compile_kernel, compile_pipeline

#: Default row-count floor of the cost gate: below this many rows the
#: per-query pool overhead (payload encode + task round trips) dwarfs
#: the work and the operator stays serial.
DEFAULT_MIN_ROWS = 2048

#: Work units per worker when slicing shards: slightly over-decomposing
#: lets the greedy LPT assignment smooth out skewed groups.
_SHARDS_PER_WORKER = 2

#: Decoded payloads a worker keeps attached (LRU; see
#: ``REPRO_PARALLEL_WORKER_CACHE``).
_WORKER_CACHE_LIMIT = 4


def default_workers() -> int:
    """The ``REPRO_PARALLEL_WORKERS`` environment default (0 = serial)."""
    try:
        return max(0, int(os.environ.get("REPRO_PARALLEL_WORKERS", "0")))
    except ValueError:
        return 0


def default_min_rows() -> int:
    try:
        return max(0, int(os.environ.get("REPRO_PARALLEL_MIN_ROWS", str(DEFAULT_MIN_ROWS))))
    except ValueError:
        return DEFAULT_MIN_ROWS


def _worker_cache_limit() -> int:
    try:
        return max(
            1,
            int(os.environ.get("REPRO_PARALLEL_WORKER_CACHE", str(_WORKER_CACHE_LIMIT))),
        )
    except ValueError:
        return _WORKER_CACHE_LIMIT


def _unit_seed(base_seed: int, group: int, component: int = -1) -> int:
    """Deterministic per-work-unit RNG seed for conf(): the engine's
    single FNV mix (:func:`~repro.core.confidence.dklr.fnv_mix`) over
    (store seed, group ordinal, component ordinal).  Stable across
    worker counts and shard layouts, distinct across units."""
    return fnv_mix(base_seed, group, component)


def _greedy_shards(weights: Sequence[int], shard_count: int) -> List[List[int]]:
    """LPT assignment: heaviest unit first onto the lightest shard."""
    shard_count = max(1, min(shard_count, len(weights)))
    shards: List[List[int]] = [[] for _ in range(shard_count)]
    loads = [0] * shard_count
    for unit in sorted(range(len(weights)), key=lambda i: -weights[i]):
        target = loads.index(min(loads))
        shards[target].append(unit)
        loads[target] += max(1, weights[unit])
    return [shard for shard in shards if shard]


def _row_ranges(total: int, shard_count: int) -> List[Tuple[int, int]]:
    """Contiguous ``[start, stop)`` row ranges balanced to within one
    row.  Range order is row order, so concatenating shard results in
    range order reproduces the serial output order exactly."""
    shard_count = max(1, min(shard_count, total))
    base, extra = divmod(total, shard_count)
    ranges: List[Tuple[int, int]] = []
    start = 0
    for i in range(shard_count):
        stop = start + base + (1 if i < extra else 0)
        ranges.append((start, stop))
        start = stop
    return ranges


def _prune_registry_state(
    registry: VariableRegistry, var_columns: Sequence[Sequence[int]]
) -> Dict[str, Any]:
    """A ``dump_state``-shaped snapshot of only the variables the shipped
    condition columns mention (checkpoints dump everything; handoff
    payloads should not scale with unrelated tables)."""
    used: set = set()
    for column in var_columns:
        used.update(column)
    used.discard(TOP_VARIABLE)
    variables = [
        [var, registry.name(var), sorted(registry.distribution(var).items())]
        for var in sorted(used)
    ]
    next_id = (max(used) + 1) if used else 1
    return {"next_id": next_id, "variables": variables}


def _partials_add(partials: List[float], x: float) -> None:
    """Shewchuk grow-expansion step (the accumulator of ``math.fsum``):
    after the call, ``partials`` represents the exact sum of everything
    added so far as a list of non-overlapping floats.  Because the
    representation is exact, coordinator-side ``math.fsum`` over the
    concatenation of per-shard partials equals fsum over all the
    original terms -- independent of how rows were sharded."""
    i = 0
    for y in partials:
        if abs(x) < abs(y):
            x, y = y, x
        hi = x + y
        lo = y - (hi - x)
        if lo:
            partials[i] = lo
            i += 1
        x = hi
    partials[i:] = [x]


# ---------------------------------------------------------------------------
# Shared-memory payloads (coordinator side).
# ---------------------------------------------------------------------------


def _publish(data: bytes, name: str) -> shared_memory.SharedMemory:
    segment = shared_memory.SharedMemory(name=name, create=True, size=max(1, len(data)))
    segment.buf[: len(data)] = data
    return segment


def _attach(name: str) -> shared_memory.SharedMemory:
    """Attach a worker to the coordinator's block without disturbing its
    tracker accounting.  Spawned workers share the coordinator's
    resource-tracker process, which already holds the creation-side
    registration; on Python >= 3.13 ``track=False`` skips the redundant
    attach-side one, and on older interpreters attaching re-registers the
    same name into the same tracker set (a no-op), so the coordinator's
    unlink still balances the books either way -- the worker must *not*
    unregister, or the coordinator's unlink would double-remove."""
    try:
        return shared_memory.SharedMemory(name=name, track=False)  # py >= 3.13
    except TypeError:  # pragma: no cover - interpreter-version dependent
        return shared_memory.SharedMemory(name=name)


def _encode_group_payload(
    urel,
    row_groups: Sequence[Sequence[int]],
    policy: DispatchPolicy,
    base_seed: int,
    kind: str = "conf-groups",
    extra: Optional[Dict[str, Any]] = None,
) -> bytes:
    """Frame the condition columns + pruned registry + group index for the
    group-shard strategies (conf and, with ``kind="aconf-groups"`` plus
    the (ε, δ) parameters in ``extra``, aconf)."""
    relation = urel.relation
    columns = relation.columns()
    payload_arity, cond_arity = urel.payload_arity, urel.cond_arity
    var_columns = [columns[payload_arity + 3 * i] for i in range(cond_arity)]
    val_columns = [columns[payload_arity + 3 * i + 1] for i in range(cond_arity)]
    registry_block = segments.encode_registry_segment(
        _prune_registry_state(urel.registry, var_columns)
    )
    flat_index: List[int] = []
    starts = [0]
    for indexes in row_groups:
        flat_index.extend(indexes)
        starts.append(len(flat_index))
    encoded: List[Tuple[str, bytes]] = []
    for column in var_columns + val_columns:
        encoded.append(segments.encode_column("INTEGER", list(column)))
    encoded.append(segments.encode_column("INTEGER", flat_index))
    encoded.append(segments.encode_column("INTEGER", starts))
    blocks = [registry_block] + [block for _, block in encoded]
    header = {
        "kind": kind,
        "rows": len(relation),
        "cond_arity": cond_arity,
        "groups": len(row_groups),
        "indexed_rows": len(flat_index),
        "base_seed": base_seed,
        "policy": _policy_fields(policy),
        "encodings": [encoding for encoding, _ in encoded],
        "blocks": [len(block) for block in blocks],
    }
    if extra:
        header.update(extra)
    return segments._frame(header, blocks)


def _encode_component_payload(
    units: Sequence[Tuple[int, int, Lineage, float]],
    registry: VariableRegistry,
    policy: DispatchPolicy,
    base_seed: int,
) -> bytes:
    """Frame independent components (flattened clause atom arrays) for the
    component-shard strategy.  ``units`` is (group ordinal, component
    ordinal within its group, component lineage, per-component delta)."""
    atom_vars: List[int] = []
    atom_vals: List[int] = []
    clause_starts = [0]
    unit_clause_starts = [0]
    deltas: List[float] = []
    seeds: List[int] = []
    for group, component, lineage, delta in units:
        for clause in lineage.clauses:
            for var, value in clause.atoms:
                atom_vars.append(var)
                atom_vals.append(value)
            clause_starts.append(len(atom_vars))
        unit_clause_starts.append(len(clause_starts) - 1)
        deltas.append(delta)
        seeds.append(_unit_seed(base_seed, group, component))
    registry_block = segments.encode_registry_segment(
        _prune_registry_state(registry, [atom_vars])
    )
    encoded = [
        segments.encode_column("INTEGER", atom_vars),
        segments.encode_column("INTEGER", atom_vals),
        segments.encode_column("INTEGER", clause_starts),
        segments.encode_column("INTEGER", unit_clause_starts),
        segments.encode_column("FLOAT", deltas),
        segments.encode_column("INTEGER", seeds),
    ]
    blocks = [registry_block] + [block for _, block in encoded]
    header = {
        "kind": "conf-components",
        "units": len(units),
        "clauses": len(clause_starts) - 1,
        "atoms": len(atom_vars),
        "policy": _policy_fields(policy),
        "encodings": [encoding for encoding, _ in encoded],
        "blocks": [len(block) for block in blocks],
    }
    return segments._frame(header, blocks)


def _encode_table_payload(relation) -> bytes:
    """Frame every column of a relation, typed by its own schema, for the
    row-range scan strategy.  The payload is a pure function of the
    relation snapshot, so the coordinator caches it (and its worker
    cache key) per table version."""
    columns = relation.columns()
    encoded = [
        segments.encode_column(column_schema.type.name, list(column))
        for column_schema, column in zip(relation.schema, columns)
    ]
    blocks = [block for _, block in encoded]
    header = {
        "kind": "table",
        "rows": len(relation),
        "arity": len(relation.schema),
        "encodings": [encoding for encoding, _ in encoded],
        "blocks": [len(block) for block in blocks],
    }
    return segments._frame(header, blocks)


def _encode_join_payload(
    probe: ColumnBatch,
    build: ColumnBatch,
    left_types: Sequence[str],
    right_types: Sequence[str],
) -> bytes:
    """Frame the probe and build batches of a partitioned hash join."""
    encoded: List[Tuple[str, bytes]] = []
    for type_name, column in zip(left_types, probe.columns):
        encoded.append(segments.encode_column(type_name, list(column)))
    for type_name, column in zip(right_types, build.columns):
        encoded.append(segments.encode_column(type_name, list(column)))
    blocks = [block for _, block in encoded]
    header = {
        "kind": "join",
        "rows": probe.length,
        "build_rows": build.length,
        "left_arity": len(left_types),
        "right_arity": len(right_types),
        "encodings": [encoding for encoding, _ in encoded],
        "blocks": [len(block) for block in blocks],
    }
    return segments._frame(header, blocks)


def _encode_expect_payload(
    urel, row_groups: Sequence[Sequence[int]], value_position: Optional[int]
) -> bytes:
    """Frame condition columns + pruned registry + flattened group index
    (plus the value column for ``esum``) for the expectation-shard
    strategy."""
    relation = urel.relation
    columns = relation.columns()
    payload_arity, cond_arity = urel.payload_arity, urel.cond_arity
    var_columns = [columns[payload_arity + 3 * i] for i in range(cond_arity)]
    val_columns = [columns[payload_arity + 3 * i + 1] for i in range(cond_arity)]
    registry_block = segments.encode_registry_segment(
        _prune_registry_state(urel.registry, var_columns)
    )
    flat_index: List[int] = []
    starts = [0]
    for indexes in row_groups:
        flat_index.extend(indexes)
        starts.append(len(flat_index))
    encoded: List[Tuple[str, bytes]] = []
    for column in var_columns + val_columns:
        encoded.append(segments.encode_column("INTEGER", list(column)))
    encoded.append(segments.encode_column("INTEGER", flat_index))
    encoded.append(segments.encode_column("INTEGER", starts))
    if value_position is not None:
        encoded.append(
            segments.encode_column(
                relation.schema[value_position].type.name,
                list(columns[value_position]),
            )
        )
    blocks = [registry_block] + [block for _, block in encoded]
    header = {
        "kind": "expect",
        "rows": len(relation),
        "cond_arity": cond_arity,
        "groups": len(row_groups),
        "indexed_rows": len(flat_index),
        "has_value": value_position is not None,
        "encodings": [encoding for encoding, _ in encoded],
        "blocks": [len(block) for block in blocks],
    }
    return segments._frame(header, blocks)


def _policy_fields(policy: DispatchPolicy) -> Dict[str, Any]:
    return {
        "strategy": policy.strategy,
        "exact_budget": policy.exact_budget,
        "epsilon": policy.epsilon,
        "delta": policy.delta,
    }


# ---------------------------------------------------------------------------
# Worker side.  Module-level state and functions: workers are spawned
# processes that import this module and keep a bounded LRU of decoded
# payloads across tasks and queries.
# ---------------------------------------------------------------------------

_PAYLOAD_CACHE: "OrderedDict[str, Dict[str, Any]]" = OrderedDict()
_CACHE_EVICTIONS = 0


def _drain_evictions() -> int:
    """Evictions since the last task reported; workers attach the count to
    every return so the coordinator's counter stays current."""
    global _CACHE_EVICTIONS
    drained, _CACHE_EVICTIONS = _CACHE_EVICTIONS, 0
    return drained


def _decode_payload(name: str, length: int, cache_key: Optional[str] = None) -> Dict[str, Any]:
    """Attach + decode a published payload, with an LRU cache.

    ``cache_key`` defaults to the segment name (unique per query); table
    payloads pass a stable per-table-version key instead, so a repeat
    query over the same snapshot skips both the attach and the decode.
    """
    global _CACHE_EVICTIONS
    key = cache_key or name
    cached = _PAYLOAD_CACHE.get(key)
    if cached is not None:
        _PAYLOAD_CACHE.move_to_end(key)
        return cached
    limit = _worker_cache_limit()
    while len(_PAYLOAD_CACHE) >= limit:
        _, stale = _PAYLOAD_CACHE.popitem(last=False)
        stale["shm"].close()
        _CACHE_EVICTIONS += 1
    segment = _attach(name)
    data = bytes(segment.buf[:length])
    header, body = segments._unframe(data)
    blocks = segments._split_blocks(body, header["blocks"])
    kind = header["kind"]
    payload: Dict[str, Any] = {"shm": segment, "header": header}
    encodings = header["encodings"]
    if kind in ("conf-groups", "aconf-groups", "conf-components", "expect"):
        registry = VariableRegistry()
        registry.restore_state(segments.decode_registry_segment(blocks[0]))
        payload["registry"] = registry
        data_blocks = blocks[1:]
    else:
        data_blocks = blocks
    if "policy" in header:
        payload["policy"] = DispatchPolicy(**header["policy"])
    if kind in ("conf-groups", "aconf-groups", "conf-components"):
        payload["arena"] = ClauseArena(payload["registry"])
    if kind in ("conf-groups", "aconf-groups"):
        cond_arity = header["cond_arity"]
        rows = header["rows"]
        decoded = [
            segments.decode_column(encodings[i], data_blocks[i], rows)
            for i in range(2 * cond_arity)
        ]
        flat_index = segments.decode_column(
            encodings[2 * cond_arity], data_blocks[2 * cond_arity], header["indexed_rows"]
        )
        starts = segments.decode_column(
            encodings[2 * cond_arity + 1],
            data_blocks[2 * cond_arity + 1],
            header["groups"] + 1,
        )
        # The worker-side rebuild of the zero-copy snapshot: one
        # ColumnBatch of interleaved (var, val) condition columns, read
        # exactly like URelation.conditions() reads the original.
        batch = ColumnBatch(
            tuple(
                decoded[i % 2 * cond_arity + i // 2]
                for i in range(2 * cond_arity)
            ),
            rows,
        )
        payload["conditions"] = _batch_conditions(batch, cond_arity)
        payload["flat_index"] = flat_index
        payload["starts"] = starts
        payload["var_columns"] = decoded[:cond_arity]
        payload["val_columns"] = decoded[cond_arity:]
    elif kind == "conf-components":
        units = header["units"]
        clauses = header["clauses"]
        atoms = header["atoms"]
        atom_vars = segments.decode_column(encodings[0], data_blocks[0], atoms)
        atom_vals = segments.decode_column(encodings[1], data_blocks[1], atoms)
        payload["atom_vars"] = atom_vars
        payload["atom_vals"] = atom_vals
        payload["clause_starts"] = segments.decode_column(
            encodings[2], data_blocks[2], clauses + 1
        )
        payload["unit_clause_starts"] = segments.decode_column(
            encodings[3], data_blocks[3], units + 1
        )
        payload["deltas"] = segments.decode_column(encodings[4], data_blocks[4], units)
        payload["seeds"] = segments.decode_column(encodings[5], data_blocks[5], units)
    elif kind == "table":
        rows = header["rows"]
        payload["columns"] = tuple(
            segments.decode_column(encodings[i], data_blocks[i], rows)
            for i in range(header["arity"])
        )
    elif kind == "join":
        rows = header["rows"]
        build_rows = header["build_rows"]
        left_arity = header["left_arity"]
        payload["probe_columns"] = tuple(
            segments.decode_column(encodings[i], data_blocks[i], rows)
            for i in range(left_arity)
        )
        payload["build_columns"] = tuple(
            segments.decode_column(
                encodings[left_arity + i], data_blocks[left_arity + i], build_rows
            )
            for i in range(header["right_arity"])
        )
    elif kind == "expect":
        cond_arity = header["cond_arity"]
        rows = header["rows"]
        var_columns = [
            segments.decode_column(encodings[i], data_blocks[i], rows)
            for i in range(cond_arity)
        ]
        val_columns = [
            segments.decode_column(
                encodings[cond_arity + i], data_blocks[cond_arity + i], rows
            )
            for i in range(cond_arity)
        ]
        base = 2 * cond_arity
        payload["flat_index"] = segments.decode_column(
            encodings[base], data_blocks[base], header["indexed_rows"]
        )
        payload["starts"] = segments.decode_column(
            encodings[base + 1], data_blocks[base + 1], header["groups"] + 1
        )
        payload["values"] = (
            segments.decode_column(encodings[base + 2], data_blocks[base + 2], rows)
            if header["has_value"]
            else None
        )
        payload["weights"] = _marginal_weights(
            var_columns, val_columns, payload["registry"]
        )
    _PAYLOAD_CACHE[key] = payload
    return payload


def _batch_conditions(batch: ColumnBatch, cond_arity: int) -> List[Optional[Condition]]:
    """Per-row conditions off the rebuilt condition batch, memoized on the
    raw atom tuple exactly like ``decode_condition_columns``."""
    memo: Dict[tuple, Optional[Condition]] = {}
    out: List[Optional[Condition]] = []
    for flat in batch.rows():
        condition = memo.get(flat, _MISSING)
        if condition is _MISSING:
            atoms = [(flat[2 * k], flat[2 * k + 1]) for k in range(cond_arity)]
            condition = Condition.of(atoms)
            memo[flat] = condition
        out.append(condition)
    return out


def _marginal_weights(
    var_columns: Sequence[Sequence[int]],
    val_columns: Sequence[Sequence[int]],
    registry: VariableRegistry,
) -> List[float]:
    """Per-row condition marginals, replicating
    ``URelation.condition_probabilities`` exactly (same memoization, same
    product order, same duplicate-variable fallback) over the shipped
    columns, so worker-side weights are bit-identical to the
    coordinator's."""
    probability = registry.probability
    out: List[float] = []
    if len(var_columns) == 1:
        memo: Dict[Tuple[int, int], float] = {}
        for var, value in zip(var_columns[0], val_columns[0]):
            key = (var, value)
            p = memo.get(key)
            if p is None:
                p = probability(var, value)
                memo[key] = p
            out.append(p)
        return out
    atom_columns: List[Sequence] = []
    for i in range(len(var_columns)):
        atom_columns.append(var_columns[i])
        atom_columns.append(val_columns[i])
    arity = len(var_columns)
    for flat in zip(*atom_columns):
        p = 1.0
        seen: List[int] = []
        duplicate = False
        for k in range(arity):
            var = flat[2 * k]
            if var == TOP_VARIABLE:
                continue
            if var in seen:
                duplicate = True
                break
            seen.append(var)
            p *= probability(var, flat[2 * k + 1])
        if duplicate:
            atoms = [(flat[2 * k], flat[2 * k + 1]) for k in range(arity)]
            condition = Condition.of(atoms)
            p = 0.0 if condition is None else condition.probability(registry)
        out.append(p)
    return out


_MISSING = object()


def _run_group_shard(
    name: str, length: int, ordinals: Sequence[int]
) -> Tuple[List[Tuple[int, float, List[Tuple[str, float, int, int]]]], float, int]:
    """One group shard: build each group's lineage from the shared batch
    and run the full dispatcher on it -- or, for a single-atom relation
    under the ``auto`` strategy, answer every group with the vectorized
    closed form the serial path uses."""
    _faults.failpoint("parallel.worker")
    begin = time.process_time()
    payload = _decode_payload(name, length)
    header = payload["header"]
    conditions = payload["conditions"]
    flat_index = payload["flat_index"]
    starts = payload["starts"]
    base_seed = header["base_seed"]
    out: List[Tuple[int, float, List[Tuple[str, float, int, int]]]] = []
    if header["cond_arity"] == 1 and payload["policy"].strategy == "auto":
        # The serial path's single-atom kernel, on this shard's groups:
        # a group's answer depends only on its own rows, so any sharding
        # is bit-identical to serial.
        weights = payload.get("weights")
        if weights is None:
            weights = payload["weights"] = _marginal_weights(
                payload["var_columns"], payload["val_columns"], payload["registry"]
            )
        answers = single_atom_confidences(
            payload["var_columns"][0],
            payload["val_columns"][0],
            weights,
            [flat_index[starts[o] : starts[o + 1]] for o in ordinals],
        )
        for ordinal, (probability, atoms, variables) in zip(ordinals, answers):
            decision = (STRATEGY_CLOSED_FORM, probability, atoms, variables)
            out.append((ordinal, probability, [decision]))
        return out, time.process_time() - begin, _drain_evictions()
    for ordinal in ordinals:
        clauses = (
            conditions[row]
            for row in flat_index[starts[ordinal] : starts[ordinal + 1]]
            if conditions[row] is not None
        )
        lineage = Lineage(clauses, payload["arena"])
        # A fresh dispatcher per unit: strategy choices must not depend on
        # which shard (or worker count) a group landed on, so no exact-
        # engine memo warmth carries between units.
        dispatcher = ConfidenceDispatcher(payload["registry"], payload["policy"])
        dispatcher.rng.seed(_unit_seed(base_seed, ordinal))
        result = dispatcher.probability(lineage)
        out.append(
            (
                ordinal,
                result.probability,
                [
                    (d.strategy, d.probability, d.clause_count, d.variable_count)
                    for d in result.decisions
                ],
            )
        )
    return out, time.process_time() - begin, _drain_evictions()


def _run_component_shard(
    name: str, length: int, ordinals: Sequence[int]
) -> Tuple[List[Tuple[int, str, float, int, int]], float, int]:
    """One component shard: dispatch single independent components."""
    _faults.failpoint("parallel.worker")
    begin = time.process_time()
    payload = _decode_payload(name, length)
    atom_vars = payload["atom_vars"]
    atom_vals = payload["atom_vals"]
    clause_starts = payload["clause_starts"]
    unit_starts = payload["unit_clause_starts"]
    out: List[Tuple[int, str, float, int, int]] = []
    for ordinal in ordinals:
        clauses = []
        for c in range(unit_starts[ordinal], unit_starts[ordinal + 1]):
            atoms = [
                (atom_vars[a], atom_vals[a])
                for a in range(clause_starts[c], clause_starts[c + 1])
            ]
            clauses.append(Condition.of(atoms))
        lineage = Lineage((c for c in clauses if c is not None), payload["arena"])
        dispatcher = ConfidenceDispatcher(payload["registry"], payload["policy"])
        dispatcher.rng.seed(payload["seeds"][ordinal])
        decision = dispatcher.dispatch_component(lineage, payload["deltas"][ordinal])
        out.append(
            (
                ordinal,
                decision.strategy,
                decision.probability,
                decision.clause_count,
                decision.variable_count,
            )
        )
    return out, time.process_time() - begin, _drain_evictions()


def _run_aconf_shard(
    name: str, length: int, ordinals: Sequence[int]
) -> Tuple[List[Tuple[int, float, List[Tuple[str, float, int, int]]]], float, int]:
    """One aconf group shard: same lineage build as the conf group path,
    but each group runs the deterministic (ε, δ) approximation under its
    own :func:`~repro.core.confidence.dklr.aconf_unit_seed`, so every
    worker count reproduces the serial estimates bit-identically."""
    _faults.failpoint("parallel.worker")
    begin = time.process_time()
    payload = _decode_payload(name, length)
    header = payload["header"]
    conditions = payload["conditions"]
    flat_index = payload["flat_index"]
    starts = payload["starts"]
    base_seed = header["base_seed"]
    epsilon = header["epsilon"]
    delta = header["delta"]
    out: List[Tuple[int, float, List[Tuple[str, float, int, int]]]] = []
    for ordinal in ordinals:
        clauses = (
            conditions[row]
            for row in flat_index[starts[ordinal] : starts[ordinal + 1]]
            if conditions[row] is not None
        )
        lineage = Lineage(clauses, payload["arena"])
        dispatcher = ConfidenceDispatcher(payload["registry"], payload["policy"])
        result = dispatcher.approximate(
            lineage, epsilon, delta, unit_seed=aconf_unit_seed(base_seed, ordinal)
        )
        out.append(
            (
                ordinal,
                result.probability,
                [
                    (d.strategy, d.probability, d.clause_count, d.variable_count)
                    for d in result.decisions
                ],
            )
        )
    return out, time.process_time() - begin, _drain_evictions()


def _run_table_shard(
    name: str, length: int, cache_key: Optional[str], start: int, stop: int, ops_blob: bytes
) -> Tuple[Tuple[tuple, int], float, int]:
    """One scan shard: slice ``[start, stop)`` of the shared table columns
    and run the compiled filter/project pipeline batch-wise, exactly as
    the serial batch engine would over that row range."""
    _faults.failpoint("parallel.worker")
    begin = time.process_time()
    payload = _decode_payload(name, length, cache_key)
    pipelines = payload.setdefault("pipelines", {})
    compiled = pipelines.get(ops_blob)
    if compiled is None:
        predicate, projections, schema = pickle.loads(ops_blob)
        predicate_kernel, projection_kernels = compile_pipeline(
            schema, predicate, projections
        )
        arity = len(projections) if projections is not None else len(schema)
        compiled = pipelines[ops_blob] = (predicate_kernel, projection_kernels, arity)
    predicate_kernel, projection_kernels, arity = compiled
    sliced = tuple(column[start:stop] for column in payload["columns"])
    pieces: List[ColumnBatch] = []
    for batch in batches_of_columns(sliced, stop - start):
        if predicate_kernel is not None:
            if batch.length == 0:
                continue
            batch = batch.filter_by_mask(predicate_kernel(batch.columns, batch.length))
            if batch.length == 0:
                continue
        if projection_kernels is not None:
            batch = ColumnBatch(
                tuple(k(batch.columns, batch.length) for k in projection_kernels),
                batch.length,
            )
        pieces.append(batch)
    out = concat_batches(iter(pieces), arity)
    return (out.columns, out.length), time.process_time() - begin, _drain_evictions()


def _run_join_shard(
    name: str, length: int, cache_key: Optional[str], start: int, stop: int, ops_blob: bytes
) -> Tuple[Tuple[List[int], List[int]], float, int]:
    """One probe shard: hash the broadcast build side once per payload
    (cached across shards and queries), probe rows ``[start, stop)``,
    apply the residual worker-side, and return global (probe, build)
    index pairs.  The coordinator assembles the output from its *own*
    batches, so joined values never round-trip through the codec."""
    _faults.failpoint("parallel.worker")
    begin = time.process_time()
    payload = _decode_payload(name, length, cache_key)
    header = payload["header"]
    states = payload.setdefault("join_states", {})
    state = states.get(ops_blob)
    if state is None:
        left_keys, right_keys, residual, left_schema, right_schema = pickle.loads(
            ops_blob
        )
        build_columns = payload["build_columns"]
        build_rows = header["build_rows"]
        # Build order matches the serial build exactly, so bucket
        # insertion order -- and therefore output order -- is identical.
        key_columns = [
            compile_kernel(k, right_schema)(build_columns, build_rows)
            for k in right_keys
        ]
        table: Dict[tuple, List[int]] = {}
        for i, key in enumerate(zip(*key_columns)):
            if any(v is None for v in key):
                continue
            table.setdefault(key, []).append(i)
        probe_kernels = [compile_kernel(k, left_schema) for k in left_keys]
        residual_kernel = (
            compile_kernel(residual, left_schema.concat(right_schema))
            if residual is not None
            else None
        )
        state = states[ops_blob] = (probe_kernels, residual_kernel, table)
    probe_kernels, residual_kernel, table = state
    left_indices: List[int] = []
    right_indices: List[int] = []
    if table:
        sliced = tuple(c[start:stop] for c in payload["probe_columns"])
        n = stop - start
        key_columns = [k(sliced, n) for k in probe_kernels]
        for i, key in enumerate(zip(*key_columns)):
            if any(v is None for v in key):
                continue
            bucket = table.get(key)
            if not bucket:
                continue
            left_indices.extend([start + i] * len(bucket))
            right_indices.extend(bucket)
        if residual_kernel is not None and left_indices:
            probe = ColumnBatch(payload["probe_columns"], header["rows"])
            build = ColumnBatch(payload["build_columns"], header["build_rows"])
            out = probe.take(left_indices).concat_columns(build.take(right_indices))
            mask = residual_kernel(out.columns, out.length)
            left_indices = [v for v, keep in zip(left_indices, mask) if keep is True]
            right_indices = [v for v, keep in zip(right_indices, mask) if keep is True]
    return (left_indices, right_indices), time.process_time() - begin, _drain_evictions()


def _run_expect_shard(
    name: str, length: int, start: int, stop: int
) -> Tuple[List[Tuple[int, List[float]]], float, int]:
    """One expectation shard over positions ``[start, stop)`` of the
    flattened group index: per touched group, the Shewchuk partials of
    this shard's weight (ecount) or weight × value (esum) terms.  The
    partials represent exact sums, so the coordinator's ``math.fsum``
    over concatenated shard partials equals the serial fsum."""
    _faults.failpoint("parallel.worker")
    begin = time.process_time()
    payload = _decode_payload(name, length)
    flat_index = payload["flat_index"]
    starts = payload["starts"]
    weights = payload["weights"]
    values = payload["values"]
    out: List[Tuple[int, List[float]]] = []
    group = bisect.bisect_right(starts, start) - 1
    partials: List[float] = []
    for position in range(start, stop):
        while position >= starts[group + 1]:
            if partials:
                out.append((group, partials))
                partials = []
            group += 1
        row = flat_index[position]
        if values is None:
            _partials_add(partials, weights[row])
        else:
            value = values[row]
            if value is not None:
                _partials_add(partials, weights[row] * value)
    if partials:
        out.append((group, partials))
    return out, time.process_time() - begin, _drain_evictions()


# ---------------------------------------------------------------------------
# Parallel-operator tracing (the EXPLAIN substrate for scans/joins/esum).
# ---------------------------------------------------------------------------

_OP_TRACES: List[List[Tuple[str, Dict[str, Any]]]] = []


@contextmanager
def trace_parallel_ops() -> Iterator[List[Tuple[str, Dict[str, Any]]]]:
    """Collect (operator kind, shard-plan info) pairs for every parallel
    relational operator executed in this scope; EXPLAIN renders them the
    way ``trace_confidence`` feeds the confidence fragments."""
    buffer: List[Tuple[str, Dict[str, Any]]] = []
    _OP_TRACES.append(buffer)
    try:
        yield buffer
    finally:
        _OP_TRACES.pop()


def _record_op(kind: str, info: Dict[str, Any]) -> None:
    for buffer in _OP_TRACES:
        buffer.append((kind, info))


# ---------------------------------------------------------------------------
# The pool (coordinator side).
# ---------------------------------------------------------------------------

_LIVE_POOLS: "weakref.WeakSet[ParallelExecutionPool]" = weakref.WeakSet()
_ATEXIT_REGISTERED = False


def _shutdown_all() -> None:  # pragma: no cover - interpreter exit path
    for pool in list(_LIVE_POOLS):
        pool.shutdown()


class ParallelExecutionPool:
    """A persistent process pool for parallel query execution, shared by
    all sessions of one store.

    One pool serves every parallel path -- conf() group/component
    shards, aconf() group shards, esum/ecount row-range shards, and the
    relational scan/join operators the planner routes here.  The
    executor starts lazily on the first eligible query and survives
    across queries (spawn start-up is paid once).  All public methods
    are thread-safe: server connection threads share one pool.
    """

    def __init__(
        self,
        workers: int,
        min_rows: Optional[int] = None,
        base_seed: int = 0,
        start_method: Optional[str] = None,
        adaptive: Optional[bool] = None,
    ):
        self.workers = max(1, int(workers))
        self._min_rows = default_min_rows() if min_rows is None else max(0, int(min_rows))
        self.base_seed = int(base_seed)
        if adaptive is None:
            adaptive = os.environ.get("REPRO_PARALLEL_ADAPTIVE", "1").lower() not in (
                "0", "false", "no", "off",
            )
        #: Adaptive cost gate: every sharded call observes the ratio of
        #: coordinator encode time to worker CPU time and nudges the
        #: effective ``min_rows`` gate -- encode-dominated calls double
        #: it (sharding was overhead), compute-dominated calls halve it
        #: (smaller inputs would still win) -- clamped to
        #: [max(64, min_rows/8), min_rows*16].  ``REPRO_PARALLEL_ADAPTIVE=0``
        #: pins the gate at the configured value; ``min_rows < 64``
        #: (tests and benchmarks forcing parallel with a tiny or zero
        #: gate) disables adaptation too -- a sub-floor configured value
        #: is an explicit "always shard" request, not a cost model.
        self._adaptive_requested = bool(adaptive)
        self._min_rows_effective = self.min_rows
        self._gate_adaptations = 0
        # "spawn" everywhere: forking a store that may be serving from
        # multiple threads (the socket server) is a deadlock lottery.
        self.start_method = start_method or os.environ.get(
            "REPRO_PARALLEL_MP_START", "spawn"
        )
        self._executor: Optional[ProcessPoolExecutor] = None
        self._mutex = _sanitizer.wrap_lock("ParallelExecutionPool._mutex")
        self._closed = False
        self._segment_counter = 0
        self._payload_counter = 0
        self._pool_tag = f"{os.getpid()}-{os.urandom(3).hex()}"
        self._active_segments: Dict[str, shared_memory.SharedMemory] = {}
        #: Segments whose unlink failed (injected or transient); retried
        #: at shutdown so nothing outlives the pool in /dev/shm.
        self._failed_unlinks: List[Tuple[str, shared_memory.SharedMemory]] = []
        #: Names of every segment ever published (tests assert they are
        #: all unlinked afterwards); bounded, oldest dropped first.
        self.segment_history: List[str] = []
        self._counters: Dict[str, float] = {
            "parallel_queries": 0,
            "parallel_group_shards": 0,
            "parallel_component_shards": 0,
            "parallel_scan_queries": 0,
            "parallel_scan_shards": 0,
            "parallel_join_queries": 0,
            "parallel_join_shards": 0,
            "parallel_aconf_queries": 0,
            "parallel_aconf_shards": 0,
            "parallel_expect_queries": 0,
            "parallel_expect_shards": 0,
            "parallel_units": 0,
            "parallel_gated_serial": 0,
            "parallel_fallbacks": 0,
            "parallel_worker_crashes": 0,
            "parallel_shm_unlink_failures": 0,
            "parallel_shm_bytes": 0,
            "parallel_worker_cpu_ms": 0,
            "parallel_encode_ms": 0.0,
            "parallel_cache_evictions": 0,
        }
        self.last_call: Dict[str, Any] = {}
        global _ATEXIT_REGISTERED
        _LIVE_POOLS.add(self)
        if not _ATEXIT_REGISTERED:
            atexit.register(_shutdown_all)
            _ATEXIT_REGISTERED = True

    @property
    def min_rows(self) -> int:
        """The configured cost gate.  Assigning it (tests and benchmarks
        re-tune pools in place) resets the adaptive effective gate to the
        new value."""
        return self._min_rows

    @min_rows.setter
    def min_rows(self, value: int) -> None:
        value = max(0, int(value))
        with self._mutex:
            self._min_rows = value
            self._min_rows_effective = value
            self._gate_adaptations = 0

    @property
    def adaptive(self) -> bool:
        return self._adaptive_requested and self._min_rows >= 64

    # -- lifecycle ----------------------------------------------------------
    def _ensure_executor(self) -> ProcessPoolExecutor:
        with self._mutex:
            if self._closed:
                raise RuntimeError("parallel pool is closed")
            if self._executor is None:
                self._executor = ProcessPoolExecutor(
                    max_workers=self.workers,
                    mp_context=get_context(self.start_method),
                )
            return self._executor

    def _discard_executor(self) -> None:
        with self._mutex:
            executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=False, cancel_futures=True)

    def shutdown(self) -> None:
        """Stop the workers and unlink any shared memory still owned.

        Idempotent; called from ``MayBMS.close()`` and atexit."""
        with self._mutex:
            self._closed = True
            executor, self._executor = self._executor, None
            segments_left = list(self._active_segments.items())
            self._active_segments.clear()
            retry_unlinks, self._failed_unlinks = self._failed_unlinks, []
        if executor is not None:
            executor.shutdown(wait=True, cancel_futures=True)
        san = _sanitizer.get_sanitizer()
        for name, segment in segments_left:  # normally empty: queries clean up
            try:
                segment.close()
                segment.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass
            if san is not None:
                san.note_shm_unlinked(name)
        for name, segment in retry_unlinks:  # deferred by a failed unlink
            try:
                segment.unlink()
            except FileNotFoundError:
                pass
            except OSError:  # pragma: no cover - gone with the process anyway
                continue
            if san is not None:
                san.note_shm_unlinked(name)

    def __enter__(self) -> "ParallelExecutionPool":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.shutdown()

    # -- introspection ------------------------------------------------------
    def stats(self) -> Dict[str, Any]:
        with self._mutex:
            out = dict(self._counters)
            out["parallel_encode_ms"] = round(out["parallel_encode_ms"], 3)
            out["parallel_workers"] = self.workers
            out["parallel_segments_active"] = len(self._active_segments)
            out["parallel_min_rows_effective"] = self._min_rows_effective
            out["parallel_gate_adaptations"] = self._gate_adaptations
        return out

    def _count(self, **deltas: float) -> None:
        with self._mutex:
            for key, delta in deltas.items():
                self._counters[key] += delta

    # -- the cost gates -----------------------------------------------------
    def eligible(self, urel) -> bool:
        """Should this relation's conf()/aconf()/esum even try the pool?
        Small or certain inputs stay serial (the gate's job);
        ineligibility here is not counted as a fallback."""
        if self._closed or urel.cond_arity == 0:
            return False
        if len(urel.relation) < self._min_rows_effective:
            self._count(parallel_gated_serial=1)
            return False
        return True

    def operator_eligible(self, rows: int) -> bool:
        """The per-operator cost gate (``parallel_min_rows`` semantics,
        adaptively adjusted -- see ``adaptive``) for relational
        operators: should a scan/join over this many input rows try the
        pool?  Asked by the planner for every candidate, so a negative
        answer is not counted."""
        return not self._closed and rows > 0 and rows >= self._min_rows_effective

    def _observe_gate(self, encode_ms: float, cpu_ms: float) -> None:
        """Feed one sharded call's encode-vs-CPU split to the adaptive
        gate.  Encode-dominated (coordinator overhead exceeded worker
        compute): double the effective gate.  Compute-dominated (encode
        under a quarter of worker CPU): halve it.  In between: leave it."""
        if not self.adaptive:
            return
        floor = max(64, self.min_rows // 8)
        ceiling = self.min_rows * 16
        with self._mutex:
            current = self._min_rows_effective
            if encode_ms > cpu_ms:
                adjusted = min(ceiling, current * 2)
            elif encode_ms * 4 < cpu_ms:
                adjusted = max(floor, current // 2)
            else:
                adjusted = current
            if adjusted != current:
                self._min_rows_effective = adjusted
                self._gate_adaptations += 1

    # -- degradation --------------------------------------------------------
    def _attempt(self, run: Callable[[], Any]) -> Any:
        """Run a parallel attempt with the standard degradation contract:
        worker crashes and infrastructure failures fall back to serial
        (counted, never raised); query-level errors (MayBMSError) still
        propagate exactly as the serial path would raise them."""
        try:
            return run()
        except BrokenProcessPool:
            self._count(parallel_worker_crashes=1, parallel_fallbacks=1)
            self._discard_executor()
            return None
        except (OSError, RuntimeError, ValueError, TypeError, pickle.PickleError) as exc:
            # Shared-memory exhaustion, a dying interpreter, an
            # unpicklable plan, a worker raising through the future:
            # degrade to serial, never fail the query from the parallel
            # path.
            self._count(parallel_fallbacks=1)
            self.last_call["error"] = f"{type(exc).__name__}: {exc}"
            return None

    # -- execution core -----------------------------------------------------
    def _run_shards(
        self,
        worker: Callable,
        data: bytes,
        tasks: Sequence[tuple],
        *,
        path: str,
        query_counter: str,
        shard_counter: str,
        units: int = 0,
        encode_ms: float = 0.0,
        op_kind: Optional[str] = None,
        source: Optional[tuple] = None,
    ) -> Tuple[List[Any], Dict[str, Any]]:
        """Publish one payload, run ``worker(name, length, *task)`` per
        task, collect (result, cpu seconds, evictions) triples, update
        counters, and record the shard-plan info."""
        executor = self._ensure_executor()
        _sanitizer.guard_blocking("pool-submit")
        san = _sanitizer.get_sanitizer()
        with self._mutex:
            self._segment_counter += 1
            name = f"maybms-{os.getpid()}-{self._segment_counter}-{os.urandom(3).hex()}"
        segment = _publish(data, name)
        if san is not None:
            san.note_shm_created(name)
        with self._mutex:
            self._active_segments[name] = segment
            self.segment_history.append(name)
            del self.segment_history[:-64]
        try:
            _faults.failpoint("parallel.submit")
            futures = [
                executor.submit(worker, name, len(data), *task) for task in tasks
            ]
            returned = [future.result() for future in futures]
        finally:
            with self._mutex:
                self._active_segments.pop(name, None)
            segment.close()
            unlinked = True
            try:
                _faults.failpoint("parallel.shm.unlink")
                segment.unlink()
            except FileNotFoundError:  # pragma: no cover
                pass
            except OSError:
                # Keep the handle: shutdown() retries the unlink, so an
                # injected (or transient) failure never leaks /dev/shm
                # past the pool's lifetime.
                unlinked = False
                with self._mutex:
                    self._failed_unlinks.append((name, segment))
                self._count(parallel_shm_unlink_failures=1)
            if san is not None and unlinked:
                san.note_shm_unlinked(name)
        shard_cpu = [cpu for _, cpu, _ in returned]
        evictions = sum(ev for _, _, ev in returned)
        self._count(
            parallel_units=units,
            parallel_shm_bytes=len(data),
            parallel_worker_cpu_ms=int(sum(shard_cpu) * 1000),
            parallel_encode_ms=encode_ms,
            parallel_cache_evictions=evictions,
            **{query_counter: 1, shard_counter: len(tasks)},
        )
        self._observe_gate(encode_ms, sum(shard_cpu) * 1000.0)
        info = {
            "path": path,
            "workers": self.workers,
            "shards": len(tasks),
            "payload_bytes": len(data),
            "shard_cpu_s": shard_cpu,
            "encode_ms": round(encode_ms, 3),
            "cache_evictions": evictions,
        }
        if source is not None:
            # (table name, pinned version) provenance of the sharded base
            # relation -- surfaces in EXPLAIN's parallel fragments so a
            # sharded scan can be shown to run against exactly the version
            # the statement pinned.
            info["source"] = source
        self.last_call = info
        if op_kind is not None:
            _record_op(op_kind, info)
        return [result for result, _, _ in returned], info

    # -- confidence entry points --------------------------------------------
    def conf_groups(
        self,
        urel,
        row_groups: Sequence[Sequence[int]],
        policy: DispatchPolicy,
        lineages: Callable[[], Sequence[Lineage]],
        dispatcher: Optional[ConfidenceDispatcher] = None,
    ) -> Optional[Tuple[List[DispatchResult], Dict[str, Any]]]:
        """Parallel ``conf()`` over pre-grouped row indexes.

        Returns ``(results aligned with row_groups, info)`` or ``None``
        when the query should run serially after all -- too little
        shardable work, or a worker failure (counted, never raised).
        ``lineages`` supplies coordinator-built group lineages on demand
        (component strategy only); ``dispatcher`` handles the closed-form
        groups of that path so its arena caches are reused.
        """
        n_groups = len(row_groups)
        if n_groups == 0:
            return None

        def attempt():
            begin = time.perf_counter()
            if (
                policy.strategy == "auto"
                and n_groups < 2 * self.workers
                and urel.cond_arity != 1
            ):
                # Few groups: shard their independent components instead.
                # Single-atom groups are never split -- they take the
                # vectorized closed form whole, as serially.
                plan = self._plan_components(urel, row_groups, policy, lineages, dispatcher)
            else:
                plan = self._plan_groups(urel, row_groups, policy) if n_groups >= 2 else None
            if plan is None:
                self._count(parallel_gated_serial=1)
                return None
            encode_ms = (time.perf_counter() - begin) * 1000.0
            if plan["kind"] == "groups":
                worker, shard_counter = _run_group_shard, "parallel_group_shards"
            else:
                worker, shard_counter = _run_component_shard, "parallel_component_shards"
            shards: List[List[int]] = plan["shards"]
            results, info = self._run_shards(
                worker,
                plan["data"],
                [(shard,) for shard in shards],
                path=plan["kind"],
                query_counter="parallel_queries",
                op_kind="conf",
                shard_counter=shard_counter,
                units=sum(len(s) for s in shards),
                encode_ms=encode_ms,
            )
            if plan["kind"] == "groups":
                return self._assemble_groups(plan, results), info
            return self._assemble_components(plan, results), info

        return self._attempt(attempt)

    def aconf_groups(
        self,
        urel,
        row_groups: Sequence[Sequence[int]],
        policy: DispatchPolicy,
        epsilon: float,
        delta: float,
        base_seed: int,
    ) -> Optional[Tuple[List[DispatchResult], Dict[str, Any]]]:
        """Parallel ``aconf(ε, δ)`` over pre-grouped row indexes: group
        shards only, each group pinned to ``aconf_unit_seed(base_seed,
        ordinal)`` so any worker count matches the deterministic serial
        path bit-for-bit."""
        n_groups = len(row_groups)
        if n_groups < 2:
            self._count(parallel_gated_serial=1)
            return None

        def attempt():
            begin = time.perf_counter()
            data = _encode_group_payload(
                urel,
                row_groups,
                policy,
                base_seed,
                kind="aconf-groups",
                extra={"epsilon": epsilon, "delta": delta},
            )
            shards = _greedy_shards(
                [len(g) for g in row_groups], self.workers * _SHARDS_PER_WORKER
            )
            if len(shards) < 2:
                self._count(parallel_gated_serial=1)
                return None
            encode_ms = (time.perf_counter() - begin) * 1000.0
            results, info = self._run_shards(
                _run_aconf_shard,
                data,
                [(shard,) for shard in shards],
                path="groups",
                query_counter="parallel_aconf_queries",
                op_kind="aconf",
                shard_counter="parallel_aconf_shards",
                units=sum(len(s) for s in shards),
                encode_ms=encode_ms,
            )
            return self._assemble_groups({"groups": n_groups}, results), info

        return self._attempt(attempt)

    def expectation_groups(
        self,
        urel,
        row_groups: Sequence[Sequence[int]],
        value_position: Optional[int],
    ) -> Optional[Tuple[List[float], Dict[str, Any]]]:
        """Parallel ``esum``/``ecount``: shard the flattened group index
        by row range; workers return exact Shewchuk partials per group and
        the coordinator reduces with ``math.fsum`` -- bit-identical to the
        serial fsum at any worker count.  ``value_position`` is the esum
        value column, or ``None`` for ecount."""
        n_groups = len(row_groups)
        if n_groups == 0:
            return None

        def attempt():
            begin = time.perf_counter()
            total = sum(len(g) for g in row_groups)
            ranges = _row_ranges(total, self.workers * _SHARDS_PER_WORKER)
            if len(ranges) < 2:
                self._count(parallel_gated_serial=1)
                return None
            data = _encode_expect_payload(urel, row_groups, value_position)
            encode_ms = (time.perf_counter() - begin) * 1000.0
            results, info = self._run_shards(
                _run_expect_shard,
                data,
                ranges,
                path="row-range",
                query_counter="parallel_expect_queries",
                shard_counter="parallel_expect_shards",
                encode_ms=encode_ms,
                op_kind="expect",
            )
            partials: List[List[float]] = [[] for _ in range(n_groups)]
            for shard_out in results:
                for ordinal, chunk in shard_out:
                    partials[ordinal].extend(chunk)
            return [math.fsum(p) for p in partials], info

        return self._attempt(attempt)

    # -- relational entry points --------------------------------------------
    def table_pipeline(
        self,
        relation,
        schema,
        predicate,
        projections,
        source: Optional[tuple] = None,
    ) -> Optional[ColumnBatch]:
        """Parallel scan/filter/project over a base relation: encode the
        table once per version, shard by row range, run compiled kernels
        shard-local, concatenate in range order.  Returns the result
        batch, or ``None`` to run serially (gated, unpicklable, or worker
        failure)."""
        rows = len(relation)
        if not self.operator_eligible(rows):
            return None
        items = tuple(projections) if projections is not None else None
        try:
            ops_blob = pickle.dumps((predicate, items, schema))
        except Exception:
            return None

        def attempt():
            begin = time.perf_counter()
            ranges = _row_ranges(rows, self.workers * _SHARDS_PER_WORKER)
            if len(ranges) < 2:
                self._count(parallel_gated_serial=1)
                return None
            data, cache_key = self._table_payload(relation)
            encode_ms = (time.perf_counter() - begin) * 1000.0
            tasks = [(cache_key, start, stop, ops_blob) for start, stop in ranges]
            results, info = self._run_shards(
                _run_table_shard,
                data,
                tasks,
                path="row-range",
                query_counter="parallel_scan_queries",
                shard_counter="parallel_scan_shards",
                encode_ms=encode_ms,
                op_kind="scan",
                source=source if source is not None else relation.source,
            )
            arity = len(items) if items is not None else len(schema)
            pieces = [ColumnBatch(tuple(columns), count) for columns, count in results]
            return concat_batches(iter(pieces), arity)

        return self._attempt(attempt)

    def hash_join(
        self,
        probe: ColumnBatch,
        build: ColumnBatch,
        left_keys,
        left_schema,
        right_keys,
        right_schema,
        residual,
        source: Optional[tuple] = None,
    ) -> Optional[ColumnBatch]:
        """Parallel equi-join: broadcast the build side, shard the probe
        side by row range.  Returns the joined batch (possibly empty), or
        ``None`` to run serially."""
        if not self.operator_eligible(probe.length) or build.length == 0:
            return None
        try:
            ops_blob = pickle.dumps(
                (tuple(left_keys), tuple(right_keys), residual, left_schema, right_schema)
            )
        except Exception:
            return None

        def attempt():
            begin = time.perf_counter()
            ranges = _row_ranges(probe.length, self.workers * _SHARDS_PER_WORKER)
            if len(ranges) < 2:
                self._count(parallel_gated_serial=1)
                return None
            data = _encode_join_payload(
                probe,
                build,
                [c.type.name for c in left_schema],
                [c.type.name for c in right_schema],
            )
            encode_ms = (time.perf_counter() - begin) * 1000.0
            tasks = [(None, start, stop, ops_blob) for start, stop in ranges]
            results, info = self._run_shards(
                _run_join_shard,
                data,
                tasks,
                path="probe",
                query_counter="parallel_join_queries",
                shard_counter="parallel_join_shards",
                encode_ms=encode_ms,
                op_kind="join",
                source=source,
            )
            left_indices: List[int] = []
            right_indices: List[int] = []
            for shard_left, shard_right in results:
                left_indices.extend(shard_left)
                right_indices.extend(shard_right)
            if not left_indices:
                return ColumnBatch.empty(len(left_schema) + len(right_schema))
            return probe.take(left_indices).concat_columns(build.take(right_indices))

        return self._attempt(attempt)

    def _table_payload(self, relation) -> Tuple[bytes, str]:
        """The framed column payload of a relation, cached on the relation
        snapshot itself (tables cache one snapshot per version, and the
        MVCC pin chain hands every statement pinned to a version the
        *same* relation object, so the entry's lifetime is exactly the
        version's) under a stable cache key that lets workers reuse
        their decoded columns across queries -- including consecutive
        statements pinned to the same version."""
        cache = relation.derived_cache()
        entry = cache.get("parallel-payload")
        if entry is None:
            with self._mutex:
                self._payload_counter += 1
                counter = self._payload_counter
            cache_key = f"table-{self._pool_tag}-{counter}"
            entry = cache["parallel-payload"] = (
                _encode_table_payload(relation),
                cache_key,
            )
        return entry

    # -- planning -----------------------------------------------------------
    def _plan_groups(
        self, urel, row_groups: Sequence[Sequence[int]], policy: DispatchPolicy
    ) -> Optional[Dict[str, Any]]:
        data = _encode_group_payload(urel, row_groups, policy, self.base_seed)
        shards = _greedy_shards(
            [len(g) for g in row_groups], self.workers * _SHARDS_PER_WORKER
        )
        if len(shards) < 2:
            return None
        return {
            "kind": "groups",
            "data": data,
            "shards": shards,
            "groups": len(row_groups),
        }

    def _plan_components(
        self,
        urel,
        row_groups: Sequence[Sequence[int]],
        policy: DispatchPolicy,
        lineages: Callable[[], Sequence[Lineage]],
        dispatcher: Optional[ConfidenceDispatcher],
    ) -> Optional[Dict[str, Any]]:
        if dispatcher is None:
            dispatcher = ConfidenceDispatcher(urel.registry, policy)
        built = lineages()
        local: Dict[int, DispatchResult] = {}
        units: List[Tuple[int, int, Lineage, float]] = []
        group_meta: List[Tuple[int, int]] = []  # (first unit ordinal, count)
        for ordinal, lineage in enumerate(built):
            simplified = Lineage.of(lineage, urel.registry).simplified()
            if simplified.closed_form_probability() is not None:
                # Cheap enough to answer inline, exactly as serial would.
                local[ordinal] = dispatcher.probability(simplified)
                group_meta.append((-1, 0))
                continue
            components = simplified.components()
            delta = policy.delta / max(1, len(components))
            group_meta.append((len(units), len(components)))
            for c_ordinal, component in enumerate(components):
                units.append((ordinal, c_ordinal, component, delta))
        if len(units) < 2:
            return None
        data = _encode_component_payload(units, urel.registry, policy, self.base_seed)
        shards = _greedy_shards(
            [len(unit[2].clauses) for unit in units],
            self.workers * _SHARDS_PER_WORKER,
        )
        return {
            "kind": "components",
            "data": data,
            "shards": shards,
            "groups": len(row_groups),
            "local": local,
            "group_meta": group_meta,
            "units": units,
        }

    # -- assembly -----------------------------------------------------------
    @staticmethod
    def _assemble_groups(plan, results) -> List[DispatchResult]:
        slots: List[Optional[DispatchResult]] = [None] * plan["groups"]
        for rows in results:
            for ordinal, probability, decisions in rows:
                slots[ordinal] = DispatchResult(
                    probability,
                    tuple(ComponentDecision(*decision) for decision in decisions),
                )
        if any(slot is None for slot in slots):
            raise RuntimeError("worker returned an incomplete shard")
        return slots  # type: ignore[return-value]

    @staticmethod
    def _assemble_components(plan, results) -> List[DispatchResult]:
        unit_decisions: List[Optional[ComponentDecision]] = [None] * len(plan["units"])
        for rows in results:
            for ordinal, strategy, probability, clause_count, variable_count in rows:
                unit_decisions[ordinal] = ComponentDecision(
                    strategy, probability, clause_count, variable_count
                )
        if any(decision is None for decision in unit_decisions):
            raise RuntimeError("worker returned an incomplete shard")
        out: List[DispatchResult] = []
        for ordinal, (first, count) in enumerate(plan["group_meta"]):
            if count == 0:
                out.append(plan["local"][ordinal])
                continue
            decisions = tuple(unit_decisions[first : first + count])
            probability = combine_independent(d.probability for d in decisions)
            out.append(DispatchResult(probability, decisions))
        return out


#: Backwards-compatible alias: PR 6 shipped the pool under this name when
#: it only parallelized confidence; external callers keep working.
ParallelConfidencePool = ParallelExecutionPool
