"""The uncertainty-aware aggregates of Section 2.2.

- ``conf`` / ``aconf(ε,δ)``: per group of result tuples, the exact or
  (ε,δ)-approximate probability that the group's tuple appears;
- ``tconf``: per *row*, the marginal probability of its own condition, in
  isolation from duplicates;
- ``possible``: the distinct possible tuples (probability > 0);
- ``esum`` / ``ecount``: expected sum / count across the worlds.  These
  are efficient despite confidence being #P-hard: by linearity of
  expectation, E[Σ_t v(t)·1(t present)] = Σ_t v(t)·P(t present), one
  marginal per row, no DNF combination at all;
- ``argmax`` is a certain-data aggregate and lives in the engine
  (:class:`repro.engine.algebra.AggregateSpec`).

Standard SQL aggregates on uncertain inputs are rejected by the SQL
analyzer (see :class:`repro.errors.UncertainAggregateError`), matching the
paper: "these aggregates will produce exponentially many different
numerical results in the various possible worlds".
"""

from __future__ import annotations

import math
import random
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.confidence import dispatch
from repro.core.confidence.dispatch import (
    ComponentDecision,
    ConfidenceDispatcher,
    DispatchPolicy,
    DispatchResult,
)
from repro.core.confidence.dklr import aconf_unit_seed
from repro.core.confidence.exact import ExactConfidenceEngine
from repro.core.confidence.vectorized import single_atom_confidences
from repro.core.lineage import Lineage, group_lineages
from repro.core.urelation import URelation
from repro.engine.physical import group_key
from repro.engine.relation import Relation
from repro.engine.schema import Column, Schema
from repro.engine.types import FLOAT, INTEGER
from repro.errors import ConfidenceError


def _group_rows(
    urel: URelation, group_columns: Sequence[str]
) -> Tuple[List[int], Dict[tuple, Tuple[tuple, List[int]]], List[tuple]]:
    """Group row indexes by the projection onto ``group_columns``.

    Returns (positions, key -> (projected row, row indexes), key order).
    Works off the relation's cached column view: only the grouping columns
    are touched, not whole rows.
    """
    positions = [urel.relation.schema.resolve(name) for name in group_columns]
    groups: Dict[tuple, Tuple[tuple, List[int]]] = {}
    order: List[tuple] = []
    n = len(urel.relation)
    if positions:
        columns = urel.relation.columns()
        projected_iter = zip(*(columns[p] for p in positions))
    else:
        projected_iter = (() for _ in range(n))
    for index, projected in enumerate(projected_iter):
        key = group_key(projected)
        entry = groups.get(key)
        if entry is None:
            entry = (projected, [])
            groups[key] = entry
            order.append(key)
        entry[1].append(index)
    return positions, groups, order


def _group_schema(
    urel: URelation, group_columns: Sequence[str], result_name: str, result_type
) -> Schema:
    columns = [
        Column(
            urel.relation.schema[urel.relation.schema.resolve(name)].name,
            urel.relation.schema[urel.relation.schema.resolve(name)].type,
        )
        for name in group_columns
    ]
    columns.append(Column(result_name, result_type))
    return Schema(columns)


def _cached_groups(
    urel: URelation, group_columns: Sequence[str]
) -> Tuple[Dict[tuple, Tuple[tuple, List[int]]], List[tuple]]:
    """Group the relation's rows, cached on the relation object.

    Everything this module derives from a relation lives in its
    :meth:`~repro.engine.relation.Relation.derived_cache`.  Table
    snapshots are cached per table version and the MVCC pin chain hands
    every statement pinned to a version that same relation object, so
    the cache is keyed by *table version* implicitly; the SQL executor
    keeps the prepared aggregation input of a repeated statement alive
    across statements (:mod:`repro.sql.memo`), so its caches carry over
    too.  Grouping is kept separate from the lineages so the parallel
    path (which builds lineages worker-side) shares grouping with a later
    serial fallback without paying for coordinator-side lineages.
    """
    key = ("groups", tuple(group_columns), urel.payload_arity, urel.cond_arity)
    cache = urel.relation.derived_cache()
    entry = cache.get(key)
    if entry is None:
        _, groups, order = _group_rows(urel, group_columns)
        entry = cache[key] = (groups, order)
    return entry


def _cached_group_lineages(
    urel: URelation, group_columns: Sequence[str]
) -> Tuple[Dict[tuple, Tuple[tuple, List[int]]], List[tuple], List[Lineage]]:
    """Grouping plus per-group lineages, cached on the relation object: a
    repeated ``conf()`` over an unchanged stored U-relation re-uses
    grouping, interned clauses, and their probability caches."""
    key = (
        tuple(group_columns),
        urel.payload_arity,
        urel.cond_arity,
        id(urel.registry),
    )
    cache = urel.relation.derived_cache()
    entry = cache.get(key)
    if entry is not None:
        return entry
    groups, order = _cached_groups(urel, group_columns)
    lineages = group_lineages(urel, [groups[k][1] for k in order])
    entry = cache[key] = (groups, order, lineages)
    return entry


def _results_key(kind: str, urel: URelation, group_columns, policy, *extra) -> tuple:
    """Cache key of per-group results: the grouping, the registry, and
    the dispatch policy that produced them (None where none is used)."""
    return (
        kind,
        tuple(group_columns),
        urel.payload_arity,
        urel.cond_arity,
        id(urel.registry),
        policy,
    ) + extra


def _uses_monte_carlo(results: Sequence[DispatchResult]) -> bool:
    """Did any component of any result fall back to Monte Carlo?  Such
    answers drew from a sequential RNG, so they are never cached."""
    return any(
        decision.strategy == dispatch.STRATEGY_MONTE_CARLO
        for result in results
        for decision in result.decisions
    )


def _vectorizable(urel: URelation, policy: DispatchPolicy) -> bool:
    """Does ``conf()`` take the single-atom closed form
    (:mod:`repro.core.confidence.vectorized`)?  Only under the ``auto``
    strategy: a forced strategy means that algorithm, per group."""
    return urel.cond_arity == 1 and policy.strategy == "auto"


def _single_atom_results(
    urel: URelation, row_groups: Sequence[Sequence[int]]
) -> List[DispatchResult]:
    """Per-group ``conf()`` of a single-atom U-relation, read straight off
    its condition columns -- no Condition or Lineage objects."""
    columns = urel.relation.columns()
    base = urel.payload_arity
    return [
        DispatchResult(
            probability,
            (
                ComponentDecision(
                    dispatch.STRATEGY_CLOSED_FORM, probability, atoms, variables
                ),
            ),
        )
        for probability, atoms, variables in single_atom_confidences(
            columns[base], columns[base + 1], urel.condition_probabilities(), row_groups
        )
    ]


def _serial_conf(
    urel: URelation, group_columns: Sequence[str], dispatcher: ConfidenceDispatcher
) -> Tuple[List[DispatchResult], bool]:
    """Per-group dispatch results (cached on the relation unless any fell
    back to Monte Carlo), plus whether the vectorized kernel produced
    them."""
    key = _results_key("conf", urel, group_columns, dispatcher.policy)
    cache = urel.relation.derived_cache()
    entry = cache.get(key)
    if entry is not None:
        return entry
    if _vectorizable(urel, dispatcher.policy):
        groups, order = _cached_groups(urel, group_columns)
        entry = (_single_atom_results(urel, [groups[k][1] for k in order]), True)
    else:
        lineages = _cached_group_lineages(urel, group_columns)[2]
        entry = (dispatcher.group_probabilities(lineages), False)
    if not _uses_monte_carlo(entry[0]):
        cache[key] = entry
    return entry


def conf(
    urel: URelation,
    group_columns: Sequence[str] = (),
    result_name: str = "conf",
    engine: Optional[ExactConfidenceEngine] = None,
    dispatcher: Optional[ConfidenceDispatcher] = None,
    parallel=None,
) -> Relation:
    """Confidence computation (the ``conf()`` aggregate).

    For each distinct value of ``group_columns``, the probability that at
    least one tuple with that value is present: the probability of the
    disjunction of the group's row conditions.  With no group columns the
    result is a single row -- the probability that the relation is
    non-empty.

    Each group's lineage goes through the cost-based dispatcher
    (:mod:`repro.core.confidence.dispatch`), which picks closed-form /
    SPROUT safe evaluation / exact ws-trees / Monte Carlo per independent
    component -- except for single-atom relations under the ``auto``
    strategy, whose groups all take one vectorized closed form
    (:mod:`repro.core.confidence.vectorized`).  Results are cached on the
    relation per grouping and policy unless Monte Carlo ran.  Passing
    ``engine`` forces the exact ws-tree engine for every group (the
    pre-dispatcher behaviour, kept for ablations and benchmarks).  ``parallel`` is a
    :class:`~repro.engine.parallel.ParallelExecutionPool`: relations past
    its cost gate are sharded across worker processes, and any parallel
    failure silently degrades back to the serial path below.
    """
    if engine is not None:
        groups, order, lineages = _cached_group_lineages(urel, group_columns)
        probabilities = [engine.probability(lineage) for lineage in lineages]
    else:
        if dispatcher is None:
            dispatcher = ConfidenceDispatcher(urel.registry)
        groups, order = _cached_groups(urel, group_columns)
        results = None
        detail = ""
        vectorized = False
        if parallel is not None and parallel.eligible(urel):
            attempt = parallel.conf_groups(
                urel,
                [groups[key][1] for key in order],
                dispatcher.policy,
                lineages=lambda: _cached_group_lineages(urel, group_columns)[2],
                dispatcher=dispatcher,
            )
            if attempt is not None:
                results, info = attempt
                vectorized = _vectorizable(urel, dispatcher.policy)
                detail = (
                    f"parallel: {info['workers']} workers, "
                    f"{info['shards']} {info['path']} shard(s)"
                )
        if results is None:
            results, vectorized = _serial_conf(urel, group_columns, dispatcher)
        dispatch.record_aggregate(
            "conf", results, detail=detail, vectorized=len(results) if vectorized else 0
        )
        probabilities = [result.probability for result in results]
    rows = [
        groups[key][0] + (probability,)
        for key, probability in zip(order, probabilities)
    ]
    if not group_columns and not rows:
        rows.append((0.0,))
    return Relation(_group_schema(urel, group_columns, result_name, FLOAT), rows)


def aconf(
    urel: URelation,
    epsilon: float,
    delta: float,
    group_columns: Sequence[str] = (),
    result_name: str = "aconf",
    rng: Optional[random.Random] = None,
    dispatcher: Optional[ConfidenceDispatcher] = None,
    parallel=None,
    base_seed: Optional[int] = None,
) -> Relation:
    """Approximate confidence: ``aconf(ε, δ)``.

    Per group, an estimate p̂ with P(|p̂ − p| > ε·p) < δ.  The dispatcher
    takes exact shortcuts that satisfy the guarantee trivially (closed
    forms, hierarchical lineages); everything else runs the Karp-Luby
    estimator under the DKLR optimal Monte-Carlo driver.

    With ``base_seed`` (the store/session seed, wired by the SQL
    executor) each group's Monte-Carlo run is pinned to its own
    deterministic stream via :func:`~repro.core.confidence.dklr.aconf_unit_seed`,
    so the answer is a pure function of (seed, data) -- which is what
    lets ``parallel`` (a :class:`~repro.engine.parallel.ParallelExecutionPool`)
    shard the sample loops across workers bit-identically to serial at
    any worker count.  An explicit ``rng`` overrides both: draws come
    from it sequentially (the legacy behaviour) and the query stays
    serial.
    """
    deterministic = base_seed is not None and rng is None
    if dispatcher is None:
        dispatcher = ConfidenceDispatcher(urel.registry, rng=rng)
    elif rng is not None:
        dispatcher = ConfidenceDispatcher(
            urel.registry, dispatcher.policy, rng=rng
        )
    detail = f"epsilon={epsilon:g}, delta={delta:g}"
    groups, order = _cached_groups(urel, group_columns)
    results = None
    if deterministic and parallel is not None and parallel.eligible(urel):
        attempt = parallel.aconf_groups(
            urel,
            [groups[key][1] for key in order],
            dispatcher.policy,
            epsilon,
            delta,
            base_seed,
        )
        if attempt is not None:
            results, info = attempt
            detail += (
                f"; parallel: {info['workers']} workers, "
                f"{info['shards']} {info['path']} shard(s)"
            )
    if results is None:
        key = _results_key(
            "aconf", urel, group_columns, dispatcher.policy, epsilon, delta, base_seed
        )
        cache = urel.relation.derived_cache()
        results = cache.get(key) if deterministic else None
        if results is None:
            lineages = _cached_group_lineages(urel, group_columns)[2]
            if deterministic:
                results = [
                    dispatcher.approximate(
                        lineage,
                        epsilon,
                        delta,
                        unit_seed=aconf_unit_seed(base_seed, ordinal),
                    )
                    for ordinal, lineage in enumerate(lineages)
                ]
                # Seeded: a pure function of (seed, data), so reusable.
                cache[key] = results
            else:
                results = [
                    dispatcher.approximate(lineage, epsilon, delta)
                    for lineage in lineages
                ]
    dispatch.record_aggregate("aconf", results, detail=detail)
    rows = [
        groups[key][0] + (result.probability,)
        for key, result in zip(order, results)
    ]
    if not group_columns and not rows:
        rows.append((0.0,))
    return Relation(_group_schema(urel, group_columns, result_name, FLOAT), rows)


def tconf(urel: URelation, result_name: str = "tconf") -> Relation:
    """Per-row marginal probability ("in isolation from the other
    (possibly duplicate) tuples"): payload columns plus the probability of
    the row's own condition.

    Marginals are atom-product closed forms read straight off the
    condition columns -- no dispatch decision to make, but the strategy
    trace still records the call so EXPLAIN shows every confidence
    computation of a query.
    """
    columns = list(urel.payload_schema) + [Column(result_name, FLOAT)]
    payload_arity = urel.payload_arity
    rows = [
        row[:payload_arity] + (probability,)
        for row, probability in zip(urel.relation, urel.condition_probabilities())
    ]
    if dispatch.tracing_active():
        dispatch.record_event(
            dispatch.ConfidenceEvent(
                aggregate="tconf",
                groups=len(rows),
                strategy_counts=(("marginal", len(rows)),),
            )
        )
    return Relation(Schema(columns), rows)


def possible(urel: URelation) -> Relation:
    """The ``possible`` construct: distinct tuples with probability > 0.

    Equivalent to filtering ``tconf > 0`` and deduplicating, which is how
    MayBMS implements it by rewriting (Section 2.4).
    """
    return urel.possible_payloads()


def esum(
    urel: URelation,
    value_column: str,
    group_columns: Sequence[str] = (),
    result_name: str = "esum",
    parallel=None,
) -> Relation:
    """Expected sum: Σ_rows value(row) · P(condition(row)) per group.

    Linear in the input -- no #P-hard machinery -- by linearity of
    expectation (Section 2.2's justification for allowing esum/ecount
    while forbidding plain sum/count on uncertain data).  NULL values
    contribute nothing, mirroring SQL's sum.
    """
    value_position = urel.relation.schema.resolve(value_column)
    return _expectation(urel, value_position, group_columns, result_name, parallel)


def ecount(
    urel: URelation,
    group_columns: Sequence[str] = (),
    result_name: str = "ecount",
    parallel=None,
) -> Relation:
    """Expected count: Σ_rows P(condition(row)) per group."""
    return _expectation(urel, None, group_columns, result_name, parallel)


def _expectation(
    urel: URelation,
    value_position: Optional[int],
    group_columns: Sequence[str],
    result_name: str,
    parallel=None,
) -> Relation:
    """Per-group expectations, serial or sharded.

    Both paths sum with exact accumulation (``math.fsum`` serially;
    Shewchuk partials per shard with an fsum reduction in the pool), so
    a group's total is a function of its term multiset alone -- serial
    and parallel answers are bit-identical at any worker count.  Serial
    totals are cached on the relation.
    """
    groups, order = _cached_groups(urel, group_columns)
    row_groups = [groups[key][1] for key in order]
    totals: Optional[List[float]] = None
    if parallel is not None and parallel.eligible(urel):
        attempt = parallel.expectation_groups(urel, row_groups, value_position)
        if attempt is not None:
            totals, _ = attempt
    if totals is None:
        cache_key = _results_key(
            "expectation", urel, group_columns, None, value_position
        )
        cache = urel.relation.derived_cache()
        totals = cache.get(cache_key)
    if totals is None:
        weights = urel.condition_probabilities()
        value_column = (
            urel.relation.columns()[value_position]
            if value_position is not None
            else None
        )
        if value_column is None:
            totals = [
                math.fsum(weights[i] for i in indexes) for indexes in row_groups
            ]
        else:
            totals = [
                math.fsum(
                    weights[i] * value_column[i]
                    for i in indexes
                    if value_column[i] is not None
                )
                for indexes in row_groups
            ]
        cache[cache_key] = totals
    rows = [
        groups[key][0] + (total,) for key, total in zip(order, totals)
    ]
    if not group_columns and not rows:
        rows.append((0.0,))
    return Relation(_group_schema(urel, group_columns, result_name, FLOAT), rows)
