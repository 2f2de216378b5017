"""Seeded inputs, statement texts and reference answers for the three
workloads.

Everything here is a pure function of ``(seed, size)`` and uses only the
standard library, so the oracles stay independent of the engine they
check: a reference probability is computed from the generated rows with
the closed forms of the two U-relation shapes the workloads build --

- a repair-key group: alternatives of one key are mutually exclusive, so
  the probability that some alternative in a set occurs is the sum of
  their normalised weights;
- independent keys (or tuple-independent rows): the probability that at
  least one of them contributes is ``1 - prod(1 - p_i)``.
"""

from __future__ import annotations

import math
import random
from typing import Dict, List, Sequence, Tuple

#: Absolute tolerance between an engine answer and an exact reference
#: (the engine sums and multiplies in its own order).
EXACT_TOLERANCE = 1e-9

#: ``aconf(eps, delta)`` parameters of conf-repeat; the reference check
#: allows twice the relative error the guarantee promises, so a seeded
#: estimate fails only when it is far outside its (eps, delta) envelope.
ACONF_EPSILON = 0.1
ACONF_DELTA = 0.1

#: Tuple probabilities of the groups ``aconf`` reads.  The Monte-Carlo
#: sample count grows as the estimate falls, so seeded probabilities made
#: the statement's cost vary 2.5x between seeds; fixed ones leave only
#: the seeded sample stream to vary it (about 20 %).
ACONF_PROBABILITIES = (0.35, 0.5, 0.65, 0.8)

#: Full-size workload shapes; ``tiny`` is the smoke-test size.
SIZES = {
    "full": {
        "repeat_keys": 1200, "repeat_alts": 4, "repeat_groups": 400,
        "ti_rows": 200, "ti_groups": 50, "aconf_groups": 2,
        "wire_keys": 1000, "wire_alts": 3, "wire_groups": 50,
        "tpch_scale": 1.0,
    },
    "tiny": {
        "repeat_keys": 60, "repeat_alts": 4, "repeat_groups": 20,
        "ti_rows": 40, "ti_groups": 10, "aconf_groups": 2,
        "wire_keys": 80, "wire_alts": 3, "wire_groups": 8,
        "tpch_scale": 0.05,
    },
}


class CheckFailed(Exception):
    """An answer disagreed with its oracle; the run reports no numbers."""


def close(a: float, b: float, tol: float = EXACT_TOLERANCE) -> bool:
    return abs(a - b) <= tol


def any_of(probabilities: Sequence[float]) -> float:
    """P(at least one of independent events)."""
    miss = 1.0
    for p in probabilities:
        miss *= 1.0 - p
    return 1.0 - miss


def repair_key_groups(
    rows: Sequence[Tuple], key: int, group: int, weight: int
) -> Dict[object, float]:
    """Per-group confidence of ``repair key <key> ... weight by <weight>``
    followed by ``conf() ... group by <group>``."""
    totals: Dict[object, float] = {}
    for row in rows:
        totals[row[key]] = totals.get(row[key], 0.0) + row[weight]
    mass: Dict[object, Dict[object, float]] = {}
    for row in rows:
        per_key = mass.setdefault(row[group], {})
        per_key[row[key]] = per_key.get(row[key], 0.0) + row[weight] / totals[row[key]]
    return {g: any_of(list(per_key.values())) for g, per_key in mass.items()}


def repair_key_marginals(rows: Sequence[Tuple], key: int, weight: int) -> List[float]:
    totals: Dict[object, float] = {}
    for row in rows:
        totals[row[key]] = totals.get(row[key], 0.0) + row[weight]
    return [row[weight] / totals[row[key]] for row in rows]


# ---------------------------------------------------------------------------
# conf-repeat: in-process, one fixed pass of statements repeated verbatim.
# ---------------------------------------------------------------------------

REPEAT_STATEMENTS = (
    ("conf", "select g, conf() as c from u group by g"),
    ("tconf", "select k, g, v, tconf() as p from u"),
    ("esum", "select g, esum(v) as s, ecount() as n from u group by g"),
    (
        "argmax",
        "select h, argmax(id, c) as best from "
        "(select h, id, conf() as c from ti group by h, id) x group by h",
    ),
    (
        "aconf",
        f"select a.h, aconf({ACONF_EPSILON}, {ACONF_DELTA}) as a "
        "from ti a, ti b where a.h = b.h and a.id < b.id and a.h < {limit} "
        "group by a.h",
    ),
)


def repeat_data(seed: int, size: str = "full") -> Dict[str, List[Tuple]]:
    """``r(k, g, v, w)``: keys with ``repeat_alts`` weighted alternatives
    each, spread over ``repeat_groups`` groups; ``t(id, h, x, p)``: a small
    tuple-independent table, four rows per group, with probabilities
    distinct within each group (so ``argmax`` has no ties)."""
    s = SIZES[size]
    rng = random.Random(seed * 7919 + 1)
    r = [
        (k, rng.randrange(s["repeat_groups"]), round(rng.uniform(0.0, 100.0), 3),
         round(rng.uniform(0.1, 1.0), 4))
        for k in range(s["repeat_keys"])
        for _ in range(s["repeat_alts"])
    ]
    probabilities = [p / 10000 for p in rng.sample(range(500, 9500), s["ti_rows"])]
    groups = s["ti_groups"]
    for h in range(s["aconf_groups"]):
        for j, p in enumerate(ACONF_PROBABILITIES):
            probabilities[h + j * groups] = p
    t = [
        (i, i % groups, round(rng.uniform(0.0, 10.0), 3), probabilities[i])
        for i in range(s["ti_rows"])
    ]
    return {"r": r, "t": t}


def repeat_statements(size: str = "full") -> List[Tuple[str, str]]:
    limit = SIZES[size]["aconf_groups"]
    return [(name, sql.replace("{limit}", str(limit))) for name, sql in REPEAT_STATEMENTS]


def _at_least_two(probabilities: Sequence[float]) -> float:
    """P(at least two of independent events), by dynamic programming over
    the count of events present (0, 1, or >= 2)."""
    none, one = 1.0, 0.0
    for p in probabilities:
        none, one = none * (1.0 - p), one * (1.0 - p) + none * p
    return 1.0 - none - one


def repeat_reference(data: Dict[str, List[Tuple]], size: str = "full") -> Dict[str, object]:
    r, t = data["r"], data["t"]
    marginals = repair_key_marginals(r, key=0, weight=3)
    esum: Dict[int, List[float]] = {}
    for row, p in zip(r, marginals):
        acc = esum.setdefault(row[1], [0.0, 0.0])
        acc[0] += row[2] * p
        acc[1] += p
    by_h: Dict[int, List[Tuple[int, float]]] = {}
    for row in t:
        by_h.setdefault(row[1], []).append((row[0], row[3]))
    limit = SIZES[size]["aconf_groups"]
    return {
        "conf": repair_key_groups(r, key=0, group=1, weight=3),
        "tconf": sorted((row[0], row[1], row[2], p) for row, p in zip(r, marginals)),
        "esum": {g: (acc[0], acc[1]) for g, acc in esum.items()},
        "argmax": {h: max(items, key=lambda item: item[1])[0] for h, items in by_h.items()},
        "aconf": {
            h: _at_least_two([p for _, p in items]) for h, items in by_h.items() if h < limit
        },
    }


def check_repeat(answers: Dict[str, List[Tuple]], reference: Dict[str, object]) -> None:
    """Raise :class:`CheckFailed` unless every statement's rows match the
    reference (exact statements within :data:`EXACT_TOLERANCE`, the
    seeded ``aconf`` within twice its epsilon)."""
    conf = dict(answers["conf"])
    _same_keys("conf", conf, reference["conf"])
    for g, p in reference["conf"].items():
        if not close(conf[g], p):
            raise CheckFailed(f"conf group {g}: {conf[g]!r} != {p!r}")
    tconf = sorted(answers["tconf"])
    expected = reference["tconf"]
    if len(tconf) != len(expected):
        raise CheckFailed(f"tconf: {len(tconf)} rows, expected {len(expected)}")
    for got, want in zip(tconf, expected):
        if got[:3] != want[:3] or not close(got[3], want[3]):
            raise CheckFailed(f"tconf row {got!r} != {want!r}")
    esum = {row[0]: (row[1], row[2]) for row in answers["esum"]}
    _same_keys("esum", esum, reference["esum"])
    for g, (s, n) in reference["esum"].items():
        if not (close(esum[g][0], s, 1e-7) and close(esum[g][1], n)):
            raise CheckFailed(f"esum group {g}: {esum[g]!r} != {(s, n)!r}")
    argmax = dict(answers["argmax"])
    if argmax != reference["argmax"]:
        raise CheckFailed("argmax answers differ from the reference")
    aconf = dict(answers["aconf"])
    _same_keys("aconf", aconf, reference["aconf"])
    for h, p in reference["aconf"].items():
        if abs(aconf[h] - p) > 2 * ACONF_EPSILON * p:
            raise CheckFailed(f"aconf group {h}: {aconf[h]!r} too far from {p!r}")


def _same_keys(what: str, got: Dict, want: Dict) -> None:
    if set(got) != set(want):
        raise CheckFailed(f"{what}: groups {sorted(got)[:5]}... != {sorted(want)[:5]}...")


# ---------------------------------------------------------------------------
# rw-wire: two connections, ~3 writes per read, over a durable server.
# ---------------------------------------------------------------------------

CONNECTIONS = 2
WRITE_SHARE = 0.75
READ_THRESHOLDS = (0.25, 0.5, 0.75)

READ_SQL = (
    "select s.g, conf() as p from s, w where s.k = w.k and w.k >= {lo} "
    "and w.k < {hi} and w.v < {t} group by s.g"
)
WRITE_SQL = "update w set v = {v} where k = {k}"


def wire_data(seed: int, size: str = "full") -> Dict[str, List[Tuple]]:
    """``r(k, g, w)``: the static repair-key source; ``w(k, v)``: the
    written table, one row per key, values in [0, 1)."""
    s = SIZES[size]
    rng = random.Random(seed * 7919 + 2)
    r = [
        (k, rng.randrange(s["wire_groups"]), round(rng.uniform(0.1, 1.0), 4))
        for k in range(s["wire_keys"])
        for _ in range(s["wire_alts"])
    ]
    w = [(k, round(rng.random(), 4)) for k in range(s["wire_keys"])]
    return {"r": r, "w": w}


def wire_partition(connection: int, size: str = "full") -> Tuple[int, int]:
    """Keys ``[lo, hi)`` that one connection writes and reads.  Owning its
    keys makes every read's answer a function of that connection's own
    acknowledged writes, so each read can be checked exactly."""
    per = SIZES[size]["wire_keys"] // CONNECTIONS
    return connection * per, (connection + 1) * per


def wire_ops(seed: int, connection: int, size: str = "full"):
    """Endless seeded stream of ``("read", sql, threshold)`` and
    ``("write", sql, key, value)`` for one connection."""
    rng = random.Random(seed * 7919 + 100 + connection)
    lo, hi = wire_partition(connection, size)
    while True:
        if rng.random() < WRITE_SHARE:
            key, value = rng.randrange(lo, hi), round(rng.random(), 4)
            yield ("write", WRITE_SQL.format(v=value, k=key), key, value)
        else:
            t = rng.choice(READ_THRESHOLDS)
            yield ("read", READ_SQL.format(lo=lo, hi=hi, t=t), t)


def wire_read_reference(
    r: Sequence[Tuple], values: Dict[int, float], lo: int, hi: int, t: float
) -> Dict[int, float]:
    """Per-group confidence of one read, given the current ``w`` values."""
    totals: Dict[int, float] = {}
    for k, _, weight in r:
        totals[k] = totals.get(k, 0.0) + weight
    kept = [row for row in r if lo <= row[0] < hi and values[row[0]] < t]
    mass: Dict[int, Dict[int, float]] = {}
    for k, g, weight in kept:
        per_key = mass.setdefault(g, {})
        per_key[k] = per_key.get(k, 0.0) + weight / totals[k]
    return {g: any_of(list(per_key.values())) for g, per_key in mass.items()}


def check_wire_read(got: Sequence[Tuple], want: Dict[int, float], what: str) -> None:
    answer = {row[0]: row[1] for row in got}
    if len(answer) != len(got):
        raise CheckFailed(f"{what}: duplicate groups in the answer")
    _same_keys(what, answer, want)
    for g, p in want.items():
        if not close(answer[g], p):
            raise CheckFailed(f"{what} group {g}: {answer[g]!r} != {p!r}")


def check_recovered(recovered: Dict[int, float], acknowledged: Dict[int, float]) -> None:
    """Every acknowledged write is present after a crash and reopen."""
    lost = sorted(k for k, v in acknowledged.items() if recovered.get(k) != v)
    if lost or len(recovered) != len(acknowledged):
        raise CheckFailed(
            f"{len(lost)} acknowledged writes missing after SIGKILL and reopen "
            f"(keys {lost[:5]}...)"
        )


def check_identical(got: object, want: object, what: str) -> None:
    """Bit-identical answers (repeats of one statement, pool vs serial)."""
    if got != want:
        raise CheckFailed(f"{what}: answers are not bit-identical")


# ---------------------------------------------------------------------------
# conf-pool: TPC-H-style orders/lineitem plus a repair-key order status.
# ---------------------------------------------------------------------------

#: One shape: the planner shards the scan of ``l``, both hash joins and
#: the grouped ``conf()``.
POOL_SQL = (
    "select o.custkey, conf() as c from o, l, st "
    "where o.orderkey = l.orderkey and st.orderkey = o.orderkey "
    "and st.status = 'F' and l.quantity > 30 group by o.custkey"
)


def status_rows(seed: int, orderkeys: Sequence[int]) -> List[Tuple]:
    """``status_raw(orderkey, status, w)``: three weighted alternatives of
    each order's status, repaired into one."""
    rng = random.Random(seed * 7919 + 3)
    return [
        (key, status, round(rng.uniform(0.1, 1.0), 4))
        for key in orderkeys
        for status in ("O", "F", "P")
    ]


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (q in (0, 100])."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]
