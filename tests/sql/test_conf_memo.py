"""The store's memo of prepared aggregation inputs (repro.sql.memo) and the
single-atom closed-form kernel (repro.core.confidence.vectorized):
EXPLAIN reporting, the entry bound, concurrent readers against a writer,
kernel answers against the scalar dispatcher, and pool/serial identity."""

import sys
import threading

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import aggregates as agg
from repro.core.conditions import Condition, TRUE_CONDITION
from repro.core.confidence import vectorized
from repro.core.confidence.dispatch import ConfidenceDispatcher
from repro.core.lineage import group_lineages
from repro.core.urelation import URelation
from repro.core.variables import VariableRegistry
from repro.db import MayBMS
from repro.engine.schema import Column, Schema
from repro.engine.types import INTEGER
from repro.sql.memo import MAX_ENTRIES, AggregationMemo

CONF = "select g, conf() as p from u group by g"


def build(**kwargs):
    """400 rows of 100 repair keys (4 weighted alternatives each, pairs of
    alternatives sharing a group) in 25 groups, plus a certain table."""
    db = MayBMS(seed=3, **kwargs)
    db.execute("create table r (k integer, g integer, w float)")
    rows = ", ".join(
        f"({i // 4}, {(i // 2 * 7) % 25}, {0.1 + (i % 5) * 0.2:.1f})" for i in range(400)
    )
    db.execute(f"insert into r values {rows}")
    db.execute("create table u as select k, g from (repair key k in r weight by w) x")
    db.execute("create table flags (g integer, on_ integer)")
    db.execute(
        "insert into flags values " + ", ".join(f"({g}, 1)" for g in range(25))
    )
    return db


def explain(db, sql):
    return [row[0] for row in db.execute("explain " + sql).relation.rows]


class TestExplain:
    def test_miss_then_hit_with_vectorized_groups(self):
        db = build()
        first = explain(db, CONF)
        assert "memo: miss" in first
        assert "  closed-form (vectorized): 25 groups" in first
        second = explain(db, CONF)
        assert "memo: hit" in second
        # A hit runs no relational plan fragment at all.
        assert not any(line.startswith("fragment ") for line in second)

    def test_write_turns_the_next_run_into_a_miss(self):
        db = build()
        db.query(CONF)
        db.execute("delete from u where k = 0")
        assert "memo: miss" in explain(db, CONF)

    def test_monte_carlo_is_bypassed(self):
        db = build(confidence_strategy="monte-carlo")
        small = "select g, conf() as p from u where k < 2 group by g"
        for _ in range(2):
            assert "memo: bypass (monte-carlo)" in explain(db, small)
        assert len(db.aggregation_memo) == 0

    def test_statement_without_uncertain_aggregate(self):
        db = build()
        assert "memo: bypass (no uncertain aggregate)" in explain(
            db, "select g from flags"
        )

    def test_pooled_plan_is_bypassed(self):
        with build(parallel_workers=1, parallel_min_rows=1) as db:
            for _ in range(2):
                assert "memo: bypass (parallel plan)" in explain(db, CONF)
            assert db.parallel_stats()["parallel_queries"] == 2
            assert len(db.aggregation_memo) == 0


class TestBound:
    def test_entries_never_exceed_the_bound(self):
        db = build()
        for g in range(MAX_ENTRIES + 8):
            db.query(f"select g, conf() as p from u where g <> {g} group by g")
        assert len(db.aggregation_memo) == MAX_ENTRIES

    def test_one_entry_per_statement(self):
        db = build()
        for on in (1, 0, 1):
            db.execute(f"update flags set on_ = {on} where g = 3")
            db.query(
                "select u.g, conf() as p from u, flags f "
                "where u.g = f.g and f.on_ = 1 group by u.g"
            )
        assert len(db.aggregation_memo) == 1

    def test_literals_of_different_types_are_different_statements(self):
        db = build()
        sql = "select g + {one} as h, conf() as p from u group by g + {one}"
        as_int = db.query(sql.format(one="1")).rows
        as_float = db.query(sql.format(one="1.0")).rows
        assert all(isinstance(row[0], int) for row in as_int)
        assert all(isinstance(row[0], float) for row in as_float)
        assert len(db.aggregation_memo) == 2

    def test_older_versions_do_not_replace_newer(self):
        memo = AggregationMemo()
        newer = (("t", 1, 5), 0)
        memo.put("q", newer, "v5")
        memo.put("q", (("t", 1, 4), 0), "v4")
        assert memo.get("q", newer) == "v5"
        # A re-created table (other uid) is not "older": it replaces.
        memo.put("q", (("t", 2, 0), 0), "other")
        assert memo.get("q", newer) is None


class TestConcurrentReaders:
    def test_readers_see_a_committed_version_while_a_writer_toggles(self):
        db = build()
        sql = (
            "select u.g, conf() as p from u, flags f "
            "where u.g = f.g and f.on_ = 1 group by u.g"
        )
        on = sorted(db.query(sql).rows)
        db.execute("update flags set on_ = 0 where g < 10")
        off = sorted(db.query(sql).rows)
        db.execute("update flags set on_ = 1 where g < 10")
        assert on != off
        errors = []

        def read(session):
            try:
                for _ in range(15):
                    rows = sorted(session.query(sql).rows)
                    if rows not in (on, off):
                        errors.append(rows)
            except Exception as exc:  # surfaced below
                errors.append(exc)
            finally:
                session.close()

        readers = [
            threading.Thread(target=read, args=(db.session(read_only=True),))
            for _ in range(3)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in readers:
                thread.start()
            writer = db.session()
            for flag in (0, 1, 0, 1):
                writer.execute(f"update flags set on_ = {flag} where g < 10")
            writer.close()
            for thread in readers:
                thread.join(60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in readers)
        assert not errors
        assert sorted(db.query(sql).rows) == on
        assert len(db.aggregation_memo) == 1


# ---------------------------------------------------------------------------
# The single-atom kernel against the scalar dispatcher.
# ---------------------------------------------------------------------------


@st.composite
def single_atom_relations(draw):
    """``(distributions, rows)``: variables with some zero-weight values,
    and rows ``(group key or NULL, atom or None for a certain row)`` with
    repeated atoms."""
    distributions = []
    for _ in range(draw(st.integers(1, 6))):
        weights = draw(
            st.lists(st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.5]), min_size=1, max_size=4)
        )
        if sum(weights) == 0:
            weights[0] = 1.0
        total = sum(weights)
        distributions.append([w / total for w in weights])
    atoms = st.integers(0, len(distributions) - 1).flatmap(
        lambda var: st.tuples(st.just(var), st.integers(0, len(distributions[var]) - 1))
    )
    if draw(st.booleans()):
        atoms = st.one_of(atoms, st.none())
    rows = draw(
        st.lists(
            st.tuples(st.one_of(st.none(), st.integers(0, 3)), atoms),
            min_size=0,
            max_size=120,
        )
    )
    return distributions, rows


def make_urelation(distributions, rows):
    registry = VariableRegistry()
    variables = [registry.fresh(d) for d in distributions]
    conditions = [
        TRUE_CONDITION if atom is None else Condition.of([(variables[atom[0]], atom[1])])
        for _, atom in rows
    ]
    return URelation.from_conditions(
        Schema([Column("g", INTEGER)]),
        [(g,) for g, _ in rows],
        conditions,
        registry,
        cond_arity=1,
    )


def scalar_answers(urel, columns):
    groups, order = agg._group_rows(urel, columns)[1:]
    lineages = group_lineages(urel, [groups[key][1] for key in order])
    dispatcher = ConfidenceDispatcher(urel.registry)
    return {
        groups[key][0]: dispatcher.probability(lineage).probability
        for key, lineage in zip(order, lineages)
    }


class TestSingleAtomKernel:
    @given(single_atom_relations())
    @settings(max_examples=150, deadline=None)
    def test_matches_the_scalar_dispatcher(self, relation):
        distributions, rows = relation
        for columns in (["g"], []):
            urel = make_urelation(distributions, rows)
            got = {
                row[:-1]: row[-1] for row in agg.conf(urel, columns).rows
            }
            expected = scalar_answers(make_urelation(distributions, rows), columns)
            if not columns and not rows:
                expected = {(): 0.0}
            assert set(got) == set(expected)
            for key, p in expected.items():
                assert got[key] == pytest.approx(p, abs=1e-12), (key, rows)

    @given(single_atom_relations())
    @settings(max_examples=100, deadline=None)
    def test_numpy_and_loop_paths_are_bit_identical(self, relation):
        if not vectorized.HAVE_NUMPY:
            pytest.skip("numpy unavailable")
        distributions, rows = relation
        urel = make_urelation(distributions, rows)
        groups, order = agg._group_rows(urel, ["g"])[1:]
        row_groups = [groups[key][1] for key in order]
        columns = urel.relation.columns()
        args = (columns[1], columns[2], urel.condition_probabilities(), row_groups)
        loop = vectorized._loop_confidences(*args)
        if row_groups:
            assert vectorized._numpy_confidences(*args, len(rows)) == loop

    @pytest.mark.parametrize("workers", [1, 2])
    def test_pool_answers_are_bit_identical_to_serial(self, workers):
        serial = build()
        expected = {sql: serial.query(sql).rows for sql in (CONF, "select conf() as p from u")}
        with build(parallel_workers=workers, parallel_min_rows=1) as pooled:
            for sql, rows in expected.items():
                assert pooled.query(sql).rows == rows
            # Two alternatives of a key share a group, which the per-group
            # dispatcher would answer by sprout: the workers ran the kernel.
            assert "  conf: 25 group(s) via closed-form x25 (parallel: " in "\n".join(
                explain(pooled, CONF)
            )
            stats = pooled.parallel_stats()
        assert stats["parallel_queries"] >= 1
        assert stats["parallel_group_shards"] >= 2
