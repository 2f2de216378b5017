"""SQL-level tests of the confidence dispatcher: EXPLAIN strategy
reporting, the facade tuning knobs, aconf argument validation, seeded
Monte-Carlo determinism, and lineage reuse across repeated statements."""

import random
import threading

import pytest

from repro.core import aggregates as agg
from repro.core.confidence.dispatch import ConfidenceDispatcher, DispatchPolicy
from repro.db import MayBMS
from repro.errors import AnalysisError, SqlError
from repro.sql.analyzer import Analyzer
from repro.sql.parser import parse_statement


@pytest.fixture
def db():
    session = MayBMS(seed=7)
    session.execute("create table ft (player text, init text, final text, p float)")
    session.execute(
        "insert into ft values "
        "('Bryant', 'F', 'F', 0.8), ('Bryant', 'F', 'M', 0.2), "
        "('Duncan', 'F', 'F', 0.7), ('Duncan', 'F', 'M', 0.3), "
        "('Nowitzki', 'M', 'M', 0.9), ('Nowitzki', 'M', 'F', 0.1)"
    )
    return session


CONF_QUERY = """
    select player, final, conf() as p
    from (repair key player, init in ft weight by p) r
    group by player, final
"""


def explain_text(db, sql):
    return "\n".join(row[0] for row in db.execute("explain " + sql).relation.rows)


class TestExplainStrategies:
    def test_grouped_conf_reports_strategy(self, db):
        text = explain_text(db, CONF_QUERY)
        assert "confidence fragment 1 [strategy=auto]:" in text
        assert "conf:" in text
        # Single-variable repair-key lineages are exact and cheap; they
        # must not fall back to Monte Carlo.
        assert "monte-carlo" not in text

    def test_aconf_reports_parameters(self, db):
        text = explain_text(
            db,
            CONF_QUERY.replace("conf()", "aconf(0.1, 0.05)"),
        )
        assert "aconf:" in text
        assert "epsilon=0.1" in text
        assert "delta=0.05" in text

    def test_tconf_reports_marginals(self, db):
        text = explain_text(db, "select player, tconf() as p from ft")
        assert "tconf:" in text
        assert "marginal" in text

    def test_forced_strategy_shows_in_explain(self, db):
        db.set_confidence_strategy("exact")
        text = explain_text(db, CONF_QUERY)
        assert "[strategy=exact]:" in text
        assert "exact" in text


class TestFacadeKnobs:
    def test_default_policy_is_auto(self, db):
        assert db.confidence_policy.strategy == "auto"

    def test_set_confidence_strategy(self, db):
        db.set_confidence_strategy("exact", exact_budget=123)
        assert db.confidence_policy.strategy == "exact"
        assert db.confidence_policy.exact_budget == 123
        # Results are unchanged: exact and auto agree on exact lineages.
        rows = dict(
            (row[0] + "/" + row[1], row[2]) for row in db.query(CONF_QUERY)
        )
        db.set_confidence_strategy("auto")
        rows_auto = dict(
            (row[0] + "/" + row[1], row[2]) for row in db.query(CONF_QUERY)
        )
        for key, value in rows.items():
            assert rows_auto[key] == pytest.approx(value)

    def test_budget_kept_unless_given_and_none_means_unbounded(self, db):
        db.set_confidence_strategy("auto", exact_budget=77)
        db.set_confidence_strategy("exact")  # budget untouched
        assert db.confidence_policy.exact_budget == 77
        db.set_confidence_strategy("auto", exact_budget=None)  # never degrade
        assert db.confidence_policy.exact_budget is None

    def test_env_strategy(self, monkeypatch):
        monkeypatch.setenv("REPRO_CONF_STRATEGY", "exact")
        session = MayBMS()
        assert session.confidence_policy.strategy == "exact"

    def test_invalid_strategy_rejected(self, db):
        from repro.errors import ConfidenceError

        with pytest.raises(ConfidenceError):
            db.set_confidence_strategy("nope")


class TestAconfValidation:
    @pytest.mark.parametrize(
        "call",
        [
            "aconf(0.0, 0.05)",
            "aconf(1.0, 0.05)",
            "aconf(0.1, 0)",
            "aconf(0.1, 1.5)",
            "aconf(-0.1, 0.05)",
            "aconf(p, 0.05)",
            "aconf('a', 0.05)",
        ],
    )
    def test_bad_parameters_rejected_at_analysis(self, db, call):
        sql = CONF_QUERY.replace("conf()", call)
        with pytest.raises(AnalysisError):
            db.executor.analyzer.analyze_statement(parse_statement(sql))
        with pytest.raises(SqlError):
            db.execute(sql)

    def test_valid_parameters_accepted(self, db):
        sql = CONF_QUERY.replace("conf()", "aconf(0.25, 0.1)")
        result = db.query(sql)
        assert len(result) > 0

    def test_signed_literal_accepted(self, db):
        # A redundant unary plus is still a literal.
        sql = CONF_QUERY.replace("conf()", "aconf(+0.25, 0.1)")
        assert len(db.query(sql)) > 0


class TestSeededDeterminism:
    def _aconf_rows(self, seed):
        session = MayBMS(seed=seed, confidence_strategy="monte-carlo")
        session.execute("create table t (k integer, v integer, w float)")
        rows = ", ".join(
            f"({i % 4}, {i}, {0.1 + (i % 7) * 0.1:.1f})" for i in range(16)
        )
        session.execute(f"insert into t values {rows}")
        return session.query(
            """
            select k, aconf(0.2, 0.1) as p
            from (repair key v in t weight by w) r
            group by k
            """
        ).rows

    def test_same_seed_reproduces_aconf(self):
        assert self._aconf_rows(123) == self._aconf_rows(123)

    def test_repro_seed_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_SEED", "55")
        assert MayBMS().seed == 55
        monkeypatch.delenv("REPRO_SEED")
        assert MayBMS().seed == 0
        assert MayBMS(seed=9).seed == 9


@pytest.fixture
def calls(monkeypatch):
    """Count lineage builds and dispatcher calls made through the real
    entry points (the names the aggregates look up at call time)."""
    counts = {"builds": 0, "dispatches": 0}
    build = agg.group_lineages
    probability = ConfidenceDispatcher.probability
    approximate = ConfidenceDispatcher.approximate

    def counted_build(*args, **kwargs):
        counts["builds"] += 1
        return build(*args, **kwargs)

    def counted_probability(self, lineage):
        counts["dispatches"] += 1
        return probability(self, lineage)

    def counted_approximate(self, *args, **kwargs):
        counts["dispatches"] += 1
        return approximate(self, *args, **kwargs)

    monkeypatch.setattr(agg, "group_lineages", counted_build)
    monkeypatch.setattr(ConfidenceDispatcher, "probability", counted_probability)
    monkeypatch.setattr(ConfidenceDispatcher, "approximate", counted_approximate)

    def take():
        out = dict(counts)
        counts.update(builds=0, dispatches=0)
        return out

    return take


@pytest.fixture
def joined(db):
    """Stored U-relations whose join has two-atom conditions, so conf()
    builds lineages and dispatches per group (single-atom relations take
    the vectorized closed form and do neither), plus a certain table the
    query filters on."""
    db.execute(
        "create table picks as "
        "select * from (repair key player, init in ft weight by p) r"
    )
    db.execute("create table fit (player text, q float)")
    db.execute(
        "insert into fit values ('Bryant', 0.9), ('Duncan', 0.6), ('Nowitzki', 0.5)"
    )
    db.execute(
        "create table ti as select player from "
        "(pick tuples from fit independently with probability q) f"
    )
    db.execute("create table roster (player text, active integer)")
    db.execute(
        "insert into roster values ('Bryant', 1), ('Duncan', 1), ('Nowitzki', 1)"
    )
    return db


JOIN_CONF = """
    select a.final, conf() as p
    from picks a, ti b, roster c
    where a.player = b.player and c.player = a.player and c.active = 1
    group by a.final
"""


def rows_of(session, sql):
    return sorted(session.execute(sql).relation.rows)


def facade_conf(session, column):
    dispatcher = ConfidenceDispatcher(
        session.registry, DispatchPolicy(strategy="exact")
    )
    return agg.conf(session.urelation("picks"), [column], dispatcher=dispatcher)


class TestLineageCache:
    """Repeated SQL confidence statements reuse their lineage, and every
    change to what determines the answer invalidates it."""

    def test_repeated_conf_hits_cache(self, joined, calls):
        first = rows_of(joined, JOIN_CONF)
        cold = calls()
        assert cold["builds"] >= 1 and cold["dispatches"] >= 1
        assert rows_of(joined, JOIN_CONF) == first
        assert calls() == {"builds": 0, "dispatches": 0}

    def test_distinct_groupings_get_distinct_entries(self, joined, calls):
        by_player = JOIN_CONF.replace("a.final", "a.player")
        finals = rows_of(joined, JOIN_CONF)
        players = rows_of(joined, by_player)
        assert calls()["builds"] == 2
        assert rows_of(joined, JOIN_CONF) == finals
        assert rows_of(joined, by_player) == players
        assert calls() == {"builds": 0, "dispatches": 0}
        assert finals != players

    def test_stored_urelation_snapshot_caches_across_reads(self, joined, calls):
        # The direct facade: an unchanged table hands out the same
        # snapshot, whose derived cache holds lineages and answers.  (A
        # forced strategy, since single-atom relations under auto build
        # no lineages at all.)
        first = facade_conf(joined, "player")
        assert calls()["builds"] == 1
        again = facade_conf(joined, "player")
        assert calls() == {"builds": 0, "dispatches": 0}
        assert sorted(again.rows) == sorted(first.rows)

    def test_mutation_invalidates_via_fresh_snapshot(self, joined, calls):
        before = facade_conf(joined, "final")
        joined.execute("delete from picks where player = 'Bryant'")
        calls()
        after = facade_conf(joined, "final")
        assert calls()["builds"] == 1
        assert sorted(after.rows) != sorted(before.rows)

    def test_update_between_repeats_rebuilds(self, joined, calls):
        before = rows_of(joined, JOIN_CONF)
        joined.execute("update roster set active = 0 where player = 'Bryant'")
        calls()
        after = rows_of(joined, JOIN_CONF)
        assert calls()["builds"] == 1
        assert after != before
        assert rows_of(joined, JOIN_CONF) == after
        assert calls() == {"builds": 0, "dispatches": 0}

    def test_drop_and_recreate_is_not_served_stale(self, joined, calls):
        before = rows_of(joined, JOIN_CONF)
        version = joined.catalog.entry("roster").table.version
        joined.execute("drop table roster")
        joined.execute("create table roster (player text, active integer)")
        # Same name and same version count as before, different rows.
        joined.execute("insert into roster values ('Bryant', 1), ('Duncan', 1)")
        assert joined.catalog.entry("roster").table.version <= version
        calls()
        after = rows_of(joined, JOIN_CONF)
        assert calls()["builds"] == 1
        assert after != before

    def test_rolled_back_write_is_not_served(self, joined):
        before = rows_of(joined, JOIN_CONF)
        joined.begin()
        joined.execute("update roster set active = 0 where player = 'Duncan'")
        inside = rows_of(joined, JOIN_CONF)
        joined.rollback()
        assert inside != before
        assert rows_of(joined, JOIN_CONF) == before

    def test_pinned_reader_keeps_its_version_and_does_not_poison(
        self, joined, calls, monkeypatch
    ):
        before = rows_of(joined, JOIN_CONF)
        joined.execute("update roster set active = 0 where player = 'Bryant'")
        reader = joined.session(read_only=True)
        writer = joined.session()
        # Park the reader inside its statement -- after it pinned its
        # versions, before it looks at the memo -- while the writer
        # commits a change.
        entered, release = threading.Event(), threading.Event()
        analyze = Analyzer.analyze_statement
        parked = {}

        def parking_analyze(self, statement):
            if threading.current_thread().name == "pinned-reader":
                entered.set()
                assert release.wait(10)
            return analyze(self, statement)

        monkeypatch.setattr(Analyzer, "analyze_statement", parking_analyze)

        def read():
            parked["rows"] = rows_of(reader, JOIN_CONF)

        thread = threading.Thread(target=read, name="pinned-reader")
        thread.start()
        assert entered.wait(10)
        writer.execute("update roster set active = 1 where player = 'Bryant'")
        # The committed version is served fresh, then filed.
        assert rows_of(writer, JOIN_CONF) == before
        release.set()
        thread.join(10)
        # The reader answered for the version it pinned ...
        assert parked["rows"] != before
        calls()
        # ... and filing that answer did not displace the newer one.
        assert rows_of(writer, JOIN_CONF) == before
        assert calls() == {"builds": 0, "dispatches": 0}
        reader.close()
        writer.close()

    def test_explicit_transaction_reads(self, joined, calls):
        joined.begin()
        first = rows_of(joined, JOIN_CONF)
        joined.execute("update roster set active = 0 where player = 'Nowitzki'")
        own_write = rows_of(joined, JOIN_CONF)
        joined.commit()
        assert own_write != first
        calls()
        assert rows_of(joined, JOIN_CONF) == own_write
        assert calls() == {"builds": 0, "dispatches": 0}

    def test_inline_repair_key_is_never_stored(self, db):
        for _ in range(2):
            text = explain_text(db, CONF_QUERY)
            assert "memo: bypass (creates variables)" in text
        assert len(db.aggregation_memo) == 0

    def test_sessions_with_other_seed_or_strategy_do_not_share(self, joined, calls):
        aconf = JOIN_CONF.replace("conf()", "aconf(0.1, 0.1)")
        rows_of(joined, JOIN_CONF)
        rows_of(joined, aconf)
        calls()
        exact = joined.session(confidence_strategy="exact")
        rows_of(exact, JOIN_CONF)
        assert calls()["builds"] == 1
        reseeded = joined.session(seed=joined.seed + 1)
        rows_of(reseeded, aconf)
        assert calls()["builds"] == 1
        same = joined.session()
        rows_of(same, JOIN_CONF)
        rows_of(same, aconf)
        assert calls() == {"builds": 0, "dispatches": 0}
        for session in (exact, reseeded, same):
            session.close()


class TestDispatcherSharedAcrossQueries:
    def test_executor_dispatcher_reused(self, db):
        dispatcher = db.executor.dispatcher
        db.query(CONF_QUERY)
        assert db.executor.dispatcher is dispatcher
        assert isinstance(dispatcher, ConfidenceDispatcher)

    def test_conf_equals_forced_exact(self, db):
        auto = {(r[0], r[1]): r[2] for r in db.query(CONF_QUERY)}
        db.set_confidence_strategy("exact")
        exact = {(r[0], r[1]): r[2] for r in db.query(CONF_QUERY)}
        assert set(auto) == set(exact)
        for key in auto:
            assert auto[key] == pytest.approx(exact[key], abs=1e-12)
