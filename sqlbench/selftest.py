"""Self-tests of the benchmark itself (not of the engine).

    python3 sqlbench/selftest.py            # everything, ~1 minute
    python3 sqlbench/selftest.py -k Oracle  # one group

- a tiny-size smoke run of each workload, untraced and traced;
- each oracle rejects a perturbed answer;
- self-time arithmetic on a synthetic span tree;
- metric names, units and BENCHMARK.json agree.

The file is not named ``test_*.py`` on purpose: the repository's test
suite must not start benchmark processes.
"""

from __future__ import annotations

import json
import math
import os
import re
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import metrics  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402
from workloads import CheckFailed  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def nudge(x: float) -> float:
    """The next float above ``x``: the smallest possible perturbation."""
    return math.nextafter(x, math.inf)


class Smoke(unittest.TestCase):
    def run_bench(self, workload: str, trace: int) -> dict:
        out = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
             "--seed", "5", "--seconds", "2", "--trace", str(trace), "--size", "tiny"],
            cwd=ROOT, capture_output=True, text=True, timeout=170,
        )
        self.assertEqual(out.returncode, 0, out.stderr[-3000:])
        return json.loads(out.stdout.strip().splitlines()[-1])

    def check(self, workload: str) -> None:
        result = self.run_bench(workload, 0)
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(set(result["metrics"]), {m[0] for m in metrics.END_TO_END})
        for value in result["metrics"].values():
            self.assertGreater(value["value"], 0)
        traced = self.run_bench(workload, 1)
        self.assertTrue(traced["correct"])
        self.assertEqual(set(traced["metrics"]), {m[0] for m in metrics.PER_LAYER})
        self.assertGreater(traced["metrics"]["trace.covered_ratio"]["value"], 0.5)

    def test_conf_repeat(self):
        self.check("conf-repeat")

    def test_rw_wire(self):
        self.check("rw-wire")

    def test_conf_pool(self):
        self.check("conf-pool")

    def test_refuses_without_engine(self):
        """Run where only the benchmark's own files exist: non-zero exit,
        no result line."""
        import shutil
        import tempfile

        work = os.path.join(ROOT, ".sqlbench-work")
        os.makedirs(work, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=work) as bare:
            shutil.copytree(HERE, os.path.join(bare, "sqlbench"))
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            out = subprocess.run(
                [sys.executable, "sqlbench/run.py", "--workload", "conf-repeat",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=60,
            )
        self.assertNotEqual(out.returncode, 0)
        self.assertNotIn('"correct"', out.stdout)


class Oracle(unittest.TestCase):
    def repeat_answers(self, reference):
        """Engine-shaped answers built from the reference itself."""
        return {
            "conf": [(g, p) for g, p in reference["conf"].items()],
            "tconf": [tuple(row) for row in reference["tconf"]],
            "esum": [(g, s, n) for g, (s, n) in reference["esum"].items()],
            "argmax": [(h, i) for h, i in reference["argmax"].items()],
            "aconf": [(h, p) for h, p in reference["aconf"].items()],
        }

    def test_conf_repeat_rejects_perturbed_answers(self):
        reference = wl.repeat_reference(wl.repeat_data(3, "tiny"), "tiny")
        wl.check_repeat(self.repeat_answers(reference), reference)
        perturbations = {
            "conf": lambda rows: [(rows[0][0], rows[0][1] + 1e-6)] + rows[1:],
            "tconf": lambda rows: [rows[0][:3] + (rows[0][3] + 1e-6,)] + rows[1:],
            "esum": lambda rows: [(rows[0][0], rows[0][1], rows[0][2] + 1e-6)] + rows[1:],
            "argmax": lambda rows: [(rows[0][0], rows[0][1] + 1)] + rows[1:],
            "aconf": lambda rows: [(rows[0][0], rows[0][1] * 1.3)] + rows[1:],
        }
        for name, perturb in perturbations.items():
            answers = self.repeat_answers(reference)
            answers[name] = perturb(answers[name])
            with self.assertRaises(CheckFailed, msg=name):
                wl.check_repeat(answers, reference)
        answers = self.repeat_answers(reference)
        answers["conf"] = answers["conf"][1:]
        with self.assertRaises(CheckFailed):
            wl.check_repeat(answers, reference)

    def test_wire_read_rejects_perturbed_answer(self):
        data = wl.wire_data(4, "tiny")
        values = dict(data["w"])
        lo, hi = wl.wire_partition(1, "tiny")
        want = wl.wire_read_reference(data["r"], values, lo, hi, 0.75)
        rows = sorted(want.items())
        wl.check_wire_read(rows, want, "read")
        with self.assertRaises(CheckFailed):
            wl.check_wire_read([(rows[0][0], rows[0][1] + 1e-6)] + rows[1:], want, "read")
        with self.assertRaises(CheckFailed):
            wl.check_wire_read(rows[1:], want, "read")

    def test_wire_reference_follows_writes(self):
        data = wl.wire_data(4, "tiny")
        values = dict(data["w"])
        lo, hi = wl.wire_partition(0, "tiny")
        before = wl.wire_read_reference(data["r"], values, lo, hi, 0.5)
        key = next(k for k in range(lo, hi) if values[k] < 0.5)
        values[key] = 0.9
        self.assertNotEqual(before, wl.wire_read_reference(data["r"], values, lo, hi, 0.5))

    def test_recovery_rejects_a_lost_write(self):
        acknowledged = {1: 0.5, 2: 0.25}
        wl.check_recovered(dict(acknowledged), acknowledged)
        with self.assertRaises(CheckFailed):
            wl.check_recovered({1: 0.5, 2: 0.2}, acknowledged)
        with self.assertRaises(CheckFailed):
            wl.check_recovered({1: 0.5}, acknowledged)

    def test_identical_rejects_one_ulp(self):
        rows = [(1, 0.25), (2, 0.5)]
        wl.check_identical(list(rows), rows, "pool")
        with self.assertRaises(CheckFailed):
            wl.check_identical([(1, nudge(0.25)), (2, 0.5)], rows, "pool")

    def test_closed_forms(self):
        self.assertAlmostEqual(wl.any_of([0.5, 0.5]), 0.75)
        self.assertAlmostEqual(wl._at_least_two([0.5, 0.5, 0.5]), 0.5)
        rows = [("k1", "a", 1.0), ("k1", "b", 3.0), ("k2", "a", 1.0)]
        groups = wl.repair_key_groups(rows, key=0, group=1, weight=2)
        self.assertAlmostEqual(groups["a"], 1 - (1 - 0.25) * (1 - 1.0))
        self.assertAlmostEqual(groups["b"], 0.75)


class SelfTime(unittest.TestCase):
    #: op [0, 10] with children a [1, 4] and c [5, 9]; a has child b
    #: [2, 3]; d [8, 10] overlaps c (another thread's call).
    SPANS = [
        (1, 0, 1, "op", 0.0, 10.0, None),
        (2, 1, 1, "a", 1.0, 4.0, None),
        (3, 2, 1, "b", 2.0, 3.0, {"rows": 5}),
        (4, 1, 1, "c", 5.0, 9.0, None),
        (5, 1, 1, "d", 8.0, 10.0, {"rows": 2}),
        (6, 0, 2, "op", 20.0, 21.0, None),
        (7, 6, 2, "b", 20.0, 20.5, {"rows": 1}),
    ]

    def test_self_times(self):
        selfs = tracing.self_times(self.SPANS)
        self.assertEqual(selfs[1], 10 - (3 + 5))  # union of [1,4], [5,10]
        self.assertEqual(selfs[2], 2.0)
        self.assertEqual(selfs[3], 1.0)
        self.assertEqual(selfs[4], 4.0)
        self.assertEqual(selfs[6], 0.5)

    def test_breakdown(self):
        b = tracing.layer_breakdown(self.SPANS)
        self.assertEqual(b["ops"], 2)
        self.assertEqual(b["op_wall_s"], 11.0)
        self.assertEqual(b["op_covered_s"], 8.5)
        self.assertEqual(b["layers"]["b"]["self_s"], 1.5)
        self.assertEqual(b["layers"]["b"]["calls"], 2)
        self.assertEqual(b["layers"]["b"]["rows"], 6)
        windowed = tracing.layer_breakdown(self.SPANS, (15.0, 30.0))
        self.assertEqual(windowed["ops"], 1)
        self.assertNotIn("a", windowed["layers"])

    def test_covered(self):
        self.assertEqual(tracing.covered([(0, 2), (1, 3), (5, 6)], 0, 10), 4)
        self.assertEqual(tracing.covered([(0, 20)], 5, 10), 5)
        self.assertEqual(tracing.covered([], 0, 1), 0)

    def test_tracer_records_nesting(self):
        tracer = tracing.Tracer()
        inner = tracer.wrap("inner", lambda: 7)
        outer = tracer.wrap("outer", lambda: inner() + 1)
        self.assertEqual(tracer.op(3, outer), 8)
        by_name = {s[3]: s for s in tracer.spans}
        self.assertEqual(by_name["inner"][1], by_name["outer"][0])
        self.assertEqual(by_name["outer"][1], by_name["op"][0])
        self.assertEqual({s[2] for s in tracer.spans}, {3})


class Names(unittest.TestCase):
    def test_metric_names(self):
        names = [m[0] for m in metrics.END_TO_END + metrics.REPORTED + metrics.PER_LAYER]
        self.assertEqual(len(names), len(set(names)))
        for name in names:
            self.assertRegex(name, NAME)

    def test_benchmark_json_matches(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
            spec = json.load(handle)
        self.assertEqual(
            [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]],
            list(metrics.END_TO_END),
        )
        self.assertEqual(
            [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]],
            list(metrics.PER_LAYER),
        )
        setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
        self.assertEqual(setup["bound"], max(m["bound"] for m in spec["end_to_end"]))


if __name__ == "__main__":
    unittest.main()
