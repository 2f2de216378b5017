"""One benchmark process: set up one workload, run its timed window,
check every answer, and write the measurements as JSON.

    python3 sqlbench/bench.py --workload W --seed N --seconds S \
        --mode {setup,run,trace} --out FILE [--size {full,tiny}]

``run.py`` starts this in a fresh interpreter per launch, with the
environment already cleaned (no ``REPRO_*`` variables except the ones it
sets on purpose, ``PYTHONHASHSEED`` derived from the seed).  ``setup``
stops at the first timed operation; ``trace`` installs the span wrappers
of :mod:`tracing` for the timed window.

The module only defines functions at import time: pool workers started
with ``spawn`` import it as their main module.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import select
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from typing import Any, Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import tracing  # noqa: E402
import workloads as wl  # noqa: E402
from workloads import CheckFailed  # noqa: E402

#: Pool counters whose per-operation delta must be the same for every
#: operation (the plan is pinned).  Cache evictions, encode and CPU
#: milliseconds depend on scheduling and are reported, not compared.
PLAN_COUNTERS = (
    "parallel_queries", "parallel_group_shards", "parallel_component_shards",
    "parallel_scan_queries", "parallel_scan_shards", "parallel_join_queries",
    "parallel_join_shards", "parallel_aconf_queries", "parallel_aconf_shards",
    "parallel_expect_queries", "parallel_expect_shards", "parallel_units",
    "parallel_shm_bytes",
)


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def proc_status(pid: int, field: str) -> float:
    """A ``kB`` field of /proc/<pid>/status, in MB (0 if the process is gone)."""
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith(field + ":"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def proc_cpu_ms(pid: int) -> float:
    """User + system CPU of a process, from /proc/<pid>/stat."""
    with open(f"/proc/{pid}/stat") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) * 1000.0 / os.sysconf("SC_CLK_TCK")


def pool_worker_pids() -> List[int]:
    """Children of this process started by multiprocessing's spawn."""
    me, pids = os.getpid(), []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                ppid = int(handle.read().rsplit(")", 1)[1].split()[1])
            if ppid != me:
                continue
            with open(f"/proc/{entry}/cmdline", "rb") as handle:
                if b"spawn_main" in handle.read():
                    pids.append(int(entry))
        except (OSError, ValueError, IndexError):
            continue
    return pids


def engine_digest() -> str:
    """A short hash of the engine's source files."""
    import repro

    digest = hashlib.sha1()
    for root, dirs, names in os.walk(os.path.dirname(repro.__file__)):
        dirs.sort()
        for name in sorted(n for n in names if n.endswith(".py")):
            with open(os.path.join(root, name), "rb") as handle:
                digest.update(handle.read())
    return digest.hexdigest()[:12]


def full_collections() -> int:
    return gc.get_stats()[2]["collections"]


def relation(schema, rows):
    from repro.engine.relation import Relation
    from repro.engine.schema import Schema

    return Relation(Schema.of(*schema), rows)


def open_store(settings: Dict[str, Any], path: str = ""):
    from repro.db import MayBMS

    return MayBMS(
        seed=settings["seed"],
        confidence_strategy=settings["confidence_strategy"],
        path=path,
        checkpoint_every=settings["checkpoint_every"],
        group_commit=settings["group_commit"],
        lock_timeout=settings["lock_timeout"],
        parallel_workers=settings["parallel_workers"],
        parallel_min_rows=settings["parallel_min_rows"],
        mvcc=settings["mvcc"],
    )


def settings_for(workload: str, seed: int) -> Dict[str, Any]:
    """Every engine setting, passed explicitly (never read from the
    environment).  The engine itself is selected by ``REPRO_ENGINE``,
    which run.py sets to the value recorded here."""
    settings = {
        "seed": seed,
        "engine": "batch",
        "confidence_strategy": "auto",
        "checkpoint_every": 256,
        "group_commit": True,
        "lock_timeout": 30.0,
        "mvcc": True,
        "parallel_workers": 0,
        "parallel_min_rows": 2048,
    }
    if workload == "conf-pool":
        # 32 is below the pool's adaptive floor (64), which turns the
        # adaptive gate off: with the default gate the effective row floor
        # moved 19-21 times per run, so plans differed between runs.  Every
        # operator of the statement has far more than 32 rows, so each one
        # is sharded, in every run.
        settings["parallel_workers"] = nproc()
        settings["parallel_min_rows"] = 32
    return settings


# ---------------------------------------------------------------------------
# Workloads.  Each has setup(), op() -> (kind, seconds), finish() and
# close(); counts() returns the public counters read around the window.
# ---------------------------------------------------------------------------


class ConfRepeat:
    """In-process, serial, one caller: one operation is one pass over the
    fixed statement texts of :data:`workloads.REPEAT_STATEMENTS`."""

    def __init__(self, seed: int, size: str, settings: Dict[str, Any]):
        self.seed, self.size, self.settings = seed, size, settings
        self.statements = wl.repeat_statements(size)
        self.first: Optional[Dict[str, list]] = None
        self.db = None

    def setup(self) -> None:
        from repro.engine.types import FLOAT, INTEGER

        data = wl.repeat_data(self.seed, self.size)
        self.reference = wl.repeat_reference(data, self.size)
        self.db = db = open_store(self.settings)
        db.create_table_from_relation(
            "r", relation((("k", INTEGER), ("g", INTEGER), ("v", FLOAT), ("w", FLOAT)), data["r"])
        )
        db.execute("create table u as select k, g, v from (repair key k in r weight by w) x")
        db.create_table_from_relation(
            "t", relation((("id", INTEGER), ("h", INTEGER), ("x", FLOAT), ("p", FLOAT)), data["t"])
        )
        db.execute(
            "create table ti as select id, h, x from "
            "(pick tuples from t independently with probability p) s"
        )
        self.first = self._pass()
        wl.check_repeat(self.first, self.reference)

    def _pass(self) -> Dict[str, list]:
        return {name: self.db.execute(sql).output.rows for name, sql in self.statements}

    def op(self) -> Tuple[str, float]:
        start = time.perf_counter()
        answers = self._pass()
        elapsed = time.perf_counter() - start
        wl.check_identical(answers, self.first, "conf-repeat repeat")
        return "read", elapsed

    def counts(self) -> Dict[str, float]:
        return {}

    def finish(self) -> Dict[str, Any]:
        return {"peak_rss_mb": proc_status(os.getpid(), "VmHWM")}

    def close(self) -> None:
        if self.db is not None:
            self.db.close()


class ConfPool:
    """In-process with a worker pool: one operation is :data:`workloads.POOL_SQL`."""

    def __init__(self, seed: int, size: str, settings: Dict[str, Any], work: str):
        self.seed, self.size, self.settings, self.work = seed, size, settings, work
        self.db = None
        self.plan: Optional[Dict[str, float]] = None

    def _load(self, db) -> None:
        from repro.engine.types import FLOAT, INTEGER, TEXT

        for name, rel in (("orders_raw", self.orders), ("lineitem_raw", self.lineitems)):
            db.create_table_from_relation(name, rel)
        db.create_table_from_relation(
            "status_raw", relation((("orderkey", INTEGER), ("status", TEXT), ("w", FLOAT)), self.status)
        )
        db.execute(
            "create table o as select orderkey, custkey, orderyear from "
            "(pick tuples from orders_raw independently with probability p) x"
        )
        db.execute(
            "create table l as select orderkey, quantity from "
            "(pick tuples from lineitem_raw independently with probability p) x"
        )
        db.execute(
            "create table st as select orderkey, status from "
            "(repair key orderkey in status_raw weight by w) x"
        )

    def setup(self) -> None:
        from repro.datagen.tpch import TpchGenerator
        from repro.engine.types import FLOAT

        gen = TpchGenerator(scale=wl.SIZES[self.size]["tpch_scale"], seed=self.seed)
        tables = []
        for table in (gen.probabilistic_orders(), gen.probabilistic_lineitems()):
            schema = [(c.name, c.type) for c in table.relation.schema] + [("p", FLOAT)]
            rows = [tuple(row) + (p,) for row, p in zip(table.relation.rows, table.probabilities)]
            tables.append(relation(schema, rows))
        self.orders, self.lineitems = tables
        self.status = wl.status_rows(self.seed, [row[0] for row in self.orders.rows])
        self.db = open_store(self.settings)
        self._load(self.db)
        self.db.query(wl.POOL_SQL)  # starts the pool
        before = self.db.parallel_stats()
        self.first = self.db.query(wl.POOL_SQL).rows
        self.plan = self._plan_delta(before, self.db.parallel_stats())

    @staticmethod
    def _plan_delta(before, after) -> Dict[str, float]:
        return {key: after[key] - before[key] for key in PLAN_COUNTERS}

    def op(self) -> Tuple[str, float]:
        before = self.db.parallel_stats()
        start = time.perf_counter()
        rows = self.db.query(wl.POOL_SQL).rows
        elapsed = time.perf_counter() - start
        wl.check_identical(rows, self.first, "conf-pool repeat")
        if self._plan_delta(before, self.db.parallel_stats()) != self.plan:
            raise CheckFailed("conf-pool pool plan changed between operations")
        return "read", elapsed

    def counts(self) -> Dict[str, float]:
        return dict(self.db.parallel_stats())

    def finish(self) -> Dict[str, Any]:
        stats = self.db.parallel_stats()
        if stats["parallel_fallbacks"] or stats["parallel_worker_crashes"]:
            raise CheckFailed(
                f"pool fell back to serial: fallbacks={stats['parallel_fallbacks']} "
                f"crashes={stats['parallel_worker_crashes']}"
            )
        if not self.plan["parallel_queries"] or not self.plan["parallel_join_queries"]:
            raise CheckFailed(f"statement was not sharded: {self.plan}")
        workers = pool_worker_pids()
        if len(workers) != self.settings["parallel_workers"]:
            raise CheckFailed(f"expected {self.settings['parallel_workers']} pool workers, found {len(workers)}")
        peak = proc_status(os.getpid(), "VmHWM") + sum(proc_status(p, "VmHWM") for p in workers)
        self._check_plan_file()
        return {"peak_rss_mb": peak, "pool_plan": self.plan}

    def _check_plan_file(self) -> None:
        """Pool query and shard counts must be equal across runs of one
        seed and one engine source: the first run records them, later
        runs compare."""
        key = f"{self.size}-{self.seed}-{engine_digest()}"
        path = os.path.join(self.work, f"conf-pool-plan-{key}.json")
        if os.path.exists(path):
            with open(path) as handle:
                if json.load(handle) != self.plan:
                    raise CheckFailed("conf-pool plan differs from an earlier run of this seed")
        else:
            with open(path, "w") as handle:
                json.dump(self.plan, handle)

    def check_serial(self) -> None:
        """Answers must be bit-identical to a serial store's."""
        serial = dict(self.settings, parallel_workers=0)
        db = open_store(serial)
        try:
            self._load(db)
            wl.check_identical(db.query(wl.POOL_SQL).rows, self.first, "conf-pool vs serial store")
        finally:
            db.close()

    def close(self) -> None:
        if self.db is not None:
            self.db.close()


class RwWire:
    """A durable server subprocess driven by two connections from this
    process; each connection mixes ~3 auto-commit writes per read."""

    def __init__(self, seed: int, size: str, settings: Dict[str, Any], work: str, trace_file: Optional[str]):
        self.seed, self.size, self.settings = seed, size, settings
        self.store = os.path.join(work, "rw-wire-store")
        self.trace_file = trace_file
        self.server: Optional[subprocess.Popen] = None
        self.clients: list = []
        self.streams = [wl.wire_ops(seed, c, size) for c in range(wl.CONNECTIONS)]
        #: per connection: acknowledged (key, value) writes, in order
        self.acked: List[List[Tuple[int, float]]] = [[] for _ in range(wl.CONNECTIONS)]
        #: per connection: (acked-write count when sent, threshold, rows)
        self.reads: List[List[tuple]] = [[] for _ in range(wl.CONNECTIONS)]

    def _start_server(self) -> int:
        s = self.settings
        command = [sys.executable, os.path.join(HERE, "serve.py")]
        if self.trace_file:
            command += ["--trace-file", self.trace_file]
        command += [
            "--path", self.store, "--port", "0", "--seed", str(s["seed"]),
            "--checkpoint-every", str(s["checkpoint_every"]),
            "--parallel-workers", str(s["parallel_workers"]),
            "--lock-timeout", str(s["lock_timeout"]),
        ]
        if not s["group_commit"]:
            command.append("--no-group-commit")
        # Settings the server takes only from its environment.
        env = dict(
            os.environ,
            REPRO_GROUP_COMMIT="1" if s["group_commit"] else "0",
            REPRO_MVCC="1" if s["mvcc"] else "0",
            REPRO_PARALLEL_MIN_ROWS=str(s["parallel_min_rows"]),
        )
        self.server = subprocess.Popen(command, stdout=subprocess.PIPE, text=True, env=env)
        ready, _, _ = select.select([self.server.stdout], [], [], 60)
        line = self.server.stdout.readline() if ready else ""
        if "listening on" not in line:
            raise RuntimeError(f"server did not start: {line!r}")
        return int(line.split("listening on ")[1].split()[0].rsplit(":", 1)[1])

    def setup(self) -> None:
        from repro.client import Client

        shutil.rmtree(self.store, ignore_errors=True)
        self.data = data = wl.wire_data(self.seed, self.size)
        port = self._start_server()
        self.clients = [Client("127.0.0.1", port, timeout=120) for _ in range(wl.CONNECTIONS)]
        loader = self.clients[0]
        loader.execute("create table r (k integer, g integer, w float)")
        for start in range(0, len(data["r"]), 1000):
            chunk = data["r"][start:start + 1000]
            loader.execute("insert into r values " + ",".join(f"({k}, {g}, {w!r})" for k, g, w in chunk))
        loader.execute("create table s as select k, g from (repair key k in r weight by w) x")
        loader.execute("create table w (k integer, v float)")
        loader.execute("insert into w values " + ",".join(f"({k}, {v!r})" for k, v in data["w"]))
        for connection in range(wl.CONNECTIONS):
            for _ in range(8):
                self._step(connection)

    def _step(self, connection: int) -> Tuple[str, float]:
        op = next(self.streams[connection])
        client = self.clients[connection]
        if op[0] == "write":
            start = time.perf_counter()
            client.execute(op[1])
            elapsed = time.perf_counter() - start
            self.acked[connection].append((op[2], op[3]))
            return "commit", elapsed
        position = len(self.acked[connection])
        start = time.perf_counter()
        rows = client.query(op[1]).rows
        elapsed = time.perf_counter() - start
        self.reads[connection].append((position, op[2], rows))
        return "read", elapsed

    def counts(self) -> Dict[str, float]:
        stats = self.clients[0].server_stats()
        out = dict(stats["durability"])
        out.update(stats["serving"])
        out["server_cpu_ms"] = proc_cpu_ms(self.server.pid)
        return out

    def finish(self) -> Dict[str, Any]:
        peak = proc_status(self.server.pid, "VmHWM")
        self._check_reads()
        if self.trace_file:
            self.server.send_signal(signal.SIGUSR1)
            deadline = time.monotonic() + 60
            while not os.path.exists(self.trace_file) and time.monotonic() < deadline:
                time.sleep(0.05)
        for client in self.clients:
            client.close()
        self.clients = []
        self.server.kill()
        self.server.wait()
        store_bytes_per_row = self._check_recovery()
        return {
            "peak_rss_mb": peak,
                        "store_bytes_per_row": store_bytes_per_row,
        }

    def _check_reads(self) -> None:
        """Every read sees exactly its own connection's acknowledged
        writes (the other connection owns other keys)."""
        r = self.data["r"]
        for connection in range(wl.CONNECTIONS):
            lo, hi = wl.wire_partition(connection, self.size)
            values = dict(self.data["w"])
            applied = 0
            for position, t, rows in self.reads[connection]:
                for key, value in self.acked[connection][applied:position]:
                    values[key] = value
                applied = position
                want = wl.wire_read_reference(r, values, lo, hi, t)
                wl.check_wire_read(rows, want, f"rw-wire read on connection {connection}")

    def _check_recovery(self) -> float:
        """After SIGKILL and a reopen every acknowledged write is present
        and a final read matches the reference.  Then a final CHECKPOINT
        and the store size per live row."""
        db = open_store(self.settings, path=self.store)
        try:
            recovered = {k: v for k, v in db.query("select k, v from w").rows}
            final = dict(self.data["w"])
            for log in self.acked:
                final.update(log)
            wl.check_recovered(recovered, final)
            for connection in range(wl.CONNECTIONS):
                lo, hi = wl.wire_partition(connection, self.size)
                for t in wl.READ_THRESHOLDS:
                    rows = db.query(wl.READ_SQL.format(lo=lo, hi=hi, t=t)).rows
                    want = wl.wire_read_reference(self.data["r"], final, lo, hi, t)
                    wl.check_wire_read(rows, want, "rw-wire read after recovery")
            live = sum(len(db.table(name)) for name in ("r", "s", "w"))
            db.checkpoint()
        finally:
            db.close()
        size = sum(
            os.path.getsize(os.path.join(root, name))
            for root, _, names in os.walk(self.store)
            for name in names
        )
        return size / live

    def close(self) -> None:
        for client in self.clients:
            try:
                client.close()
            except OSError:
                pass
        if self.server is not None and self.server.poll() is None:
            self.server.kill()
            self.server.wait()


# ---------------------------------------------------------------------------
# The timed window.
# ---------------------------------------------------------------------------


#: Seconds :func:`calibration_loop` takes on the reference host.  A host
#: factor of 1.5 means this core ran it 1.5 times slower, just then.
CALIBRATION_REF_S = 0.004


def calibration_loop() -> float:
    """Time a fixed pure-Python workload (dict updates: the interpreter's
    hot path, as in the engine).  This host's cores slow down by up to
    1.7x for seconds at a time; an operation's wall time divided by the
    host factor measured around it depends far less on the phase it ran
    in."""
    start = time.perf_counter()
    table: Dict[int, int] = {}
    for i in range(20000):
        key = i % 977
        table[key] = table.get(key, 0) + i
    return time.perf_counter() - start


#: Seconds between host samples in rw-wire (each takes about 4 ms of the
#: generator's GIL, the same in every run).
SAMPLE_PERIOD_S = 0.1


def nearby_factor(host: List[Tuple[float, float]], began: float, ended: float) -> float:
    """Host factor around ``[began, ended]``: the mean calibration time of
    the samples taken within :data:`SAMPLE_PERIOD_S` of it (the nearest
    sample when none is)."""
    near = [c for t, c in host if began - SAMPLE_PERIOD_S <= t <= ended + SAMPLE_PERIOD_S]
    if not near:
        near = [min(host, key=lambda sample: abs(sample[0] - began))[1]]
    return sum(near) / len(near) / CALIBRATION_REF_S


class Window:
    """One timed window's samples: per-kind wall times, the read host
    factors (in-process workloads), and failed operations."""

    def __init__(self) -> None:
        self.samples: Dict[str, List[float]] = {"read": [], "commit": []}
        self.factors: List[float] = []
        #: process CPU seconds spent inside operations (in-process only)
        self.cpu_s = 0.0
        #: median host factor over the whole window (rw-wire only)
        self.host_factor: Optional[float] = None
        self.failures: List[str] = []
        self.lock = threading.Lock()

    def attempt(self, step, tracer: Optional[tracing.Tracer], op_id: int):
        """Run one operation; a failed or refused one is counted, and a
        failed answer check ends the run."""
        try:
            if tracer is not None:
                return tracer.op(op_id, step)
            return step()
        except CheckFailed:
            raise
        except Exception as exc:
            with self.lock:
                self.failures.append(f"{type(exc).__name__}: {exc}")
            return None


def run_window(workload, seconds: float, tracer: Optional[tracing.Tracer]) -> Tuple[Window, float]:
    """Closed loop until the deadline; returns the samples and the
    window's length.

    In-process workloads run one loop and time :func:`calibration_loop`
    between operations: an operation's host factor is the mean of the
    calibrations just before and just after it.  rw-wire runs one loop
    per connection, each on its own thread, and a third thread times
    :func:`calibration_loop` every :data:`SAMPLE_PERIOD_S`; a read's host
    factor is the mean of the samples taken within
    :data:`SAMPLE_PERIOD_S` of it."""
    window = Window()
    start = time.perf_counter()
    deadline = start + seconds
    if isinstance(workload, RwWire):
        errors: List[BaseException] = []
        reads: List[Tuple[float, float]] = []
        host: List[Tuple[float, float]] = []
        stop = threading.Event()

        def connection_loop(connection: int) -> None:
            op_id = 0
            try:
                while time.perf_counter() < deadline:
                    op_id += 1
                    began = time.perf_counter()
                    done = window.attempt(lambda: workload._step(connection), tracer, op_id)
                    if done is not None:
                        with window.lock:
                            window.samples[done[0]].append(done[1])
                            if done[0] == "read":
                                reads.append((began, began + done[1]))
            except BaseException as exc:
                errors.append(exc)

        def sample_host() -> None:
            while not stop.wait(SAMPLE_PERIOD_S):
                host.append((time.perf_counter(), calibration_loop()))

        sampler = threading.Thread(target=sample_host)
        sampler.start()
        threads = [
            threading.Thread(target=connection_loop, args=(c,)) for c in range(wl.CONNECTIONS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        stop.set()
        sampler.join()
        if errors:
            raise errors[0]
        window.factors = [nearby_factor(host, began, ended) for began, ended in reads]
        window.host_factor = statistics.median(c for _, c in host) / CALIBRATION_REF_S
        return window, time.perf_counter() - start
    before = calibration_loop()
    op_id = 0
    while time.perf_counter() < deadline:
        op_id += 1
        cpu = time.process_time()
        done = window.attempt(workload.op, tracer, op_id)
        window.cpu_s += time.process_time() - cpu
        after = calibration_loop()
        if done is not None:
            window.samples["read"].append(done[1])
            window.factors.append((before + after) / 2.0 / CALIBRATION_REF_S)
        before = after
    return window, time.perf_counter() - start


def fingerprint(settings: Dict[str, Any]) -> Dict[str, Any]:
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "settings": settings,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("conf-repeat", "rw-wire", "conf-pool"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "run", "trace"), default="run")
    parser.add_argument("--size", choices=sorted(wl.SIZES), default="full")
    parser.add_argument("--work", required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    # Set-up is timed in reference-host seconds too: the host factor is
    # the mean of a calibration now and one just before the first
    # operation.
    setup_calibration = calibration_loop()
    os.makedirs(args.work, exist_ok=True)
    settings = settings_for(args.workload, args.seed)
    trace_file = None
    if args.mode == "trace":
        trace_file = os.path.join(args.work, f"trace-{args.workload}-{args.seed}")
        for stale in (trace_file + ".server", trace_file + ".client"):
            if os.path.exists(stale):
                os.remove(stale)
    if args.workload == "conf-repeat":
        workload = ConfRepeat(args.seed, args.size, settings)
    elif args.workload == "conf-pool":
        workload = ConfPool(args.seed, args.size, settings, args.work)
    else:
        workload = RwWire(
            args.seed, args.size, settings, args.work,
            trace_file + ".server" if trace_file else None,
        )
    result: Dict[str, Any] = {"workload": args.workload, "seed": args.seed, "mode": args.mode}
    try:
        workload.setup()
        tracer = None
        if args.mode == "trace" and not isinstance(workload, RwWire):
            tracer = tracing.Tracer()
            tracer.install(tracing.ENGINE_POINTS)
        gc.collect()
        setup_calibration += calibration_loop()
        result["setup_host_factor"] = setup_calibration / 2.0 / CALIBRATION_REF_S
        result["first_op_at"] = time.monotonic()
        if args.mode == "setup":
            result["correct"] = True
            return _write(args.out, result)
        counts_before = workload.counts()
        gc_before = full_collections()
        window_start = time.perf_counter()
        window, elapsed = run_window(workload, args.seconds, tracer)
        window_end = time.perf_counter()
        gc_full = full_collections() - gc_before
        counts_after = workload.counts()
        if tracer is not None:
            tracer.uninstall()
        extra = workload.finish()
        if isinstance(workload, ConfPool):
            workload.check_serial()
        result.update(
            window_s=elapsed,
            window=[window_start, window_end],
            reads_ms=[x * 1000.0 for x in window.samples["read"]],
            commits_ms=[x * 1000.0 for x in window.samples["commit"]],
            reads_host_factor=window.factors,
            window_host_factor=window.host_factor,
            failed=len(window.failures),
            failures=window.failures[:10],
            counts_before=counts_before,
            counts_after=counts_after,
            op_cpu_ms=window.cpu_s * 1000.0,
            gc_full=gc_full,
            fingerprint=fingerprint(settings),
            **extra,
        )
        if tracer is not None:
            tracer.write(trace_file + ".client")
            result["trace_client"] = trace_file + ".client"
        elif trace_file is not None:
            result["trace_server"] = trace_file + ".server"
        result["correct"] = True
    except CheckFailed as exc:
        result["correct"] = False
        result["error"] = str(exc)
    finally:
        workload.close()
    return _write(args.out, result)


def _write(path: str, result: Dict[str, Any]) -> int:
    with open(path + ".tmp", "w") as handle:
        json.dump(result, handle)
    os.replace(path + ".tmp", path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
