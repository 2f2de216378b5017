"""Metric definitions and their arithmetic, from one benchmark process's
result (see bench.py) and, for the traced run, its spans.

Standard library only: run.py and the self-tests import it without the
engine.
"""

from __future__ import annotations

import statistics
from typing import Dict, List, Sequence, Tuple

import tracing
from workloads import percentile

#: (name, unit, better) of the gated end-to-end metrics, reported on every
#: workload (these are the ``end_to_end`` entries of BENCHMARK.json).
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("ops_per_s", "1/s", "higher"),
    ("read_p50_ms", "ms", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

#: End-to-end metrics printed where the workload has them, but not gated:
#: each exists on one workload only or needs more samples than every run
#: has, and BENCHMARK.json gates only metrics every workload reports.
REPORTED = (
    ("read_p95_ms", "ms", "lower"),
    ("commit_p50_ms", "ms", "lower"),
    ("commit_p99_ms", "ms", "lower"),
    ("store_bytes_per_row", "B", "lower"),
    ("failed_ratio", "ratio", "lower"),
    ("setup_wall_s", "s", "lower"),
    ("read_p50_wall_ms", "ms", "lower"),
    ("host_factor", "ratio", "lower"),
)

#: (name, unit, better) of the per-layer metrics of the traced run.
#: Values are per operation unless the unit says ``count/run``.
PER_LAYER = (
    ("sql.parse_us", "us", "lower"),
    ("sql.analyze_us", "us", "lower"),
    ("sql.exec_self_ms", "ms", "lower"),
    ("planner.run_ms", "ms", "lower"),
    ("planner.fragments", "count", "lower"),
    ("planner.rows_out", "count", "lower"),
    ("lineage.build_ms", "ms", "lower"),
    ("lineage.builds", "count", "lower"),
    ("lineage.clauses", "count", "lower"),
    ("dispatch.ms", "ms", "lower"),
    ("dispatch.components", "count", "lower"),
    ("dispatch.strategy.closed-form", "count", "lower"),
    ("dispatch.strategy.sprout", "count", "lower"),
    ("dispatch.strategy.exact", "count", "lower"),
    ("dispatch.strategy.monte-carlo", "count", "lower"),
    ("parallel.call_ms", "ms", "lower"),
    ("parallel.encode_ms", "ms", "lower"),
    ("parallel.worker_cpu_ms", "ms", "lower"),
    ("parallel.shm_kb", "KiB", "lower"),
    ("parallel.shards", "count", "lower"),
    ("parallel.busy_ratio", "ratio", "higher"),
    ("parallel.cache_evictions", "count", "lower"),
    ("parallel.fallbacks", "count/run", "lower"),
    ("parallel.gate_adaptations", "count/run", "lower"),
    ("storage.capture_us", "us", "lower"),
    ("transactions.lock_wait_ms", "ms", "lower"),
    ("durability.append_ms", "ms", "lower"),
    ("durability.fsyncs_per_commit", "ratio", "lower"),
    ("durability.wal_bytes_per_commit", "B", "lower"),
    ("durability.checkpoints", "count/run", "lower"),
    ("durability.checkpoint_ms", "ms", "lower"),
    ("durability.checkpoint_kb", "KiB", "lower"),
    ("durability.segments_reused_ratio", "ratio", "higher"),
    ("protocol.encode_us", "us", "lower"),
    ("protocol.send_us", "us", "lower"),
    ("protocol.recv_us", "us", "lower"),
    ("protocol.reply_kb", "KiB", "lower"),
    ("client.overhead_ms", "ms", "lower"),
    ("proc.cpu_ms_per_op", "ms", "lower"),
    ("proc.gc_full_per_100_ops", "count", "lower"),
    ("trace.covered_ratio", "ratio", "higher"),
    ("trace.unaccounted_ms", "ms", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
)

UNITS = {name: (unit, better) for name, unit, better in END_TO_END + REPORTED + PER_LAYER}

#: Minimum samples for a percentile: ten beyond it.
MIN_SAMPLES = {"read_p95_ms": 200, "commit_p99_ms": 1000}


def operations(result: Dict) -> int:
    return len(result["reads_ms"]) + len(result["commits_ms"])


def host_normalised_reads(result: Dict) -> List[float]:
    """Read wall times divided by the host factor measured around each."""
    return [ms / factor for ms, factor in zip(result["reads_ms"], result["reads_host_factor"])]


def end_to_end(
    result: Dict, setups: Sequence[float], setup_walls: Sequence[float]
) -> Tuple[Dict[str, float], Dict[str, float], Dict[str, int]]:
    """Gated metrics, reported-only metrics, and sample counts.

    Times are in reference-host units (see ``bench.calibration_loop``):
    ``setup_s`` is the median of the launches' host-normalised set-up
    times and ``read_p50_ms`` the median of the host-normalised read
    times.  In-process, ``ops_per_s`` counts operations per normalised
    busy second; for rw-wire, whose two connections overlap, operations
    per wall second times the window's median host factor.  Commit times
    are reported as wall times."""
    raw_reads, commits = result["reads_ms"], result["commits_ms"]
    reads = host_normalised_reads(result)
    ops = operations(result)
    if result.get("window_host_factor"):
        ops_per_s = ops / result["window_s"] * result["window_host_factor"]
    else:
        ops_per_s = ops / (sum(reads) / 1000.0)
    gated = {
        "setup_s": statistics.median(setups),
        "ops_per_s": ops_per_s,
        "read_p50_ms": statistics.median(reads),
        "peak_rss_mb": result["peak_rss_mb"],
    }
    reported: Dict[str, float] = {"failed_ratio": result["failed"] / (ops + result["failed"])}
    reported["setup_wall_s"] = statistics.median(setup_walls)
    reported["read_p50_wall_ms"] = statistics.median(raw_reads)
    reported["host_factor"] = statistics.median(result["reads_host_factor"])
    if len(reads) >= MIN_SAMPLES["read_p95_ms"]:
        reported["read_p95_ms"] = percentile(reads, 95)
    if commits:
        reported["commit_p50_ms"] = statistics.median(commits)
        if len(commits) >= MIN_SAMPLES["commit_p99_ms"]:
            reported["commit_p99_ms"] = percentile(commits, 99)
    if "store_bytes_per_row" in result:
        reported["store_bytes_per_row"] = result["store_bytes_per_row"]
    samples = {
        "setup_launches": len(setups),
        "reads": len(reads),
        "commits": len(commits),
        "operations": ops,
    }
    return gated, reported, samples


def _delta(result: Dict, key: str) -> float:
    after = result["counts_after"].get(key)
    before = result["counts_before"].get(key)
    if not isinstance(after, (int, float)) or not isinstance(before, (int, float)):
        return 0.0
    return float(after) - float(before)


def proc_cpu_ms(result: Dict) -> float:
    """CPU of the serving processes over the window: the server for
    rw-wire, else the benchmark process inside operations plus the pool
    workers."""
    if "server_cpu_ms" in result["counts_after"]:
        return _delta(result, "server_cpu_ms")
    return result["op_cpu_ms"] + _delta(result, "parallel_worker_cpu_ms")


def per_layer(untraced: Dict, traced: Dict, spans: Sequence[tracing.Span]) -> Dict[str, float]:
    """Every :data:`PER_LAYER` metric.  Times come from the traced run's
    spans inside its window; counts from the public stats read around the
    window; ``proc.*`` from the untraced run."""
    breakdown = tracing.layer_breakdown(spans, tuple(traced["window"]))
    layers = breakdown["layers"]
    ops = max(1, operations(traced))

    def get(name: str, key: str) -> float:
        return float(layers.get(name, {}).get(key, 0.0))

    def self_per_op(name: str, scale: float) -> float:
        return get(name, "self_s") * scale / ops

    conf_calls = get("count.conf", "calls")
    strategies = {s: get("dispatch", s) for s in ("closed-form", "sprout", "exact", "monte-carlo")}
    worker_cpu = _delta(traced, "parallel_worker_cpu_ms")
    call_wall_ms = get("parallel.call", "wall_s") * 1000.0
    workers = traced["counts_after"].get("parallel_workers", 0) or 0
    commits = _delta(traced, "commit_count")
    committed = get("durability.checkpoint", "committed")
    reused = get("durability.checkpoint", "segments_reused")
    written = get("durability.checkpoint", "segments_written")
    client_ms = sum(traced["reads_ms"]) + sum(traced["commits_ms"])
    if "server_cpu_ms" in traced["counts_after"]:
        # rw-wire: the op spans are the server's request handling; the
        # client's latency is the denominator for coverage.
        server_ms = (get("op", "wall_s") + sum(get(f"protocol.{p}", "wall_s") for p in ("recv", "send"))) * 1000.0
        covered_ratio = server_ms / client_ms if client_ms else 0.0
        unaccounted = (client_ms - server_ms) / ops
        overhead = (client_ms - get("op", "wall_s") * 1000.0) / ops
    else:
        wall = breakdown["op_wall_s"]
        covered_ratio = breakdown["op_covered_s"] / wall if wall else 0.0
        unaccounted = (wall - breakdown["op_covered_s"]) * 1000.0 / ops
        overhead = 0.0
    untraced_ops = max(1, operations(untraced))
    in_process = "server_cpu_ms" not in untraced["counts_after"]
    return {
        "sql.parse_us": self_per_op("sql.parse", 1e6),
        "sql.analyze_us": self_per_op("sql.analyze", 1e6),
        "sql.exec_self_ms": self_per_op("sql.exec", 1e3),
        "planner.run_ms": self_per_op("planner.run", 1e3),
        "planner.fragments": get("planner.run", "calls") / ops,
        "planner.rows_out": get("planner.run", "rows_out") / ops,
        "lineage.build_ms": self_per_op("lineage.build", 1e3),
        "lineage.builds": get("lineage.build", "calls") / conf_calls if conf_calls else 0.0,
        "lineage.clauses": get("lineage.build", "clauses") / ops,
        "dispatch.ms": self_per_op("dispatch", 1e3),
        "dispatch.components": sum(strategies.values()) / ops,
        **{f"dispatch.strategy.{s}": n / ops for s, n in strategies.items()},
        "parallel.call_ms": self_per_op("parallel.call", 1e3),
        "parallel.encode_ms": _delta(traced, "parallel_encode_ms") / ops,
        "parallel.worker_cpu_ms": worker_cpu / ops,
        "parallel.shm_kb": _delta(traced, "parallel_shm_bytes") / 1024.0 / ops,
        "parallel.shards": sum(
            _delta(traced, key) for key in traced["counts_after"] if key.endswith("_shards")
        ) / ops,
        "parallel.busy_ratio": worker_cpu / (call_wall_ms * workers) if call_wall_ms and workers else 0.0,
        "parallel.cache_evictions": _delta(traced, "parallel_cache_evictions") / ops,
        "parallel.fallbacks": _delta(traced, "parallel_fallbacks"),
        "parallel.gate_adaptations": _delta(traced, "parallel_gate_adaptations"),
        "storage.capture_us": self_per_op("storage.capture", 1e6),
        "transactions.lock_wait_ms": self_per_op("transactions.lock_wait", 1e3),
        "durability.append_ms": self_per_op("durability.append", 1e3),
        "durability.fsyncs_per_commit": _delta(traced, "fsync_count") / commits if commits else 0.0,
        "durability.wal_bytes_per_commit": get("durability.append", "wal_bytes") / commits if commits else 0.0,
        "durability.checkpoints": _delta(traced, "checkpoints_total"),
        "durability.checkpoint_ms": (
            get("durability.checkpoint", "wall_s") * 1e3 / committed if committed else 0.0
        ),
        "durability.checkpoint_kb": (
            get("durability.checkpoint", "bytes") / 1024.0 / committed if committed else 0.0
        ),
        "durability.segments_reused_ratio": reused / (reused + written) if reused + written else 0.0,
        "protocol.encode_us": self_per_op("protocol.encode", 1e6),
        "protocol.send_us": self_per_op("protocol.send", 1e6),
        "protocol.recv_us": self_per_op("protocol.recv", 1e6),
        "protocol.reply_kb": get("protocol.send", "bytes") / 1024.0 / ops,
        "client.overhead_ms": overhead,
        "proc.cpu_ms_per_op": proc_cpu_ms(untraced) / untraced_ops,
        "proc.gc_full_per_100_ops": untraced["gc_full"] * 100.0 / untraced_ops if in_process else 0.0,
        "trace.covered_ratio": covered_ratio,
        "trace.unaccounted_ms": unaccounted,
        "trace.overhead_ratio": (
            statistics.median(host_normalised_reads(traced))
            / statistics.median(host_normalised_reads(untraced))
        ),
    }

