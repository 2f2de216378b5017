"""SQL-to-answer benchmark of the MayBMS engine: run one workload, check
its answers, print its metrics.

    python3 sqlbench/run.py --workload {conf-repeat,rw-wire,conf-pool} \
        --seed N --seconds S --trace {0,1} [--size {full,tiny}]

Run from the repository root.  Every launch is a fresh interpreter
(``bench.py``) with the ``REPRO_*`` variables stripped from its
environment and ``PYTHONHASHSEED`` derived from the seed.

``--trace 0`` sets the workload up three times in three processes (the
median is ``setup_s``), runs the timed window in the last one, and
prints the end-to-end metrics.  ``--trace 1`` splits the window between
an untraced and a traced process and prints the per-layer metrics.  The
last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.  A failed answer check prints
``"correct": false`` with no metrics and exits 1.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from typing import Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".sqlbench-work")
sys.path.insert(0, HERE)

import metrics  # noqa: E402
import tracing  # noqa: E402

WORKLOADS = ("conf-repeat", "rw-wire", "conf-pool")

#: Processes that set the workload up per untraced run; setup_s is
#: their median.
SETUP_LAUNCHES = 3

#: Seconds a launch may take beyond its timed window.
LAUNCH_GRACE_S = 120


def hash_seed(seed: int) -> int:
    return (seed * 2654435761 + 12345) % 4294967296


def child_env(seed: int) -> Dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONHASHSEED"] = str(hash_seed(seed))
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    # The only engine setting MayBMS takes from the environment alone;
    # bench.settings_for records it with the others.
    env["REPRO_ENGINE"] = "batch"
    return env


def launch(args, mode: str, seconds: float, index: int) -> Tuple[Dict, float]:
    """One bench.py process; returns its result and the monotonic time it
    was launched at."""
    out = os.path.join(WORK, f"result-{args.workload}-{args.seed}-{mode}-{index}.json")
    if os.path.exists(out):
        os.remove(out)
    command = [
        sys.executable, os.path.join(HERE, "bench.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", repr(seconds), "--mode", mode, "--size", args.size,
        "--work", WORK, "--out", out,
    ]
    launched = time.monotonic()
    process = subprocess.Popen(command, env=child_env(args.seed), cwd=ROOT)
    try:
        code = process.wait(timeout=seconds + LAUNCH_GRACE_S)
    except subprocess.TimeoutExpired:
        process.kill()
        process.wait()
        raise RuntimeError(f"bench.py --mode {mode} did not finish in time")
    if code != 0 or not os.path.exists(out):
        raise RuntimeError(f"bench.py --mode {mode} exited with {code}")
    with open(out) as handle:
        return json.load(handle), launched


def mount_fstype(path: str) -> Optional[str]:
    """Filesystem type of the mount holding ``path``, from /proc/mounts."""
    path = os.path.realpath(path)
    best, fstype = "", None
    try:
        with open("/proc/mounts") as handle:
            for line in handle:
                fields = line.split()
                mount = fields[1]
                inside = path == mount or path.startswith(mount.rstrip("/") + "/")
                if inside and len(mount) >= len(best):
                    best, fstype = mount, fields[2]
    except OSError:
        pass
    return fstype


def git_commit() -> Optional[str]:
    """The checked-out commit, read from .git without running git; None
    outside a git checkout."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as handle:
            ref = handle.read().strip()
        if not ref.startswith("ref: "):
            return ref
        with open(os.path.join(ROOT, ".git", ref[5:])) as handle:
            return handle.read().strip()
    except OSError:
        return None


def loadavg() -> List[float]:
    with open("/proc/loadavg") as handle:
        return [float(x) for x in handle.read().split()[:3]]


def host_fingerprint() -> Dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "store_fstype": mount_fstype(WORK),
        "git_commit": git_commit(),
        "loadavg_start": loadavg(),
    }


def show(name: str, value: float, samples: str = "") -> None:
    unit, better = metrics.UNITS[name]
    extra = f"; {samples}" if samples else ""
    print(f"  {name:34s} {value:14.6g} {unit:9s} ({better} is better{extra})")


def run_untraced(args) -> Tuple[Dict, Dict]:
    setups: List[float] = []
    walls: List[float] = []
    result: Dict = {}
    for index in range(SETUP_LAUNCHES):
        mode = "run" if index == SETUP_LAUNCHES - 1 else "setup"
        result, launched = launch(args, mode, args.seconds, index)
        if not result.get("correct"):
            return result, {}
        walls.append(result["first_op_at"] - launched)
        setups.append(walls[-1] / result["setup_host_factor"])
    gated, reported, samples = metrics.end_to_end(result, setups, walls)
    print(f"sqlbench {args.workload} seed={args.seed} seconds={args.seconds}")
    print(f"  samples: {samples}")
    for name, value in gated.items():
        show(name, value, "gated" + (f", n={samples['setup_launches']} launches" if name == "setup_s" else ""))
    for name, value in reported.items():
        count = {"commit": samples["commits"], "read": samples["reads"]}.get(
            name.split("_")[0], samples["operations"]
        )
        show(name, value, f"report only, n={count}")
    result["setup_s_launches"] = setups
    result["setup_wall_s_launches"] = walls
    result["metrics"] = {
        name: {"value": value, "unit": metrics.UNITS[name][0], "better": metrics.UNITS[name][1]}
        for name, value in {**gated, **reported}.items()
    }
    result["samples"] = samples
    return result, gated


def run_traced(args) -> Tuple[Dict, Dict]:
    half = max(1.0, args.seconds / 2.0)
    untraced, _ = launch(args, "run", half, 0)
    if not untraced.get("correct"):
        return untraced, {}
    traced, _ = launch(args, "trace", half, 1)
    if not traced.get("correct"):
        return traced, {}
    path = traced.get("trace_client") or traced["trace_server"]
    layers = metrics.per_layer(untraced, traced, tracing.read_trace(path))
    print(f"sqlbench {args.workload} seed={args.seed} traced, {half:g} s untraced + {half:g} s traced")
    print(f"  spans: {path}")
    for name, value in layers.items():
        show(name, value)
    traced["per_layer"] = layers
    return traced, layers


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    args = parser.parse_args(argv)
    if not os.path.exists(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"sqlbench: no engine source under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    os.makedirs(WORK, exist_ok=True)
    host = host_fingerprint()
    runner = run_traced if args.trace else run_untraced
    result, values = runner(args)
    host["loadavg_end"] = loadavg()
    result["host"] = host
    with open(os.path.join(WORK, f"summary-{args.workload}-{args.seed}-trace{args.trace}.json"), "w") as handle:
        json.dump(result, handle, indent=1)
    attempted = metrics.operations(result) + result.get("failed", 0) if "reads_ms" in result else 1
    if not result.get("correct"):
        print(f"sqlbench: answer check failed: {result.get('error')}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": attempted, "failed": attempted, "metrics": {}}))
        return 1
    print(f"  host: {json.dumps(host)}")
    print(f"  settings: {json.dumps(result['fingerprint'])}")
    print(json.dumps({
        "correct": True,
        "attempted": attempted,
        "failed": result["failed"],
        "metrics": {
            name: {"value": value, "unit": metrics.UNITS[name][0]} for name, value in values.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
