#!/usr/bin/env python3
"""Plan-latency benchmark: one command, seven workloads, a layer trace.

Driver form (the contract in ``BENCHMARK.json``)::

    python3 benchmarks/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1

prints, as its last line of output, one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics`` -- the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.

Without ``--workload`` it runs every workload and prints every metric by
name with its unit; ``--trace`` adds a traced pass and the layer table,
``--smoke`` cuts every workload to at most 3 ops, ``--selfcheck`` runs
the smoke pass twice and fails on any difference in a number that must
repeat.  See ``README.md`` beside this file.

Each workload runs in a child ``python`` that leads a session of its own.
When the child has exited the whole session must be gone: anything left
is killed, and a process that survives the kill, a ``/dev/shm`` segment
or a journal directory left behind fails the run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT_DIR = HERE / "out"
sys.path.insert(0, str(HERE))

from layers import PER_LAYER, SHARE_METRICS  # noqa: E402
from proctree import session_stats  # noqa: E402

CHILD_TIMEOUT_S = 170.0   # the contract allows a run 180 s
DEFAULT_SECONDS = 6.0


class HygieneError(RuntimeError):
    """Something outlived the workload process."""


def _shm_segments() -> set[str]:
    try:
        return {name for name in os.listdir("/dev/shm") if name.startswith("deco")}
    except OSError:
        return set()


def _reap_session(session: int) -> list[str]:
    """Wait for the session to empty, kill what stays; returns what was killed."""
    deadline = time.monotonic() + 3.0
    while session_stats(session) and time.monotonic() < deadline:
        time.sleep(0.02)  # the resource tracker exits once its pipe closes
    left = session_stats(session)
    if not left:
        return []
    killed = [f"{pid}" for pid in left]
    for sig in (signal.SIGTERM, signal.SIGKILL):
        try:
            os.killpg(session, sig)
        except ProcessLookupError:
            break
        deadline = time.monotonic() + 3.0
        while session_stats(session) and time.monotonic() < deadline:
            time.sleep(0.02)
        if not session_stats(session):
            break
    survivors = session_stats(session)
    if survivors:
        raise HygieneError(f"processes survived SIGKILL of session {session}: {sorted(survivors)}")
    return killed


def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    """Run one workload in its own session; returns the child's result document."""
    OUT_DIR.mkdir(exist_ok=True)
    shm_before = _shm_segments()
    argv = [
        sys.executable, str(HERE / "child.py"),
        "--workload", name, "--seed", str(seed), "--seconds", str(seconds),
        "--trace", str(int(trace)), "--t0", repr(time.time()),
    ]
    if smoke:
        argv.append("--smoke")
    child = subprocess.Popen(
        argv, stdout=subprocess.PIPE, text=True, cwd=str(ROOT), start_new_session=True
    )
    try:
        try:
            stdout, _ = child.communicate(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            raise HygieneError(f"workload {name} did not finish in {CHILD_TIMEOUT_S:g} s")
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()
        killed = _reap_session(child.pid)
    if child.returncode != 0:
        raise RuntimeError(f"workload {name} exited with code {child.returncode}")
    result = json.loads(stdout.strip().splitlines()[-1])
    result["session_killed"] = killed
    leaked = sorted(_shm_segments() - shm_before)
    for segment in leaked:
        os.unlink(os.path.join("/dev/shm", segment))
    stale_dirs = sorted(p.name for p in OUT_DIR.iterdir() if p.is_dir())
    if leaked or stale_dirs or result["children_killed"]:
        raise HygieneError(
            f"workload {name} left behind: shm={leaked} dirs={stale_dirs} "
            f"children killed after 5 s={result['children_killed']}"
        )
    return result


# -- driver form ---------------------------------------------------------

def contract_line(result: dict, trace: bool) -> str:
    metrics = result["per_layer"] if trace else result["end_to_end"]
    return json.dumps(
        {
            "correct": result["failed"] == 0,
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": metrics,
        }
    )


# -- full form -------------------------------------------------------------

def provenance(seed: int) -> dict:
    import numpy
    import scipy

    def git(*args: str) -> str:
        try:
            return subprocess.run(
                ["git", *args], cwd=ROOT, capture_output=True, text=True, check=True
            ).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            return ""

    sha = git("rev-parse", "HEAD")
    return {
        "git_sha": sha or "unknown (not a git checkout)",
        "git_dirty": bool(git("status", "--porcelain")) if sha else None,
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "seed": seed,
        "date": time.strftime("%Y-%m-%dT%H:%M:%S"),
    }


def print_metrics(title: str, metrics: dict) -> None:
    print(f"  {title}")
    for name, entry in metrics.items():
        print(f"    {name:<34} {entry['value']:>14.6g} {entry['unit']}")


def print_layer_shares(result: dict) -> None:
    """Each layer's share of the op, which must add up to the op within 5%."""
    shares = {name: result["per_layer"][name]["value"] for name in SHARE_METRICS}
    attributed = sum(v for k, v in shares.items() if k != "trace.unattributed_share")
    print(f"  layer shares of the op (traced p50 "
          f"{result['per_layer']['trace.op_p50_ms']['value']:.1f} ms, "
          f"n={result['attempted']}); attributed {attributed:.3f}")
    for name, value in sorted(shares.items(), key=lambda kv: -kv[1]):
        if value > 0.0005:
            print(f"    {name:<34} {value:>8.3f}")
    if abs(1.0 - attributed) > 0.05:
        raise AssertionError(
            f"{result['workload']}: layer shares cover {attributed:.3f} of the op, not within 5%"
        )


def run_all(seed: int, seconds: float, trace: bool, smoke: bool, names: list[str]) -> dict:
    from workloads import WORKLOADS

    doc = {"provenance": provenance(seed), "seconds": seconds, "smoke": smoke, "workloads": {}}
    for name in names:
        print(f"== {name}: {WORKLOADS[name].why}")
        entry: dict = {}
        untraced = run_workload(name, seed, seconds, False, smoke)
        entry["untraced"] = untraced
        print(f"  ops attempted {untraced['attempted']}, failed {untraced['failed']}, "
              f"distinct plans {untraced['distinct_plans']} "
              f"({untraced['simulated_plans']} executed in the simulator)")
        for index, reason in untraced["failures"].items():
            print(f"    FAILED op {index}: {reason}")
        print_metrics(
            f"end to end (untraced, n={untraced['attempted']} ops, times at quiet-host speed)",
            untraced["end_to_end"],
        )
        raw = untraced["as_measured"]
        print(f"  as measured: host slow-down {raw['host_slowdown']:.3f}, plan_s.p50 "
              f"{raw['plan_s.p50']:.4f} s, plans_per_s {raw['plans_per_s']:.4f}, "
              f"cpu_s_per_plan {raw['cpu_s_per_plan']:.4f} s, setup_s {raw['setup_s']:.3f} s")
        if trace:
            traced = run_workload(name, seed, seconds, True, smoke)
            entry["traced"] = traced
            print_metrics("per layer (traced)", traced["per_layer"])
            print_layer_shares(traced)
            p50 = untraced["end_to_end"]["plan_s.p50"]["value"]
            measured = traced["per_layer"]["trace.op_p50_ms"]["value"] / 1e3 / p50 - 1.0
            entry["trace_overhead_measured"] = measured
            print(f"  trace overhead: measured {measured:+.3f} of plan_s.p50 (two runs apart), "
                  f"computed {traced['per_layer']['trace.overhead_share']['value']:.4f}")
            if traced["plans_digest"] != untraced["plans_digest"]:
                raise AssertionError(f"{name}: tracing changed a plan")
            print(f"  trace written to {traced['trace_file']}")
        doc["workloads"][name] = entry
    return doc


# Numbers that must repeat exactly between two runs with one seed.  The
# sharded sweep's cache, delta and imbalance counters depend on which shard
# got which candidate, which follows the shards' measured speed.
_TIMING_DEPENDENT = {
    "sweep-large-sharded": {
        "solver.cache_hit_share", "solver.rows_recomputed_share", "solver.levels_skipped_share",
        "parallel.shard_imbalance", "parallel.speculation_hit_share", "parallel.speedup",
        "parallel.cpu_ratio",
    },
    "service-mix": {"service.journal_bytes_per_job"},  # job ids and timestamps vary in width
}


def exact_numbers(name: str, entry: dict) -> dict:
    out = {
        "attempted": entry["untraced"]["attempted"],
        "failed": entry["untraced"]["failed"],
        "ops_digest": entry["untraced"]["ops_digest"],
        "plans_digest": entry["untraced"]["plans_digest"],
    }
    for metric in ("plan_cost_usd.mean", "deadline_hit_rate"):
        out[metric] = entry["untraced"]["end_to_end"][metric]["value"]
    skip = _TIMING_DEPENDENT.get(name, set())
    for metric, value in entry["traced"]["per_layer"].items():
        counted = value["unit"] in ("count", "bytes") or metric.endswith("_share")
        timing = metric.startswith("trace.") or metric in SHARE_METRICS
        if counted and not timing and metric not in skip:
            out[metric] = value["value"]
    return out


def selfcheck(seed: int, names: list[str]) -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    from workloads import WORKLOADS

    declared = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    if declared != list(PER_LAYER):
        raise AssertionError("BENCHMARK.json per_layer differs from layers.PER_LAYER")
    if [(w["name"], w["why"]) for w in spec["workloads"]] != [
        (name, cls.why) for name, cls in WORKLOADS.items()
    ]:
        raise AssertionError("BENCHMARK.json workloads differ from workloads.WORKLOADS")
    first = run_all(seed, DEFAULT_SECONDS, True, True, names)
    second = run_all(seed, DEFAULT_SECONDS, True, True, names)
    other = run_all(seed + 1, DEFAULT_SECONDS, False, True, names)
    for name in names:
        a = exact_numbers(name, first["workloads"][name])
        b = exact_numbers(name, second["workloads"][name])
        diff = {k: (a[k], b[k]) for k in a if a[k] != b[k]}
        if diff:
            raise AssertionError(f"{name}: two runs with seed {seed} differ: {diff}")
        e2e = set(first["workloads"][name]["untraced"]["end_to_end"])
        if e2e != {m["name"] for m in spec["end_to_end"]}:
            raise AssertionError(f"{name}: end-to-end metrics differ from BENCHMARK.json")
    changed = [
        name for name in names
        if first["workloads"][name]["untraced"]["ops_digest"]
        != other["workloads"][name]["untraced"]["ops_digest"]
    ]
    print(f"selfcheck: exact numbers repeat on all of {names}; "
          f"seed {seed + 1} reorders the op list of {changed}")
    if not changed:
        raise AssertionError("a second seed produced the same inputs everywhere")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run one workload and print the contract's JSON line")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", nargs="?", type=int, const=1, default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--selfcheck", action="store_true")
    parser.add_argument("--out", help="write the full result document here")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: {ROOT / 'src' / 'repro'} not found: nothing to benchmark", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload and args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {list(WORKLOADS)}",
              file=sys.stderr)
        return 2
    names = [args.workload] if args.workload else list(WORKLOADS)
    try:
        if args.selfcheck:
            selfcheck(args.seed, names)
            return 0
        if args.workload and not args.out:
            result = run_workload(
                args.workload, args.seed, args.seconds, bool(args.trace), args.smoke
            )
            for index, reason in result["failures"].items():
                print(f"FAILED op {index}: {reason}", file=sys.stderr)
            print(contract_line(result, bool(args.trace)))
            return 0
        doc = run_all(args.seed, args.seconds, bool(args.trace), args.smoke, names)
    except HygieneError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    out = Path(args.out) if args.out else OUT_DIR / "result.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(doc, indent=1))
    print(f"result document written to {out}")
    failed = sum(entry["untraced"]["failed"] for entry in doc["workloads"].values())
    ratio = _sharded_ratio(doc)
    if ratio is not None:
        print(f"sweep-large-warm / sweep-large-sharded plan_s.p50 = {ratio:.3f} "
              f"(the scaling number; > 1 means the shards pay)")
    return 1 if failed else 0


def _sharded_ratio(doc: dict) -> float | None:
    try:
        serial, sharded = (
            doc["workloads"][name]["untraced"]["end_to_end"]["plan_s.p50"]["value"]
            for name in ("sweep-large-warm", "sweep-large-sharded")
        )
    except KeyError:
        return None
    if doc["provenance"]["usable_cpus"] < 2:
        return None  # never a speed-up figure without two CPUs
    return serial / sharded


if __name__ == "__main__":
    sys.exit(main())
