"""One perf harness for the whole stack.

    python3 benchmarks/perf/run.py [--workload NAME ...] [--seed N]
        [--seconds S] [--trace [0|1]] [--runs N] [--out FILE] [--smoke]
    python3 benchmarks/perf/run.py compare A.json B.json

With one ``--workload`` the workload runs in this process, prints every
metric as ``workload metric value unit`` and ends with the one-line JSON
result the benchmark contract asks for.  With several workloads (none
named means all seven) or ``--runs N``, each (workload, seed) runs in a
fresh subprocess of this same script, so no workload sees another's
caches, pools or peak RSS.

End-to-end numbers come from the untraced run (``--trace 0``); the
traced run (``--trace 1``) re-runs the workload under benchmark-owned
probes, reports the per-layer metrics and writes its spans to
``results/trace_<workload>.json``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
BASELINE = HERE / "results" / "baseline.json"

#: builds per untraced run; ``setup_s`` takes their median
SETUPS = 3


def _rss_mb() -> float:
    """Peak resident set of this process (Linux reports KiB), plus the
    largest reaped child (0 unless the workload spawned workers)."""
    return (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss) / 1024.0


def run_one(name: str, seed: int, seconds: float, trace: bool,
            quick: bool) -> dict:
    """Run one workload in this process; returns its full record."""
    t0 = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import workloads
    from probes import Recorder, SpeedProbe, median
    # importing the package is set-up the user pays once per process
    import_s = time.perf_counter() - t0

    workload = workloads.WORKLOADS[name]
    record = {"workload": name, "seed": seed, "trace": int(trace),
              "seconds": seconds}
    if trace:
        state = workload.build(seed)
        rec = Recorder(name)
        try:
            rows = workload.trace(state, seconds, rec, seed, quick=quick)
        finally:
            workload.close(state)
        rec.write(HERE / "results" / f"trace_{name}.json")
        rows.setdefault("runtime.cpu_count", os.cpu_count() or 1)
        unknown = set(rows) - {m["name"] for m in SPEC["per_layer"]}
        if unknown:
            raise SystemExit(f"{name}: per-layer rows not in BENCHMARK.json: "
                             f"{sorted(unknown)}")
        # a layer that does no work in this workload reads 0; a probe
        # whose attach point is gone reads null
        record["metrics"] = {
            m["name"]: {"value": rows.get(m["name"], 0.0), "unit": m["unit"]}
            for m in SPEC["per_layer"]
        }
        record.update(attempted=1, failed=0, spans=len(rec.spans))
        return record

    # every timing below is scaled to the reference machine speed by the
    # probe samples around it (probes.SpeedProbe; README, "Speed scaling")
    speed = SpeedProbe()
    import_s *= SpeedProbe.REF_S / median(speed.walls)
    # every build is a set-up sample; the last PARTS builds are also
    # measured, each for its share of the run, and pooled
    nsetups = 1 if quick else SETUPS
    nparts = min(workload.PARTS, nsetups)
    setups, parts, spent = [], [], 0.0
    for i in range(nsetups):
        build_s, state = speed.timed(workload.build, seed)
        setups.append(build_s)
        try:
            part = i - (nsetups - nparts)
            if part >= 0:
                t0 = time.perf_counter()
                parts.append(workload.measure(
                    state, seconds * (part + 1) / nparts - spent, speed,
                    part=part, last=part == nparts - 1, quick=quick,
                ))
                spent += time.perf_counter() - t0
        finally:
            workload.close(state)
    outcome = workload.summarise(parts)
    named = dict(outcome.values)
    named["import_s"] = import_s
    named["build_s"] = median(setups)
    named["setup_s"] = import_s + median(setups)
    # raw wall = scaled / speed_ratio: below 1, the host ran slower
    # than the reference while this run measured
    named["speed_ratio"] = speed.scaled_s / speed.raw_s
    named["probe_ms"] = median(speed.walls) * 1.0e3
    named["peak_rss_mb"] = _rss_mb()
    named["failed_frac"] = outcome.failed / outcome.attempted
    roles = {"setup_s": ("setup_s", 1.0), "peak_rss_mb": ("peak_rss_mb", 1.0),
             **workload.roles}
    record["metrics"] = {
        m["name"]: {
            "value": named[roles[m["name"]][0]] * roles[m["name"]][1],
            "unit": m["unit"],
        }
        for m in SPEC["end_to_end"]
    }
    record.update(
        attempted=outcome.attempted, failed=outcome.failed, named=named,
        samples={**outcome.samples, "setups": len(setups),
                 "probes": len(speed.walls)},
    )
    return record


def unit_of(metric: str) -> str:
    """Unit of a workload's own metric, read off its name."""
    for suffix, unit in (("_per_s", "1/s"), ("_ms", "ms"), ("_s", "s"),
                         ("_mb", "MB")):
        if metric.endswith(suffix):
            return unit
    return "ratio"


def report(record: dict) -> None:
    """``workload metric value unit`` lines, then the contract's JSON.

    The universal end-to-end slots come first, then the workload's own
    names for the same measurements (``cycle_s``, ``dist_over_serial``,
    ``queries_per_s`` ...), which is how issues refer to them.
    """
    name = record["workload"]
    for metric, cell in record["metrics"].items():
        print(name, metric, cell["value"], cell["unit"])
    for metric, value in record.get("named", {}).items():
        print(name, metric, value, unit_of(metric))
    print("detail", json.dumps(record))
    print(json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["metrics"],
    }))


def spawn(name: str, seed: int, seconds: float, trace: bool,
          quick: bool) -> dict:
    """The same run in a fresh subprocess; relays its report lines."""
    cmd = [sys.executable, str(Path(__file__).resolve()),
           "--workload", name, "--seed", str(seed),
           "--seconds", repr(seconds), "--trace", str(int(trace))]
    if quick:
        cmd.append("--smoke")
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
    detail = None
    for line in proc.stdout.splitlines():
        if line.startswith("detail "):
            detail = json.loads(line[len("detail "):])
        elif not line.startswith("{"):
            print(line)
    if detail is None:
        raise SystemExit(f"{name}: run failed with exit code "
                         f"{proc.returncode} and no result")
    return detail


def fingerprint(args, records: list) -> dict:
    def version(module: str):
        try:
            return __import__(module).__version__
        except ImportError:
            return None

    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, text=True, check=True,
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = None      # the driver's checkout is not a git repository
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": version("numpy"), "scipy": version("scipy"),
        "numba": version("numba"),
        "git_sha": sha,
        "seed": args.seed, "runs": args.runs, "seconds": args.seconds,
        "smoke": args.smoke,
        # engine, backend, nranks and sample counts are per workload
        "samples": {r["workload"]: r["samples"]
                    for r in records if "samples" in r},
    }


def allowed_failures() -> dict:
    """Per-workload failures of the committed baseline (0 if absent)."""
    if not BASELINE.exists():
        return {}
    allowed: dict = {}
    for run in json.loads(BASELINE.read_text())["runs"]:
        name = run["workload"]
        allowed[name] = max(allowed.get(name, 0), run["failed"])
    return allowed


def main(argv: list) -> int:
    if argv[:1] == ["compare"]:
        import compare
        return compare.main(argv[1:], SPEC)
    names = [w["name"] for w in SPEC["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        help="timed phase; default run_seconds of "
                             "BENCHMARK.json (a tenth of it with --smoke)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1))
    parser.add_argument("--runs", type=int, default=1,
                        help="runs per workload, seeds seed..seed+runs-1")
    parser.add_argument("--out", type=Path,
                        help="write (or extend) a result set")
    parser.add_argument("--smoke", action="store_true",
                        help="a tenth of the repetitions, one set-up")
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = SPEC["run_seconds"] / (10.0 if args.smoke else 1.0)
    chosen = args.workload or names

    records = []
    if len(chosen) == 1 and args.runs == 1:
        records.append(run_one(chosen[0], args.seed, args.seconds,
                               bool(args.trace), args.smoke))
    else:
        for run in range(args.runs):
            for name in chosen:
                records.append(spawn(name, args.seed + run, args.seconds,
                                     bool(args.trace), args.smoke))
    if args.out is not None:
        result = {"runs": []}
        if args.out.exists():
            result = json.loads(args.out.read_text())
        result["fingerprint"] = fingerprint(args, records)
        result["runs"].extend(records)
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(result, indent=1))
    allowed = allowed_failures()
    worse = [r["workload"] for r in records
             if r["failed"] > allowed.get(r["workload"], 0)]
    if len(records) == 1:
        report(records[0])
    else:
        print(json.dumps({
            "correct": not worse,
            "attempted": sum(r["attempted"] for r in records),
            "failed": sum(r["failed"] for r in records),
            "runs": len(records),
        }))
    if any(
        cell["value"] is not None and not math.isfinite(cell["value"])
        for r in records for cell in r["metrics"].values()
    ):
        print("non-finite metric", file=sys.stderr)
        return 1
    return 1 if worse else 0


def reap() -> None:
    """Stop and wait for the processes the workloads do not.

    Pools are closed (or, on a fault, torn down) by their owners.  What
    is left is a worker whose start a ``SIGTERM`` interrupted, before
    its pool knew of it, and ``multiprocessing``'s resource tracker,
    which the spawn context starts with the first pool and which
    otherwise exits only after this process has, unwaited.
    """
    import multiprocessing
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():
        child.kill()
        child.join()
    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()      # closes its pipe and waits for it; no-op if not running
    # a half-started worker is in nobody's books and dies of its
    # truncated arguments: wait for whatever is still ours
    deadline = time.monotonic() + 10.0
    while time.monotonic() < deadline:
        try:
            if os.waitpid(-1, os.WNOHANG)[0] == 0:
                time.sleep(0.05)
        except ChildProcessError:
            break       # no child left


# the process backend spawns: an unguarded script would re-execute
# itself in every worker
if __name__ == "__main__":
    import signal

    # a terminated run unwinds through the same finally blocks
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        code = main(sys.argv[1:])
    except SystemExit as exc:
        # let go of the frames (and their pools' semaphores) before reap
        code = exc.code
    finally:
        reap()
    sys.exit(code)
