"""subsetkex benchmark: one closed-loop client per workload.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload attack-sweep --seed 1 --seconds 55 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracer installed;
set-up is repeated during the run and reported as its median.
``--trace 1`` makes a separate traced run: the same op prefix untraced and
then traced, each from a fresh import, and prints the per-layer metrics,
the tracing overhead and whether both halves produced the same digest.
Layer counts and self times cover the traced half's first ``prefix`` ops,
so the counts repeat exactly for a seed.  The traced half's spans (id,
name, op, start, end, parent id) go to
``.perfbench-work/spans-<workload>.jsonl``, one JSON array per line.
Every op's output is checked independently; the last line of stdout is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
The line before it describes the run (environment, digest, tail
percentile, error and break rates, each op kind's share of op time).

Every import of subsetkex compiles it from source, whatever the
checkout's history: the run first deletes the ``__pycache__`` directories
under ``src/subsetkex``, and bytecode writes are off in this process and
in every CLI subprocess (PYTHONDONTWRITEBYTECODE=1).  The standard
library loads from its installed bytecode.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
SETUP_REPEATS = 31
STARTUP_REPEATS = 7
TAIL_LADDER = (99.9, 99.5, 99, 95, 90, 75, 50)


def tail_percentile(n: int) -> float:
    """Highest ladder percentile with at least ten of n samples beyond it."""
    return next(p for p in TAIL_LADDER
                if n - math.ceil(p * n / 100) >= 10 or p == 50)


def percentile(values, p: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p * len(ordered) / 100) - 1)]


def environment(seed: int, caches_removed: int) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "seed": seed,
        "bytecode_writes": "off (PYTHONDONTWRITEBYTECODE=1)",
        "subsetkex_pycache_dirs_removed": caches_removed,
    }


def drop_subsetkex_bytecode() -> int:
    """Delete subsetkex's compiled caches, so its imports compile from source."""
    caches = list((SRC / "subsetkex").rglob("__pycache__"))
    for cache in caches:
        shutil.rmtree(cache)
    return len(caches)


def forget_subsetkex() -> None:
    """Drop every subsetkex module, so the next import runs it afresh."""
    for name in [n for n in sys.modules
                 if n == "subsetkex" or n.startswith("subsetkex.")]:
        del sys.modules[name]
    gc.collect()


def set_up(cls, seed: int, ctx):
    """Import subsetkex afresh and build the workload.

    Returns the workload and the seconds the import and build took.
    """
    forget_subsetkex()
    t0 = time.perf_counter()
    sk = importlib.import_module("subsetkex")
    if cls.name == "cli-commands":
        importlib.import_module("subsetkex.cli")
    workload = cls(sk, seed, ctx)
    return workload, time.perf_counter() - t0


def run_loop(workload, seconds: float, min_ops: int, tracer=None,
             between=None) -> dict:
    """Closed loop: the next op starts when the previous one is checked.

    ``between`` is called before each op, outside the op's timing.
    """
    latencies = []
    by_label = {}
    failed = breaks = 0
    digest = hashlib.sha256()
    snapshot = None
    prefix = workload.prefix
    deadline = time.perf_counter() + seconds
    i = 0
    while i < min_ops or time.perf_counter() < deadline:
        if between is not None:
            between()
        op = workload.make(i)
        if tracer is not None:
            tracer.op = i
            tracer.recording = i < prefix
            tracer.paused = False
        t0 = time.perf_counter()
        try:
            result = workload.execute(op)
            error = None
        except Exception as exc:  # a failed op is counted, not fatal
            error = exc
        t1 = time.perf_counter()
        if tracer is not None:
            tracer.paused = True
        if error is None:
            try:
                ok, canon, broke = workload.check(op, result)
            except Exception as exc:
                error = exc
        if error is not None:
            if not failed:
                traceback.print_exception(error, file=sys.stderr)
            ok, canon, broke = False, f"error:{type(error).__name__}", False
        latencies.append(t1 - t0)
        label = workload.label(op)
        by_label[label] = by_label.get(label, 0.0) + t1 - t0
        failed += not ok
        if i < prefix:
            digest.update(canon.encode() + b"\n")
            breaks += ok and broke
        i += 1
        if tracer is not None and i == prefix:
            snapshot = tracer.snapshot()
    total = sum(latencies)
    return {"latencies": latencies, "failed": failed, "breaks": breaks,
            "digest": digest.hexdigest(), "snapshot": snapshot,
            "throughput": len(latencies) / total,
            "time_share": {k: v / total for k, v in sorted(by_label.items())}}


def startup_seconds(env: dict, code: str) -> float:
    """Median wall time of a bare interpreter running ``code``."""
    samples = []
    for _ in range(STARTUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], env=env, check=True,
                       capture_output=True, timeout=60)
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def plain_run(cls, args, ctx):
    # set-up samples are spread over the run, so their median sees the
    # same mix of fast and slow spells of a shared machine as the ops do;
    # the loop keeps the first workload and its modules
    workload, first = set_up(cls, args.seed, ctx)
    samples = [first]
    interval = args.seconds / SETUP_REPEATS
    due = [time.perf_counter() + interval]

    def resample():
        if len(samples) < SETUP_REPEATS and time.perf_counter() >= due[0]:
            samples.append(set_up(cls, args.seed, ctx)[1])
            due[0] += interval

    phase = run_loop(workload, args.seconds, cls.min_ops, between=resample)
    while len(samples) < SETUP_REPEATS:
        samples.append(set_up(cls, args.seed, ctx)[1])
    lat = phase["latencies"]
    n = len(lat)
    p = tail_percentile(cls.min_ops)
    who = (resource.RUSAGE_CHILDREN if cls.name == "cli-commands"
           else resource.RUSAGE_SELF)
    metrics = {
        "setup_s": (statistics.median(samples), "s"),
        "throughput_ops_s": (phase["throughput"], "1/s"),
        "op_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "op_tail_ms": (percentile(lat, p) * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(who).ru_maxrss / 1024, "MB"),
    }
    report = {
        "digest": phase["digest"], "prefix_ops": cls.prefix, "ops": n,
        "op_tail": {"percentile": p, "n": n,
                    "beyond": n - math.ceil(p * n / 100)},
        "error_rate": phase["failed"] / n,
        "break_rate": phase["breaks"] / cls.prefix,
        "op_time_share": phase["time_share"],
        "setup_samples_s": samples,
    }
    return phase["failed"] == 0, n, phase["failed"], metrics, report


def layer_metrics(snap: dict, prefix: int, breaks: int) -> dict:
    stats, counts = snap["stats"], snap["counts"]
    out = {}
    for name, (calls, self_s) in stats.items():
        out[f"{name}.calls"] = (calls, "count")
        out[f"{name}.self_s"] = (self_s, "s")

    def ratio(num, den):
        return counts[num] / counts[den] if counts[den] else 0.0

    for name in ("groups.evaluate.tokens", "groups.preimage.calls",
                 "grammars.sample.tokens", "grammars.sample.elements",
                 "grammars.sample.identity", "grammars.cyk.cells",
                 "attacks.search.iterations", "attacks.lattice_member.member",
                 "attacks.lattice_member.non_member",
                 "attacks.lattice_member.unknown"):
        out[name] = (counts[name], "count")
    out["serialize.bytes_out"] = (counts["serialize.bytes_out"], "bytes")
    out["groups.preimage.hit_ratio"] = (
        ratio("groups.preimage.hits", "groups.preimage.calls"), "ratio")
    out["grammars.sample.identity_ratio"] = (
        ratio("grammars.sample.identity", "grammars.sample.elements"), "ratio")
    samples = stats["grammars.sample"][0]
    out["grammars.sample.mean_tokens"] = (
        counts["grammars.sample.tokens"] / samples if samples else 0.0, "count")
    cyk = stats["grammars.cyk"][0]
    out["grammars.cyk.accept_ratio"] = (
        counts["grammars.cyk.accepted"] / cyk if cyk else 0.0, "ratio")
    verify = stats["attacks.verify_break"][0]
    out["attacks.verify_break.true_ratio"] = (
        counts["attacks.verify_break.true"] / verify if verify else 0.0, "ratio")
    out["attacks.break_rate"] = (breaks / prefix, "ratio")
    return out


def traced_run(cls, args, ctx):
    from tracing import Tracer

    half = args.seconds / 2
    workload, _ = set_up(cls, args.seed, ctx)
    plain = run_loop(workload, half, cls.prefix)
    tracer = Tracer()
    ctx.tracer = tracer
    workload, _ = set_up(cls, args.seed, ctx)
    tracer.install()
    try:
        traced = run_loop(workload, half, cls.prefix, tracer)
    finally:
        tracer.uninstall()
    spans = WORK / f"spans-{cls.name}.jsonl"
    tracer.write_spans(spans)
    interpreter = startup_seconds(ctx.env, "pass")
    imported = startup_seconds(ctx.env, "import subsetkex.cli")
    metrics = layer_metrics(traced["snapshot"], cls.prefix, traced["breaks"])
    metrics.update({
        "cli.interpreter_s": (interpreter, "s"),
        "cli.import_s": (imported - interpreter, "s"),
        "trace.untraced_ops_s": (plain["throughput"], "1/s"),
        "trace.traced_ops_s": (traced["throughput"], "1/s"),
        "trace.throughput_ratio": (traced["throughput"] / plain["throughput"],
                                   "ratio"),
    })
    same = plain["digest"] == traced["digest"]
    attempted = len(plain["latencies"]) + len(traced["latencies"])
    failed = plain["failed"] + traced["failed"]
    report = {
        "digest": plain["digest"], "traced_digest": traced["digest"],
        "digests_equal": same, "prefix_ops": cls.prefix,
        "ops": {"untraced": len(plain["latencies"]),
                "traced": len(traced["latencies"])},
        "spans": traced["snapshot"]["spans"],
        "spans_file": os.path.relpath(spans, ROOT),
        "error_rate": failed / attempted,
    }
    return failed == 0 and same, attempted, failed, metrics, report


def main(argv=None) -> int:
    sys.dont_write_bytecode = True
    sys.pycache_prefix = None
    from workloads import WORKLOADS, child_env

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "subsetkex" / "__init__.py").is_file():
        print(f"error: no subsetkex source tree at {SRC}", file=sys.stderr)
        return 2
    caches_removed = drop_subsetkex_bytecode()
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=WORK))
    sys.path.insert(0, str(SRC))
    try:
        cls = WORKLOADS[args.workload]
        ctx = SimpleNamespace(workdir=workdir, tracer=None,
                              env=child_env(SRC))
        run = traced_run if args.trace else plain_run
        correct, attempted, failed, metrics, report = run(cls, args, ctx)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass  # another run is still using it
    report = {"workload": args.workload, "trace": args.trace,
              "seconds": args.seconds, "env": environment(args.seed, caches_removed), **report}
    print(json.dumps(report, sort_keys=True))
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
