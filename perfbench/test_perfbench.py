"""Tests of the benchmark itself, at a tiny scale.

    python3 -m pytest -q perfbench
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

# the benchmark compiles subsetkex from source; tests must not leave
# bytecode behind for later runs to load
sys.dont_write_bytecode = True
HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path[:0] = [str(HERE), str(SRC)]

import run  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import CLI_COMMANDS, WORKLOADS, child_env  # noqa: E402

TINY = {"attack-sweep": 8, "cli-commands": len(CLI_COMMANDS)}


@pytest.fixture
def ctx(tmp_path):
    return SimpleNamespace(workdir=tmp_path, tracer=None, env=child_env(SRC))


def tiny(name, ctx, seed=3):
    workload, _ = run.set_up(WORKLOADS[name], seed, ctx)
    workload.prefix = TINY[name]
    return workload


def tiny_loop(workload, tracer=None):
    return run.run_loop(workload, 0, workload.prefix, tracer)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_runs_without_errors(name, ctx):
    phase = tiny_loop(tiny(name, ctx))
    assert len(phase["latencies"]) == TINY[name]
    assert phase["failed"] == 0


def test_digest_depends_only_on_seed(ctx):
    first = tiny_loop(tiny("attack-sweep", ctx))["digest"]
    again = tiny_loop(tiny("attack-sweep", ctx))["digest"]
    other = tiny_loop(tiny("attack-sweep", ctx, seed=4))["digest"]
    assert first == again != other


def test_sweep_mix_reports_time_shares(ctx):
    phase = tiny_loop(tiny("attack-sweep", ctx))
    assert set(phase["time_share"]) == {"grid", "random"}
    assert sum(phase["time_share"].values()) == pytest.approx(1)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_run_prints_the_same_digest(name, ctx):
    plain = tiny_loop(tiny(name, ctx))
    tracer = Tracer()
    ctx.tracer = tracer
    workload = tiny(name, ctx)
    tracer.install()
    try:
        traced = tiny_loop(workload, tracer)
    finally:
        tracer.uninstall()
    assert traced["failed"] == 0
    assert traced["digest"] == plain["digest"]
    snap = traced["snapshot"]
    assert snap["stats"]["groups.mul"][0] > 0
    assert snap["spans"] > 0


def _flip(g):
    """A normal form with its first base coordinate moved by one."""
    return SimpleNamespace(p=g.p, v=(g.v[0] + 1,) + tuple(g.v[1:]), q=g.q)


def _corrupt(name, op, result):
    if name == "attack-sweep":
        instance, outcome = result
        if outcome.success:
            a, b = outcome.recovered
            return instance, dataclasses.replace(outcome,
                                                 recovered=(a, _flip(b)))
        return instance, dataclasses.replace(outcome, recovered=("a", "b"))
    return subprocess.CompletedProcess(result.args, result.returncode,
                                       " " + result.stdout, result.stderr)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_corrupted_output_counts_as_failure(name, ctx):
    workload = tiny(name, ctx)
    execute = workload.execute
    workload.execute = lambda op: _corrupt(name, op, execute(op))
    phase = tiny_loop(workload)
    assert phase["failed"] == TINY[name]


def test_raising_op_counts_as_failure(ctx):
    workload = tiny("attack-sweep", ctx)

    def broken(op):
        raise ArithmeticError("injected")

    workload.execute = broken
    phase = tiny_loop(workload)
    assert phase["failed"] == TINY["attack-sweep"]


def test_tracer_counts_and_restores(ctx):
    run.forget_subsetkex()
    import subsetkex as sk
    original = sk.GroupParams.evaluate
    group = sk.GroupParams(sk.IntMatrix(((2, 1), (0, 3))))
    word = ("x1", "t", "x2^-1", "t^-1", "x1")
    tracer = Tracer()
    tracer.install()
    try:
        sk.GroupParams.evaluate(group, word)
    finally:
        tracer.uninstall()
    assert sk.GroupParams.evaluate is original
    assert tracer.stats["groups.evaluate"][0] == 1
    assert tracer.stats["groups.mul"][0] == len(word)
    assert tracer.counts["groups.evaluate.tokens"] == len(word)
    # a parent's self time excludes its children; spans nest inside it
    root = list(tracer.span_parent).index(-1)
    duration = tracer.span_end[root] - tracer.span_start[root]
    assert 0 < tracer.stats["groups.evaluate"][1] < duration


def test_tail_percentile_keeps_ten_samples_beyond():
    assert run.tail_percentile(100) == 90
    assert run.tail_percentile(1000) == 99
    assert run.tail_percentile(2000) == 99.5
    assert run.percentile(list(range(1, 101)), 90) == 90


def test_exits_nonzero_without_source_tree(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "attack-sweep",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def _declared(section):
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"),
                                            (1, "per_layer")])
def test_result_line_matches_benchmark_json(trace, section, tmp_path, capsys,
                                           monkeypatch):
    monkeypatch.setattr(run, "WORK", tmp_path)
    code = run.main(["--workload", "attack-sweep", "--seed", "5",
                     "--seconds", "0", "--trace", str(trace)])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    report, result = json.loads(lines[-2]), json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        _declared(section)
    if trace:
        assert report["digests_equal"]
        spans = tmp_path / "spans-attack-sweep.jsonl"
        assert len(spans.read_text().splitlines()) == report["spans"]
    else:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_stale_bytecode_is_removed_before_a_run(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "SRC", tmp_path)
    for cache in ("subsetkex/__pycache__", "subsetkex/sub/__pycache__"):
        (tmp_path / cache).mkdir(parents=True)
        (tmp_path / cache / "mod.cpython.pyc").write_bytes(b"stale")
    assert run.drop_subsetkex_bytecode() == 2
    assert not list(tmp_path.rglob("__pycache__"))
