"""The benchmark workloads: attack-sweep and cli-commands.

Each workload is a closed loop with one client.  Its constructor is the
set-up (fixed objects built from the workload seed); ``make(i)`` draws the
inputs of op ``i`` from the seed alone; ``execute`` is the timed call into
subsetkex; ``check`` verifies the result without trusting the code under
test and returns ``(ok, canonical output, broke)``; ``label`` names the
op's kind, and the run reports each kind's share of op time.  ``sk`` is
the freshly imported ``subsetkex`` package, looked up at call time so a
tracer installed after set-up sees every call.

``prefix`` ops are the ones every run completes first and the digest and
layer counts cover.  An untraced run completes at least ``min_ops`` ops,
and the tail percentile is the highest with ten of ``min_ops`` samples
beyond it, so it stays the same however fast the code gets: p95 for
attack-sweep, whose p99 moves with single slow bursts of a shared
machine, and p90 for the CLI.
"""
from __future__ import annotations

import json
import os
import random
import subprocess
import sys

from oracle_model import RationalModel, det

# the CLI's built-in sweep grid (attack sweep without --grid)
DEFAULT_GRID = (
    dict(grid_id="abelian-m2", rows=((1, 0), (0, 1)), u=(1, 0), v=(0, 1),
         w=(1, (1, 1), 0), max_length=8, max_iter=24, beam=4, max_nodes=96,
         gens_window=0),
    dict(grid_id="bs2", rows=((2,),), u=(1,), v=(1,), w=(1, (1,), 1),
         max_length=10, max_iter=32, beam=4, max_nodes=128, gens_window=2),
    dict(grid_id="m2-upper", rows=((2, 1), (0, 3)), u=(1, 0), v=(0, 1),
         w=(1, (1, -1), 1), max_length=12, max_iter=32, beam=4, max_nodes=128,
         gens_window=2),
)


def _rng(seed: int, *labels) -> random.Random:
    # str seeds hash through sha512, so streams do not depend on PYTHONHASHSEED
    return random.Random("/".join(map(str, (seed,) + labels)))


def random_rows(rng: random.Random, dim: int, bound: int = 3) -> tuple:
    while True:
        rows = tuple(tuple(rng.randint(-bound, bound) for _ in range(dim))
                     for _ in range(dim))
        if det(rows) != 0:
            return rows


def random_vec(rng: random.Random, m: int, bound: int = 2) -> tuple:
    while True:
        v = tuple(rng.randint(-bound, bound) for _ in range(m))
        if any(v):
            return v


def random_triple(rng: random.Random, m: int) -> tuple:
    return (rng.randint(0, 2), tuple(rng.randint(-3, 3) for _ in range(m)),
            rng.randint(0, 2))


def _nf(g) -> str:
    return f"{g.p}:{','.join(map(str, g.v))}:{g.q}"


class AttackSweep:
    """Sweep trials over the default grid plus one fresh random point.

    Ops cycle through four grid points: the three of the CLI's built-in
    grid and a random point drawn afresh for each cycle, so every point
    gets the same number of trials, as ``attack sweep --grid`` gives each
    point of a four-point grid file.  The random point is what ``params
    gen --dim 2`` or ``--dim 3`` draws (entries up to 3) with vectors and
    ``w`` as ``instance p1 gen`` draws them, and the search budgets are the
    ones ``attack sweep --grid`` uses for an entry that gives none
    (``GridPoint``'s defaults).  A new matrix each time makes the
    per-group lattice and matrix-power memos miss, where the fixed points
    reuse them; the run reports the random trials' share of op time.
    """

    name = "attack-sweep"
    prefix = 300
    min_ops = 500

    def __init__(self, sk, seed: int, ctx=None):
        self.sk = sk
        self.seed = seed
        self.grid = [sk.GridPoint(**point) for point in DEFAULT_GRID]

    def make(self, i: int) -> dict:
        rng = _rng(self.seed, self.name, i)
        slot = i % (len(self.grid) + 1)
        mode = ("rst", "descent")[(i // (len(self.grid) + 1)) % 2]
        if slot < len(self.grid):
            point = self.grid[slot]
        else:
            dim = rng.randint(2, 3)
            point = self.sk.GridPoint(
                grid_id=f"random-{i}", rows=random_rows(rng, dim),
                u=random_vec(rng, dim), v=random_vec(rng, dim),
                w=random_triple(rng, dim))
        return {"point": point, "mode": mode, "trial_seed": rng.getrandbits(64)}

    def label(self, op: dict) -> str:
        return "random" if op["point"].grid_id.startswith("random-") else "grid"

    def execute(self, op: dict):
        sk = self.sk
        point = op["point"]
        instance = sk.build_p1_instance(point, op["trial_seed"])
        if op["mode"] == "rst":
            result = sk.rst_greedy(instance, max_iter=point.max_iter,
                                   window=point.window)
        else:
            result = sk.derivation_descent(
                instance, beam=point.beam, max_nodes=point.max_nodes,
                max_len=point.max_length, window=point.window)
        return instance, result

    def check(self, op: dict, result):
        instance, outcome = result
        point = op["point"]
        canon = (f"{point.grid_id}|{op['mode']}|{outcome.success}|"
                 f"{outcome.iterations}|{outcome.best_score}")
        if not outcome.success:
            return outcome.recovered is None, canon, False
        a, b = outcome.recovered
        model = RationalModel(point.rows)
        img_b = model.element(b)
        solves = (model.product(model.element(a), model.element(instance.pub.w),
                                img_b) == model.element(instance.target))
        group = instance.pub.group
        window = point.window if point.window is not None else b.p + b.q + 8
        verdict = self.sk.lattice_member(
            group, self.sk.OracleElement(group, *img_b), point.v, window)
        return solves and verdict.is_member, f"{canon}|{_nf(a)}|{_nf(b)}", True


# README commands; {seed} is drawn per op, files come from set-up
CLI_COMMANDS = (
    ("params", "gen", "--dim", "2", "--seed", "{seed}"),
    ("instance", "p1", "gen", "--params", "p.json", "--seed", "{seed}"),
    ("kex", "p1", "simulate", "--seed", "{seed}", "--params", "p.json"),
    ("kex", "p2", "simulate", "--seed", "{seed}", "--params", "p.json"),
    ("kex", "orbit-dh", "simulate", "--seed", "{seed}", "--params", "p.json"),
    ("grammar", "orbit", "--params", "p.json", "--word", '["x1"]',
     "--range", "integers"),
    ("grammar", "closure", "--grammar", "g.json", "--params", "p.json"),
    ("grammar", "sample", "--grammar", "c.json", "--seed", "{seed}",
     "--max-len", "20"),
    ("grammar", "member", "--grammar", "g.json", "--word",
     '["t^-1","x1","t"]'),
    ("attack", "rst", "--instance", "inst.json", "--max-iter", "50"),
    ("attack", "descent", "--instance", "inst.json", "--beam", "8"),
    ("attack", "sweep", "--trials", "1", "--seed", "{seed}"),
    ("selftest", "oracle", "--trials", "50", "--seed", "{seed}"),
)
SWEEP_HEADER = "grid_id,mode,trials,successes,mean_iters,mean_ms"


def child_env(src_dir) -> dict:
    """Environment of every CLI subprocess: source tree, no bytecode writes."""
    env = dict(os.environ)
    env.pop("PYTHONPYCACHEPREFIX", None)
    env.update(PYTHONPATH=str(src_dir), PYTHONDONTWRITEBYTECODE="1",
               PYTHONHASHSEED="0")
    return env


class CliCommands:
    """One README command per op, as a subprocess on fixed files."""

    name = "cli-commands"
    prefix = 2 * len(CLI_COMMANDS)
    min_ops = 100

    def __init__(self, sk, seed: int, ctx):
        self.sk = sk
        self.seed = seed
        self.workdir = workdir = ctx.workdir
        self.env = ctx.env
        self.tracer = ctx.tracer  # when set, children run under the tracer
        base = _rng(seed, self.name, "setup").randrange(10 ** 6)
        main = sk.cli.main
        for argv in (
            ("params", "gen", "--dim", "2", "--seed", str(base),
             "--out", "p.json"),
            ("instance", "p1", "gen", "--params", "p.json",
             "--seed", str(base), "--out", "inst.json"),
            ("grammar", "orbit", "--params", "p.json", "--word", '["x1"]',
             "--out", "g.json"),
            ("grammar", "closure", "--grammar", "g.json", "--params", "p.json",
             "--out", "c.json"),
        ):
            code = main([a if not a.endswith(".json") else
                         str(workdir / a) for a in argv])
            if code != 0:
                raise RuntimeError(f"set-up command {argv[:2]} exited {code}")

    def make(self, i: int) -> dict:
        seed = str(_rng(self.seed, self.name, i).randrange(10 ** 6))
        argv = tuple(seed if a == "{seed}" else a
                     for a in CLI_COMMANDS[i % len(CLI_COMMANDS)])
        return {"argv": argv, "stats": self.workdir / f"trace-{i}.json"}

    def label(self, op: dict) -> str:
        return " ".join(op["argv"][:2])

    def execute(self, op: dict):
        if self.tracer is None:
            head = [sys.executable, "-m", "subsetkex"]
        else:
            child = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                 "cli_child.py")
            head = [sys.executable, child, str(op["stats"])]
        return subprocess.run(head + list(op["argv"]), cwd=self.workdir,
                              env=self.env, capture_output=True, text=True,
                              timeout=120)

    def check(self, op: dict, proc):
        argv = op["argv"]
        if self.tracer is not None and op["stats"].exists():
            self.tracer.merge(json.loads(op["stats"].read_text()))
            op["stats"].unlink()
        out = proc.stdout
        canon = f"{' '.join(argv)}|{proc.returncode}|{out}"
        if proc.returncode != 0:
            return False, canon, False
        if argv[:2] == ("attack", "sweep"):
            lines = out.splitlines()
            ok = lines[0] == SWEEP_HEADER and len(lines) == 7 and all(
                0 <= int(line.split(",")[3]) <= 1 for line in lines[1:])
        elif argv[0] == "selftest":
            ok = out == f"selftest oracle: {argv[3]} trials, all checks passed\n"
        else:
            serialize = self.sk.serialize
            obj = serialize.loads(out)
            ok = serialize.dumps(obj) + "\n" == out
            if argv[0] == "kex":
                ok = ok and obj["keys"]["alice"] == obj["keys"]["bob"]
            if argv[:2] == ("grammar", "member"):
                ok = ok and obj is True
        return ok, canon, False


WORKLOADS = {cls.name: cls for cls in (AttackSweep, CliCommands)}
