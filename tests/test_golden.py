"""Behaviour lock: README commands, demos and sweep trials reproduce bytes.

The transcripts under ``tests/golden/`` lock the seeded output contract:
any refactor that moves a byte of it fails here.  ``sweep.txt`` locks the
attack-sweep trial path below the CSV: each trial's record and the words
the sampler draws from closure grammars.  ``help.txt`` locks the CLI's
help and usage-error bytes.  Regenerate them only on purpose, from the
repository root, with

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import os
import random
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from subsetkex import SamplePolicy, run_experiments, sample_grammar
from subsetkex.cli import _default_grid, main
from conftest import sweep_random_point

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"

# the README's "Command line" block, in order; later commands read the
# files that earlier ones wrote
README_COMMANDS = tuple(
    line
    for line in (ROOT / "README.md").read_text(encoding="utf-8").splitlines()
    if line.startswith("subsetkex "))

DEMOS = tuple(sorted(p.name for p in (ROOT / "demos").glob("*.py")))

# the one wall-clock figure a demo prints
_TIMING = re.compile(r"\(computed in [0-9.]+s\)")


def cli_transcript(workdir: Path) -> str:
    """Run the README commands in ``workdir``: exit code, stdout, --out file."""
    parts = []
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        for line in README_COMMANDS:
            argv = shlex.split(line)[1:]
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = main(argv)
            text = out.getvalue()
            if "--out" in argv:
                text += Path(argv[argv.index("--out") + 1]).read_text()
            parts.append(f"$ {line}\n[exit {code}]\n{text}")
    finally:
        os.chdir(cwd)
    return "".join(parts)


# the command tree: each family's subcommands, and each intermediate's
_LEAVES = (
    ("params", "gen"), ("instance", "p1", "gen"), ("instance", "p2", "gen"),
    ("kex", "p1", "simulate"), ("kex", "p2", "simulate"),
    ("kex", "orbit-dh", "simulate"), ("grammar", "orbit"),
    ("grammar", "closure"), ("grammar", "sample"), ("grammar", "member"),
    ("attack", "rst"), ("attack", "descent"), ("attack", "sweep"),
    ("selftest", "oracle"))


def help_argvs() -> list:
    """Help requests and usage errors over the whole command tree."""
    families = dict.fromkeys(leaf[0] for leaf in _LEAVES)
    middles = [leaf[:2] for leaf in _LEAVES if len(leaf) == 3]
    argvs = [[], ["-h"], ["foo"], ["--foo", "attack", "rst"]]
    for family in families:
        argvs += [[family], [family, "-h"], [family, "foo"]]
    for middle in middles:
        argvs += [list(middle), [*middle, "-h"]]
    for leaf in _LEAVES:
        argvs += [[*leaf, "-h"], [*leaf, "--foo"], [*leaf, "--seed", "x"]]
    # a negative budget or count, and an unknown orbit range
    argvs += [["attack", "rst", "--instance", "i.json", "--max-iter", "-7"],
              ["attack", "descent", "--instance", "i.json", "--max-len", "-7"],
              ["attack", "descent", "--instance", "i.json",
               "--max-nodes", "-7"],
              ["attack", "sweep", "--trials", "-7"],
              ["selftest", "oracle", "--trials", "-7"],
              ["kex", "orbit-dh", "simulate", "--params", "p.json",
               "--max-exp", "-7"]]
    argvs += [[*leaf, "--range", "reals"] for leaf in _LEAVES
              if leaf[0] in ("instance", "kex") and leaf[1] != "orbit-dh"]
    argvs.append(["grammar", "orbit", "--params", "p.json", "--word", "[]",
                  "--range", "reals"])
    return argvs


def help_transcript() -> str:
    """Exit code, stdout and stderr of each of ``help_argvs()``.

    Help is formatted for an 80-column terminal; COLUMNS is restored after.
    """
    parts = []
    columns = os.environ.get("COLUMNS")
    os.environ["COLUMNS"] = "80"
    try:
        for argv in help_argvs():
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                code = main(argv)
            parts.append(f"$ {shlex.join(['subsetkex', *argv])}\n"
                         f"[exit {code}]\n"
                         f"{out.getvalue()}[stderr]\n{err.getvalue()}")
    finally:
        if columns is None:
            del os.environ["COLUMNS"]
        else:
            os.environ["COLUMNS"] = columns
    return "".join(parts)


def demo_transcript(name: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (str(ROOT / "src"), env.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / name)], cwd=ROOT, env=env,
        capture_output=True, text=True, check=True, timeout=120)
    return _TIMING.sub("(computed in …s)", proc.stdout)


def sweep_transcript() -> str:
    """Trial records of a seeded sweep, then closure-grammar samples.

    The sweep covers the CLI's default grid and 12 random points drawn as
    the benchmark draws them, 4 trials per point and mode; 3 trials fail.
    The samples come from both published closure grammars of each default
    point, with ``depth_cap`` 2 so that the terminal-bias draw runs.
    """
    rng = random.Random(7)
    grid = _default_grid() + tuple(sweep_random_point(rng, i)
                                   for i in range(12))
    records = []
    run_experiments(grid, 4, 7, record=records.append)
    lines = [",".join(str(r[key]) for key in (
        "grid_id", "mode", "trial", "success", "iterations", "best_score"))
        for r in records]
    for point in _default_grid():
        pub = point.plan.pub
        for side, spec in (("a", pub.spec_a), ("b", pub.spec_b)):
            for seed in range(20):
                policy = SamplePolicy(max_length=point.max_length,
                                      depth_cap=2, seed=seed)
                word = " ".join(sample_grammar(spec.grammar, policy))
                lines.append(f"{point.grid_id},sample-{side},{seed},{word}")
    return "\n".join(lines) + "\n"


def test_sweep_trials_match_golden():
    expected = (GOLDEN / "sweep.txt").read_text(encoding="utf-8")
    assert sweep_transcript() == expected


def test_cli_readme_commands_match_golden(tmp_path):
    expected = (GOLDEN / "cli.txt").read_text(encoding="utf-8")
    assert cli_transcript(tmp_path) == expected


def test_help_matches_golden():
    expected = (GOLDEN / "help.txt").read_text(encoding="utf-8")
    assert help_transcript() == expected


@pytest.mark.parametrize("name", DEMOS)
def test_demo_matches_golden(name):
    expected = (GOLDEN / f"{Path(name).stem}.txt").read_text(encoding="utf-8")
    assert demo_transcript(name) == expected


if __name__ == "__main__":
    import tempfile

    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        (GOLDEN / "cli.txt").write_text(cli_transcript(Path(tmp)),
                                        encoding="utf-8")
    (GOLDEN / "sweep.txt").write_text(sweep_transcript(), encoding="utf-8")
    (GOLDEN / "help.txt").write_text(help_transcript(), encoding="utf-8")
    for demo in DEMOS:
        (GOLDEN / f"{Path(demo).stem}.txt").write_text(
            demo_transcript(demo), encoding="utf-8")
