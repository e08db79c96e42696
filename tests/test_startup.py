"""Start-up: each command loads only the modules it runs; exports are lazy."""

import json
import os
import shlex
import subprocess
import sys
from importlib import import_module

import pytest

import subsetkex

from test_golden import README_COMMANDS, ROOT

SUBMODULES = ("groups", "grammars", "protocols", "attacks", "seeding")

# run one command as a fresh interpreter would, then list what it loaded
_CHILD = """
import contextlib, io, json, shlex, sys
import subsetkex.cli
with contextlib.redirect_stdout(io.StringIO()):
    code = subsetkex.cli.main(shlex.split(sys.argv[1])[1:])
print(json.dumps([code, sorted(m for m in sys.modules
                               if m.startswith("subsetkex."))]))
"""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (str(ROOT / "src"), env.get("PYTHONPATH"))))
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def python(*args, cwd=None) -> str:
    return subprocess.run([sys.executable, *args], cwd=cwd, env=child_env(),
                          capture_output=True, text=True, check=True,
                          timeout=120).stdout


def test_readme_commands_load_only_what_they_run(tmp_path):
    for line in README_COMMANDS:
        code, loaded = json.loads(python("-c", _CHILD, line, cwd=tmp_path))
        assert code == 0, line
        command = shlex.split(line)[1]
        expect = {"params": set(), "grammar": set(), "selftest": set(),
                  "instance": {"protocols"}, "kex": {"protocols"},
                  "attack": {"protocols", "attacks"}}[command]
        heavy = {m.rpartition(".")[2] for m in loaded} & {"protocols",
                                                          "attacks"}
        assert heavy == expect, line


def test_package_import_loads_no_submodule():
    out = python("-c", "import sys, subsetkex; print(sorted("
                 "m for m in sys.modules if m.startswith('subsetkex')))")
    assert out.strip() == "['subsetkex']"


def test_exports_are_the_submodules_own_objects():
    owners = {}
    for mod in SUBMODULES:
        for name in import_module(f"subsetkex.{mod}").__all__:
            owners.setdefault(name, mod)
    listed = dir(subsetkex)
    for name in subsetkex.__all__:
        namespace = {}
        exec(f"from subsetkex import {name}", namespace)
        own = getattr(import_module(f"subsetkex.{owners[name]}"), name)
        assert namespace[name] is own, name
        assert name in listed
    with pytest.raises(AttributeError):
        subsetkex.no_such_name
    with pytest.raises(ImportError):
        exec("from subsetkex import no_such_name", {})


_STALE = """
import sys
import subsetkex as sk
point = sk.GridPoint(grid_id="m2-upper", rows=((2, 1), (0, 3)), u=(1, 0),
                     v=(0, 1), w=(1, (1, -1), 1), max_length=12, max_iter=32,
                     gens_window=2)
for name in [n for n in sys.modules
             if n == "subsetkex" or n.startswith("subsetkex.")]:
    del sys.modules[name]
import subsetkex
assert subsetkex is not sk
# first lookups through the kept package, after the drop
result = sk.rst_greedy(sk.build_p1_instance(point, 7), max_iter=32)
fresh = subsetkex.GridPoint(**{f: getattr(point, f)
                               for f in point.__dataclass_fields__})
again = subsetkex.rst_greedy(subsetkex.build_p1_instance(fresh, 7),
                             max_iter=32)
print([result.success, result.iterations, str(result.best_score)]
      == [again.success, again.iterations, str(again.best_score)])
"""


def test_kept_package_does_not_mix_two_imports():
    # a benchmark set-up drops subsetkex.* from sys.modules and imports it
    # afresh while an older package object is still held
    assert python("-c", _STALE).strip() == "True"
