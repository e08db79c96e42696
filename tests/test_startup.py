"""Start-up: each command loads only the modules it runs; exports are lazy;
value classes generate no code at import."""

import dataclasses
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


# The value classes, which generate no code at import, and their fields in
# the order of the frozen dataclasses they replaced.  Their equality, hash
# and repr are checked against a frozen dataclass built here with the same
# name and fields.
VALUE_FIELDS = {
    "IntMatrix": ("rows",),
    "GroupParams": ("matrix",),
    "GroupElement": ("group", "p", "v", "q"),
    "OracleElement": ("group", "a", "d"),
    "CFGrammar": ("nonterminals", "start", "rules"),
    "SubsetSpec": ("grammar", "group"),
    "PublicParams1": ("group", "w", "spec_a", "spec_b"),
    "PartySecret1": ("a", "b"),
    "PublicParams2": ("group", "w"),
    "Party2State": ("secret_anchor", "published_spec", "peer_pick"),
    "MembershipVerdict": ("value",),
    "AttackPlan": ("pub", "gens_a", "gen_b"),
    "AttackInstance": ("plan", "target"),
}
OWN_REPR = {"GroupElement", "OracleElement"}
CACHED = {"IntMatrix": "adjugate", "GroupParams": "_alphabet",
          "CFGrammar": "terminals", "AttackPlan": "walk"}


@pytest.fixture(scope="module")
def grid_values() -> dict:
    """Instances of every value class, built from the default sweep grid."""
    from subsetkex.cli import _default_grid
    from subsetkex.protocols import p1_draw

    sk = subsetkex
    found = {name: [] for name in VALUE_FIELDS}
    for point in _default_grid():
        plan = point.plan
        pub, group = plan.pub, plan.pub.group
        instance = sk.build_p1_instance(point, 7)
        policy = point.policy.with_seed(3)
        pub2 = sk.PublicParams2(group, pub.w)
        alice = sk.p2_party_setup(pub2, point.u, policy)
        bob = sk.p2_party_setup(pub2, point.v, policy.with_seed(4))
        (picked, _), _, _ = sk.p2_exchange_full(pub2, alice, bob, policy)
        for value in (
                group.matrix, group, pub.w, pub.w.oracle(), pub.spec_a,
                pub.spec_a.grammar, pub, p1_draw(pub, policy, 1), pub2,
                alice, picked, plan, instance,
                sk.lattice_member(group, instance.target, point.v, 8)):
            found[type(value).__name__].append(value)
    return found


def with_fields(x, **changes):
    """A copy of x with some fields replaced, built without ``__init__``."""
    y = object.__new__(type(x))
    y.__dict__.update({f: getattr(x, f) for f in VALUE_FIELDS[type(x).__name__]},
                      **changes)
    return y


@pytest.mark.parametrize("name", sorted(VALUE_FIELDS))
def test_value_classes_behave_as_frozen_dataclasses(name, grid_values):
    cls = getattr(subsetkex, name)
    fields = VALUE_FIELDS[name]
    reference = dataclasses.make_dataclass(name, fields, frozen=True)
    assert not dataclasses.is_dataclass(cls)
    assert grid_values[name]
    for x in grid_values[name]:
        values = tuple(getattr(x, f) for f in fields)
        ref = reference(*values)
        assert hash(x) == hash(values) == hash(ref)
        if name not in OWN_REPR:
            assert repr(x) == repr(ref)
        twin = cls(**dict(zip(fields, values)))  # keyword construction
        assert twin is not x and twin == x and not twin != x
        assert hash(twin) == hash(x)
        assert x.__eq__(values) is NotImplemented and x != values
        for f in fields:
            other = with_fields(x, **{f: object()})
            assert other != x and x != other and not other == x, f
            with pytest.raises(AttributeError):
                setattr(x, f, getattr(x, f))
            with pytest.raises(AttributeError):
                delattr(x, f)
        with pytest.raises(AttributeError):
            x.extra = 1
        assert tuple(getattr(x, f) for f in fields) == values
        assert "extra" not in vars(x)
        if name in CACHED:  # computed afresh, kept in __dict__, then reused
            vars(x).pop(CACHED[name], None)
            first = getattr(x, CACHED[name])
            assert vars(x)[CACHED[name]] is first
            assert getattr(x, CACHED[name]) is first


def test_value_class_defaults_and_equal_groups(grid_values):
    for state in grid_values["Party2State"]:
        fresh = subsetkex.Party2State(secret_anchor=state.secret_anchor,
                                      published_spec=state.published_spec)
        assert fresh.peer_pick is None
        assert (fresh == state) == (state.peer_pick is None)
    # elements over equal, distinct groups are equal and hash alike
    for x in grid_values["GroupElement"]:
        group = subsetkex.GroupParams(subsetkex.IntMatrix(x.group.matrix.rows))
        twin = subsetkex.GroupElement(group, x.p, x.v, x.q)
        assert twin.group is not x.group and twin == x
        assert hash(twin) == hash(x)


def test_only_three_exported_dataclasses():
    exported = {name for name in subsetkex.__all__
                if isinstance(getattr(subsetkex, name), type)
                and dataclasses.is_dataclass(getattr(subsetkex, name))}
    assert exported == {"SamplePolicy", "AttackResult", "GridPoint"}
