"""CLI: subcommand behaviour, exit codes, byte-level determinism."""

import json
import math
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from subsetkex import attacks, cli, protocols, serialize
from subsetkex.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def params_file(tmp_path, capsys):
    path = tmp_path / "p.json"
    code = main(["params", "gen", "--dim", "2", "--seed", "3",
                 "--out", str(path)])
    capsys.readouterr()
    assert code == 0
    return str(path)


def test_params_gen_deterministic(capsys):
    c1, out1, _ = run(capsys, "params", "gen", "--dim", "3", "--seed", "5")
    c2, out2, _ = run(capsys, "params", "gen", "--dim", "3", "--seed", "5")
    assert c1 == c2 == 0
    assert out1 == out2
    obj = json.loads(out1)
    assert obj["m"] == 3 and len(obj["rows"]) == 3


def test_kex_p1_simulate_deterministic(capsys, params_file):
    c1, out1, _ = run(capsys, "kex", "p1", "simulate", "--seed", "7",
                      "--params", params_file)
    c2, out2, _ = run(capsys, "kex", "p1", "simulate", "--seed", "7",
                      "--params", params_file)
    assert c1 == c2 == 0 and out1 == out2
    obj = json.loads(out1)
    assert obj["protocol"] == "p1"
    assert obj["keys"]["alice"] == obj["keys"]["bob"]
    assert list(obj) == ["protocol", "params", "messages", "keys", "seeds"]


def test_kex_p2_and_orbit_dh(capsys, params_file):
    code, out, _ = run(capsys, "kex", "p2", "simulate", "--seed", "9",
                       "--params", params_file)
    assert code == 0
    obj = json.loads(out)
    assert obj["keys"]["alice"] == obj["keys"]["bob"]
    code, out, _ = run(capsys, "kex", "orbit-dh", "simulate", "--seed", "2",
                       "--params", params_file)
    assert code == 0
    obj = json.loads(out)
    assert obj["protocol"] == "orbit-dh"
    assert obj["keys"]["alice"] == obj["keys"]["bob"]


def test_grammar_pipeline(capsys, tmp_path, params_file):
    gpath = tmp_path / "g.json"
    code, _, _ = run(capsys, "grammar", "orbit", "--params", params_file,
                     "--word", '["x1"]', "--range", "naturals",
                     "--out", str(gpath))
    assert code == 0
    code, out, _ = run(capsys, "grammar", "member", "--grammar", str(gpath),
                       "--word", '["t^-1","x1","t"]')
    assert code == 0 and out.strip() == "true"
    code, out, _ = run(capsys, "grammar", "member", "--grammar", str(gpath),
                       "--word", '["x1","t"]')
    assert code == 0 and out.strip() == "false"
    cpath = tmp_path / "c.json"
    code, _, _ = run(capsys, "grammar", "closure", "--grammar", str(gpath),
                     "--params", params_file, "--out", str(cpath))
    assert code == 0
    # the closure the protocols publish for the orbit of u = (1, 0)
    group = serialize.decode_group(json.loads(Path(params_file).read_text()))
    published = protocols._closure_of_orbit(group, (1, 0), "naturals")
    assert json.loads(cpath.read_text()) == serialize.encode_grammar(
        published.grammar)
    code, out1, _ = run(capsys, "grammar", "sample", "--grammar", str(cpath),
                        "--seed", "6", "--max-len", "20")
    code2, out2, _ = run(capsys, "grammar", "sample", "--grammar", str(cpath),
                         "--seed", "6", "--max-len", "20")
    assert code == code2 == 0 and out1 == out2
    word = json.loads(out1)
    code, out, _ = run(capsys, "grammar", "member", "--grammar", str(cpath),
                       "--word", json.dumps(word))
    assert out.strip() == "true"


def test_instance_and_attacks(capsys, tmp_path, params_file):
    ipath = tmp_path / "inst.json"
    code, _, _ = run(capsys, "instance", "p1", "gen", "--params", params_file,
                     "--seed", "9", "--max-len", "8", "--out", str(ipath))
    assert code == 0
    instance = json.loads(ipath.read_text())
    assert instance["protocol"] == "p1"
    code, out1, _ = run(capsys, "attack", "rst", "--instance", str(ipath),
                        "--max-iter", "30")
    code2, out2, _ = run(capsys, "attack", "rst", "--instance", str(ipath),
                         "--max-iter", "30")
    assert code == code2 == 0 and out1 == out2
    result = json.loads(out1)
    assert set(result) == {"success", "recovered", "iterations",
                           "best_score", "elapsed_ms"}
    assert result["elapsed_ms"] == "0.000"  # deterministic clock by default
    code, out, _ = run(capsys, "attack", "descent", "--instance", str(ipath),
                       "--beam", "4", "--max-nodes", "200")
    assert code == 0


def test_attack_sweep_byte_identical(capsys):
    c1, out1, _ = run(capsys, "attack", "sweep", "--trials", "2", "--seed", "5")
    c2, out2, _ = run(capsys, "attack", "sweep", "--trials", "2", "--seed", "5")
    assert c1 == c2 == 0 and out1 == out2
    assert out1.startswith("grid_id,mode,trials,successes,mean_iters,mean_ms\n")


def test_selftest_oracle(capsys):
    code, out, _ = run(capsys, "selftest", "oracle", "--trials", "300")
    assert code == 0
    assert "all checks passed" in out


def test_instance_p2_roundtrip(capsys, tmp_path, params_file):
    ipath = tmp_path / "p2.json"
    code, _, _ = run(capsys, "instance", "p2", "gen", "--params", params_file,
                     "--seed", "4", "--out", str(ipath))
    assert code == 0
    c1, out1, _ = run(capsys, "kex", "p2", "simulate", "--instance", str(ipath))
    c2, out2, _ = run(capsys, "kex", "p2", "simulate", "--instance", str(ipath))
    assert c1 == c2 == 0 and out1 == out2
    obj = json.loads(out1)
    assert obj["keys"]["alice"] == obj["keys"]["bob"]
    assert obj["seeds"]["master"] == 4
    bad = tmp_path / "bad.json"
    for seed in ("4", True, "x"):
        bad.write_text(json.dumps(dict(json.loads(ipath.read_text()),
                                       seed=seed)))
        code, out, err = run(capsys, "kex", "p2", "simulate",
                             "--instance", str(bad))
        assert (code, out) == (2, "")
        assert err == "error: instance seed must be an integer\n"


def test_sampler_budget_exit_code(capsys, tmp_path):
    gpath = tmp_path / "wide.json"
    gpath.write_text(json.dumps({
        "nonterminals": ["S"],
        "start": "S",
        "rules": [{"lhs": "S", "rhs": ["x1"] * 40}],
    }))
    code, _, err = run(capsys, "grammar", "sample", "--grammar", str(gpath),
                       "--max-len", "4")
    assert code == 3 and "invariant failure" in err


def test_validation_exit_code(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"m":2,"rows":[[1,0]]}')
    code, _, err = run(capsys, "kex", "p1", "simulate", "--params", str(bad))
    assert code == 2 and "error:" in err
    missing = tmp_path / "missing.json"
    code, _, err = run(capsys, "grammar", "member", "--grammar", str(missing),
                       "--word", "[]")
    assert code == 2
    code, _, _ = run(capsys, "params")
    assert code == 2  # argparse usage error


def test_inputs_not_mutated(capsys, tmp_path, params_file):
    before = Path(params_file).read_bytes()
    run(capsys, "kex", "p1", "simulate", "--seed", "1", "--params", params_file)
    assert Path(params_file).read_bytes() == before


def test_transcript_reparse_roundtrip(capsys, params_file):
    _, out, _ = run(capsys, "kex", "p1", "simulate", "--seed", "4",
                    "--params", params_file)
    obj = json.loads(out)
    assert json.dumps(obj, separators=(",", ":")) + "\n" == out


def _with_bias(path):
    obj = json.loads(path.read_text())
    obj["params"]["policy"]["terminal_bias"] = "1/2"
    path.write_text(json.dumps(obj))


def test_instance_terminal_bias_reaches_samplers(capsys, tmp_path, params_file,
                                                 monkeypatch):
    paths = []
    for protocol in ("p1", "p2"):
        ipath = tmp_path / f"{protocol}.json"
        code, _, _ = run(capsys, "instance", protocol, "gen", "--params",
                         params_file, "--seed", "4", "--out", str(ipath))
        assert code == 0
        _with_bias(ipath)
        paths.append((protocol, ipath))
    seen = []

    def spy(original, *picks):
        def wrapper(*args):
            seen.extend(args[i] for i in picks)
            return original(*args)
        return wrapper

    monkeypatch.setattr(protocols, "p1_round", spy(protocols.p1_round, 1, 2))
    monkeypatch.setattr(protocols, "p2_party_setup",
                        spy(protocols.p2_party_setup, 2))
    monkeypatch.setattr(protocols, "p2_exchange_full",
                        spy(protocols.p2_exchange_full, 3))
    for protocol, ipath in paths:
        code, _, _ = run(capsys, "kex", protocol, "simulate",
                         "--instance", str(ipath))
        assert code == 0
    assert len(seen) == 5  # p1: alice, bob; p2: alice, bob, exchange
    assert all(policy.terminal_bias == Fraction(1, 2) for policy in seen)


def test_readme_commands_never_spot_check(capsys, params_file, monkeypatch):
    """Commutation is certified, never sampled, on the README commands."""
    commands = [("kex", protocol, "simulate", "--seed", "7", "--params",
                 params_file) for protocol in ("p1", "p2")]
    commands.append(("attack", "sweep", "--trials", "5", "--seed", "0"))
    expect = [run(capsys, *argv) for argv in commands]

    def refuse(*args, **kwargs):
        raise AssertionError("a library path sampled commutation")

    monkeypatch.setattr(protocols, "commutation_spot_check", refuse)
    assert [run(capsys, *argv) for argv in commands] == expect
    assert all(code == 0 and out for code, out, _ in expect)
    monkeypatch.undo()
    for point in cli._default_grid():  # the reference still passes
        pub = point.pub
        protocols.commutation_spot_check(pub.spec_a, pub.spec_b, trials=8)


@pytest.fixture
def p1_instance(tmp_path, capsys, params_file):
    path = tmp_path / "inst.json"
    code = main(["instance", "p1", "gen", "--params", params_file,
                 "--seed", "5", "--max-len", "8", "--out", str(path)])
    capsys.readouterr()
    assert code == 0
    return path


def test_attack_negative_window_exit_code(capsys, p1_instance):
    for attack in ("rst", "descent"):
        code, out, err = run(capsys, "attack", attack, "--instance",
                             str(p1_instance), "--window", "-1")
        assert (code, out) == (2, "")
        assert err == "error: window must be nonnegative\n"


def _assert_time(text):
    value = float(text)
    assert math.isfinite(value) and value >= 0.0


def test_attack_wall_clock(capsys, tmp_path, p1_instance):
    """--wall-clock changes only the timing fields, and they are times."""
    searches = (("rst", "--max-iter", "30"), ("descent", "--beam", "4"))
    for search in searches:
        argv = ("attack",) + search + ("--instance", str(p1_instance))
        code, plain, _ = run(capsys, *argv)
        code2, timed, _ = run(capsys, *argv, "--wall-clock")
        assert code == code2 == 0
        plain, timed = json.loads(plain), json.loads(timed)
        assert plain.pop("elapsed_ms") == "0.000"
        _assert_time(timed.pop("elapsed_ms"))
        assert timed == plain

    def sweep(*flags):
        """(output without timings, timings) of a one-trial sweep."""
        records = tmp_path / "trials.json"
        code, out, _ = run(capsys, "attack", "sweep", "--trials", "1",
                           "--seed", "5", "--trials-json", str(records),
                           *flags)
        assert code == 0
        rows = [line.rsplit(",", 1) for line in out.splitlines()]
        assert rows[0][1] == "mean_ms"
        trials = json.loads(records.read_text())
        rest = ([row[0] for row in rows],
                [dict(trial, elapsed_ms=None) for trial in trials])
        times = [row[1] for row in rows[1:]]
        return rest, times + [trial["elapsed_ms"] for trial in trials]

    plain, plain_times = sweep()
    timed, timed_times = sweep("--wall-clock")
    assert timed == plain
    assert {float(t) for t in plain_times} == {0.0}
    for value in timed_times:
        _assert_time(value)


def test_attack_instance_decimal_strings_strict(capsys, tmp_path, p1_instance):
    obj = json.loads(p1_instance.read_text())
    path = tmp_path / "target.json"
    for bad in ("1_000", " 12 ", "+5", "\u0663", "007", "-0", "-007"):
        target = dict(obj["target"], v=[bad] + obj["target"]["v"][1:])
        path.write_text(json.dumps(dict(obj, target=target)))
        code, out, err = run(capsys, "attack", "rst", "--instance", str(path))
        assert (code, out) == (2, ""), bad
        assert err == ("error: vector entry is not a decimal integer: "
                       f"{bad!r}\n")


def test_attack_instance_duplicate_key_refused(capsys, tmp_path, p1_instance):
    # the repeated q comes first, so the last value (the one kept by
    # json.loads alone) is the instance's own and the file decodes as before
    text = p1_instance.read_text()
    assert text.count('"target":{"p":') == 1
    path = tmp_path / "dup.json"
    path.write_text(text.replace('"target":{"p":', '"target":{"q":0,"p":'))
    code, out, err = run(capsys, "attack", "rst", "--instance", str(path))
    assert (code, out) == (2, "")
    assert err == "error: JSON object has a duplicate key\n"


def test_kex_p1_instance_header_checked(capsys, tmp_path, params_file,
                                       p1_instance):
    """Both protocols' instance headers are read by one checked reader."""
    code, out, _ = run(capsys, "kex", "p1", "simulate",
                       "--instance", str(p1_instance))
    assert code == 0 and json.loads(out)["seeds"]["master"] == 5
    p2_instance = tmp_path / "p2.json"
    assert run(capsys, "instance", "p2", "gen", "--params", params_file,
               "--seed", "5", "--out", str(p2_instance))[0] == 0
    p1_commands = (("kex", "p1", "simulate"), ("attack", "rst"))
    p2_keys = "['group', 'policy', 'range', 'u_alice', 'u_bob', 'w']"
    for path, commands, key, value, message in (
            (p1_instance, p1_commands, "protocol", "p2",
             "instance protocol must be 'p1'"),
            (p1_instance, p1_commands, "seed", "5",
             "instance seed must be an integer"),
            (p1_instance, p1_commands, "seed", True,
             "instance seed must be an integer"),
            (p1_instance, p1_commands, "gens_window", 65,
             "gens_window exceeds 64"),
            (p2_instance, (("kex", "p2", "simulate"),), "protocol", "p1",
             "instance protocol must be 'p2'"),
            (p2_instance, (("kex", "p2", "simulate"),), "seed", "5",
             "instance seed must be an integer"),
            (p2_instance, (("kex", "p2", "simulate"),), "seed", True,
             "instance seed must be an integer"),
            (p2_instance, (("kex", "p2", "simulate"),), "u_bob", None,
             f"p2 params must have exactly the keys {p2_keys}, got "
             "['group', 'policy', 'range', 'u_alice', 'w']")):
        obj = json.loads(path.read_text())
        if value is None:
            del obj["params"][key]
        else:
            obj[key] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(obj))
        for argv in commands:
            code, out, err = run(capsys, *argv, "--instance", str(bad))
            assert (code, out) == (2, ""), (argv, key, value)
            assert err == f"error: {message}\n"


def test_attack_windows_capped(capsys, tmp_path, params_file):
    """Windows up to MAX_WINDOW run in bounded time; one more is refused."""
    cap = serialize.MAX_WINDOW
    path = tmp_path / "cap.json"
    code, _, _ = run(capsys, "instance", "p1", "gen", "--params", params_file,
                     "--seed", "4", "--gens-window", str(cap),
                     "--out", str(path))
    assert code == 0
    obj = json.loads(path.read_text())
    assert obj["gens_window"] == cap
    # a target the walk cannot reach keeps it from stopping early
    obj["target"] = {"p": 3, "v": ["1", "1"], "q": 0}
    path.write_text(json.dumps(obj))
    t0 = time.perf_counter()
    for attack, budget in (("rst", ("--max-iter", "20")),
                           ("descent", ("--max-nodes", "512"))):
        code, out, _ = run(capsys, "attack", attack, "--instance", str(path),
                           "--window", str(cap), *budget)
        assert code == 0 and json.loads(out)["success"] is False
    assert time.perf_counter() - t0 < 5.0  # about 0.2 s on a 2-CPU Xeon

    def refused(argv, what, value):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert err == (f"error: {what} exceeds {cap}\n" if value > cap else
                       f"error: {what} must be nonnegative\n")

    bad = tmp_path / "bad.json"
    grid = tmp_path / "grid.json"
    entry = {"grid_id": "g", "rows": [[2]], "u": ["1"], "v": ["1"],
             "w": {"p": 1, "v": ["1"], "q": 1}}
    assert cli._decode_grid([dict(entry, window=cap, gens_window=cap)])
    for value in (cap + 1, -1):
        refused(("instance", "p1", "gen", "--params", params_file,
                 "--gens-window", str(value)), "gens_window", value)
        bad.write_text(json.dumps(dict(obj, gens_window=value)))
        for attack in ("rst", "descent"):
            refused(("attack", attack, "--instance", str(path),
                     "--window", str(value)), "window", value)
            refused(("attack", attack, "--instance", str(bad)),
                    "gens_window", value)
        for key in ("window", "gens_window"):
            grid.write_text(json.dumps([dict(entry, **{key: value})]))
            refused(("attack", "sweep", "--grid", str(grid)), key, value)


def test_attack_grid_entries_checked(capsys, tmp_path):
    """A grid entry is decoded like every other input, or refused."""
    cap = serialize.MAX_STABLE_EXPONENT
    grid = tmp_path / "grid.json"
    entry = {"grid_id": "g", "rows": [[2]], "u": ["1"], "v": ["1"],
             "w": {"p": cap, "v": ["1"], "q": cap}}
    grid.write_text(json.dumps([entry]))
    t0 = time.perf_counter()
    code, out, _ = run(capsys, "attack", "sweep", "--grid", str(grid),
                       "--trials", "1")
    assert code == 0 and out.startswith("grid_id,")
    assert time.perf_counter() - t0 < 15.0  # about 2.4 s on a 2-CPU Xeon
    (point,) = cli._decode_grid([dict(entry, max_iter=5)])
    assert (point.max_iter, point.beam) == (5, attacks.GridPoint.beam)
    for key, value, message in (
            ("w", {"p": cap + 1, "v": ["1"], "q": 0},
             f"element stable exponents exceed {cap}"),
            ("w", {"p": 0, "v": ["1"], "q": cap + 1},
             f"element stable exponents exceed {cap}"),
            ("max_length", "9", "max_length must be an integer"),
            ("max_iter", "5", "max_iter must be an integer"),
            ("depth_cap", True, "depth_cap must be an integer"),
            ("max_iters", 5, "unknown grid entry keys ['max_iters']"),
            ("rows", 2, "matrix field 'rows' must list exactly m rows"),
            ("range", "reals", "unknown orbit range 'reals'"),
            ("grid_id", "a,b", "grid_id must be a string without commas "
                               "or line breaks"),
            ("grid_id", "a\nb", "grid_id must be a string without commas "
                                "or line breaks"),
            ("grid_id", 7, "grid_id must be a string without commas "
                           "or line breaks"),
            ("u", ["0"], "orbit word must be nonempty"),
            ("v", ["0"], "orbit word must be nonempty")):
        grid.write_text(json.dumps([dict(entry, **{key: value})]))
        for trials in ("1", "0"):  # refused while decoding, before any run
            code, out, err = run(capsys, "attack", "sweep", "--grid",
                                 str(grid), "--trials", trials)
            assert (code, out) == (2, ""), (key, value, trials)
            assert err == f"error: {message}\n"


def test_attack_target_exponents_capped(capsys, tmp_path, p1_instance):
    """Targets with stable exponents up to MAX_WINDOW run in bounded time."""
    cap = serialize.MAX_WINDOW
    obj = json.loads(p1_instance.read_text())
    path = tmp_path / "target.json"

    def with_target(p, q):
        path.write_text(json.dumps(dict(obj, target={"p": p, "v": ["1", "0"],
                                                     "q": q})))
        return ("--instance", str(path))

    # the largest target accepted; (1, 0) is not in the image of M, so
    # the exponents survive reduction
    largest = with_target(cap, cap)
    inst = cli._decode_instance_p1(json.loads(path.read_text()))
    assert (inst.target.p, inst.target.q) == (cap, cap)
    t0 = time.perf_counter()
    for attack in ("rst", "descent"):  # default budgets, no --window
        code, out, _ = run(capsys, "attack", attack, *largest)
        assert code == 0 and json.loads(out)["success"] is False
    assert time.perf_counter() - t0 < 5.0  # about 0.3 s on a 2-CPU Xeon
    for p, q in ((cap + 1, 0), (0, cap + 1)):
        for attack in ("rst", "descent"):
            code, out, err = run(capsys, "attack", attack, *with_target(p, q))
            assert (code, out) == (2, "")
            assert err == f"error: target stable exponents exceed {cap}\n"


def test_grammar_member_word_capped(capsys, tmp_path, params_file):
    """CYK on the longest word accepted runs in bounded time."""
    cap = serialize.MAX_MEMBER_WORD
    orbit, closure = tmp_path / "g.json", tmp_path / "c.json"
    assert run(capsys, "grammar", "orbit", "--params", params_file, "--word",
               '["x1"]', "--out", str(orbit))[0] == 0
    assert run(capsys, "grammar", "closure", "--grammar", str(orbit),
               "--out", str(closure))[0] == 0
    t0 = time.perf_counter()
    # the slowest word shape measured for this closure grammar
    code, out, _ = run(capsys, "grammar", "member", "--grammar", str(closure),
                       "--word", json.dumps(["x1"] * cap))
    assert (code, out) == (0, "true\n")
    assert time.perf_counter() - t0 < 5.0  # about 0.2 s on a 2-CPU Xeon
    code, out, err = run(capsys, "grammar", "member", "--grammar",
                         str(closure), "--word", json.dumps(["x1"] * (cap + 1)))
    assert (code, out) == (2, "")
    assert err == f"error: word has more than {cap} tokens\n"


def test_dimension_capped(capsys, tmp_path):
    """The largest dimension accepted runs the attacks in bounded time."""
    cap = serialize.MAX_DIM
    params, inst = tmp_path / "p.json", tmp_path / "i.json"
    assert run(capsys, "params", "gen", "--dim", str(cap), "--seed", "1",
               "--out", str(params))[0] == 0
    assert run(capsys, "instance", "p1", "gen", "--params", str(params),
               "--seed", "2", "--out", str(inst))[0] == 0
    t0 = time.perf_counter()
    for attack in ("rst", "descent"):  # default budgets, no --window
        code, out, _ = run(capsys, "attack", attack, "--instance", str(inst))
        assert code == 0 and "iterations" in json.loads(out)
    assert time.perf_counter() - t0 < 15.0  # about 0.7 s on a 2-CPU Xeon

    def refused(argv, message):
        t0 = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert err == f"error: {message}\n", argv
        assert time.perf_counter() - t0 < 1.0, argv

    for dim in (0, -1, cap + 1):
        refused(("params", "gen", "--dim", str(dim)),
                f"--dim must be in 1..{cap}")
    refused(("params", "gen", "--max-entry", "0"),
            "--max-entry must be at least 1")
    rows = [[int(i == j) for j in range(cap + 1)] for i in range(cap + 1)]
    big = tmp_path / "big.json"
    big.write_text(json.dumps({"m": cap + 1, "rows": rows}))
    refused(("instance", "p1", "gen", "--params", str(big)),
            f"matrix dimension exceeds {cap}")
    obj = json.loads(inst.read_text())
    obj["params"]["group"] = {"m": cap + 1, "rows": rows}
    inst.write_text(json.dumps(obj))
    refused(("attack", "rst", "--instance", str(inst)),
            f"matrix dimension exceeds {cap}")
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps([{"grid_id": "g", "rows": rows,
                                 "u": ["1"] * (cap + 1), "v": ["1"] * (cap + 1),
                                 "w": {"p": 0, "v": ["1"] * (cap + 1), "q": 0}}]))
    refused(("attack", "sweep", "--grid", str(grid)),
            f"matrix dimension exceeds {cap}")


def test_negative_counts_refused(capsys, tmp_path, params_file, p1_instance):
    """Budgets and trial counts below 0 are refused where they are read."""
    entry = {"grid_id": "g", "rows": [[2]], "u": ["1"], "v": ["1"],
             "w": {"p": 1, "v": ["1"], "q": 1}}
    assert cli._decode_grid([dict(entry, max_iter=0, max_nodes=0, beam=1,
                                  max_length=1, depth_cap=1)])
    inst = str(p1_instance)
    grids = {}
    for key, value in (("max_iter", -5), ("max_nodes", -5), ("beam", 0),
                       ("max_length", 0), ("depth_cap", -1)):
        with pytest.raises(serialize.SchemaError):
            cli._decode_grid([dict(entry, **{key: value})])
        grids[key] = tmp_path / f"{key}.json"
        # a good first entry: the bad one is refused before any entry runs
        grids[key].write_text(json.dumps([entry, dict(entry, **{key: value})]))
    for argv, message in (
            (("attack", "rst", "--instance", inst, "--max-iter", "-7"),
             "argument --max-iter: must be nonnegative, got -7"),
            (("attack", "descent", "--instance", inst, "--max-nodes", "-1"),
             "argument --max-nodes: must be nonnegative, got -1"),
            (("attack", "descent", "--instance", inst, "--max-len", "-1"),
             "argument --max-len: must be nonnegative, got -1"),
            (("attack", "sweep", "--trials", "-1"),
             "argument --trials: must be nonnegative, got -1"),
            (("selftest", "oracle", "--trials", "-4"),
             "argument --trials: must be nonnegative, got -4"),
            (("kex", "orbit-dh", "simulate", "--params", params_file,
              "--max-exp", "-1"),
             "argument --max-exp: must be nonnegative, got -1"),
            (("attack", "sweep", "--grid", str(grids["max_iter"])),
             "max_iter must be nonnegative"),
            (("attack", "sweep", "--grid", str(grids["max_nodes"])),
             "max_nodes must be nonnegative"),
            (("attack", "sweep", "--grid", str(grids["beam"])),
             "beam must be at least 1"),
            (("attack", "sweep", "--grid", str(grids["max_length"])),
             "max_length must be at least 1"),
            (("attack", "sweep", "--grid", str(grids["depth_cap"])),
             "depth_cap must be at least 1")):
        t0 = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert err.endswith(f"error: {message}\n"), (argv, err)
        assert time.perf_counter() - t0 < 1.0, argv


def test_orbit_dh_key_bound_refused(capsys, tmp_path):
    """A draw whose key may not print is refused before any power is taken."""
    limit = sys.get_int_max_str_digits()
    small = tmp_path / "small.json"
    assert run(capsys, "params", "gen", "--dim", "2", "--max-entry", "1000",
               "--seed", "1", "--out", str(small))[0] == 0
    paths = [small]
    for digits in (10, 40):  # upper bidiagonal, so the determinant is nonzero
        rows = [[0] * 24 for _ in range(24)]
        for i in range(24):
            rows[i][i] = 10 ** (digits - 1) + 7 * i + 1
            if i < 23:
                rows[i][i + 1] = 10 ** (digits - 1) + 3 * i + 2
        paths.append(tmp_path / f"d{digits}.json")
        paths[-1].write_text(json.dumps({"m": 24, "rows": rows}))
    for path in paths:
        t0 = time.perf_counter()
        code, out, err = run(capsys, "kex", "orbit-dh", "simulate",
                             "--params", str(path), "--seed", "1")
        assert (code, out) == (2, ""), path
        assert err == f"error: orbit-dh key may exceed {limit} decimal digits\n"
        assert time.perf_counter() - t0 < 1.0, path
