"""Command-line front door.

Subcommands:

    params gen                  random group matrix with nonzero determinant
    instance p1|p2 gen          seeded protocol instances as JSON
    kex p1|p2|orbit-dh simulate full transcript of a seeded exchange
    grammar orbit|closure|sample|member
                                grammar tooling over the shared JSON schema
    attack rst|descent|sweep    cryptanalysis runs and CSV sweeps
    selftest oracle             randomized oracle-equivalence suite

Every byte of output is a function of the inputs and --seed (timings are
suppressed unless --wall-clock is given), so identical invocations produce
identical outputs.  Exit codes: 0 success, 2 validation error, 3 internal
invariant or key-agreement failure.
"""

from __future__ import annotations

import argparse
import random
import sys
import time
from dataclasses import replace
from pathlib import Path

from . import serialize
from .grammars import (
    RANGE_INTEGERS,
    RANGE_NATURALS,
    GrammarError,
    SampleBudgetError,
    SamplePolicy,
    SubsetSpec,
    cfg_invert,
    cfg_membership,
    cfg_star,
    cfg_union,
    orbit_grammar,
    sample_grammar,
)
from .groups import GroupParams, IntMatrix
from .seeding import derive_seed
from .serialize import SchemaError

# ``protocols`` and ``attacks`` are imported by the commands that run them,
# so the other commands start without loading either.

__all__ = ["main"]

_SIM_EXP_RANGE = 1 << 10  # exponent draw range for orbit-dh simulation


def _read_json(path: str):
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise SchemaError(f"cannot read {path}: {exc}") from None
    return serialize.loads(text)


def _emit(args, obj_or_text) -> None:
    text = obj_or_text if isinstance(obj_or_text, str) else serialize.dumps(obj_or_text)
    if not text.endswith("\n"):
        text += "\n"
    out = getattr(args, "out", None)
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _policy_from(args, seed: int) -> SamplePolicy:
    return SamplePolicy(max_length=args.max_len, depth_cap=args.depth_cap,
                        seed=seed)


def _load_group(args) -> GroupParams:
    return serialize.decode_group(_read_json(args.params))


# ---------------------------------------------------------------------------
# params / instance generation


def _random_matrix(rng: random.Random, dim: int, max_entry: int) -> IntMatrix:
    while True:
        rows = tuple(
            tuple(rng.randint(-max_entry, max_entry) for _ in range(dim))
            for _ in range(dim)
        )
        try:
            return IntMatrix(rows)
        except ValueError:
            continue


def _random_nonzero_vec(rng: random.Random, m: int, bound: int = 2) -> tuple:
    while True:
        v = tuple(rng.randint(-bound, bound) for _ in range(m))
        if any(v):
            return v


def _random_element(rng: random.Random, group: GroupParams):
    v = tuple(rng.randint(-3, 3) for _ in range(group.m))
    return group.element(rng.randint(0, 2), v, rng.randint(0, 2))


def _draw_public(args, group: GroupParams, master: int, protocol: str):
    """Seeded public data of a p1 or p2 instance: (vec, vec, w, policy).

    The vectors are p1's u and v, or p2's u_alice and u_bob.
    """
    rng = random.Random(derive_seed(master, f"instance.{protocol}"))
    first = _random_nonzero_vec(rng, group.m)
    second = _random_nonzero_vec(rng, group.m)
    w = _random_element(rng, group)
    return first, second, w, _policy_from(args, master)


def _decode_range(krange) -> str:
    if krange not in (RANGE_NATURALS, RANGE_INTEGERS):
        raise SchemaError(f"unknown orbit range {krange!r}")
    return krange


def cmd_params_gen(args) -> int:
    if not 1 <= args.dim <= serialize.MAX_DIM:
        raise SchemaError(f"--dim must be in 1..{serialize.MAX_DIM}")
    if args.max_entry < 1:
        raise SchemaError("--max-entry must be at least 1")
    rng = random.Random(derive_seed(args.seed, "params.gen"))
    matrix = _random_matrix(rng, args.dim, args.max_entry)
    _emit(args, serialize.encode_matrix(GroupParams(matrix)))
    return 0


def _p1_public_block(group, u, v, w, krange, policy) -> dict:
    return {
        "group": serialize.encode_matrix(group),
        "u": serialize.encode_vector(u),
        "v": serialize.encode_vector(v),
        "w": serialize.encode_element(w),
        "range": krange,
        "policy": serialize.encode_policy(policy),
    }


def _decode_p1_params(obj):
    serialize._require_keys(
        obj, ("group", "u", "v", "w", "range", "policy"), "p1 params")
    group = serialize.decode_group(obj["group"])
    u = serialize.decode_vector(obj["u"], group.m)
    v = serialize.decode_vector(obj["v"], group.m)
    w = serialize.decode_element(group, obj["w"])
    krange = _decode_range(obj["range"])
    policy = serialize.decode_policy(obj["policy"])
    return group, u, v, w, krange, policy


def _p2_public_block(group, w, u_alice, u_bob, krange, policy) -> dict:
    return {
        "group": serialize.encode_matrix(group),
        "w": serialize.encode_element(w),
        "u_alice": serialize.encode_vector(u_alice),
        "u_bob": serialize.encode_vector(u_bob),
        "range": krange,
        "policy": serialize.encode_policy(policy),
    }


def _decode_p2_params(obj):
    serialize._require_keys(
        obj, ("group", "w", "u_alice", "u_bob", "range", "policy"),
        "p2 params")
    group = serialize.decode_group(obj["group"])
    w = serialize.decode_element(group, obj["w"])
    u_alice = serialize.decode_vector(obj["u_alice"], group.m)
    u_bob = serialize.decode_vector(obj["u_bob"], group.m)
    krange = _decode_range(obj["range"])
    policy = serialize.decode_policy(obj["policy"])
    return group, w, u_alice, u_bob, krange, policy


def cmd_instance_p1(args) -> int:
    from . import protocols

    gens_window = serialize.decode_window(args.gens_window, "gens_window")
    group = _load_group(args)
    u, v, w, policy = _draw_public(args, group, args.seed, "p1")
    pub = protocols.p1_setup(group, u, v, w, args.range,
                             check_seed=derive_seed(args.seed, "check"))
    policy_a = replace(policy, seed=derive_seed(args.seed, "alice"))
    policy_b = replace(policy, seed=derive_seed(args.seed, "bob"))
    alice, msg_a, bob, _ = protocols.p1_round(pub, policy_a, policy_b)
    _emit(args, {
        "protocol": "p1",
        "params": _p1_public_block(group, u, v, w, args.range, policy),
        "seed": args.seed,
        "gens_window": gens_window,
        "target": serialize.encode_element(msg_a),
        "secrets": {
            "a1": serialize.encode_element(alice.a),
            "b1": serialize.encode_element(alice.b),
            "a2": serialize.encode_element(bob.a),
            "b2": serialize.encode_element(bob.b),
        },
    })
    return 0


def cmd_instance_p2(args) -> int:
    group = _load_group(args)
    u_alice, u_bob, w, policy = _draw_public(args, group, args.seed, "p2")
    _emit(args, {
        "protocol": "p2",
        "params": _p2_public_block(group, w, u_alice, u_bob, args.range,
                                   policy),
        "seed": args.seed,
    })
    return 0


def _read_instance_p1(obj):
    """Checked header of a p1 instance: (params tuple, seed, gens_window)."""
    serialize._require_keys(
        obj,
        ("protocol", "params", "seed", "gens_window", "target", "secrets"),
        "p1 instance",
    )
    if obj["protocol"] != "p1":
        raise SchemaError("instance protocol must be 'p1'")
    params = _decode_p1_params(obj["params"])
    seed = serialize._as_int(obj["seed"], "instance seed")
    gens_window = serialize.decode_window(obj["gens_window"], "gens_window")
    return params, seed, gens_window


def _decode_instance_p1(obj):
    """The attack instance of a p1 instance file.

    The target's stable exponents are capped at ``serialize.MAX_WINDOW``:
    without ``--window`` a candidate right factor gets the window
    p + q + 8 from its own exponents, and the lattice work grows faster
    than linearly in it.
    """
    from . import attacks

    params, seed, gens_window = _read_instance_p1(obj)
    group, u, v, w, krange, _ = params
    public = attacks.p1_public(group, u, v, w, krange, gens_window)
    target = serialize.decode_element(group, obj["target"])
    if max(target.p, target.q) > serialize.MAX_WINDOW:
        raise SchemaError(
            f"target stable exponents exceed {serialize.MAX_WINDOW}")
    return attacks.p1_attack_instance(public, target, seed)


# ---------------------------------------------------------------------------
# kex simulation


def cmd_kex_p1(args) -> int:
    from . import protocols

    if not args.instance and not args.params:
        raise SchemaError("either --params or --instance is required")
    if args.instance:
        params, seed, _ = _read_instance_p1(_read_json(args.instance))
        group, u, v, w, krange, policy = params
        master = seed if args.seed is None else args.seed
    else:
        group = _load_group(args)
        master = args.seed if args.seed is not None else 0
        u, v, w, policy = _draw_public(args, group, master, "p1")
        krange = args.range
    pub = protocols.p1_setup(group, u, v, w, krange,
                             check_seed=derive_seed(master, "check"))
    seed_a = derive_seed(master, "alice")
    seed_b = derive_seed(master, "bob")
    alice, msg_a, bob, msg_b = protocols.p1_round(
        pub, replace(policy, seed=seed_a), replace(policy, seed=seed_b))
    key_a, key_b = protocols.p1_keys(pub, alice, msg_b, bob, msg_a)
    _emit(args, {
        "protocol": "p1",
        "params": _p1_public_block(group, u, v, w, krange, policy),
        "messages": [serialize.encode_element(msg_a),
                     serialize.encode_element(msg_b)],
        "keys": {"alice": serialize.encode_element(key_a),
                 "bob": serialize.encode_element(key_b)},
        "seeds": {"master": master, "alice": seed_a, "bob": seed_b},
    })
    return 0


def cmd_kex_p2(args) -> int:
    from . import protocols

    if not args.instance and not args.params:
        raise SchemaError("either --params or --instance is required")
    if args.instance:
        obj = _read_json(args.instance)
        serialize._require_keys(obj, ("protocol", "params", "seed"), "p2 instance")
        if obj["protocol"] != "p2":
            raise SchemaError("instance protocol must be 'p2'")
        group, w, u_alice, u_bob, krange, policy = _decode_p2_params(
            obj["params"])
        seed = serialize._as_int(obj["seed"], "instance seed")
        master = seed if args.seed is None else args.seed
    else:
        group = _load_group(args)
        master = args.seed if args.seed is not None else 0
        u_alice, u_bob, w, policy = _draw_public(args, group, master, "p2")
        krange = args.range
    pub = protocols.PublicParams2(group, w)
    seed_a = derive_seed(master, "alice")
    seed_b = derive_seed(master, "bob")
    seed_x = derive_seed(master, "exchange")
    alice = protocols.p2_party_setup(pub, u_alice,
                                     replace(policy, seed=seed_a), krange)
    bob = protocols.p2_party_setup(pub, u_bob,
                                   replace(policy, seed=seed_b), krange)
    _, msgs, keys = protocols.p2_exchange_full(
        pub, alice, bob, replace(policy, seed=seed_x))
    _emit(args, {
        "protocol": "p2",
        "params": _p2_public_block(group, w, u_alice, u_bob, krange, policy),
        "messages": [serialize.encode_element(msgs[0]),
                     serialize.encode_element(msgs[1])],
        "keys": {"alice": serialize.encode_element(keys[0]),
                 "bob": serialize.encode_element(keys[1])},
        "seeds": {"master": master, "alice": seed_a, "bob": seed_b,
                  "exchange": seed_x},
    })
    return 0


def cmd_kex_orbit_dh(args) -> int:
    from . import protocols

    group = _load_group(args)
    master = args.seed if args.seed is not None else 0
    rng = random.Random(derive_seed(master, "orbit-dh"))
    x = _random_nonzero_vec(rng, group.m)
    draw = min(_SIM_EXP_RANGE, args.max_exp + 1)
    m_a = rng.randrange(draw)
    n_b = rng.randrange(draw)
    msg_a, msg_b, key = protocols.orbit_dh(group, x, m_a, n_b,
                                           max_exp=args.max_exp)
    _emit(args, {
        "protocol": "orbit-dh",
        "params": {"group": serialize.encode_matrix(group),
                   "x": serialize.encode_vector(x)},
        "messages": [serialize.encode_vector(msg_a),
                     serialize.encode_vector(msg_b)],
        "keys": {"alice": serialize.encode_vector(key),
                 "bob": serialize.encode_vector(key)},
        "seeds": {"master": master},
    })
    return 0


# ---------------------------------------------------------------------------
# grammar tooling


def _maybe_group(args):
    return _load_group(args) if getattr(args, "params", None) else None


def cmd_grammar_orbit(args) -> int:
    group = _load_group(args)
    word = serialize.decode_word(serialize.loads(args.word), group.m)
    grammar = orbit_grammar(group, word, args.range)
    _emit(args, serialize.encode_grammar(grammar))
    return 0


def cmd_grammar_closure(args) -> int:
    grammar = serialize.decode_grammar(_read_json(args.grammar))
    group = _maybe_group(args)
    if group is not None:
        SubsetSpec(grammar, group)  # validates the terminal alphabet
    closed = cfg_star(cfg_union(grammar, cfg_invert(grammar)))
    _emit(args, serialize.encode_grammar(closed))
    return 0


def cmd_grammar_sample(args) -> int:
    grammar = serialize.decode_grammar(_read_json(args.grammar))
    group = _maybe_group(args)
    if group is not None:
        SubsetSpec(grammar, group)
    policy = _policy_from(args, args.seed)
    word = sample_grammar(grammar, policy)
    _emit(args, serialize.encode_word(word))
    return 0


def cmd_grammar_member(args) -> int:
    grammar = serialize.decode_grammar(_read_json(args.grammar))
    word = serialize.decode_word(serialize.loads(args.word))
    if len(word) > serialize.MAX_MEMBER_WORD:
        raise SchemaError(
            f"word has more than {serialize.MAX_MEMBER_WORD} tokens")
    _emit(args, "true" if cfg_membership(word, grammar) else "false")
    return 0


# ---------------------------------------------------------------------------
# attacks


def _attack_clock(args):
    from . import attacks

    return time.perf_counter if args.wall_clock else attacks.zero_clock


def _window_arg(args):
    if args.window is None:
        return None
    return serialize.decode_window(args.window, "window")


def _emit_attack_result(args, result) -> None:
    recovered = None
    if result.recovered is not None:
        recovered = {
            "a": serialize.encode_element(result.recovered[0]),
            "b": serialize.encode_element(result.recovered[1]),
        }
    _emit(args, {
        "success": result.success,
        "recovered": recovered,
        "iterations": result.iterations,
        "best_score": str(result.best_score),
        "elapsed_ms": f"{result.elapsed * 1000.0:.3f}",
    })


def cmd_attack_rst(args) -> int:
    from . import attacks

    window = _window_arg(args)
    instance = _decode_instance_p1(_read_json(args.instance))
    result = attacks.rst_greedy(instance, max_iter=args.max_iter,
                                window=window, clock=_attack_clock(args))
    _emit_attack_result(args, result)
    return 0


def cmd_attack_descent(args) -> int:
    from . import attacks

    window = _window_arg(args)
    instance = _decode_instance_p1(_read_json(args.instance))
    result = attacks.derivation_descent(instance, beam=args.beam,
                                        max_nodes=args.max_nodes,
                                        max_len=args.max_len,
                                        window=window,
                                        clock=_attack_clock(args))
    _emit_attack_result(args, result)
    return 0


def _default_grid() -> tuple:
    """The sweep grid used when ``attack sweep`` gets no ``--grid``."""
    from . import attacks

    return (
        attacks.GridPoint(
            grid_id="abelian-m2",
            rows=((1, 0), (0, 1)),
            u=(1, 0), v=(0, 1), w=(1, (1, 1), 0),
            max_length=8, max_iter=24, beam=4, max_nodes=96, gens_window=0,
        ),
        attacks.GridPoint(
            grid_id="bs2",
            rows=((2,),),
            u=(1,), v=(1,), w=(1, (1,), 1),
            max_length=10, max_iter=32, beam=4, max_nodes=128, gens_window=2,
        ),
        attacks.GridPoint(
            grid_id="m2-upper",
            rows=((2, 1), (0, 3)),
            u=(1, 0), v=(0, 1), w=(1, (1, -1), 1),
            max_length=12, max_iter=32, beam=4, max_nodes=128, gens_window=2,
        ),
    )


_GRID_REQUIRED = frozenset({"grid_id", "rows", "u", "v", "w"})
# optional integer fields of a grid entry; GridPoint holds their defaults
_GRID_COUNTS = ("max_length", "depth_cap", "max_iter", "beam", "max_nodes")
_GRID_KNOWN = _GRID_REQUIRED | set(_GRID_COUNTS) | {
    "range", "gens_window", "window"}


def _decode_grid(obj) -> tuple:
    from . import attacks

    if not isinstance(obj, list) or not obj:
        raise SchemaError("grid must be a nonempty JSON array")
    points = []
    for entry in obj:
        if not isinstance(entry, dict):
            raise SchemaError("grid entries must be objects")
        if not _GRID_REQUIRED <= set(entry):
            raise SchemaError(
                f"grid entry needs the keys {sorted(_GRID_REQUIRED)}")
        unknown = set(entry) - _GRID_KNOWN
        if unknown:
            raise SchemaError(f"unknown grid entry keys {sorted(unknown)}")
        grid_id = entry["grid_id"]
        if not isinstance(grid_id, str) or any(c in grid_id for c in ",\r\n"):
            raise SchemaError(
                "grid_id must be a string without commas or line breaks")
        rows = entry["rows"]
        group = serialize.decode_group(
            {"m": len(rows) if isinstance(rows, list) else 0, "rows": rows})
        w = serialize.decode_element(group, entry["w"])
        given = {key: serialize._as_int(entry[key], key)
                 for key in _GRID_COUNTS if key in entry}
        for key in ("max_iter", "max_nodes"):
            if given.get(key, 0) < 0:
                raise SchemaError(f"{key} must be nonnegative")
        if "gens_window" in entry:
            given["gens_window"] = serialize.decode_window(
                entry["gens_window"], "gens_window")
        if entry.get("window") is not None:  # null: from each candidate
            given["window"] = serialize.decode_window(entry["window"], "window")
        if "range" in entry:
            given["krange"] = _decode_range(entry["range"])
        points.append(attacks.GridPoint(
            grid_id=grid_id,
            rows=group.matrix.rows,
            u=serialize.decode_vector(entry["u"], group.m),
            v=serialize.decode_vector(entry["v"], group.m),
            w=(w.p, w.v, w.q),
            **given,
        ))
    return tuple(points)


def cmd_attack_sweep(args) -> int:
    from . import attacks

    grid = _decode_grid(_read_json(args.grid)) if args.grid else _default_grid()
    clock = time.perf_counter if args.wall_clock else None
    out = attacks.run_experiments(grid, args.trials, args.seed, clock=clock,
                                  collect=bool(args.trials_json))
    if args.trials_json:
        csv_text, records = out
        Path(args.trials_json).write_text(
            serialize.dumps(records) + "\n", encoding="utf-8")
    else:
        csv_text = out
    _emit(args, csv_text)
    return 0


# ---------------------------------------------------------------------------
# selftest


def cmd_selftest_oracle(args) -> int:
    rng = random.Random(derive_seed(args.seed, "selftest.oracle"))
    for trial in range(args.trials):
        dim = rng.randint(1, 3)
        group = GroupParams(_random_matrix(rng, dim, 3))
        toks = group.tokens()
        w1 = tuple(toks[rng.randrange(len(toks))] for _ in range(rng.randint(0, 16)))
        w2 = tuple(toks[rng.randrange(len(toks))] for _ in range(rng.randint(0, 16)))
        g, h = group.evaluate(w1), group.evaluate(w2)
        if (g * h).oracle() != g.oracle() * h.oracle():
            print(f"oracle mismatch at trial {trial}", file=sys.stderr)
            return 3
        if (g * h) * h.inverse() != g:
            print(f"inverse mismatch at trial {trial}", file=sys.stderr)
            return 3
    print(f"selftest oracle: {args.trials} trials, all checks passed")
    return 0


# ---------------------------------------------------------------------------
# parser


_WINDOW_HELP = (f"membership lattice window (0..{serialize.MAX_WINDOW}; "
                "default: from each candidate)")


def _count(text: str) -> int:
    """Argument type of the budgets and trial counts: an integer >= 0."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be nonnegative, got {value}")
    return value


def _add_out(p):
    p.add_argument("--out", help="write output to FILE instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="subsetkex",
        description="grammar-defined subsets, key exchange, and attacks "
                    "over HNN-extensions of free-abelian groups",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_params = sub.add_parser("params", help="group parameter tooling")
    sp = p_params.add_subparsers(dest="sub", required=True)
    g = sp.add_parser("gen", help="random matrix with nonzero determinant")
    g.add_argument("--dim", type=int, default=2,
                   help=f"matrix dimension (1..{serialize.MAX_DIM})")
    g.add_argument("--max-entry", type=int, default=3,
                   help="entries are drawn from -MAX_ENTRY..MAX_ENTRY (>= 1)")
    g.add_argument("--seed", type=int, default=0)
    _add_out(g)
    g.set_defaults(func=cmd_params_gen)

    p_inst = sub.add_parser("instance", help="instance generation")
    sp = p_inst.add_subparsers(dest="sub", required=True)
    for name, fn in (("p1", cmd_instance_p1), ("p2", cmd_instance_p2)):
        pi = sp.add_parser(name)
        spi = pi.add_subparsers(dest="subsub", required=True)
        gi = spi.add_parser("gen")
        gi.add_argument("--params", required=True)
        gi.add_argument("--seed", type=int, default=0)
        gi.add_argument("--range", choices=(RANGE_NATURALS, RANGE_INTEGERS),
                        default=RANGE_INTEGERS)
        gi.add_argument("--max-len", type=int, default=16)
        gi.add_argument("--depth-cap", type=int, default=4)
        if name == "p1":
            gi.add_argument("--gens-window", type=int, default=2,
                            help="attack generators t^-k u t^k for |k| <= "
                                 f"this (0..{serialize.MAX_WINDOW})")
        _add_out(gi)
        gi.set_defaults(func=fn)

    p_kex = sub.add_parser("kex", help="protocol simulation")
    sp = p_kex.add_subparsers(dest="sub", required=True)
    for name, fn in (("p1", cmd_kex_p1), ("p2", cmd_kex_p2)):
        pk = sp.add_parser(name)
        spk = pk.add_subparsers(dest="subsub", required=True)
        sim = spk.add_parser("simulate")
        sim.add_argument("--params")
        sim.add_argument("--instance")
        sim.add_argument("--seed", type=int, default=None)
        sim.add_argument("--range", choices=(RANGE_NATURALS, RANGE_INTEGERS),
                         default=RANGE_INTEGERS)
        sim.add_argument("--max-len", type=int, default=16)
        sim.add_argument("--depth-cap", type=int, default=4)
        _add_out(sim)
        sim.set_defaults(func=fn)
    pk = sp.add_parser("orbit-dh")
    spk = pk.add_subparsers(dest="subsub", required=True)
    sim = spk.add_parser("simulate")
    sim.add_argument("--params", required=True)
    sim.add_argument("--seed", type=int, default=None)
    sim.add_argument("--max-exp", type=_count, default=1 << 20)
    _add_out(sim)
    sim.set_defaults(func=cmd_kex_orbit_dh)

    p_gram = sub.add_parser("grammar", help="grammar tooling")
    sp = p_gram.add_subparsers(dest="sub", required=True)
    g = sp.add_parser("orbit", help="conjugate-orbit grammar of a word")
    g.add_argument("--params", required=True)
    g.add_argument("--word", required=True, help='JSON word, e.g. \'["x1"]\'')
    g.add_argument("--range", choices=(RANGE_NATURALS, RANGE_INTEGERS),
                   default=RANGE_INTEGERS)
    _add_out(g)
    g.set_defaults(func=cmd_grammar_orbit)
    g = sp.add_parser("closure", help="grammar of the generated subgroup")
    g.add_argument("--grammar", required=True)
    g.add_argument("--params")
    _add_out(g)
    g.set_defaults(func=cmd_grammar_closure)
    g = sp.add_parser("sample", help="seeded sample word")
    g.add_argument("--grammar", required=True)
    g.add_argument("--params")
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--max-len", type=int, default=48)
    g.add_argument("--depth-cap", type=int, default=6)
    _add_out(g)
    g.set_defaults(func=cmd_grammar_sample)
    g = sp.add_parser("member", help="Earley language membership")
    g.add_argument("--grammar", required=True)
    g.add_argument("--word", required=True,
                   help="JSON word of at most "
                        f"{serialize.MAX_MEMBER_WORD} tokens (cubic in the "
                        "word length in the worst case)")
    _add_out(g)
    g.set_defaults(func=cmd_grammar_member)

    p_att = sub.add_parser("attack", help="cryptanalysis")
    sp = p_att.add_subparsers(dest="sub", required=True)
    a = sp.add_parser("rst", help="greedy generator-walk attack")
    a.add_argument("--instance", required=True)
    a.add_argument("--max-iter", type=_count, default=200)
    a.add_argument("--window", type=int, default=None, help=_WINDOW_HELP)
    a.add_argument("--wall-clock", action="store_true")
    _add_out(a)
    a.set_defaults(func=cmd_attack_rst)
    a = sp.add_parser("descent", help="derivation beam search attack")
    a.add_argument("--instance", required=True)
    a.add_argument("--beam", type=int, default=8)
    a.add_argument("--max-nodes", type=_count, default=2048)
    a.add_argument("--max-len", type=_count, default=48)
    a.add_argument("--window", type=int, default=None, help=_WINDOW_HELP)
    a.add_argument("--wall-clock", action="store_true")
    _add_out(a)
    a.set_defaults(func=cmd_attack_descent)
    a = sp.add_parser("sweep", help="CSV sweep over a parameter grid")
    a.add_argument("--grid", help="grid JSON file (default: built-in grid)")
    a.add_argument("--trials", type=_count, default=5)
    a.add_argument("--seed", type=int, default=0)
    a.add_argument("--trials-json", help="also dump per-trial records to FILE")
    a.add_argument("--wall-clock", action="store_true")
    _add_out(a)
    a.set_defaults(func=cmd_attack_sweep)

    p_self = sub.add_parser("selftest", help="randomized self-checks")
    sp = p_self.add_subparsers(dest="sub", required=True)
    s = sp.add_parser("oracle", help="oracle-equivalence suite")
    s.add_argument("--trials", type=_count, default=1000)
    s.add_argument("--seed", type=int, default=0)
    s.set_defaults(func=cmd_selftest_oracle)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except (SchemaError, GrammarError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except _invariant_failures() as exc:
        print(f"invariant failure: {exc}", file=sys.stderr)
        return 3


def _invariant_failures() -> tuple:
    """The exceptions that exit 3.

    An except clause evaluates this only for an exception that got past
    the clauses above it, so ``protocols`` is not loaded up front for it.
    """
    from .protocols import CommutationError, KeyAgreementError

    return KeyAgreementError, CommutationError, SampleBudgetError


if __name__ == "__main__":
    sys.exit(main())
