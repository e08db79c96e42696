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
import math
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
    cfg_closure,
    cfg_membership,
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


def _decode_range(krange) -> str:
    if krange not in (RANGE_NATURALS, RANGE_INTEGERS):
        raise SchemaError(f"unknown orbit range {krange!r}")
    return krange


# The public block of each protocol, in wire order.  A block is a dict keyed
# by these names; p1's u, v and p2's u_alice, u_bob are the orbit generators.
_PUBLIC_FIELDS = {
    "p1": ("group", "u", "v", "w", "range", "policy"),
    "p2": ("group", "w", "u_alice", "u_bob", "range", "policy"),
}
# field -> (encoder, decoder of (JSON value, group)); other fields are vectors.
# The lambdas look serialize's functions up per call, so a wrapper installed
# on the module (perfbench's tracer) sees these calls too.
_FIELD_CODECS = {
    "group": (lambda group: serialize.encode_matrix(group),
              lambda obj, _: serialize.decode_group(obj)),
    "w": (lambda w: serialize.encode_element(w),
          lambda obj, group: serialize.decode_element(group, obj)),
    "range": (lambda krange: krange, lambda obj, _: _decode_range(obj)),
    "policy": (lambda policy: serialize.encode_policy(policy),
               lambda obj, _: serialize.decode_policy(obj)),
}
_VECTOR_CODEC = (lambda v: serialize.encode_vector(v),
                 lambda obj, group: serialize.decode_vector(obj, group.m))
# the keys of each protocol's instance file
_INSTANCE_KEYS = {
    "p1": ("protocol", "params", "seed", "gens_window", "target", "secrets"),
    "p2": ("protocol", "params", "seed"),
}


def _public_block(protocol: str, pub: dict) -> dict:
    return {field: _FIELD_CODECS.get(field, _VECTOR_CODEC)[0](pub[field])
            for field in _PUBLIC_FIELDS[protocol]}


def _decode_public(protocol: str, obj) -> dict:
    fields = _PUBLIC_FIELDS[protocol]
    serialize._require_keys(obj, fields, f"{protocol} params")
    pub = {}
    for field in fields:  # "group" first: the others are read in it
        decode = _FIELD_CODECS.get(field, _VECTOR_CODEC)[1]
        pub[field] = decode(obj[field], pub.get("group"))
    return pub


def _draw_public(args, group: GroupParams, master: int, protocol: str) -> dict:
    """Seeded public block of p1 or p2: vectors in wire order, then w."""
    rng = random.Random(derive_seed(master, f"instance.{protocol}"))
    vectors = [f for f in _PUBLIC_FIELDS[protocol] if f not in _FIELD_CODECS]
    pub = {field: _random_nonzero_vec(rng, group.m) for field in vectors}
    return dict(pub, group=group, w=_random_element(rng, group),
                range=args.range, policy=_policy_from(args, master))


def _read_instance(obj, protocol: str):
    """Checked header of an instance file: (public block, seed, gens_window).

    Only a p1 file has a ``gens_window``; it is None for p2.
    """
    serialize._require_keys(obj, _INSTANCE_KEYS[protocol],
                            f"{protocol} instance")
    if obj["protocol"] != protocol:
        raise SchemaError(f"instance protocol must be {protocol!r}")
    pub = _decode_public(protocol, obj["params"])
    seed = serialize._as_int(obj["seed"], "instance seed")
    gens_window = (serialize.decode_window(obj["gens_window"], "gens_window")
                   if "gens_window" in obj else None)
    return pub, seed, gens_window


def _p1_round(pub: dict, master: int):
    """p1 setup and one round seeded from ``master``.

    Returns (setup, (seed_a, seed_b), (alice, msg_a, bob, msg_b)).
    """
    from . import protocols

    setup = protocols.p1_setup(pub["group"], pub["u"], pub["v"], pub["w"],
                               pub["range"])
    seeds = derive_seed(master, "alice"), derive_seed(master, "bob")
    policy = pub["policy"]
    return setup, seeds, protocols.p1_round(
        setup, replace(policy, seed=seeds[0]), replace(policy, seed=seeds[1]))


def cmd_params_gen(args) -> int:
    if not 1 <= args.dim <= serialize.MAX_DIM:
        raise SchemaError(f"--dim must be in 1..{serialize.MAX_DIM}")
    if args.max_entry < 1:
        raise SchemaError("--max-entry must be at least 1")
    rng = random.Random(derive_seed(args.seed, "params.gen"))
    matrix = _random_matrix(rng, args.dim, args.max_entry)
    _emit(args, serialize.encode_matrix(GroupParams(matrix)))
    return 0


def cmd_instance_p1(args) -> int:
    gens_window = serialize.decode_window(args.gens_window, "gens_window")
    pub = _draw_public(args, _load_group(args), args.seed, "p1")
    _, _, (alice, msg_a, bob, _) = _p1_round(pub, args.seed)
    _emit(args, {
        "protocol": "p1",
        "params": _public_block("p1", pub),
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
    pub = _draw_public(args, _load_group(args), args.seed, "p2")
    _emit(args, {"protocol": "p2", "params": _public_block("p2", pub),
                 "seed": args.seed})
    return 0


def _decode_instance_p1(obj):
    """The attack instance of a p1 instance file.

    The target's stable exponents are capped at ``serialize.MAX_WINDOW``:
    without ``--window`` a candidate right factor gets the window
    p + q + 8 from its own exponents, and the lattice work grows faster
    than linearly in it.
    """
    from . import attacks

    pub, _, gens_window = _read_instance(obj, "p1")
    group = pub["group"]
    public = attacks.p1_public(group, pub["u"], pub["v"], pub["w"],
                               pub["range"], gens_window)
    target = serialize.decode_element(group, obj["target"])
    if max(target.p, target.q) > serialize.MAX_WINDOW:
        raise SchemaError(
            f"target stable exponents exceed {serialize.MAX_WINDOW}")
    return attacks.p1_attack_instance(public, target)


# ---------------------------------------------------------------------------
# kex simulation


def _kex_public(args, protocol: str):
    """The public block and master seed from --instance or --params."""
    if args.instance:
        pub, seed, _ = _read_instance(_read_json(args.instance), protocol)
        return pub, seed if args.seed is None else args.seed
    if not args.params:
        raise SchemaError("either --params or --instance is required")
    master = args.seed if args.seed is not None else 0
    return _draw_public(args, _load_group(args), master, protocol), master


def _emit_transcript(args, protocol: str, params: dict, encode, messages,
                     keys, seeds: dict) -> None:
    _emit(args, {
        "protocol": protocol,
        "params": params,
        "messages": [encode(msg) for msg in messages],
        "keys": {"alice": encode(keys[0]), "bob": encode(keys[1])},
        "seeds": seeds,
    })


def cmd_kex_p1(args) -> int:
    from . import protocols

    pub, master = _kex_public(args, "p1")
    setup, (seed_a, seed_b), round_ = _p1_round(pub, master)
    alice, msg_a, bob, msg_b = round_
    keys = protocols.p1_keys(setup, alice, msg_b, bob, msg_a)
    _emit_transcript(args, "p1", _public_block("p1", pub),
                     serialize.encode_element, (msg_a, msg_b), keys,
                     {"master": master, "alice": seed_a, "bob": seed_b})
    return 0


def cmd_kex_p2(args) -> int:
    from . import protocols

    pub, master = _kex_public(args, "p2")
    setup = protocols.PublicParams2(pub["group"], pub["w"])
    seed_a = derive_seed(master, "alice")
    seed_b = derive_seed(master, "bob")
    seed_x = derive_seed(master, "exchange")
    policy, krange = pub["policy"], pub["range"]
    alice = protocols.p2_party_setup(setup, pub["u_alice"],
                                     replace(policy, seed=seed_a), krange)
    bob = protocols.p2_party_setup(setup, pub["u_bob"],
                                   replace(policy, seed=seed_b), krange)
    _, msgs, keys = protocols.p2_exchange_full(
        setup, alice, bob, replace(policy, seed=seed_x))
    _emit_transcript(args, "p2", _public_block("p2", pub),
                     serialize.encode_element, msgs, keys,
                     {"master": master, "alice": seed_a, "bob": seed_b,
                      "exchange": seed_x})
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
    # each entry of x M^k, k <= m_a + n_b, is at most max|x_i| N^k, N the
    # largest column sum of |M|: refuse a draw whose key may not print
    n = max(sum(map(abs, col)) for col in group.matrix.cols)
    log_bound = math.log10(max(map(abs, x))) + (m_a + n_b) * math.log10(n)
    limit = sys.get_int_max_str_digits()
    if limit and log_bound >= limit:
        raise SchemaError(f"orbit-dh key may exceed {limit} decimal digits")
    msg_a, msg_b, key = protocols.orbit_dh(group, x, m_a, n_b,
                                           max_exp=args.max_exp)
    _emit_transcript(args, "orbit-dh",
                     {"group": serialize.encode_matrix(group),
                      "x": serialize.encode_vector(x)},
                     serialize.encode_vector, (msg_a, msg_b), (key, key),
                     {"master": master})
    return 0


# ---------------------------------------------------------------------------
# grammar tooling


def _read_grammar(args):
    """The --grammar file, its terminals checked against --params if given."""
    grammar = serialize.decode_grammar(_read_json(args.grammar))
    if getattr(args, "params", None):
        SubsetSpec(grammar, _load_group(args))  # checks the terminal alphabet
    return grammar


def cmd_grammar_orbit(args) -> int:
    group = _load_group(args)
    word = serialize.decode_word(serialize.loads(args.word), group.m)
    grammar = orbit_grammar(group, word, args.range)
    _emit(args, serialize.encode_grammar(grammar))
    return 0


def cmd_grammar_closure(args) -> int:
    _emit(args, serialize.encode_grammar(cfg_closure(_read_grammar(args))))
    return 0


def cmd_grammar_sample(args) -> int:
    word = sample_grammar(_read_grammar(args), _policy_from(args, args.seed))
    _emit(args, serialize.encode_word(word))
    return 0


def cmd_grammar_member(args) -> int:
    grammar = _read_grammar(args)
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
# optional integer fields of a grid entry -> least value; GridPoint holds
# their defaults
_GRID_COUNTS = {"max_length": 1, "depth_cap": 1, "max_iter": 0, "beam": 1,
                "max_nodes": 0}
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
        for key, least in _GRID_COUNTS.items():
            if given.get(key, least) < least:
                raise SchemaError(f"{key} must be at least 1" if least else
                                  f"{key} must be nonnegative")
        if "gens_window" in entry:
            given["gens_window"] = serialize.decode_window(
                entry["gens_window"], "gens_window")
        if entry.get("window") is not None:  # null: from each candidate
            given["window"] = serialize.decode_window(entry["window"], "window")
        if "range" in entry:
            given["krange"] = _decode_range(entry["range"])
        u, v = (serialize.decode_vector(entry[key], group.m)
                for key in ("u", "v"))
        if not (any(u) and any(v)):
            raise SchemaError("orbit word must be nonempty")
        points.append(attacks.GridPoint(
            grid_id=grid_id, rows=group.matrix.rows, u=u, v=v,
            w=(w.p, w.v, w.q), **given,
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
