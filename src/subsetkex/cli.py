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


def _write_text(path: str, text: str) -> None:
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise SchemaError(f"cannot write {path}: {exc}") from None


def _emit(args, obj_or_text) -> None:
    text = obj_or_text if isinstance(obj_or_text, str) else serialize.dumps(obj_or_text)
    if not text.endswith("\n"):
        text += "\n"
    out = getattr(args, "out", None)
    if out:
        _write_text(out, text)
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


def _draw_public(args, group: GroupParams, master: int, protocol: str) -> dict:
    """Seeded public block of p1 or p2: orbit vectors in wire order, then w."""
    rng = random.Random(derive_seed(master, f"instance.{protocol}"))
    keys = serialize.SCHEMAS[f"{protocol} params"].keys
    pub = {key: _random_nonzero_vec(rng, group.m)
           for key, codec in keys.items() if codec.kind == "orbit"}
    return dict(pub, group=group, w=_random_element(rng, group),
                range=args.range, policy=_policy_from(args, master))


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
        setup, policy.with_seed(seeds[0]), policy.with_seed(seeds[1]))


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
    _emit(args, serialize.SCHEMAS["p1 instance"].encode(dict(
        pub, seed=args.seed, gens_window=gens_window, target=msg_a,
        a1=alice.a, b1=alice.b, a2=bob.a, b2=bob.b)))
    return 0


def cmd_instance_p2(args) -> int:
    pub = _draw_public(args, _load_group(args), args.seed, "p2")
    _emit(args, serialize.SCHEMAS["p2 instance"].encode(dict(pub, seed=args.seed)))
    return 0


def _attack_instance(inst: dict):
    """The attack instance of a decoded p1 instance file."""
    from . import attacks

    plan = attacks.AttackPlan.p1(inst["group"], inst["u"], inst["v"],
                                 inst["w"], inst["range"], inst["gens_window"])
    return attacks.AttackInstance(plan, inst["target"])


# ---------------------------------------------------------------------------
# kex simulation


def _dest(flag: str) -> str:
    return flag[2:].replace("-", "_")


def _kex_public(args, protocol: str):
    """The public block and master seed from --instance or --params.

    An instance file carries its own public block, so --instance refuses
    --params and the flags that draw a block (``_KEX_DRAWN``).  Those parse
    as None; with --params their defaults are filled in here.
    """
    if args.instance:
        for flag, _ in (("--params", {}),) + _KEX_DRAWN:
            if getattr(args, _dest(flag)) is not None:
                raise SchemaError(f"{flag} cannot be used with --instance")
        pub = serialize.SCHEMAS[f"{protocol} instance"].decode(
            _read_json(args.instance))
        return pub, pub["seed"] if args.seed is None else args.seed
    if not args.params:
        raise SchemaError("either --params or --instance is required")
    for flag, kwargs in _KEX_DRAWN:
        if getattr(args, _dest(flag)) is None:
            setattr(args, _dest(flag), kwargs["default"])
    master = args.seed if args.seed is not None else 0
    return _draw_public(args, _load_group(args), master, protocol), master


def _emit_transcript(args, protocol: str, pub: dict, encode, messages,
                     keys, seeds: dict) -> None:
    _emit(args, {
        "protocol": protocol,
        "params": serialize.SCHEMAS[f"{protocol} params"].encode(pub),
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
    _emit_transcript(args, "p1", pub, serialize.encode_element, (msg_a, msg_b),
                     keys, {"master": master, "alice": seed_a, "bob": seed_b})
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
                                     policy.with_seed(seed_a), krange)
    bob = protocols.p2_party_setup(setup, pub["u_bob"],
                                   policy.with_seed(seed_b), krange)
    _, msgs, keys = protocols.p2_exchange_full(
        setup, alice, bob, policy.with_seed(seed_x))
    _emit_transcript(args, "p2", pub, serialize.encode_element, msgs, keys,
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
    _emit_transcript(args, "orbit-dh", {"group": group, "x": x},
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


def _run_attack(args, search, **options) -> int:
    """Run one search on --instance and emit its result.

    Only the search call is timed, and only under --wall-clock.
    """
    window = (None if args.window is None
              else serialize.decode_window(args.window, "window"))
    instance = _attack_instance(
        serialize.SCHEMAS["p1 instance"].decode(_read_json(args.instance)))
    t0 = time.perf_counter()
    result = search(instance, window=window, **options)
    elapsed = time.perf_counter() - t0 if args.wall_clock else 0.0
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
        "elapsed_ms": f"{elapsed * 1000.0:.3f}",
    })
    return 0


def cmd_attack_rst(args) -> int:
    from . import attacks

    return _run_attack(args, attacks.rst_greedy, max_iter=args.max_iter)


def cmd_attack_descent(args) -> int:
    from . import attacks

    return _run_attack(args, attacks.derivation_descent, beam=args.beam,
                       max_nodes=args.max_nodes, max_len=args.max_len)


# the sweep grid used when ``attack sweep`` gets no ``--grid``
_DEFAULT_GRID = (
    dict(grid_id="abelian-m2", rows=((1, 0), (0, 1)), u=(1, 0), v=(0, 1),
         w=(1, (1, 1), 0), max_length=8, max_iter=24, beam=4, max_nodes=96,
         gens_window=0),
    dict(grid_id="bs2", rows=((2,),), u=(1,), v=(1,), w=(1, (1,), 1),
         max_length=10, max_iter=32, beam=4, max_nodes=128, gens_window=2),
    dict(grid_id="m2-upper", rows=((2, 1), (0, 3)), u=(1, 0), v=(0, 1),
         w=(1, (1, -1), 1), max_length=12, max_iter=32, beam=4,
         max_nodes=128, gens_window=2),
)


def _default_grid() -> tuple:
    from . import attacks

    return tuple(attacks.GridPoint(**point) for point in _DEFAULT_GRID)


def _grid_point(entry: dict):
    """The sweep point of a decoded grid entry; keys left out take
    GridPoint's defaults."""
    from . import attacks

    w = entry["w"]
    fields = dict(entry, rows=entry["rows"].matrix.rows, w=(w.p, w.v, w.q))
    fields["krange"] = fields.pop("range", attacks.GridPoint.krange)
    return attacks.GridPoint(**fields)


def cmd_attack_sweep(args) -> int:
    from . import attacks

    grid = (tuple(map(_grid_point, serialize.decode_grid(_read_json(args.grid))))
            if args.grid else _default_grid())
    clock = time.perf_counter if args.wall_clock else None
    records = []
    csv_text = attacks.run_experiments(
        grid, args.trials, args.seed, clock=clock,
        record=records.append if args.trials_json else None)
    if args.trials_json:
        _write_text(args.trials_json, serialize.dumps(records) + "\n")
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


def _count(text: str) -> int:
    """Argument type of the budgets and trial counts: an integer >= 0."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be nonnegative, got {value}")
    return value


# (flag, add_argument keywords) of the arguments that several commands share
_OUT = ("--out", dict(help="write output to FILE instead of stdout"))
_SEED = ("--seed", dict(type=int, default=0))
_SIM_SEED = ("--seed", dict(type=int, default=None))
_PARAMS = ("--params", dict(required=True))
_GRAMMAR = ("--grammar", dict(required=True))
_INSTANCE = ("--instance", dict(required=True))
_RANGE = ("--range", dict(choices=(RANGE_NATURALS, RANGE_INTEGERS),
                          default=RANGE_INTEGERS))
_POLICY = (("--max-len", dict(type=int, default=16)),
           ("--depth-cap", dict(type=int, default=4)))
_WINDOW = ("--window", dict(type=int, default=None, help="membership lattice "
           f"window (0..{serialize.MAX_WINDOW}; default: from each candidate)"))
_WALL_CLOCK = ("--wall-clock", dict(action="store_true"))
_KEX_DRAWN = (_RANGE, *_POLICY)  # kex flags that draw a public block
_KEX = (("--params", {}), ("--instance", {}), _SIM_SEED,
        *((flag, dict(kwargs, default=None)) for flag, kwargs in _KEX_DRAWN),
        _OUT)

# (name, help) of each command family, in help order
_FAMILIES = (
    ("params", "group parameter tooling"), ("instance", "instance generation"),
    ("kex", "protocol simulation"), ("grammar", "grammar tooling"),
    ("attack", "cryptanalysis"), ("selftest", "randomized self-checks"),
)

# (path, help or None, handler, arguments) of each command, in help order
_COMMANDS = (
    (("params", "gen"), "random matrix with nonzero determinant",
     cmd_params_gen, (
         ("--dim", dict(type=int, default=2,
                        help=f"matrix dimension (1..{serialize.MAX_DIM})")),
         ("--max-entry", dict(type=int, default=3, help="entries are drawn "
                              "from -MAX_ENTRY..MAX_ENTRY (>= 1)")),
         _SEED, _OUT)),
    (("instance", "p1", "gen"), None, cmd_instance_p1, (
        _PARAMS, _SEED, _RANGE, *_POLICY,
        ("--gens-window", dict(type=int, default=2, help="attack generators "
         f"t^-k u t^k for |k| <= this (0..{serialize.MAX_WINDOW})")),
        _OUT)),
    (("instance", "p2", "gen"), None, cmd_instance_p2,
     (_PARAMS, _SEED, _RANGE, *_POLICY, _OUT)),
    (("kex", "p1", "simulate"), None, cmd_kex_p1, _KEX),
    (("kex", "p2", "simulate"), None, cmd_kex_p2, _KEX),
    (("kex", "orbit-dh", "simulate"), None, cmd_kex_orbit_dh, (
        _PARAMS, _SIM_SEED, ("--max-exp", dict(type=_count, default=1 << 20)),
        _OUT)),
    (("grammar", "orbit"), "conjugate-orbit grammar of a word",
     cmd_grammar_orbit, (
         _PARAMS,
         ("--word", dict(required=True, help='JSON word, e.g. \'["x1"]\'')),
         _RANGE, _OUT)),
    (("grammar", "closure"), "grammar of the generated subgroup",
     cmd_grammar_closure, (_GRAMMAR, ("--params", {}), _OUT)),
    (("grammar", "sample"), "seeded sample word", cmd_grammar_sample, (
        _GRAMMAR, ("--params", {}), _SEED,
        ("--max-len", dict(type=int, default=48)),
        ("--depth-cap", dict(type=int, default=6)), _OUT)),
    (("grammar", "member"), "Earley language membership",
     cmd_grammar_member, (
         _GRAMMAR,
         ("--word", dict(required=True, help="JSON word of at most "
                         f"{serialize.MAX_MEMBER_WORD} tokens (cubic in the "
                         "word length in the worst case)")),
         _OUT)),
    (("attack", "rst"), "greedy generator-walk attack", cmd_attack_rst, (
        _INSTANCE, ("--max-iter", dict(type=_count, default=200)),
        _WINDOW, _WALL_CLOCK, _OUT)),
    (("attack", "descent"), "derivation beam search attack",
     cmd_attack_descent, (
         _INSTANCE, ("--beam", dict(type=int, default=8)),
         ("--max-nodes", dict(type=_count, default=2048)),
         ("--max-len", dict(type=_count, default=48)),
         _WINDOW, _WALL_CLOCK, _OUT)),
    (("attack", "sweep"), "CSV sweep over a parameter grid",
     cmd_attack_sweep, (
         ("--grid", dict(help="grid JSON file (default: built-in grid)")),
         ("--trials", dict(type=_count, default=5)), _SEED,
         ("--trials-json", dict(help="also dump per-trial records to FILE")),
         _WALL_CLOCK, _OUT)),
    (("selftest", "oracle"), "oracle-equivalence suite", cmd_selftest_oracle,
     (("--trials", dict(type=_count, default=1000)), _SEED)),
)

# the namespace attribute that holds the subcommand name at each depth
_DESTS = ("command", "sub", "subsub")


def build_parser(argv=()) -> argparse.ArgumentParser:
    """The parser, built from ``_FAMILIES`` and ``_COMMANDS``.

    Every family is listed, but only the family that argv names gets its
    subcommands, from its rows of the command table.  The family is the
    first argument that is not an option.  The top-level help and usage
    errors read the same whichever family is built.
    """
    parsers = {(): argparse.ArgumentParser(
        prog="subsetkex",
        description="grammar-defined subsets, key exchange, and attacks "
                    "over HNN-extensions of free-abelian groups",
    )}
    subparsers = {}
    wanted = next((a for a in argv if not a.startswith("-")), None)

    def child(path: tuple, **kwargs) -> argparse.ArgumentParser:
        """The parser at path, added under its parent on first use."""
        if path not in parsers:
            parent = path[:-1]
            if parent not in subparsers:
                subparsers[parent] = parsers[parent].add_subparsers(
                    dest=_DESTS[len(parent)], required=True)
            parsers[path] = subparsers[parent].add_parser(path[-1], **kwargs)
        return parsers[path]

    for name, help_text in _FAMILIES:
        child((name,), help=help_text)
    for path, help_text, handler, arguments in _COMMANDS:
        if path[0] != wanted:
            continue
        for depth in range(2, len(path)):
            child(path[:depth])  # no help=: help=None would list the command
        leaf = child(path, **({} if help_text is None else {"help": help_text}))
        for flag, kwargs in arguments:
            leaf.add_argument(flag, **kwargs)
        leaf.set_defaults(func=handler)
    return parsers[()]


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser(argv)
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
