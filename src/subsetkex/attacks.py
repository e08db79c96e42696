"""Length-based cryptanalysis harness for the subset key-exchange instances.

Two attack strategies against p1-style targets a1 w b1:

  rst_greedy          extend a candidate left factor one subgroup generator
                      at a time, steering by a distance-to-subset score of
                      the induced right factor,
  derivation_descent  beam search down the leftmost derivations of the
                      published grammar, scoring partial derivations by the
                      length of the induced right factor.

The right-factor membership test is exact: candidates are mapped into the
rational semidirect model, scaled by det(M)^K, and solved against the
Hermite-normal-form basis of the window lattice spanned by gen M^k for
|k| <= K.  A "member" verdict is a certificate; "unknown" only means the
window was too small to scale the candidate.  Success additionally requires
the recovered pair to reproduce the target exactly and to commute with the
opposite subset, certified exactly in the abelian base hull (a factor
outside it, or a subset without the certificate, is not a break), so the
harness cannot report a false break.

Experiment sweeps are reproducible: per-trial seeds derive from one master
seed and the timing column uses an injectable clock that defaults to a
constant, so repeated sweeps emit byte-identical CSV.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Callable, Optional, Sequence

from .grammars import (
    SamplePolicy,
    SubsetSpec,
    shortest_nonempty_word,
    shortest_word,
)
from .groups import (
    GroupElement,
    GroupParams,
    IntMatrix,
    OracleElement,
    Vec,
    default_length,
)
from .protocols import PublicParams1, p1_draw, p1_setup
from .seeding import derive_seed

__all__ = [
    "MEMBER",
    "NON_MEMBER_IN_WINDOW",
    "UNKNOWN",
    "MembershipVerdict",
    "AttackInstance",
    "AttackResult",
    "P1Public",
    "GridPoint",
    "lattice_member",
    "subset_distance",
    "extract_orbit_generator",
    "rst_greedy",
    "derivation_descent",
    "verify_break",
    "p1_public",
    "p1_attack_instance",
    "build_p1_instance",
    "run_experiments",
    "zero_clock",
    "CSV_HEADER",
]

MEMBER = "member"
NON_MEMBER_IN_WINDOW = "non-member-in-window"
UNKNOWN = "unknown"

_T_PENALTY = 1 << 20
_MAX_DIST = 1 << 40

CSV_HEADER = "grid_id,mode,trials,successes,mean_iters,mean_ms"


def zero_clock() -> float:
    """Constant clock: keeps sweep output byte-identical across runs."""
    return 0.0


# ---------------------------------------------------------------------------
# integer lattices in echelon / Hermite form


def _xgcd(a: int, b: int):
    x, next_x = 1, 0
    y, next_y = 0, 1
    g, next_g = a, b
    while next_g:
        q = g // next_g
        x, next_x = next_x, x - q * next_x
        y, next_y = next_y, y - q * next_y
        g, next_g = next_g, g - q * next_g
    return x, y, g


class _EchelonLattice:
    """Row lattice kept in Hermite-style echelon form.

    Supports exact membership (divisibility descent along pivots) and a
    nearest-rounding reduction used as the Babai residual for distances.
    Treated as immutable once built.
    """

    def __init__(self, dim: int):
        self.dim = dim
        self.rows: list = []
        self.pivots: list = []  # pivot column of each row, strictly increasing

    def add(self, vec: Sequence[int]) -> None:
        vec = list(vec)
        for j in range(self.dim):
            if not vec[j]:
                continue
            pos = None
            for idx, pcol in enumerate(self.pivots):
                if pcol == j:
                    pos = idx
                    break
                if pcol > j:
                    break
            if pos is None:
                where = 0
                while where < len(self.pivots) and self.pivots[where] < j:
                    where += 1
                self.rows.insert(where, vec)
                self.pivots.insert(where, j)
                return
            row = self.rows[pos]
            a, b = row[j], vec[j]
            if b % a == 0:
                q = b // a
                for k in range(j, self.dim):
                    vec[k] -= q * row[k]
            else:
                x, y, g = _xgcd(a, b)
                ag, bg = a // g, b // g
                for k in range(j, self.dim):
                    ra, rb = row[k], vec[k]
                    row[k] = x * ra + y * rb
                    vec[k] = -bg * ra + ag * rb

    def normalize(self) -> None:
        """Canonical Hermite form: positive pivots, reduced entries above."""
        for idx in range(len(self.rows)):
            j = self.pivots[idx]
            if self.rows[idx][j] < 0:
                self.rows[idx] = [-e for e in self.rows[idx]]
        for idx in range(len(self.rows) - 1, -1, -1):
            j = self.pivots[idx]
            piv = self.rows[idx][j]
            for above in range(idx):
                q = self.rows[above][j] // piv
                if q:
                    self.rows[above] = [
                        e - q * f for e, f in zip(self.rows[above], self.rows[idx])
                    ]

    def contains(self, vec: Sequence[int]) -> bool:
        vec = list(vec)
        for idx, j in enumerate(self.pivots):
            if vec[j]:
                q, r = divmod(vec[j], self.rows[idx][j])
                if r:
                    return False
                row = self.rows[idx]
                for k in range(j, self.dim):
                    vec[k] -= q * row[k]
        return not any(vec)

    def reduce_nearest(self, vec: Sequence[int]) -> list:
        """Residual after rounding each pivot coordinate to the nearest layer."""
        vec = list(vec)
        for idx, j in enumerate(self.pivots):
            piv = self.rows[idx][j]
            q = (2 * vec[j] + piv) // (2 * piv)
            if q:
                row = self.rows[idx]
                for k in range(j, self.dim):
                    vec[k] -= q * row[k]
        return vec


@lru_cache(maxsize=256)
def _window_lattice(matrix: IntMatrix, gen: Vec, window: int) -> _EchelonLattice:
    """HNF basis of span{gen M^k : -K <= k <= K}, scaled by det(M)^K.

    Keyed on the matrix so that the cache pins no group (nor its power memo).
    """
    det = matrix.det
    up, down = [gen], [gen]  # gen M^k and gen adj(M)^k = det^k gen M^-k
    for _ in range(window):
        up.append(up[-1] @ matrix)
        down.append(down[-1] @ matrix.adjugate)
    lat = _EchelonLattice(matrix.dim)
    for k in range(-window, window + 1):
        row = up[k] if k >= 0 else down[-k]
        scale = det ** (window + min(k, 0))
        lat.add([e * scale for e in row])
    lat.normalize()
    return lat


@dataclass(frozen=True)
class MembershipVerdict:
    """Outcome of a window-lattice membership query."""

    value: str
    window: int

    @property
    def is_member(self) -> bool:
        return self.value == MEMBER


def _scaled_point(group: GroupParams, v, window: int):
    """(d, z): the t-exponent of v and its base part scaled by det^window.

    z is None when not integral.  For t^p u t^-q, whose base part is
    u M^-p = u adj(M)^p / det^p, z stays in the integers.
    """
    if window < 0:
        raise ValueError("window must be nonnegative")
    if isinstance(v, GroupElement):
        z, d = v.v @ group._power(-v.p), v.p - v.q
        if window >= v.p:
            return d, [e * group.det ** (window - v.p) for e in z]
        div = group.det ** (v.p - window)
        return d, None if any(e % div for e in z) else [e // div for e in z]
    if isinstance(v, OracleElement):
        a, d = v.a, v.d
    else:
        a, d = tuple(Fraction(int(e)) for e in v), 0
    scale = group.det ** window
    z = []
    for f in a:
        num = f * scale
        if num.denominator != 1:
            return d, None
        z.append(num.numerator)
    return d, z


def lattice_member(group: GroupParams, v, gen: Sequence[int],
                   window: int) -> MembershipVerdict:
    """Decide membership in the integer span of gen M^k for |k| <= window.

    ``v`` may be a base vector, a group element or an oracle point (a, d).
    A nonzero stable-letter exponent d can never lie in the base hull, so it
    is a certified non-member.  Denominators beyond det^window cannot be
    scaled into the window and come back "unknown".  "member" is exact.
    """
    gen = tuple(int(e) for e in gen)
    d, z = _scaled_point(group, v, window)
    if d != 0:
        return MembershipVerdict(NON_MEMBER_IN_WINDOW, window)
    if z is None:
        return MembershipVerdict(UNKNOWN, window)
    lat = _window_lattice(group.matrix, gen, window)
    value = MEMBER if lat.contains(z) else NON_MEMBER_IN_WINDOW
    return MembershipVerdict(value, window)


def subset_distance(group: GroupParams, v, gen: Sequence[int],
                    window: int) -> int:
    """Bit size of the Babai-rounded residual against the window basis.

    Nonzero stable exponents draw a stiff per-unit penalty; candidates that
    cannot be scaled into the window score as maximally distant.  The
    distance is 0 exactly when ``lattice_member`` says "member" (see
    ``rst_greedy``).
    """
    gen = tuple(int(e) for e in gen)
    d, z = _scaled_point(group, v, window)
    penalty = _T_PENALTY * abs(d)
    if z is None:
        return _MAX_DIST + penalty
    residual = _window_lattice(group.matrix, gen, window).reduce_nearest(z)
    return penalty + sum(abs(e).bit_length() for e in residual)


def extract_orbit_generator(spec: SubsetSpec) -> Vec:
    """Recover the orbit's base vector from a published grammar.

    The shortest nonempty word of an orbit closure is the un-conjugated
    generator word (or its inverse), which evaluates to a base element.
    This uses public information only.
    """
    word = shortest_nonempty_word(spec.grammar)
    if word is None:
        raise ValueError("language contains no nonempty word")
    g = spec.group.evaluate(word)
    if g.p or g.q:
        raise ValueError("shortest sample is not a base element")
    return g.v


# ---------------------------------------------------------------------------
# instances and results


@dataclass(frozen=True)
class AttackInstance:
    """One cryptanalysis target: pub is the public data, target = a1 w b1.

    ``gens_a`` switches on generator mode (a finite approximation of the
    left subset); when None the grammar of pub.spec_a is attacked directly.
    ``gen_b`` is the right orbit's generator, which certifies candidate
    right factors; when not given it is recovered from pub.spec_b.
    """

    pub: PublicParams1
    target: GroupElement
    gens_a: Optional[tuple] = None
    gen_b: Optional[Vec] = None

    def __post_init__(self):
        if self.gen_b is None:
            object.__setattr__(self, "gen_b",
                               extract_orbit_generator(self.pub.spec_b))


@dataclass(frozen=True)
class AttackResult:
    success: bool
    recovered: Optional[tuple]  # (a, b) with a w b = target when success
    iterations: int
    best_score: int
    elapsed: float

    def __post_init__(self):
        if self.success:
            assert self.recovered is not None


def verify_break(pub: PublicParams1, target1: GroupElement,
                 target2: GroupElement, a: GroupElement, b: GroupElement,
                 c: GroupElement, d: GroupElement) -> bool:
    """Sufficient condition for computing the shared key from two cracks.

    Requires a w b = target1 and c w d = target2 exactly, plus a commuting
    with the right subset and b with the left one; then a c w d b reproduces
    the session key.  Commutation is certified exactly: a and b have
    p == q and both subsets are ``t_balanced``, so all of them lie in the
    abelian base hull (the kernel of t -> 1).  Anything else returns False.
    """
    if a * pub.w * b != target1:
        return False
    if (c, d, target2) != (a, b, target1) and c * pub.w * d != target2:
        return False
    return (a.p == a.q and b.p == b.q and pub.spec_a.grammar.t_balanced
            and pub.spec_b.grammar.t_balanced)


def _membership_window(b: GroupElement, window: Optional[int]) -> int:
    # denominators of base-hull elements are bounded by det^(p+q)
    return window if window is not None else b.p + b.q + 8


def _certifier(instance: AttackInstance, window: Optional[int]):
    """The break test: ``certified(a, b)``.

    It holds when b is a window-lattice member and the pair (a, b), used as
    both cracks, passes ``verify_break``.
    """
    pub = instance.pub

    def certified(a_cand: GroupElement, b_cand: GroupElement) -> bool:
        verdict = lattice_member(pub.group, b_cand, instance.gen_b,
                                 _membership_window(b_cand, window))
        return verdict.is_member and verify_break(
            pub, instance.target, instance.target,
            a_cand, b_cand, a_cand, b_cand,
        )

    return certified


def rst_greedy(instance: AttackInstance, max_iter: int = 200,
               window: Optional[int] = None,
               clock: Callable[[], float] = time.perf_counter) -> AttackResult:
    """Greedy one-generator-at-a-time attack on a generator-mode instance.

    Starting from the identity, every iteration appends the generator (or
    inverse) whose induced right factor w^-1 a^-1 target scores closest to
    the right subset; the scan stops as soon as a right factor is a
    certified member and the pair verifies.  Ties break toward the lowest
    generator index so runs reproduce.

    The right factor of the candidate a = current s factors as
    (w^-1 s^-1)(current^-1 target): the head w^-1 s^-1 is fixed for the
    whole attack and the rest changes once per iteration, so a candidate
    costs one product.  It also costs one lattice pass: the Hermite pivots
    are positive, so nearest rounding recovers every coefficient of a
    lattice point exactly, and the Babai residual is zero, i.e. the
    distance is 0, exactly when the point is a member (a nonzero t-exponent
    or an unscalable point scores at least 2^20).  Only a distance-0
    candidate is certified.
    """
    if instance.gens_a is None:
        raise ValueError("rst_greedy needs generator mode (gens_a supplied)")
    pub = instance.pub
    group = pub.group
    gen_b = instance.gen_b
    certified = _certifier(instance, window)

    def distance(b_cand: GroupElement) -> int:
        return subset_distance(group, b_cand, gen_b,
                               _membership_window(b_cand, window))

    steps = []
    for gen in instance.gens_a:
        steps.append(gen)
        steps.append(gen.inverse())
    w_inv = pub.w.inverse()
    t0 = clock()
    current = group.identity()
    rest = instance.target  # current^-1 target

    b0 = w_inv * rest
    best = distance(b0)
    if best == 0 and certified(current, b0):
        return AttackResult(True, (current, b0), 0, 0, clock() - t0)
    heads = [w_inv * step.inverse() for step in steps]
    for it in range(1, max_iter + 1):
        scored = []
        for idx, head in enumerate(heads):
            b_cand = head * rest
            d = distance(b_cand)
            if d == 0:
                a_cand = current * steps[idx]
                if certified(a_cand, b_cand):
                    return AttackResult(True, (a_cand, b_cand), it, 0,
                                        clock() - t0)
            scored.append((d, idx))
        d0, idx0 = min(scored)
        best = min(best, d0)
        current = current * steps[idx0]
        rest = steps[idx0].inverse() * rest
    return AttackResult(False, None, max_iter, best, clock() - t0)


def derivation_descent(instance: AttackInstance, beam: int = 8,
                       max_nodes: int = 2048, max_len: int = 48,
                       window: Optional[int] = None,
                       clock: Callable[[], float] = time.perf_counter
                       ) -> AttackResult:
    """Beam search over partial leftmost derivations of the left grammar.

    Each partial derivation is completed optimistically (remaining
    nonterminals replaced by their shortest terminal yields, which keeps
    the completion inside the language), inducing a left-factor candidate
    whose right factor is scored by ``default_length``.  Success is
    certified the same way as in the greedy attack.
    """
    if beam < 1:
        raise ValueError("beam must be at least 1")
    pub = instance.pub
    grammar = pub.spec_a.grammar
    group = pub.group
    certified = _certifier(instance, window)
    w_inv = pub.w.inverse()
    t0 = clock()

    yield_cache: dict = {}

    def completion(form: tuple) -> tuple:
        out: list = []
        for sym in form:
            if grammar.is_nonterminal(sym):
                if sym not in yield_cache:
                    yield_cache[sym] = shortest_word(grammar, sym)
                out.extend(yield_cache[sym])
            else:
                out.append(sym)
        return tuple(out)

    def assess(form: tuple):
        word = completion(form)
        a_cand = group.evaluate(word)
        b_cand = w_inv * a_cand.inverse() * instance.target
        return default_length(b_cand), a_cand, b_cand

    root = (grammar.start,)
    s, a_cand, b_cand = assess(root)
    best = s
    if certified(a_cand, b_cand):
        return AttackResult(True, (a_cand, b_cand), 0, 0, clock() - t0)

    frontier = [(s, 0, root)]
    expanded = 0
    tiebreak = 1
    while frontier and expanded < max_nodes:
        children = []
        for _, _, form in frontier:
            left = next(
                (i for i, sym in enumerate(form) if grammar.is_nonterminal(sym)),
                None,
            )
            if left is None:
                continue
            for rhs in grammar._productive_rules_by_lhs.get(form[left], ()):
                child = form[:left] + rhs + form[left + 1:]
                terminals = sum(
                    1 for sym in child if not grammar.is_nonterminal(sym)
                )
                if terminals > max_len:
                    continue
                expanded += 1
                s, a_cand, b_cand = assess(child)
                best = min(best, s)
                if certified(a_cand, b_cand):
                    return AttackResult(
                        True, (a_cand, b_cand), expanded, 0, clock() - t0
                    )
                children.append((s, tiebreak, child))
                tiebreak += 1
                if expanded >= max_nodes:
                    break
            if expanded >= max_nodes:
                break
        children.sort(key=lambda node: (node[0], node[1]))
        frontier = children[:beam]
    return AttackResult(False, None, expanded, best, clock() - t0)


@dataclass(frozen=True)
class P1Public:
    """The public data shared by every p1 attack instance on one setup.

    ``pub`` comes from ``p1_setup``, which certifies that its subsets
    commute; ``gen_b`` is the right orbit's generator and ``gens_a`` the
    left generators t^-k u t^k for |k| <= the generator window, both
    recovered from the published grammars.
    """

    pub: PublicParams1
    gen_b: Vec
    gens_a: tuple


def p1_public(group: GroupParams, u: Vec, v: Vec, w: GroupElement,
              krange: str, gens_window: int) -> P1Public:
    """Set up p1 on (u, v, w) and recover what the attacks use from it."""
    pub = p1_setup(group, u, v, w, krange)
    base = group.base(extract_orbit_generator(pub.spec_a))
    gens = tuple(base.conj_t(k) for k in range(-gens_window, gens_window + 1))
    return P1Public(pub, extract_orbit_generator(pub.spec_b), gens)


def p1_attack_instance(public: P1Public,
                       target: GroupElement) -> AttackInstance:
    """The attack on ``target`` over shared public data."""
    return AttackInstance(public.pub, target, public.gens_a, public.gen_b)


# ---------------------------------------------------------------------------
# experiment runner


@dataclass(frozen=True)
class GridPoint:
    """One cell of an experiment sweep; everything needed to build instances."""

    grid_id: str
    rows: tuple
    u: tuple
    v: tuple
    w: tuple  # (p, base vector, q), normalised through GroupParams.element
    krange: str = "integers"
    max_length: int = 20
    depth_cap: int = 4
    max_iter: int = 64
    beam: int = 8
    max_nodes: int = 512
    gens_window: int = 2
    window: Optional[int] = None

    @cached_property
    def group(self) -> GroupParams:
        """Built once per point, so its adjugate and power memo persist."""
        return GroupParams(IntMatrix(self.rows))

    @cached_property
    def public(self) -> P1Public:
        """Built once per point and shared by all of its trials."""
        group = self.group
        return p1_public(group, self.u, self.v, group.element(*self.w),
                         self.krange, self.gens_window)


def build_p1_instance(point: GridPoint, trial_seed: int) -> AttackInstance:
    """A genuine seeded protocol round packaged as an attack target.

    Only the trial's own work is done here: Alice's half of a p1 round
    (``p1_draw``, two draws seeded from ``derive_seed(trial_seed,
    "alice")``) and her message a1 w b1 as the target.  Bob's half is not
    drawn; it would not change a byte of the target.  The public data is
    the point's ``public``, built once, whose setup certified commutation.
    """
    pub = point.public.pub
    policy = SamplePolicy(max_length=point.max_length,
                          depth_cap=point.depth_cap,
                          seed=derive_seed(trial_seed, "alice"))
    alice = p1_draw(pub, policy, 1)
    return p1_attack_instance(point.public, alice.a * pub.w * alice.b)


def _run_one(point: GridPoint, mode: str, trial_seed: int,
             clock: Callable[[], float]) -> AttackResult:
    instance = build_p1_instance(point, trial_seed)
    if mode == "rst":
        return rst_greedy(instance, max_iter=point.max_iter,
                          window=point.window, clock=clock)
    if mode == "descent":
        return derivation_descent(instance, beam=point.beam,
                                  max_nodes=point.max_nodes,
                                  max_len=point.max_length,
                                  window=point.window, clock=clock)
    raise ValueError(f"unknown attack mode {mode!r}")


def run_experiments(grid: Sequence[GridPoint], trials: int, seed: int,
                    clock: Optional[Callable[[], float]] = None,
                    collect: bool = False):
    """Run both attacks over the grid; returns CSV text (and trial records).

    Per-trial seeds derive from the master seed, and the default clock is
    constant, so identical calls produce identical bytes.  Pass a real
    clock (time.perf_counter) to record wall-time means instead.
    """
    clock = clock if clock is not None else zero_clock
    lines = [CSV_HEADER]
    records = []
    for point in grid:
        for mode in ("rst", "descent"):
            if trials <= 0:
                continue
            successes = 0
            total_iters = 0
            total_ms = 0.0
            for trial in range(trials):
                trial_seed = derive_seed(
                    seed, "sweep", point.grid_id, mode, trial)
                t0 = clock()
                result = _run_one(point, mode, trial_seed, clock)
                elapsed_ms = (clock() - t0) * 1000.0
                successes += int(result.success)
                total_iters += result.iterations
                total_ms += elapsed_ms
                if collect:
                    records.append({
                        "grid_id": point.grid_id,
                        "mode": mode,
                        "trial": trial,
                        "success": result.success,
                        "iterations": result.iterations,
                        "best_score": str(result.best_score),
                        "elapsed_ms": round(elapsed_ms, 3),
                    })
            lines.append(
                f"{point.grid_id},{mode},{trials},{successes},"
                f"{total_iters / trials:.3f},{total_ms / trials:.3f}"
            )
    csv_text = "\n".join(lines) + "\n"
    if collect:
        return csv_text, records
    return csv_text
