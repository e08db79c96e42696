"""Length-based cryptanalysis harness for the subset key-exchange instances.

Two attack strategies against p1-style targets a1 w b1:

  rst_greedy          extend a candidate left factor one subgroup generator
                      at a time, steering by a distance-to-subset score of
                      the induced right factor,
  derivation_descent  beam search down the leftmost derivations of the
                      published grammar, scoring partial derivations by the
                      length of the induced right factor.

The right-factor membership test is exact: candidates are mapped into the
rational semidirect model, scaled by det(M)^K, and rounded against an
echelon basis of the window lattice spanned by gen M^k for |k| <= K, built
from at most m rows (Cayley-Hamilton).  A "member" verdict is a
certificate; "unknown" only means the window was too small to scale the
candidate.  Success additionally requires
the recovered pair to reproduce the target exactly and to commute with the
opposite subset, certified exactly in the abelian base hull (a factor
outside it, or a subset without the certificate, is not a break), so the
harness cannot report a false break.

Experiment sweeps are reproducible: per-trial seeds derive from one master
seed, and only the sweep times its trials (the searches return no timings),
with an injectable clock that defaults to a constant, so repeated sweeps
emit byte-identical CSV.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Callable, Optional, Sequence

from .grammars import VALUE_TABLE_BOUND, SamplePolicy, shortest_word
from .groups import (
    GroupElement,
    GroupParams,
    IntMatrix,
    OracleElement,
    Vec,
    _Value,
    _vec_mat,
    default_length,
)
from .protocols import PublicParams1, p1_draw, p1_setup
from .seeding import derive_seed

__all__ = [
    "MEMBER", "NON_MEMBER_IN_WINDOW", "UNKNOWN", "MembershipVerdict",
    "AttackPlan", "AttackInstance", "AttackResult", "GridPoint",
    "lattice_member", "subset_distance", "orbit_generators", "rst_greedy",
    "derivation_descent", "verify_break", "build_p1_instance",
    "run_experiments", "zero_clock", "CSV_HEADER",
]

MEMBER = "member"
NON_MEMBER_IN_WINDOW = "non-member-in-window"
UNKNOWN = "unknown"

HEAD_TABLE_BOUND = 1024  # left words whose heads one plan keeps
_T_PENALTY = 1 << 20
_MAX_DIST = 1 << 40
_MISSING = object()

CSV_HEADER = "grid_id,mode,trials,successes,mean_iters,mean_ms"


def zero_clock() -> float:
    """Constant clock: keeps sweep output byte-identical across runs."""
    return 0.0


# ---------------------------------------------------------------------------
# integer lattices in echelon form


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
    """Row lattice kept in echelon form by xgcd steps.

    Nearest rounding along the positive pivots gives the Babai residual for
    distances; it recovers every coefficient of a lattice point, so a point
    is a member exactly when its residual is zero.  The rows do not change
    once built.  ``verdicts`` keeps what queries found: the total bit size
    of a group element's residual (None when it cannot be scaled), keyed
    on the element's (p, v); it stops adding at ``VALUE_TABLE_BOUND``.
    """

    def __init__(self, dim: int):
        self.dim = dim
        self.rows: list = []
        self.pivots: list = []  # pivot column of each row, strictly increasing
        self.verdicts: dict = {}  # (p, v) -> residual bits or None

    def add(self, vec: Sequence[int]) -> None:
        vec = list(vec)
        for j in range(self.dim):
            if not vec[j]:
                continue
            pos = bisect_left(self.pivots, j)
            if pos == len(self.pivots) or self.pivots[pos] != j:
                self.rows.insert(pos, vec)
                self.pivots.insert(pos, j)
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
        """Make every pivot positive; entries above the pivots stay as built.

        The residual of ``reduce_nearest`` is the one vector congruent to the
        query with every pivot coordinate in [-piv/2, piv/2), and the pivots
        are invariants of the lattice, so those entries change no residual.
        """
        for idx, j in enumerate(self.pivots):
            if self.rows[idx][j] < 0:
                self.rows[idx] = [-e for e in self.rows[idx]]

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
    """Echelon basis of span{gen M^k : -K <= k <= K}, scaled by det(M)^K.

    det^K gen M^k = r M^(K+k) with r = gen adj(M)^K.  By Cayley-Hamilton
    (M's characteristic polynomial is monic over Z), r M^j for j >= m is an
    integer combination of earlier rows, so r M^j for j <= min(2K, m - 1)
    span the lattice: at most m rows instead of 2K+1.

    Keyed on the matrix so that the cache pins no group (nor its power memo).
    """
    if len(gen) != matrix.dim:
        raise ValueError("vector dimension mismatch")
    row = gen
    for _ in range(window):
        row = _vec_mat(row, matrix.adjugate)
    lat = _EchelonLattice(matrix.dim)
    lat.add(row)
    for _ in range(min(2 * window, matrix.dim - 1)):
        row = _vec_mat(row, matrix)
        lat.add(row)
    lat.normalize()
    return lat


class MembershipVerdict(_Value):
    """Outcome of a window-lattice membership query."""

    _fields = ("value",)

    def __init__(self, value: str):
        self.__dict__["value"] = value

    @property
    def is_member(self) -> bool:
        return self.value == MEMBER


_IS_MEMBER, _NOT_IN_WINDOW, _NOT_SCALED = map(
    MembershipVerdict, (MEMBER, NON_MEMBER_IN_WINDOW, UNKNOWN))


def _scaled_point(group: GroupParams, v, window: int):
    """(d, z): the t-exponent of v and its base part scaled by det^window.

    z is None when not integral.  For t^p u t^-q, whose base part is
    u M^-p = u adj(M)^p / det^p, z stays in the integers.
    """
    if window < 0:
        raise ValueError("window must be nonnegative")
    if isinstance(v, GroupElement):
        if len(v.v) != group.m:
            raise ValueError("vector dimension mismatch")
        p = v.p
        z, d = _vec_mat(v.v, group._power(-p)) if p else v.v, p - v.q
        if window >= p:
            scale = group.det ** (window - p)
            return d, [e * scale for e in z]
        div = group.det ** (p - window)
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


def _residual_bits(group: GroupParams, v, gen: Sequence[int], window: int):
    """(d, bits): v's t-exponent and the total bit size of the Babai
    residual of its scaled base part, or (d, None) when that cannot be
    scaled into the window.  bits is 0 exactly for a lattice point.

    A group element's bits are kept in its window lattice's ``verdicts``,
    keyed on (p, v): the scaled point reads only those, and d = p - q.
    Oracle points, plain vectors and queries that raise are computed on
    every call.
    """
    gen = tuple(map(int, gen))
    lat = table = None
    if (isinstance(v, GroupElement) and window >= 0
            and len(v.v) == len(gen) == group.m):
        lat = _window_lattice(group.matrix, gen, window)
        table, key = lat.verdicts, (v.p, v.v)
        bits = table.get(key, _MISSING)
        if bits is not _MISSING:
            return v.p - v.q, bits
    d, z = _scaled_point(group, v, window)
    bits = None
    if z is not None:
        if lat is None:
            lat = _window_lattice(group.matrix, gen, window)
        bits = sum(abs(e).bit_length() for e in lat.reduce_nearest(z))
    if table is not None and len(table) < VALUE_TABLE_BOUND:
        table[key] = bits
    return d, bits


def lattice_member(group: GroupParams, v, gen: Sequence[int],
                   window: int) -> MembershipVerdict:
    """Decide membership in the integer span of gen M^k for |k| <= window.

    ``v`` may be a base vector, a group element or an oracle point (a, d).
    A nonzero stable-letter exponent d can never lie in the base hull, so it
    is a certified non-member.  Denominators beyond det^window cannot be
    scaled into the window and come back "unknown".  "member" is exact: it
    means a zero residual (see ``_EchelonLattice``).
    """
    d, bits = _residual_bits(group, v, gen, window)
    if d != 0:
        return _NOT_IN_WINDOW
    if bits is None:
        return _NOT_SCALED
    return _NOT_IN_WINDOW if bits else _IS_MEMBER


def subset_distance(group: GroupParams, v, gen: Sequence[int],
                    window: int) -> int:
    """Bit size of the Babai-rounded residual against the window basis.

    Nonzero stable exponents draw a stiff per-unit penalty; candidates that
    cannot be scaled into the window score as maximally distant.  The
    distance is 0 exactly when ``lattice_member`` says "member": both read
    the same residual, and a nonzero d scores at least 2^20.
    """
    d, bits = _residual_bits(group, v, gen, window)
    return _T_PENALTY * abs(d) + (_MAX_DIST if bits is None else bits)


def orbit_generators(group: GroupParams, u: Vec, window: int) -> tuple:
    """The left generators t^-k u t^k for -window <= k <= window."""
    base = group.base(u)
    return tuple(base.conj_t(k) for k in range(-window, window + 1))


# ---------------------------------------------------------------------------
# instances and results


@dataclass(frozen=True)
class AttackResult:
    """What one search found; callers time the call themselves."""

    success: bool
    recovered: Optional[tuple]  # (a, b) with a w b = target when success
    iterations: int  # the search's own count: steps or expanded nodes
    best_score: int  # the lowest score seen, 0 on success

    def __post_init__(self):
        if self.success and self.recovered is None:
            raise ValueError("a successful attack must carry its recovered pair")


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


class AttackPlan(_Value):
    """The trial-invariant attack data of one point, shared by its trials.

    ``pub`` is the p1 public data and ``gen_b`` the published right orbit
    generator v, which certifies candidate right factors.  ``gens_a`` is a
    finite approximation of the left subset, such as ``orbit_generators``
    of the published u, which ``rst_greedy`` walks (it refuses None); the
    descent reads the grammar of pub.spec_a.  w^-1, the greedy walk and
    ``heads`` (completed left word -> (a, w^-1 a^-1); it stops adding at
    ``HEAD_TABLE_BOUND`` words) are built on first use.

    ``window`` is not a field: each search takes it, and nothing kept here
    depends on it (window lattices are cached by matrix, see
    ``_window_lattice``), so one plan serves every window.
    """

    _fields = ("pub", "gens_a", "gen_b")

    def __init__(self, pub: PublicParams1, gens_a: Optional[tuple],
                 gen_b: Vec):
        self.__dict__.update(pub=pub, gens_a=gens_a, gen_b=gen_b)

    @classmethod
    def p1(cls, group: GroupParams, u: Vec, v: Vec, w: GroupElement,
           krange: str, gens_window: int) -> "AttackPlan":
        """The plan of a p1 setup attacked through its orbit generators."""
        return cls(p1_setup(group, u, v, w, krange),
                   orbit_generators(group, u, gens_window), v)

    @cached_property
    def w_inverse(self) -> GroupElement:
        return self.pub.w.inverse()

    @cached_property
    def walk(self) -> tuple:
        """(steps, heads): step i ^ 1 inverts step i, head i = w^-1 s_i^-1."""
        steps = tuple(s for gen in self.gens_a for s in (gen, gen.inverse()))
        return steps, tuple(self.w_inverse * steps[i ^ 1]
                            for i in range(len(steps)))

    @cached_property
    def heads(self) -> dict:
        return {}

    def head(self, word: tuple) -> tuple:
        """(a, w^-1 a^-1) of a left word, kept in ``heads``."""
        pair = self.heads.get(word)
        if pair is None:
            a = self.pub.group.evaluate(word)
            pair = a, self.w_inverse * a.inverse()
            if len(self.heads) < HEAD_TABLE_BOUND:
                self.heads[word] = pair
        return pair


class AttackInstance(_Value):
    """One cryptanalysis target: the point's plan and target = a1 w b1."""

    _fields = ("plan", "target")

    def __init__(self, plan: AttackPlan, target: GroupElement):
        self.__dict__.update(plan=plan, target=target)

    @property
    def pub(self) -> PublicParams1:
        return self.plan.pub


def rst_greedy(instance: AttackInstance, max_iter: int = 200,
               window: Optional[int] = None) -> AttackResult:
    """Greedy one-generator-at-a-time attack on a generator-mode instance.

    Starting from the identity, every iteration appends the generator (or
    inverse) whose induced right factor w^-1 a^-1 target scores closest to
    the right subset; the scan stops as soon as a right factor is a
    certified member and the pair verifies.  Ties break toward the lowest
    generator index so runs reproduce.

    The right factor of the candidate a = current s factors as
    (w^-1 s^-1)(current^-1 target).  w^-1 and the steps with their heads
    w^-1 s^-1 (``AttackPlan.walk``, built after iteration 0) are kept on
    the plan; the rest changes once per iteration, so a candidate costs
    one product.  It also costs one lattice pass: the distance is 0 exactly
    when the point is a member (see ``subset_distance``), so a distance-0
    candidate is certified from it.

    A walk that lands on a normal form of ``rest`` it has visited before
    stops there with the result the whole budget would give.  Normal forms
    are unique and current = target rest^-1, so rest alone fixes every
    later candidate, score, certificate and move: the walk would replay
    the loop until the budget ran out.  No iteration of the loop found a
    break, so no replay can, and ``best`` already holds the minimum over
    the replayed scores.  ``iterations`` still reports the budget
    ``max_iter``.
    """
    plan, target = instance.plan, instance.target
    if plan.gens_a is None:
        raise ValueError("rst_greedy needs generator mode (gens_a supplied)")
    group = plan.pub.group

    def distance(b_cand: GroupElement) -> int:
        return subset_distance(group, b_cand, plan.gen_b,
                               _membership_window(b_cand, window))

    current = group.identity()
    rest = target  # current^-1 target

    b0 = plan.w_inverse * rest
    best = distance(b0)
    if best == 0 and verify_break(plan.pub, target, target, current, b0,
                                  current, b0):
        return AttackResult(True, (current, b0), 0, 0)
    steps, heads = plan.walk
    seen = {(rest.p, rest.v, rest.q)}
    for it in range(1, max_iter + 1):
        scored = []
        for idx, head in enumerate(heads):
            b_cand = head * rest
            d = distance(b_cand)
            if d == 0:
                a_cand = current * steps[idx]
                if verify_break(plan.pub, target, target, a_cand, b_cand,
                                a_cand, b_cand):
                    return AttackResult(True, (a_cand, b_cand), it, 0)
            scored.append((d, idx))
        d0, idx0 = min(scored)
        best = min(best, d0)
        current = current * steps[idx0]
        rest = steps[idx0 ^ 1] * rest
        state = (rest.p, rest.v, rest.q)
        if state in seen:
            break
        seen.add(state)
    return AttackResult(False, None, max_iter, best)


def derivation_descent(instance: AttackInstance, beam: int = 8,
                       max_nodes: int = 2048, max_len: int = 48,
                       window: Optional[int] = None) -> AttackResult:
    """Beam search over partial leftmost derivations of the left grammar.

    Each partial derivation is completed optimistically (remaining
    nonterminals replaced by their shortest terminal yields, which keeps
    the completion inside the language), inducing a left-factor candidate
    whose right factor is scored by ``default_length``.  Pairs
    (a, w^-1 a^-1) are kept on the plan (``AttackPlan.heads``), so a kept
    word is never evaluated again, and scores per search: a form
    completing to a word already assessed (its pair failed) joins the beam
    with that score.  Success is certified as in the greedy attack, and
    ``iterations`` counts the expanded nodes, repeats included.
    """
    if beam < 1:
        raise ValueError("beam must be at least 1")
    plan, target = instance.plan, instance.target
    grammar = plan.pub.spec_a.grammar
    nts = grammar._nt_set
    group = plan.pub.group

    yields = grammar._yields  # shortest word of each productive nonterminal
    scores: dict = {}  # completed word -> score, once its pair failed

    def completion(form: tuple) -> tuple:
        out: list = []
        for sym in form:
            if sym in nts:
                out.extend(yields[sym])
            else:
                out.append(sym)
        return tuple(out)

    def assess(word: tuple) -> tuple:
        """(score, None), or (0, pair) when the word's pair breaks target."""
        if word in scores:
            return scores[word], None
        a_cand, head = plan.head(word)
        b_cand = head * target  # head = w^-1 a^-1
        if lattice_member(group, b_cand, plan.gen_b,
                          _membership_window(b_cand, window)).is_member:
            if verify_break(plan.pub, target, target, a_cand, b_cand,
                            a_cand, b_cand):
                return 0, (a_cand, b_cand)
        scores[word] = s = default_length(b_cand)
        return s, None

    best, pair = assess(shortest_word(grammar))
    if pair is not None:
        return AttackResult(True, pair, 0, 0)

    frontier = [(best, 0, (grammar.start,))]
    expanded = 0
    tiebreak = 1
    while frontier and expanded < max_nodes:
        children = []
        for _, _, form in frontier:
            left = next((i for i, sym in enumerate(form) if sym in nts),
                        None)
            if left is None:
                continue
            for rhs in grammar._productive_rules_by_lhs.get(form[left], ()):
                child = form[:left] + rhs + form[left + 1:]
                if sum(1 for sym in child if sym not in nts) > max_len:
                    continue
                expanded += 1
                s, pair = assess(completion(child))
                if pair is not None:
                    return AttackResult(True, pair, expanded, 0)
                best = min(best, s)
                children.append((s, tiebreak, child))
                tiebreak += 1
                if expanded >= max_nodes:
                    break
            if expanded >= max_nodes:
                break
        children.sort(key=lambda node: (node[0], node[1]))
        frontier = children[:beam]
    return AttackResult(False, None, expanded, best)


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
    def plan(self) -> AttackPlan:
        """The p1 setup and its attack data, shared by the point's trials."""
        group = self.group
        return AttackPlan.p1(group, self.u, self.v, group.element(*self.w),
                             self.krange, self.gens_window)

    @cached_property
    def policy(self) -> SamplePolicy:
        """Alice's sampling knobs, built once per point; trials reseed them."""
        return SamplePolicy(max_length=self.max_length,
                            depth_cap=self.depth_cap)


def build_p1_instance(point: GridPoint, trial_seed: int) -> AttackInstance:
    """A genuine seeded protocol round packaged as an attack target.

    Only the trial's own work is done here: Alice's half of a p1 round
    (``p1_draw``, two draws seeded from ``derive_seed(trial_seed,
    "alice")``) and her message a1 w b1 as the target.  Bob's half is not
    drawn; it would not change a byte of the target.  The public data is
    the point's ``plan``, built once; the setup certified commutation.
    """
    plan = point.plan
    policy = point.policy.with_seed(derive_seed(trial_seed, "alice"))
    alice = p1_draw(plan.pub, policy, 1)
    return AttackInstance(plan, alice.a * plan.pub.w * alice.b)


def run_experiments(grid: Sequence[GridPoint], trials: int, seed: int,
                    clock: Optional[Callable[[], float]] = None,
                    record: Optional[Callable[[dict], None]] = None) -> str:
    """Run both attacks over the grid; returns CSV text.

    Each trial builds one record (grid_id, mode, trial, success,
    iterations, best_score as a string, elapsed_ms to 3 places), which
    sums into its CSV row and goes to ``record`` when given.  Per-trial
    seeds derive from the master seed, and the default clock is constant,
    so identical calls produce identical bytes.  Pass a real clock
    (time.perf_counter) to record wall-time means instead.
    """
    clock = clock if clock is not None else zero_clock
    lines = [CSV_HEADER]
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
                instance = build_p1_instance(point, trial_seed)
                if mode == "rst":
                    result = rst_greedy(instance, max_iter=point.max_iter,
                                        window=point.window)
                else:
                    result = derivation_descent(
                        instance, beam=point.beam, max_nodes=point.max_nodes,
                        max_len=point.max_length, window=point.window)
                elapsed_ms = (clock() - t0) * 1000.0
                trial_record = {
                    "grid_id": point.grid_id,
                    "mode": mode,
                    "trial": trial,
                    "success": result.success,
                    "iterations": result.iterations,
                    "best_score": str(result.best_score),
                    "elapsed_ms": round(elapsed_ms, 3),
                }
                successes += trial_record["success"]
                total_iters += trial_record["iterations"]
                total_ms += elapsed_ms
                if record is not None:
                    record(trial_record)
            lines.append(
                f"{point.grid_id},{mode},{trials},{successes},"
                f"{total_iters / trials:.3f},{total_ms / trials:.3f}"
            )
    return "\n".join(lines) + "\n"
