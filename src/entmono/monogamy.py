"""Monogamy bounds for entanglement spread from one focus qubit.

All bounds constrain how the entanglement between a focus party A and the
rest of a pure qubit state distributes over the pairs (A, B_i), with the
remaining parties ordered B_1 ... B_{N-1}.

Lower bound families on concurrence (alpha >= 2):

  ckw               alpha-power with alpha fixed at 2 (the CKW inequality)
  alpha-power       C^a(A|B1..) >= sum_i C^a(A,B_i)
  tight-tripartite  tight-ordered restricted to N = 3:
                    C^a >= C^a(A,B1) + (a/2) C^a(A,B2) when C(A,B1) >= C(A,B2)
  tight-ordered     coefficient (a/2)^(i-1) on the i-th pair term, valid
                    when C(A,B_i) >= C(A|B_{i+1}..B_{N-1}) for all i <= N-2
  tight-split       N >= 4: the ordering holds up to index m and reverses
                    afterwards; coefficients run 1 .. (a/2)^(m-1), then
                    (a/2)^(m+1) on the middle block and (a/2)^m on the
                    last term. The largest admissible m is chosen when not
                    pinned explicitly.

Entanglement-of-formation families (alpha >= sqrt(2)) mirror these with
ratio t = alpha/sqrt(2) in place of alpha/2; their ordering conditions are
still stated on concurrences: eof-alpha-power, eof-tight-ordered,
eof-tight-split.

Negative-power upper bounds (alpha < 0; pairwise-zero terms are dropped):

  upper-mean        C^a(A|B1..) < mean of the retained C^a(A,B_i), strict
                    whenever every pair concurrence is comfortably nonzero
  upper-sum         the looser unit-coefficient prior form

A BoundReport's slack is oriented so that nonnegative means the bound
holds: lhs - rhs for lower bounds, rhs - lhs for upper bounds.
Applicability is three-valued: False when a stated condition fails, None
when a condition needs a tail concurrence that has no closed form (a
mixed reduction with two or more remaining parties), True otherwise. A
power that overflows (an lhs or rhs that is not finite) makes the point
not applicable, with a NaN slack, in every family.

One kernel, _evaluate_batch, evaluates every bound: one family at one
split index on a ProfileBlock of S profiles and A powers, returning
(S, A) arrays of lhs, rhs, slack, applicability and the strict flag.
Ordering conditions depend on the shape and split index only, so _decide
settles them once per block as (S, N-2) verdicts that every power, and
every family of the shape, shares. residual_sweep runs the kernel once
per bound over its whole grid, the campaign once per kind over a block of
samples, and evaluate on the one-row ProfileBlock that profile returns.
Each row and each power is bit-identical to a batch of one at that power.
To keep that rule, _powers raises the lhs and every pair term of an
evaluation with one np.power call on full-size contiguous operands: ** has
fast paths for some exponents (square at 2), and np.power on broadcast
operands takes another loop, each of which can round differently.
"""

import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

from .linalg import MAX_QUBITS, _reduce, as_state_vector, num_qubits_of
from .measures import _entropy, _purity_concurrence, _wootters, eof_from_squared_concurrence

COMPARISON_ATOL = 1e-12
DROP_ATOL = 1e-12
STRICT_PAIR_FLOOR = 1e-6
STRICT_SLACK_FLOOR = 1e-14
POWER_ATOL = 1e-12
MAX_GRID_POINTS = 10_000

# three-valued verdicts, ordered so that folding several is their min
FAILS, UNDECIDED, HOLDS = 0, 1, 2
_VERDICT = (False, None, True)

ALPHA_MIN_CONCURRENCE = 2.0
ALPHA_MIN_EOF = math.sqrt(2.0)


class BoundId(str, Enum):
    CKW = "ckw"
    ALPHA_POWER = "alpha-power"
    TIGHT_TRIPARTITE = "tight-tripartite"
    TIGHT_ORDERED = "tight-ordered"
    TIGHT_SPLIT = "tight-split"
    UPPER_MEAN = "upper-mean"
    UPPER_SUM = "upper-sum"
    EOF_ALPHA_POWER = "eof-alpha-power"
    EOF_TIGHT_ORDERED = "eof-tight-ordered"
    EOF_TIGHT_SPLIT = "eof-tight-split"


class _Family(NamedTuple):
    """One bound family; every per-family decision reads its row in _FAMILIES."""

    measure: str      # "C" concurrence or "E" entanglement of formation
    shape: str        # lower: unit, ordered, split; negative-power upper: mean, sum
    powers: tuple     # (lo, hi): lo <= alpha < hi; lo == hi is a fixed power
    parties: range    # the party counts the bound is stated for
    defaults: tuple   # the powers a campaign checks when given no grid

    def allows(self, alpha):
        """Whether alpha (a float, or elementwise an array) is in powers.

        lo and a fixed power count within POWER_ATOL.
        """
        lo, hi = self.powers
        if lo == hi:
            return abs(alpha - lo) <= POWER_ATOL
        return (lo - POWER_ATOL <= alpha) & (alpha < hi)

    def check_power(self, bound: BoundId, alpha: float) -> None:
        """Reject a non-finite alpha, or one outside powers, naming the bound."""
        if not math.isfinite(alpha):
            raise ValueError(f"alpha must be finite, got {alpha}")
        if not self.allows(alpha):
            lo, hi = self.powers
            need = f"alpha = {lo:g}" if lo == hi else f"{lo:g} <= alpha < {hi:g}"
            raise ValueError(f"{bound.value} requires {need}, got {alpha}")


_N3_UP = range(3, MAX_QUBITS + 1)
_N4_UP = range(4, MAX_QUBITS + 1)
_C_POWERS = (ALPHA_MIN_CONCURRENCE, math.inf)
_E_POWERS = (ALPHA_MIN_EOF, math.inf)
_NEG_POWERS = (-math.inf, 0.0)
_C_DEFAULTS = (2.0, 2.5, 3.0)
_E_DEFAULTS = (ALPHA_MIN_EOF, 2.0, 3.0)
_NEG_DEFAULTS = (-0.5, -1.0, -2.0)

_FAMILIES = {
    BoundId.CKW: _Family("C", "unit", (2.0, 2.0), _N3_UP, (2.0,)),
    BoundId.ALPHA_POWER: _Family("C", "unit", _C_POWERS, _N3_UP, _C_DEFAULTS),
    BoundId.TIGHT_TRIPARTITE: _Family("C", "ordered", _C_POWERS, range(3, 4), _C_DEFAULTS),
    BoundId.TIGHT_ORDERED: _Family("C", "ordered", _C_POWERS, _N3_UP, _C_DEFAULTS),
    BoundId.TIGHT_SPLIT: _Family("C", "split", _C_POWERS, _N4_UP, _C_DEFAULTS),
    BoundId.UPPER_MEAN: _Family("C", "mean", _NEG_POWERS, _N3_UP, _NEG_DEFAULTS),
    BoundId.UPPER_SUM: _Family("C", "sum", _NEG_POWERS, _N3_UP, _NEG_DEFAULTS),
    BoundId.EOF_ALPHA_POWER: _Family("E", "unit", _E_POWERS, _N3_UP, _E_DEFAULTS),
    BoundId.EOF_TIGHT_ORDERED: _Family("E", "ordered", _E_POWERS, _N3_UP, _E_DEFAULTS),
    BoundId.EOF_TIGHT_SPLIT: _Family("E", "split", _E_POWERS, _N4_UP, _E_DEFAULTS),
}


@dataclass(frozen=True)
class BoundKind:
    """A bound family instantiated at a power alpha (and split index m)."""

    id: BoundId
    alpha: float
    m: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "id", BoundId(self.id))
        object.__setattr__(self, "alpha", float(self.alpha))
        family = _FAMILIES[self.id]
        family.check_power(self.id, self.alpha)
        if self.m is not None:
            if family.shape != "split":
                raise ValueError(f"{self.id.value} does not take a split index m")
            if int(self.m) < 1:
                raise ValueError("split index m must be >= 1")
            object.__setattr__(self, "m", int(self.m))

    def fits(self, num_parties: int) -> bool:
        """Whether the bound is stated for num_parties parties (and its pinned m)."""
        return (num_parties in _FAMILIES[self.id].parties
                and (self.m is None or self.m <= num_parties - 3))


def family_kinds(bound, grid=None, m: int | None = None) -> tuple:
    """The kinds one bound family contributes to a campaign.

    A fixed-power family gives its one power whatever the grid. Otherwise
    the family gives the grid points it allows (possibly none), or its
    default powers when there is no grid. m reaches split families only.
    """
    bound = BoundId(bound)
    family = _FAMILIES[bound]
    lo, hi = family.powers
    if grid is None or lo == hi:  # a fixed power ignores any grid
        alphas = family.defaults
    else:
        alphas = tuple(a for a in grid if family.allows(a))
    return tuple(BoundKind(bound, a, _split_only(bound, m)) for a in alphas)


def check_split_index(bounds, m: int | None) -> None:
    """Reject a split index m when none of the bound families takes one."""
    if m is not None and all(_FAMILIES[BoundId(b)].shape != "split" for b in bounds):
        raise ValueError(f"split index m = {m} is unused: no chosen bound is a split family")


def _split_only(bound: BoundId, m: int | None) -> int | None:
    return m if _FAMILIES[bound].shape == "split" else None


@dataclass(frozen=True)
class PartitionSpec:
    """Focus qubit plus the ordered remaining single-qubit parties."""

    focus: int
    rest: tuple

    def __post_init__(self):
        object.__setattr__(self, "focus", int(self.focus))
        object.__setattr__(self, "rest", tuple(int(q) for q in self.rest))

    @classmethod
    def default(cls, num_qubits: int) -> "PartitionSpec":
        return cls(0, tuple(range(1, num_qubits)))

    def validate(self, num_qubits: int) -> None:
        parties = (self.focus,) + self.rest
        if sorted(parties) != list(range(num_qubits)):
            raise ValueError("partition must list every qubit exactly once")
        if len(self.rest) < 2:
            raise ValueError("at least three parties are required")


class ProfileBlock(NamedTuple):
    """Profiles of S states as arrays, one row per state; the one profile type.

    c_pair[s, i] and e_pair[s, i] refer to the pair (A, B_{i+1}) of row s.
    profile returns one row, the size evaluate and residual_sweep take.
    Tails are not stored: _tails derives them from c_pair.
    """

    c_focus: np.ndarray  # (S,) C(A|rest)
    c_pair: np.ndarray   # (S, N-1)
    e_focus: np.ndarray  # (S,) E(A|rest)
    e_pair: np.ndarray   # (S, N-1)


@dataclass(frozen=True)
class ConditionCheck:
    """One ordering condition C(A,B_i) vs C(A|B_{i+1}..), i starting at 1."""

    index: int
    pair_value: float
    tail_value: float | None
    relation: str
    satisfied: bool | None


@dataclass(frozen=True)
class BoundReport:
    """Outcome of evaluating one bound on one profile.

    slack is lhs - rhs for lower bounds and rhs - lhs for upper bounds, so
    a nonnegative slack always means the bound holds. strict marks upper
    bounds whose inequality is expected to be strictly positive. Fields
    are populated diagnostically even when applicable is False; lhs and rhs
    are NaN only if the power itself is undefined, and slack is NaN
    wherever lhs or rhs is not finite.
    """

    kind: BoundKind
    direction: str
    lhs: float
    rhs: float
    slack: float
    applicable: bool | None
    conditions: tuple = ()
    dropped_pairs: tuple = ()
    strict: bool = False
    m_used: int | None = None
    note: str = ""


def profile(psi, partition: PartitionSpec | None = None) -> ProfileBlock:
    """Measure everything the bound evaluators need from a pure state.

    The state and the partition are validated here, once; the state is then
    profiled as a batch of one by profile_batch, and that block is returned.
    """
    vec = as_state_vector(psi)
    n = num_qubits_of(vec.shape[0])
    part = partition if partition is not None else PartitionSpec.default(n)
    part.validate(n)
    return profile_batch(vec[None], part)


def profile_batch(vecs: np.ndarray, part: PartitionSpec) -> ProfileBlock:
    """Profiles of trusted pure states stacked (S, 2**n), one per row.

    part must already be validated for n qubits. Each quantity is taken
    for the whole block at once: one rho_A per row gives both C(A|rest) and
    E(A|rest), and the (focus, b) pair reductions go through one stacked
    Wootters solve.
    """
    n = vecs.shape[1].bit_length() - 1
    focus = part.focus
    # every reduction goes through one scratch buffer into one output, so a
    # block allocates the same few arrays however many pairs it has
    scratch = np.empty((2, vecs.size), dtype=complex)
    rho_a = _reduce(vecs, (focus,), n, np.empty((len(vecs), 2, 2), dtype=complex), scratch)
    rho_pairs = np.empty((len(vecs), len(part.rest), 4, 4), dtype=complex)
    for i, b in enumerate(part.rest):
        _reduce(vecs, tuple(sorted((focus, b))), n, rho_pairs[:, i], scratch)
    c_pair = _wootters(rho_pairs)
    e_pair = eof_from_squared_concurrence(np.square(c_pair))
    return ProfileBlock(_purity_concurrence(rho_a), c_pair, _entropy(rho_a), e_pair)


def _tails(c_pair: np.ndarray) -> np.ndarray:
    """C(A|B_{i+2}..B_{N-1}) for i = 0..N-3 per row, NaN where it has no closed form.

    Only the last tail, where one party remains, is a two-qubit reduction.
    """
    tails = np.full((len(c_pair), c_pair.shape[1] - 1), np.nan)
    tails[:, -1] = c_pair[:, -1]
    return tails


def known_tails(block: ProfileBlock) -> list:
    """The tails of a one-row block as Python floats, None where one has no closed form."""
    return [None if math.isnan(t) else t for t in _tails(block.c_pair)[0].tolist()]


def _family_on(kind: BoundKind, block: ProfileBlock) -> _Family:
    """The family of a kind, after checking that block has one row and the kind fits it."""
    if len(block.c_pair) != 1:
        raise ValueError(f"expected a one-row profile block, got {len(block.c_pair)} rows")
    num_parties = block.c_pair.shape[1] + 1
    if not kind.fits(num_parties):
        pinned = "" if kind.m is None else f" with m = {kind.m}"
        raise ValueError(f"{kind.id.value}{pinned} does not apply to {num_parties} parties")
    return _FAMILIES[kind.id]


def _coefficient_table(family: _Family, alphas, k: int, m: int | None) -> np.ndarray:
    """(A, k) pair coefficients of a lower family, one row per power; a huge power gives inf."""
    if family.shape == "split":  # 1 .. ratio^(m-1), middle block at ratio^(m+1), last at ratio^m
        exponents = [*range(m), *[m + 1] * (k - 1 - m), m]
    else:  # ordered: ratio^(i-1) on the i-th pair; unit: ratio^0, exactly 1.0
        exponents = list(range(k)) if family.shape == "ordered" else [0] * k
    # the ratio is alpha over the least allowed power, so a tightened family
    # meets its unit baseline there (alpha = 2, or sqrt(2) for EoF)
    ratios = np.array(alphas, float) / family.powers[0]
    return np.power(ratios[:, None], exponents)


def _relations(shape: str, num_parties: int, m: int | None) -> tuple:
    """The relation of each ordering condition i = 1..N-2 of a shape at split index m."""
    if shape == "ordered":
        return (">=",) * (num_parties - 2)
    return (">=",) * m + ("<=",) * (num_parties - 2 - m)


class _Decision(NamedTuple):
    """The ordering conditions of one shape and split index on a block of profiles."""

    verdicts: np.ndarray    # (S, N-2) per condition i = 1..N-2; (S, 0) for shapes without
    applicable: np.ndarray  # (S,) the verdicts folded
    m_used: np.ndarray | None  # (S,) the split index each row uses; None unless split


def _fold(verdicts: np.ndarray) -> np.ndarray:
    """Fails if any verdict fails, else undecided if any is, else holds (a min)."""
    return verdicts.min(axis=-1, initial=HOLDS)


def _decide(c_pair: np.ndarray, shape: str, m: int | None) -> _Decision:
    """Decide a shape's ordering conditions on (S, N-1) pair concurrences.

    Conditions involve concurrences only, never the power, so one decision
    serves every power and every family of the shape.
    """
    s, k = c_pair.shape
    if shape not in ("ordered", "split"):
        return _Decision(np.empty((s, 0), int), np.full(s, HOLDS), None)
    tails = _tails(c_pair)
    pairs = c_pair[:, :-1]
    undecided = np.isnan(tails)
    ge = np.where(undecided, UNDECIDED, np.where(pairs >= tails - COMPARISON_ATOL, HOLDS, FAILS))
    if shape == "ordered":
        return _Decision(ge, _fold(ge), None)
    le = np.where(undecided, UNDECIDED, np.where(pairs <= tails + COMPARISON_ATOL, HOLDS, FAILS))
    index = np.arange(k - 1)  # condition i = index + 1 is >= exactly when i <= m
    # a free split index prefers the largest m whose decided conditions do
    # not fail; a row where every m fails falls back to the largest
    first = k - 2 if m is None else m
    verdicts = np.where(index < first, ge, le)
    applicable = _fold(verdicts)
    m_used = np.full(s, first)
    chosen = applicable != FAILS
    smaller = range(first - 1, 0, -1) if m is None else ()
    for m_ in smaller:
        if chosen.all():
            break
        at_m = np.where(index < m_, ge, le)
        folded = _fold(at_m)
        take = ~chosen & (folded != FAILS)
        verdicts[take], applicable[take], m_used[take] = at_m[take], folded[take], m_
        chosen |= take
    return _Decision(verdicts, applicable, m_used)


class Verdicts(NamedTuple):
    """One bound family evaluated on S profiles at A powers.

    slack is lhs - rhs for lower bounds and rhs - lhs for upper bounds, and
    NaN where a point is not verifiable. strict marks upper-bound verdicts
    that must clear a positive floor.
    """

    lhs: np.ndarray         # (S, A)
    rhs: np.ndarray         # (S, A)
    slack: np.ndarray       # (S, A)
    applicable: np.ndarray  # (S, A) verdict codes
    strict: np.ndarray      # (S, A) bool
    dropped: np.ndarray     # (S, N-1) bool: pairs an upper bound leaves out
    decision: _Decision


def _evaluate_batch(block: ProfileBlock, family: _Family, decision: _Decision,
                    alphas) -> Verdicts:
    """Evaluate one family, with its conditions decided, on a block at each power.

    A point whose lhs or rhs is not finite (a power overflowed) is not
    applicable and has a NaN slack. Each row is bit-identical to a batch of
    one; the module docstring gives the rule that keeps it so.
    """
    upper = family.shape in ("mean", "sum")
    with np.errstate(over="ignore", invalid="ignore"):  # inf and NaN are caught below
        if upper:
            lhs, rhs, dropped = _upper_sides(block, family.shape == "mean", alphas)
        else:
            lhs, rhs = _lower_sides(block, family, decision, alphas)
            dropped = np.zeros(block.c_pair.shape, bool)
        slack = rhs - lhs if upper else lhs - rhs
    # both sides are >= 0, so the difference is finite exactly when both sides are
    ok = np.isfinite(slack)
    slack = np.where(ok, slack, np.nan)
    strict = (ok & (block.c_pair.min(axis=1) > STRICT_PAIR_FLOOR)[:, None] if upper
              else np.zeros_like(ok))
    return Verdicts(lhs, rhs, slack, np.where(ok, decision.applicable[:, None], FAILS),
                    strict, dropped, decision)


def _powers(focus: np.ndarray, pairs: np.ndarray, alphas) -> np.ndarray:
    """(S, A, k+1) powers of the columns [focus | pairs] of each row at each power."""
    s, k = pairs.shape
    shape = (s, len(alphas), k + 1)
    # full-size, contiguous operands and no **: see the module docstring
    bases, exponents = np.empty(shape), np.empty(shape)
    bases[:, :, 0] = focus[:, None]
    bases[:, :, 1:] = pairs[:, None, :]
    exponents[...] = np.array(alphas, float)[:, None]
    return np.power(bases, exponents)


def _lower_sides(block: ProfileBlock, family: _Family, decision: _Decision, alphas) -> tuple:
    base, values = ((block.e_focus, block.e_pair) if family.measure == "E"
                    else (block.c_focus, block.c_pair))
    s, k = values.shape
    # shapes without a split index ignore it, so their rows all take index 0
    m_used = np.zeros(s, int) if decision.m_used is None else decision.m_used
    coeffs = np.empty((s, len(alphas), k))
    for m in np.unique(m_used):
        coeffs[m_used == m] = _coefficient_table(family, alphas, k, int(m))
    powered = _powers(base, values, alphas)
    # a stack of 1-D dot products: the same FMA chain as coeffs @ values
    rhs = (coeffs[:, :, None, :] @ powered[..., 1:, None])[..., 0, 0]
    return powered[..., 0], rhs


def _upper_sides(block: ProfileBlock, mean: bool, alphas) -> tuple:
    c_focus, c_pair = block.c_focus, block.c_pair
    dropped = c_pair <= DROP_ATOL
    retained = c_pair.shape[1] - dropped.sum(axis=1)
    valid = ((retained > 0) & (c_focus > DROP_ATOL))[:, None]
    # a negative power of a zero concurrence is undefined: raise 1.0 in its
    # place, then take the dropped pairs' terms as zeros
    powered = _powers(np.where(valid[:, 0], c_focus, 1.0), np.where(dropped, 1.0, c_pair), alphas)
    terms = np.where(dropped[:, None], 0.0, powered[..., 1:])
    lhs = np.where(valid, powered[..., 0], np.nan)
    rhs = np.where(valid, terms.sum(axis=-1), np.nan)
    if mean:
        rhs /= retained[:, None]
    return lhs, rhs, dropped


def evaluate_block(block: ProfileBlock, kinds):
    """Yield the verdicts of each kind at its one power on a block of profiles.

    Every kind must fit the block's party count. Kinds of one shape and
    split index share one decision of their ordering conditions. Only one
    kind's verdicts are made at a time, so a long block holds no more.
    """
    decisions = {}
    for kind in kinds:
        family = _FAMILIES[kind.id]
        key = (family.shape, kind.m)
        if key not in decisions:
            decisions[key] = _decide(block.c_pair, *key)
        yield _evaluate_batch(block, family, decisions[key], (kind.alpha,))


def evaluate(block: ProfileBlock, kind: BoundKind) -> BoundReport:
    """Evaluate one bound against a one-row profile block, reporting slack and verdict."""
    family = _family_on(kind, block)
    v = _evaluate_batch(block, family, _decide(block.c_pair, family.shape, kind.m),
                        (kind.alpha,))
    lhs, rhs, slack = float(v.lhs[0, 0]), float(v.rhs[0, 0]), float(v.slack[0, 0])
    applicable = _VERDICT[v.applicable[0, 0]]
    note = "power overflow; bound not verifiable numerically" if math.isnan(slack) else ""
    if family.shape in ("mean", "sum"):
        if v.dropped[0].all():
            note = "every pairwise concurrence is zero"
        elif math.isnan(lhs):
            note = "focus-rest concurrence is zero; negative power undefined"
        return BoundReport(kind, "upper", lhs, rhs, slack, applicable,
                           dropped_pairs=tuple(np.flatnonzero(v.dropped[0]).tolist()),
                           strict=bool(v.strict[0, 0]), note=note)
    m_used = None if v.decision.m_used is None else int(v.decision.m_used[0])
    relations = (() if family.shape == "unit" else
                 _relations(family.shape, block.c_pair.shape[1] + 1, m_used))
    rows = zip(block.c_pair[0].tolist(), known_tails(block), relations, v.decision.verdicts[0])
    checks = tuple(ConditionCheck(i, pair, tail, rel, _VERDICT[code])
                   for i, (pair, tail, rel, code) in enumerate(rows, 1))
    return BoundReport(kind, "lower", lhs, rhs, slack, applicable, conditions=checks,
                       m_used=m_used, note=note)


@dataclass(frozen=True)
class AlphaSweep:
    """Residual curves y = lhs - rhs over an alpha grid for two bounds.

    y1 belongs to the tightened bound, y2 to the baseline. For lower
    bounds a tighter right-hand side pushes y1 below y2; for the
    negative-power upper bounds the tighter (smaller) right-hand side
    pulls y1 above y2. Both curves meet where the coefficient families
    coincide (alpha = 2, or alpha = sqrt(2) for EoF kinds). Applicability
    is folded over the grid: False if any point fails, else None if any
    is undecided, else True.
    """

    alphas: tuple
    y1: tuple
    y2: tuple
    tightened: BoundId
    baseline: BoundId
    applicable_tightened: bool | None
    applicable_baseline: bool | None
    points_applicable_tightened: int

    def to_csv(self) -> str:
        lines = ["alpha,y1,y2"]
        for a, y1, y2 in zip(self.alphas, self.y1, self.y2):
            lines.append(f"{a:.17g},{y1:.17g},{y2:.17g}")
        return "\n".join(lines) + "\n"


def alpha_grid(lo: float, hi: float, step: float) -> tuple:
    """Inclusive grid lo, lo+step, ... up to hi (within float tolerance)."""
    if not all(math.isfinite(v) for v in (lo, hi, step)):
        raise ValueError("alpha grid bounds and step must be finite")
    if step <= 0.0:
        raise ValueError("alpha step must be positive")
    if hi < lo:
        raise ValueError("alpha range is empty")
    span = (hi - lo) / step
    if not span < MAX_GRID_POINTS:  # also catches hi - lo overflowing to inf
        raise ValueError(f"alpha grid would exceed {MAX_GRID_POINTS} points")
    count = int(math.floor(span + 1e-9)) + 1
    return tuple(lo + k * step for k in range(count))


def residual_sweep(block: ProfileBlock, tightened, baseline, alphas,
                   m: int | None = None) -> AlphaSweep:
    """Evaluate a tightened/baseline bound pair across an alpha grid on a one-row block.

    Every grid point must be valid for both bound families. Ordering
    conditions do not involve alpha and are decided once per bound; an
    overflowing power makes a bound's applicability vary along the grid,
    and its residual NaN there.
    """
    grid = tuple(float(a) for a in alphas)
    if not grid:
        raise ValueError("empty alpha grid")
    check_split_index((tightened, baseline), m)
    # the kinds at grid[0] carry the m and fit checks; later points need the power rule
    kinds = [BoundKind(b, grid[0], _split_only(BoundId(b), m)) for b in (tightened, baseline)]
    families = [_family_on(kind, block) for kind in kinds]
    points = np.array(grid)
    bad = ~(np.isfinite(points) & families[0].allows(points) & families[1].allows(points))
    if bad.any():  # the first bad point, and at it the tightened bound first
        for kind, family in zip(kinds, families):
            family.check_power(kind.id, grid[bad.argmax()])
    curves, applicable = [], []
    for kind, family in zip(kinds, families):
        v = _evaluate_batch(block, family, _decide(block.c_pair, family.shape, kind.m), grid)
        ok = ~np.isnan(v.slack[0])
        y = np.full(len(grid), np.nan)  # NaN where the point is not verifiable
        y[ok] = v.lhs[0, ok] - v.rhs[0, ok]  # not -slack, which turns +0.0 into -0.0
        curves.append(tuple(y.tolist()))
        applicable.append(v.applicable[0])
    return AlphaSweep(grid, curves[0], curves[1], kinds[0].id, kinds[1].id,
                      _VERDICT[_fold(applicable[0])], _VERDICT[_fold(applicable[1])],
                      int(np.count_nonzero(applicable[0] == HOLDS)))
