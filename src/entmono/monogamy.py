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
  tight-split       N >= 4: condition i reads >= for i <= m and <= after it;
                    coefficients run 1 .. (a/2)^(m-1), then (a/2)^(m+1) on
                    the middle block and (a/2)^m on the last term. The
                    largest admissible m is chosen unless m is pinned.
                    tight-ordered is exactly tight-split at m = N-2.

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

from .linalg import MAX_QUBITS, _finite, _real, _reduce, _whole, as_state_vector, num_qubits_of
from .measures import _entropy, _purity_concurrence, _wootters, eof_from_squared_concurrence

_COMPARISON_ATOL = 1e-12
_DROP_ATOL = 1e-12
_STRICT_PAIR_FLOOR = 1e-6
_STRICT_SLACK_FLOOR = 1e-14
_POWER_ATOL = 1e-12
_MAX_GRID_POINTS = 10_000

# three-valued verdicts, ordered so that folding several is their min, and
# one byte each so that _decide's stack of candidate split indices stays small
FAILS, UNDECIDED, HOLDS = np.int8(0), np.int8(1), np.int8(2)
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
    battery: bool     # whether a campaign given no bounds checks the family

    def allows(self, alpha):
        """Whether alpha (a float, or elementwise an array) is in powers.

        lo and a fixed power count within _POWER_ATOL.
        """
        lo, hi = self.powers
        if lo == hi:
            return abs(alpha - lo) <= _POWER_ATOL
        return (lo - _POWER_ATOL <= alpha) & (alpha < hi)

    def check_power(self, bound: BoundId, alpha: float) -> None:
        """Reject a finite alpha outside powers, naming the bound."""
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
    BoundId.CKW: _Family("C", "unit", (2.0, 2.0), _N3_UP, (2.0,), True),
    BoundId.ALPHA_POWER: _Family("C", "unit", _C_POWERS, _N3_UP, _C_DEFAULTS, True),
    BoundId.TIGHT_TRIPARTITE: _Family("C", "ordered", _C_POWERS, range(3, 4), _C_DEFAULTS, True),
    BoundId.TIGHT_ORDERED: _Family("C", "ordered", _C_POWERS, _N3_UP, _C_DEFAULTS, True),
    BoundId.TIGHT_SPLIT: _Family("C", "split", _C_POWERS, _N4_UP, _C_DEFAULTS, False),
    BoundId.UPPER_MEAN: _Family("C", "mean", _NEG_POWERS, _N3_UP, _NEG_DEFAULTS, True),
    BoundId.UPPER_SUM: _Family("C", "sum", _NEG_POWERS, _N3_UP, _NEG_DEFAULTS, False),
    BoundId.EOF_ALPHA_POWER: _Family("E", "unit", _E_POWERS, _N3_UP, _E_DEFAULTS, True),
    BoundId.EOF_TIGHT_ORDERED: _Family("E", "ordered", _E_POWERS, _N3_UP, _E_DEFAULTS, True),
    BoundId.EOF_TIGHT_SPLIT: _Family("E", "split", _E_POWERS, _N4_UP, _E_DEFAULTS, False),
}


@dataclass(frozen=True)
class BoundKind:
    """A bound family instantiated at a power alpha (and split index m)."""

    id: BoundId
    alpha: float
    m: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "id", BoundId(self.id))
        object.__setattr__(self, "alpha", _real("alpha", self.alpha))
        family = _FAMILIES[self.id]
        family.check_power(self.id, self.alpha)
        if self.m is not None:
            if family.shape != "split":
                raise ValueError(f"{self.id.value} does not take a split index m")
            object.__setattr__(self, "m", _whole("split index m", self.m, 1))

    def __str__(self) -> str:
        return self.id.value if self.m is None else f"{self.id.value} with m = {self.m}"

    def fits(self, num_parties: int) -> bool:
        """Whether the bound is stated for num_parties parties (and its pinned m)."""
        return (num_parties in _FAMILIES[self.id].parties
                and (self.m is None or self.m <= num_parties - 3))


def campaign_kinds(bounds, grid, m: int | None, qubit_counts) -> tuple:
    """The kinds a campaign checks: each chosen family at its powers, m on split families.

    A fixed-power family keeps its one power whatever the grid; any other
    family gets the grid points it allows, or its default powers when grid
    is None. An explicit pick must get a power; CampaignConfig rejects one
    that fits no qubit count. No bounds picks the battery, the families
    _FAMILIES marks so, and quietly drops the kinds that get no power or
    fit none of qubit_counts.
    """
    picked = ([BoundId(b) for b in bounds] if bounds
              else [b for b, family in _FAMILIES.items() if family.battery])
    _check_split_index(picked, m)
    grid = None if grid is None else _finite("grid", grid)
    kinds = []
    for bound in picked:
        family = _FAMILIES[bound]
        lo, hi = family.powers
        alphas = (family.defaults if grid is None or lo == hi
                  else [a for a in grid if family.allows(a)])
        if bounds and not alphas:
            raise ValueError(f"no grid point is a valid power for {bound.value}")
        kinds += [BoundKind(bound, a, m if family.shape == "split" else None) for a in alphas]
    if bounds:
        return tuple(kinds)
    return tuple(k for k in kinds if any(k.fits(n) for n in qubit_counts))


def _check_split_index(bounds, m: int | None) -> None:
    """Reject a split index m when none of the bound families takes one."""
    if m is not None and all(_FAMILIES[BoundId(b)].shape != "split" for b in bounds):
        raise ValueError(f"split index m = {m} is unused: no chosen bound is a split family")


@dataclass(frozen=True)
class PartitionSpec:
    """Focus qubit plus the ordered remaining single-qubit parties."""

    focus: int
    rest: tuple

    def __post_init__(self):
        object.__setattr__(self, "focus", _whole("focus", self.focus))
        object.__setattr__(self, "rest", tuple(_whole("rest", q) for q in self.rest))

    @classmethod
    def default(cls, num_qubits: int) -> "PartitionSpec":
        return cls(0, tuple(range(1, _whole("qubit count", num_qubits))))

    def validate(self, num_qubits: int) -> None:
        parties = (self.focus,) + self.rest
        if sorted(parties) != list(range(_whole("qubit count", num_qubits))):
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


def profile_batch(vecs: np.ndarray, part: PartitionSpec,
                  scratch: np.ndarray | None = None) -> ProfileBlock:
    """Profiles of trusted pure states stacked (S, 2**n), one per row.

    part must already be validated for n qubits. Each quantity is taken
    for the whole block at once: one rho_A per row gives both C(A|rest) and
    E(A|rest), and the (focus, b) pair reductions go through one stacked
    Wootters solve. scratch, a complex (2, >= S * 2**n) buffer, lets a
    caller that profiles many blocks reuse one; none of its values is read.
    """
    n = vecs.shape[1].bit_length() - 1
    focus = part.focus
    # every reduction goes through one scratch buffer into one output, so a
    # block allocates the same few arrays however many pairs it has
    if scratch is None:
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


def _known_tails(block: ProfileBlock) -> list:
    """The tails of a one-row block as Python floats, None where one has no closed form."""
    return [None if math.isnan(t) else t for t in _tails(block.c_pair)[0].tolist()]


def _family_on(kind: BoundKind, block: ProfileBlock) -> _Family:
    """The family of a kind, after checking that block has one row and the kind fits it."""
    if len(block.c_pair) != 1:
        raise ValueError(f"expected a one-row profile block, got {len(block.c_pair)} rows")
    num_parties = block.c_pair.shape[1] + 1
    if not kind.fits(num_parties):
        raise ValueError(f"{kind} does not apply to {num_parties} parties")
    return _FAMILIES[kind.id]


def _coefficient_table(family: _Family, alphas, k: int, m: int) -> np.ndarray:
    """(A, k) pair coefficients of a lower family at split index m; a huge power gives inf."""
    # 1 .. ratio^(m-1), middle block at ratio^(m+1), last at ratio^m (at m = N-2
    # ratio^(i-1) on the i-th pair: ordered); unit: ratio^0, exactly 1.0
    exponents = [0] * k if family.shape == "unit" else [*range(m), *[m + 1] * (k - 1 - m), m]
    # the ratio is alpha over the least allowed power, so a tightened family
    # meets its unit baseline there (alpha = 2, or sqrt(2) for EoF)
    ratios = np.array(alphas, float) / family.powers[0]
    return np.power(ratios[:, None], exponents)


class _Decision(NamedTuple):
    """The ordering conditions of one shape and split index on a block of profiles."""

    verdicts: np.ndarray    # (S, N-2) per condition i = 1..N-2; (S, 0) for shapes without
    applicable: np.ndarray  # (S,) the verdicts folded
    m_used: np.ndarray      # (S,) the split index each row uses: N-2 if ordered, 0 if unit


def _fold(verdicts: np.ndarray, axis: int = -1) -> np.ndarray:
    """Fails if any verdict fails, else undecided if any is, else holds (a min)."""
    return verdicts.min(axis=axis, initial=HOLDS)


def _decide(c_pair: np.ndarray, shape: str, m: int | None) -> _Decision:
    """Decide a shape's ordering conditions on (S, N-1) pair concurrences.

    Conditions involve concurrences only, never the power, so one decision
    serves every power and every family of the shape. The ordered shape is
    the split shape at m = N-2; condition i is >= exactly when i <= m.
    """
    s, k = c_pair.shape
    if shape not in ("ordered", "split"):
        return _Decision(np.empty((s, 0), np.int8), np.full(s, HOLDS), np.zeros(s, int))
    # (N-2, S) with rows contiguous, so folding over conditions is elementwise
    tails = np.ascontiguousarray(_tails(c_pair).T)
    pairs = np.ascontiguousarray(c_pair[:, :-1].T)
    undecided = np.isnan(tails)
    ge = np.where(undecided, UNDECIDED, np.where(pairs >= tails - _COMPARISON_ATOL, HOLDS, FAILS))
    le = np.where(undecided, UNDECIDED, np.where(pairs <= tails + _COMPARISON_ATOL, HOLDS, FAILS))
    # the candidate split indices, largest first: a free split index prefers
    # the largest m whose decided conditions do not fail
    ms = np.array([k - 1] if shape == "ordered" else range(k - 2, 0, -1) if m is None else [m])
    verdicts = np.where(np.arange(k - 1)[:, None] < ms[:, None, None], ge, le)  # (M, N-2, S)
    folded = _fold(verdicts, axis=1)
    # a row where every candidate fails falls back to the largest (argmax of all False is 0)
    pick, rows = np.argmax(folded != FAILS, axis=0), np.arange(s)
    return _Decision(verdicts[pick, :, rows], folded[pick, rows], ms[pick])


class _Verdicts(NamedTuple):
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
                    alphas) -> _Verdicts:
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
    strict = (ok & (block.c_pair.min(axis=1) > _STRICT_PAIR_FLOOR)[:, None] if upper
              else np.zeros_like(ok))
    return _Verdicts(lhs, rhs, slack, np.where(ok, decision.applicable[:, None], FAILS),
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
    coeffs = np.empty((s, len(alphas), k))
    for m in np.unique(decision.m_used):
        coeffs[decision.m_used == m] = _coefficient_table(family, alphas, k, int(m))
    powered = _powers(base, values, alphas)
    # a stack of 1-D dot products: the same FMA chain as coeffs @ values
    rhs = (coeffs[:, :, None, :] @ powered[..., 1:, None])[..., 0, 0]
    return powered[..., 0], rhs


def _upper_sides(block: ProfileBlock, mean: bool, alphas) -> tuple:
    c_focus, c_pair = block.c_focus, block.c_pair
    dropped = c_pair <= _DROP_ATOL
    retained = c_pair.shape[1] - dropped.sum(axis=1)
    valid = ((retained > 0) & (c_focus > _DROP_ATOL))[:, None]
    # a negative power of a zero concurrence is undefined: raise 1.0 in its
    # place, then take the dropped pairs' terms as zeros
    powered = _powers(np.where(valid[:, 0], c_focus, 1.0), np.where(dropped, 1.0, c_pair), alphas)
    terms = np.where(dropped[:, None], 0.0, powered[..., 1:])
    lhs = np.where(valid, powered[..., 0], np.nan)
    rhs = np.where(valid, terms.sum(axis=-1), np.nan)
    if mean:
        rhs /= retained[:, None]
    return lhs, rhs, dropped


def _evaluate_block(block: ProfileBlock, kinds):
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
    m = int(v.decision.m_used[0])
    rows = zip(block.c_pair[0].tolist(), _known_tails(block), v.decision.verdicts[0])
    checks = tuple(ConditionCheck(i, pair, tail, ">=" if i <= m else "<=", _VERDICT[code])
                   for i, (pair, tail, code) in enumerate(rows, 1))
    return BoundReport(kind, "lower", lhs, rhs, slack, applicable, conditions=checks,
                       m_used=m if family.shape == "split" else None, note=note)


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
    lo, hi, step = (_real(f"alpha {name}", v)
                    for name, v in (("min", lo), ("max", hi), ("step", step)))
    if step <= 0.0:
        raise ValueError("alpha step must be positive")
    if hi < lo:
        raise ValueError("alpha range is empty")
    span = (hi - lo) / step
    if not span < _MAX_GRID_POINTS:  # also catches hi - lo overflowing to inf
        raise ValueError(f"alpha grid would exceed {_MAX_GRID_POINTS} points")
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
    points = _finite("alphas", alphas)
    if points.ndim != 1 or not points.size:
        raise ValueError("alphas must be a nonempty sequence of powers")
    _check_split_index((tightened, baseline), m)
    # the kinds at points[0] carry the m and fit checks; later points need the power rule
    kinds = [BoundKind(b, points[0], m if _FAMILIES[BoundId(b)].shape == "split" else None)
             for b in (tightened, baseline)]
    families = [_family_on(kind, block) for kind in kinds]
    bad = ~(families[0].allows(points) & families[1].allows(points))
    if bad.any():  # the first bad point, and at it the tightened bound first
        for kind, family in zip(kinds, families):
            family.check_power(kind.id, float(points[bad.argmax()]))
    curves, applicable = [], []
    for kind, family in zip(kinds, families):
        v = _evaluate_batch(block, family, _decide(block.c_pair, family.shape, kind.m), points)
        ok = ~np.isnan(v.slack[0])
        y = np.full(len(points), np.nan)  # NaN where the point is not verifiable
        y[ok] = v.lhs[0, ok] - v.rhs[0, ok]  # not -slack, which turns +0.0 into -0.0
        curves.append(tuple(y.tolist()))
        applicable.append(v.applicable[0])
    return AlphaSweep(tuple(points.tolist()), curves[0], curves[1], kinds[0].id, kinds[1].id,
                      _VERDICT[_fold(applicable[0])], _VERDICT[_fold(applicable[1])],
                      int(np.count_nonzero(applicable[0] == HOLDS)))
