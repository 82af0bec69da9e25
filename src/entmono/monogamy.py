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
mixed reduction with two or more remaining parties), True otherwise.
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

    def allows(self, alpha: float) -> bool:
        """Whether alpha is in powers; lo and a fixed power count within POWER_ATOL."""
        lo, hi = self.powers
        if lo == hi:
            return abs(alpha - lo) <= POWER_ATOL
        return lo - POWER_ATOL <= alpha < hi


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
        if not math.isfinite(self.alpha):
            raise ValueError(f"alpha must be finite, got {self.alpha}")
        family = _FAMILIES[self.id]
        if not family.allows(self.alpha):
            lo, hi = family.powers
            need = f"alpha = {lo:g}" if lo == hi else f"{lo:g} <= alpha < {hi:g}"
            raise ValueError(f"{self.id.value} requires {need}, got {self.alpha}")
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


def _family_at(kind: BoundKind, num_parties: int) -> _Family:
    """The family of a kind, after checking that the kind fits num_parties."""
    if not kind.fits(num_parties):
        pinned = "" if kind.m is None else f" with m = {kind.m}"
        raise ValueError(f"{kind.id.value}{pinned} does not apply to {num_parties} parties")
    return _FAMILIES[kind.id]


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


@dataclass(frozen=True)
class PairwiseProfile:
    """Measure values a monogamy bound consumes.

    c_pair[i] and e_pair[i] refer to the pair (A, B_{i+1}); c_tail[i] is
    C(A|B_{i+2}..B_{N-1}). Tail entries are exact only when a single party
    remains (a two-qubit reduction); deeper tails of mixed reductions have
    no closed form and are stored as None.
    """

    num_parties: int
    c_focus_rest: float
    c_pair: tuple
    c_tail: tuple
    e_focus_rest: float
    e_pair: tuple


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
    are populated diagnostically even when applicable is False; they are
    NaN only if the power itself is undefined.
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


def profile(psi, partition: PartitionSpec | None = None) -> PairwiseProfile:
    """Measure everything the bound evaluators need from a pure state.

    The state and the partition are validated here, once; the state is then
    profiled as a batch of one by profile_batch.
    """
    vec = as_state_vector(psi)
    n = num_qubits_of(vec.shape[0])
    part = partition if partition is not None else PartitionSpec.default(n)
    part.validate(n)
    return profile_batch(vec[None], part)[0]


def profile_batch(vecs: np.ndarray, part: PartitionSpec) -> list:
    """Profiles of trusted pure states stacked (S, 2**n), one per row.

    part must already be validated for n qubits. Each quantity is taken
    for the whole block at once: one rho_A per row gives both C(A|rest) and
    E(A|rest), and the (focus, b) pair reductions go through one stacked
    Wootters solve.
    """
    n = vecs.shape[1].bit_length() - 1
    focus = part.focus
    rho_a = _reduce(vecs, (focus,), n)
    rho_pairs = np.stack([_reduce(vecs, tuple(sorted((focus, b))), n) for b in part.rest],
                         axis=1)
    c_pair = _wootters(rho_pairs)
    e_pair = eof_from_squared_concurrence(np.square(c_pair))
    # only the last tail (one remaining party) is a two-qubit reduction
    deep_tails = (None,) * (n - 3)
    return [PairwiseProfile(n, cf, tuple(cp), deep_tails + (cp[-1],), ef, tuple(ep))
            for cf, cp, ef, ep in zip(_purity_concurrence(rho_a).tolist(), c_pair.tolist(),
                                      _entropy(rho_a).tolist(), e_pair.tolist())]


def bound_coefficients(kind_id, alpha: float, num_parties: int,
                       m: int | None = None) -> np.ndarray:
    """Per-pair coefficient vector of a bound's right-hand side.

    For upper-mean this is the no-drop case 1/(N-1); evaluation recomputes
    the mean over retained terms when zeros are dropped.
    """
    kind = BoundKind(kind_id, alpha, m)
    family = _family_at(kind, num_parties)
    if family.shape == "split" and m is None:
        raise ValueError("split kinds need a split index m")
    return _coefficients(family, kind.alpha, num_parties - 1, m)


def _coefficients(family: _Family, alpha: float, k: int, m: int | None) -> np.ndarray:
    if family.shape in ("unit", "sum"):
        return np.ones(k)
    if family.shape == "mean":
        return np.full(k, 1.0 / k)
    # the ratio is alpha over the least allowed power, so a tightened family
    # meets its unit baseline there (alpha = 2, or sqrt(2) for EoF)
    ratio = alpha / family.powers[0]
    if family.shape == "ordered":
        return ratio ** np.arange(k)
    # split: 1 .. ratio^(m-1), middle block at ratio^(m+1), last at ratio^m
    coeffs = np.empty(k)
    coeffs[:m] = ratio ** np.arange(m)
    coeffs[m:k - 1] = ratio ** (m + 1)
    coeffs[k - 1] = ratio ** m
    return coeffs


def _conditions(prof: PairwiseProfile, relations) -> tuple:
    checks = []
    for i, rel in relations:
        pair = prof.c_pair[i - 1]
        tail = prof.c_tail[i - 1]
        if tail is None:
            ok = None
        elif rel == ">=":
            ok = bool(pair >= tail - COMPARISON_ATOL)
        else:
            ok = bool(pair <= tail + COMPARISON_ATOL)
        checks.append(ConditionCheck(i, pair, tail, rel, ok))
    return tuple(checks)


def _applicability(checks) -> bool | None:
    if any(c.satisfied is False for c in checks):
        return False
    if any(c.satisfied is None for c in checks):
        return None
    return True


def _split_relations(num_parties: int, m: int):
    ups = [(i, ">=") for i in range(1, m + 1)]
    downs = [(j, "<=") for j in range(m + 1, num_parties - 1)]
    return ups + downs


def _resolve_conditions(prof: PairwiseProfile, shape: str, m: int | None):
    """Ordering conditions and the split index actually used."""
    n = prof.num_parties
    if shape == "unit":
        return (), None
    if shape == "ordered":
        return _conditions(prof, [(i, ">=") for i in range(1, n - 1)]), None
    if m is not None:
        return _conditions(prof, _split_relations(n, m)), m
    # prefer the largest m whose decidable conditions do not fail
    fallback = None
    for m in range(n - 3, 0, -1):
        checks = _conditions(prof, _split_relations(n, m))
        if _applicability(checks) is not False:
            return checks, m
        if fallback is None:
            fallback = (checks, m)
    return fallback


def evaluate(prof: PairwiseProfile, kind: BoundKind) -> BoundReport:
    """Evaluate one bound against a profile, reporting slack and verdict."""
    family = _family_at(kind, prof.num_parties)
    if family.shape in ("mean", "sum"):
        return _evaluate_upper(prof, kind, family.shape == "mean")
    lhs_base, values = ((prof.e_focus_rest, prof.e_pair) if family.measure == "E"
                        else (prof.c_focus_rest, prof.c_pair))
    checks, m_used = _resolve_conditions(prof, family.shape, kind.m)
    coeffs = _coefficients(family, kind.alpha, prof.num_parties - 1, m_used)
    lhs = float(lhs_base ** kind.alpha)
    rhs = float(coeffs @ np.asarray(values) ** kind.alpha)
    return BoundReport(
        kind=kind, direction="lower", lhs=lhs, rhs=rhs, slack=lhs - rhs,
        applicable=_applicability(checks), conditions=checks, m_used=m_used,
    )


def _evaluate_upper(prof: PairwiseProfile, kind: BoundKind, mean: bool) -> BoundReport:
    nan = float("nan")
    retained = [i for i, c in enumerate(prof.c_pair) if c > DROP_ATOL]
    dropped = tuple(i for i in range(len(prof.c_pair)) if i not in retained)
    if not retained:
        return BoundReport(kind, "upper", nan, nan, nan, False, dropped_pairs=dropped,
                           note="every pairwise concurrence is zero")
    if prof.c_focus_rest <= DROP_ATOL:
        return BoundReport(kind, "upper", nan, nan, nan, False, dropped_pairs=dropped,
                           note="focus-rest concurrence is zero; negative power undefined")
    with np.errstate(over="ignore"):  # an overflow to inf is reported below
        lhs = float(np.float64(prof.c_focus_rest) ** kind.alpha)
        rhs = float((np.asarray([prof.c_pair[i] for i in retained]) ** kind.alpha).sum())
    if mean:
        rhs /= len(retained)
    if not (math.isfinite(lhs) and math.isfinite(rhs)):
        return BoundReport(kind, "upper", lhs, rhs, nan, False, dropped_pairs=dropped,
                           note="negative power overflow; bound not verifiable numerically")
    strict = not dropped and min(prof.c_pair) > STRICT_PAIR_FLOOR
    return BoundReport(kind, "upper", lhs, rhs, rhs - lhs, True,
                       dropped_pairs=dropped, strict=strict)


@dataclass(frozen=True)
class AlphaSweep:
    """Residual curves y = lhs - rhs over an alpha grid for two bounds.

    y1 belongs to the tightened bound, y2 to the baseline. For lower
    bounds a tighter right-hand side pushes y1 below y2; for the
    negative-power upper bounds the tighter (smaller) right-hand side
    pulls y1 above y2. Both curves meet where the coefficient families
    coincide (alpha = 2, or alpha = sqrt(2) for EoF kinds).
    """

    alphas: tuple
    y1: tuple
    y2: tuple
    tightened: BoundId
    baseline: BoundId
    applicable_tightened: bool | None
    applicable_baseline: bool | None

    def to_csv(self) -> str:
        lines = ["alpha,y1,y2"]
        for a, y1, y2 in zip(self.alphas, self.y1, self.y2):
            lines.append(f"{a:.17g},{y1:.17g},{y2:.17g}")
        return "\n".join(lines) + "\n"


def residual_sweep(prof: PairwiseProfile, tightened, baseline, alphas,
                   m: int | None = None) -> AlphaSweep:
    """Evaluate a tightened/baseline bound pair across an alpha grid.

    Every grid point must be valid for both bound families. Ordering
    conditions do not involve alpha, so applicability is constant along
    the sweep and reported once per bound.
    """
    grid = tuple(float(a) for a in alphas)
    if not grid:
        raise ValueError("empty alpha grid")
    check_split_index((tightened, baseline), m)
    tight_id, base_id = BoundId(tightened), BoundId(baseline)
    y1, y2 = [], []
    app1 = app2 = None
    for idx, a in enumerate(grid):
        kt = BoundKind(tight_id, a, _split_only(tight_id, m))
        kb = BoundKind(base_id, a, _split_only(base_id, m))
        rt, rb = evaluate(prof, kt), evaluate(prof, kb)
        y1.append(rt.lhs - rt.rhs)
        y2.append(rb.lhs - rb.rhs)
        if idx == 0:
            app1, app2 = rt.applicable, rb.applicable
    return AlphaSweep(grid, tuple(y1), tuple(y2), tight_id, base_id, app1, app2)
