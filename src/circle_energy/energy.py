"""Level sums of the energies (i), (ii), (iv) and (v), and their reports.

Condition (iv) sums j^lambda * l(phi(Gamma_{j,k}))**2, condition (v) replaces
the level weight by log^lambda(e + l * 2**j) inside the sum.  Both admit the
same split by the indicator chi(j,k) = [l > 2**(-3j/4)], whose chi = 0 part
is summable with explicit bounds.  On each level these and poisson's (i)/(ii)
sum mass * base**lambda over lambda-free masses and bases, so one task loop
serves every (condition, lambda) task from data formed once per level: here
the chi-split l**2 of one lift at the level-J edges (which hold every level's
edges bit for bit), in poisson |Dh|^2 w.

Each part is summed by numpy's pairwise np.sum: blocks of at most 128 terms
in 8 partial sums, longer arrays halved.  For n <= 2**21 terms no term passes
through more than k = ceil(log2 n) + 17 roundings (checked for every such n
against that splitting rule), so a sum of nonnegative terms lies within
gamma_k = k u / (1 - k u), u = 2**-53, relative of its exact value.  An (iv)/(v)
level comes in blocks of at most 2**16 lengths, so no temporary spans a whole
level; a part's level sum is the math.fsum of its block sums: the block sum
itself for j <= 16, else 33 roundings and one more, within j + 17.  The (iv)
weight j**lambda scales each block's part sums once; a level term adds the two
parts, and P1 and P2 are the math.fsum of their parts over the levels.  So every
level term, P1, P2 and total of a depth-J sum lies within gamma_(J+20), 4.4e-15
at J = 20, of the exact sum of its computed terms.  A report's total is P1 + P2
of its chi-split, so the partition identity is exact.
An (i)/(ii) level has n = g**2 2**j <= 2**(j+8) products (g <= 12, J <= 12):
its term lies within gamma_(J+25) and its total within gamma_(J+26), 4.2e-15
at J = 12.  That gives up math.fsum's correct rounding for a bound far below
the disk quadrature's error, 1e-4 relative or more at N_b = 2**14, g = 4.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .circle_map import CircleHomeomorphism, uniform_edges
from .errors import (DomainError, InsufficientDataError, NumericalError, check_lambda,
                     check_level, checked_pow)

MAX_J = 20
_BLOCK_ROUNDINGS = 17   # np.sum of n <= 2**21 terms: k <= ceil(log2 n) + 17
_BLOCK = 2 ** 16        # lengths per (iv)/(v) block: 2**14 and 2**17 were slower
DEFAULT_SLOPE_EPS = 0.05
MIN_CLASSIFY_LEVELS = 6     # fewer levels leave the slope fit too few points

CONVERGENT = "convergent"
DIVERGENT = "divergent"
INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class EnergyReport:
    """Per-level contributions s_j and partial sums of one energy condition."""

    condition: str          # i | ii | iii | iv | v
    lam: float
    J: int
    levels: tuple[int, ...]
    per_level: tuple[float, ...]
    cumulative: tuple[float, ...]
    total: float
    classification: str
    tail_ratio: float

    def __post_init__(self) -> None:
        if any(s < 0 for s in self.per_level):
            raise DomainError("per-level contributions must be nonnegative")


def classify_sequence(levels, per_level, eps: float = DEFAULT_SLOPE_EPS) -> str:
    """Slope heuristic: fit log2(s_j) against j over the last half of levels.

    Diagnostic only; a slope inside [-eps, +eps] is deliberately left
    inconclusive rather than forced into a verdict.
    """
    if len(levels) < MIN_CLASSIFY_LEVELS:
        raise InsufficientDataError(f"classification needs at least "
                                    f"{MIN_CLASSIFY_LEVELS} levels, got {len(levels)}")
    js = np.asarray(levels, dtype=float)
    ss = np.asarray(per_level, dtype=float)
    half = len(js) // 2
    js, ss = js[half:], ss[half:]
    if np.any(ss <= 0.0):
        return INCONCLUSIVE
    slope = np.polyfit(js, np.log2(ss), 1)[0]
    if slope < -eps:
        return CONVERGENT
    if slope > eps:
        return DIVERGENT
    return INCONCLUSIVE


def classify_convergence(report: EnergyReport, eps: float = DEFAULT_SLOPE_EPS) -> str:
    return classify_sequence(report.levels, report.per_level, eps)


def make_report(condition: str, lam: float, J: int, levels, per_level,
                total: float | None = None) -> EnergyReport:
    levels = tuple(int(j) for j in levels)
    per_level = tuple(float(s) for s in per_level)
    if not all(map(math.isfinite, per_level)):
        raise NumericalError(f"non-finite ({condition}) level term at lambda={lam}")
    cum = [_fsum(per_level[:k]) for k in range(1, len(per_level) + 1)]
    total = _finite((cum[-1] if cum else 0.0) if total is None else total)[0]
    try:
        cls = classify_sequence(levels, per_level)
    except InsufficientDataError:
        cls = INCONCLUSIVE
    tail = per_level[-1] / cum[-1] if cum and cum[-1] > 0 else 0.0
    return EnergyReport(condition=condition, lam=float(lam), J=J, levels=levels,
                        per_level=per_level, cumulative=tuple(cum), total=float(total),
                        classification=cls, tail_ratio=tail)


# ---------------------------------------------------------------------------


def _finite(*sums: float) -> tuple[float, ...]:
    if not all(map(math.isfinite, sums)):
        raise NumericalError("non-finite term in an energy level sum")
    return sums


def _fsum(values) -> float:
    """math.fsum of level or block sums; a sum beyond a double is a NumericalError."""
    try:
        return _finite(math.fsum(values))[0]
    except OverflowError:
        raise NumericalError("energy sum overflows a double") from None


def _part_sums(parts) -> tuple[float, ...]:
    """The pairwise np.sum of each part, within the module docstring's bound."""
    with np.errstate(over="ignore"):
        return _finite(*(float(np.sum(p)) for p in parts))


def _level_sums(levels, tasks, conditions) -> dict:
    """Per-level part sums of every (condition, lambda) task, in one pass.

    `levels` yields per level its blocks (masses, bases): the 1-D masses m of
    each part and, per condition, the base b of its terms m * b**lambda, a
    float constant on the level or one array per part.  One sum of m per part
    and block serves every lambda = 0 and constant-base task; the block sums
    are math.fsum-ed.  A task meeting a non-finite sum gets its NumericalError
    in place of its sums; argument errors raise for the whole call.
    """
    for condition, lam in tasks:
        check_lambda(lam)
        if condition not in conditions:
            raise DomainError(f"unknown condition {condition!r}, expected {conditions}")
    out = {task: [] for task in tasks}
    for blocks in levels:
        level = {task: [] for task, sums in out.items() if isinstance(sums, list)}
        for masses, bases in blocks:
            plain = None
            for (condition, lam), sums in list(level.items()):
                base = bases[condition]
                try:
                    if lam == 0.0 or isinstance(base, float):
                        if plain is None:
                            plain = _part_sums(masses)
                        w = checked_pow(base, lam) if isinstance(base, float) else 1.0
                        sums.append(_finite(*(w * s for s in plain)))
                        continue
                    with np.errstate(over="ignore", invalid="ignore"):
                        terms = [np.power(b, lam) * m for b, m in zip(base, masses)]
                    sums.append(_part_sums(terms))
                except NumericalError as exc:
                    out[condition, lam] = exc
                    del level[condition, lam]
        for task, sums in level.items():
            try:
                out[task].append(tuple(map(_fsum, zip(*sums))))
            except NumericalError as exc:
                out[task] = exc
    return out


def level_reports(levels, J: int, tasks, conditions) -> dict:
    """Each task's report, or its NumericalError; a two-part total is P1 + P2."""
    out = _level_sums(levels, tasks, conditions)
    for (c, lam), sums in out.items():
        try:
            if not isinstance(sums, NumericalError):
                out[c, lam] = make_report(c, lam, J, range(1, J + 1), [sum(s) for s in sums],
                                          total=sum(map(_fsum, zip(*sums))))
        except NumericalError as exc:
            out[c, lam] = exc
    return out


def only_result(results: dict):
    """The value of a one-task result dict; a NumericalError is raised."""
    (result,) = results.values()
    if isinstance(result, NumericalError):
        raise result
    return result


def _dyadic_levels(map_: CircleHomeomorphism, J: int, tasks):
    """Per level, blocks of at most _BLOCK lengths: chi-split l**2, the (iv) weight j
    and, for a weighted (v) task, log(e + l * 2**j), from one lift made in blocks."""
    check_level(J, MAX_J, minimum=0, what="J")
    weighted_v = any(c == "v" and lam != 0.0 for c, lam in tasks)
    lift = np.empty(2 ** J + 1)
    for lo in range(0, lift.size, _BLOCK):
        lift[lo:lo + _BLOCK] = map_.lift_values(uniform_edges(2 ** J, lo, lo + _BLOCK))
    return (_level_blocks(lift[::2 ** (J - j)], j, weighted_v) for j in range(1, J + 1))


def _level_blocks(points, j: int, weighted_v: bool):
    """Level j's blocks (masses, bases) from its 2**j + 1 lifted edges."""
    for lo in range(0, points.size - 1, _BLOCK):
        lengths = np.diff(points[lo:lo + _BLOCK + 1])
        chi = lengths > 2.0 ** (-0.75 * j)
        parts = (lengths[~chi], lengths[chi])
        logs = [np.log(p * 2.0 ** j + math.e) for p in parts] if weighted_v else None
        yield [np.multiply(p, p, out=p) for p in parts], {"iv": float(j), "v": logs}


def dyadic_reports(map_: CircleHomeomorphism, J: int, tasks) -> dict:
    """(iv)/(v) reports of every (condition, lambda) task, from one lift.

    A task whose sum is not finite maps to its NumericalError; argument and
    level guards raise for the whole call.
    """
    return level_reports(_dyadic_levels(map_, J, tasks), J, tasks, ("iv", "v"))


def dyadic_energy_iv(map_: CircleHomeomorphism, lam: float, J: int) -> EnergyReport:
    """Truncated sum of j^lambda * sum_k l(phi(Gamma_{j,k}))**2."""
    return only_result(dyadic_reports(map_, J, [("iv", lam)]))


def dyadic_energy_v(map_: CircleHomeomorphism, lam: float, J: int) -> EnergyReport:
    """Truncated sum of sum_k l**2 * log^lambda(e + l * 2**j)."""
    return only_result(dyadic_reports(map_, J, [("v", lam)]))


def comparability_split(map_: CircleHomeomorphism, lam: float, J: int,
                        condition: str = "iv") -> tuple[float, float]:
    """(P1, P2): the chi = 1 and chi = 0 parts of the (iv) or (v) sum.

    Each part is the math.fsum of its per-level pairwise sums, within the
    module docstring's bound, and the matching report's total is P1 + P2 of
    these same two floats, so the identity holds exactly.
    The chi = 0 part is controlled explicitly: every such term has
    l <= 2**(-3j/4), so P2 <= sum_j j^lambda 2**(-j/2) for (iv) and, for
    lambda <= 0, P2' <= sum_j 2**(-j/2) for (v).
    """
    tasks = [(condition, lam)]
    sums = only_result(_level_sums(_dyadic_levels(map_, J, tasks), tasks, ("iv", "v")))
    return _fsum(s[1] for s in sums), _fsum(s[0] for s in sums)


def chi_bound(lam: float, J: int, condition: str = "iv") -> float:
    """Closed-form bound on the chi = 0 part of the truncated sum.

    For (iv): sum_{j<=J} j^lambda 2**(-j/2).  For (v) the same expression
    carries the worst-case log factor log^lambda(e + 2**(j/4)) when
    lambda > 0; for lambda <= 0 that factor is at most 1.
    """
    check_lambda(lam)
    check_level(J, MAX_J, minimum=0, what="J")
    vals = []
    for j in range(1, J + 1):
        if condition == "iv":
            vals.append(checked_pow(float(j), lam) * 2.0 ** (-0.5 * j))
        else:
            extra = checked_pow(math.log(math.e + 2.0 ** (0.25 * j)), lam) if lam > 0 else 1.0
            vals.append(2.0 ** (-0.5 * j) * extra)
    return math.fsum(vals)
