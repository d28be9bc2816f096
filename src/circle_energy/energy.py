"""Truncated dyadic energy sums over image arc lengths.

Condition (iv) sums j^lambda * l(phi(Gamma_{j,k}))**2, condition (v) replaces
the level weight by log^lambda(e + l * 2**j) inside the sum.  Both admit the
same split by the indicator chi(j,k) = [l > 2**(-3j/4)], whose chi = 0 part
is summable with explicit bounds.

The lift is evaluated once per call, at the level-J edges, which hold every
level's edges bit for bit, and one call serves any number of (condition,
lambda) tasks.  Sums are exact binned integer sums (Neal, arXiv:1505.05571)
rounded once, half to even, as math.fsum rounds, so they equal its.  A
report's total is P1 + P2 of its chi-split, so the partition identity is exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .circle_map import TWO_PI, CircleHomeomorphism
from .errors import (DomainError, InsufficientDataError, NumericalError, ResourceGuardError,
                     check_lambda, check_level, checked_pow)

MAX_J = 20
_E_BINS = 2098            # np.frexp exponents of finite doubles: -1073..1024
_UNIT = 1 << 1126         # exact sums are integers n worth n / _UNIT = n * 2**-1126
DEFAULT_SLOPE_EPS = 0.05

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
    if len(levels) < 6:
        raise InsufficientDataError(
            f"classification needs at least 6 levels, got {len(levels)}")
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
    cum, run = [], []
    for s in per_level:
        run.append(s)
        cum.append(math.fsum(run))
    if total is None:
        total = cum[-1] if cum else 0.0
    try:
        cls = classify_sequence(levels, per_level)
    except InsufficientDataError:
        cls = INCONCLUSIVE
    tail = per_level[-1] / cum[-1] if cum and cum[-1] > 0 else 0.0
    return EnergyReport(condition=condition, lam=float(lam), J=J, levels=levels,
                        per_level=per_level, cumulative=tuple(cum), total=float(total),
                        classification=cls, tail_ratio=tail)


# ---------------------------------------------------------------------------


def _exact_split_sums(terms: np.ndarray, chi: np.ndarray) -> tuple[int, int]:
    """Exact sums of terms[~chi] and terms[chi], as integers in units of 2**-1126.

    np.frexp gives f * 2**e with 0.5 <= |f| < 1; the integer f * 2**53 is cut into
    hi * 2**26 + lo with |hi| <= 2**27 and 0 <= lo < 2**26.  np.bincount sums the
    halves per (chi, e) bin, each sum below 2**53 for at most 2**26 terms, hence
    exact in any order; the bins are then shifted into Python integers.
    """
    if terms.size > 2 ** 26:
        raise ResourceGuardError(f"{terms.size} terms exceed the exact-sum guard 2**26")
    if not np.all(np.isfinite(terms)):
        raise NumericalError("non-finite term in a dyadic energy sum")
    lo, e = np.frexp(terms)
    lo *= 2.0 ** 27
    hi = np.floor(lo)
    lo -= hi
    lo *= 2.0 ** 26
    key = chi * np.intp(_E_BINS)
    key += e
    key += 1073
    his = np.bincount(key, weights=hi, minlength=2 * _E_BINS)
    los = np.bincount(key, weights=lo, minlength=2 * _E_BINS)
    parts = [0, 0]
    for b in np.flatnonzero((his != 0) | (los != 0)).tolist():
        c, k = divmod(b, _E_BINS)
        parts[c] += ((int(his[b]) << 26) + int(los[b])) << k
    return parts[0], parts[1]


def _level_sums(map_: CircleHomeomorphism, J: int, tasks) -> dict:
    """Exact (chi = 0, chi = 1) level sums for every (condition, lambda) task.

    Per level the lengths, chi and log(e + l * 2**j) are formed once; a weight
    of exactly 1 (lambda = 0) reuses the plain sums of l**2.  A task meeting a
    non-finite term gets its NumericalError in place of its sums.
    """
    check_level(J, MAX_J, minimum=0, what="J")
    for condition, lam in tasks:
        check_lambda(lam)
        if condition not in ("iv", "v"):
            raise DomainError(f"unknown dyadic condition {condition!r}")
    edges = TWO_PI * np.arange(2 ** J + 1) / 2 ** J
    edges[-1] = TWO_PI
    lift = map_.lift_values(edges)
    del edges
    out = {task: [] for task in tasks}
    weighted_v = any(c == "v" and lam != 0.0 for c, lam in tasks)
    for j in range(1, J + 1):
        lengths = np.diff(lift[::2 ** (J - j)])
        if j == J:
            del lift   # its last use: free it before the largest level's sums
        chi = lengths > 2.0 ** (-0.75 * j)
        if weighted_v:
            logs = np.log(lengths * 2.0 ** j + math.e)
        sq = np.multiply(lengths, lengths, out=lengths)   # l**2, in the lengths' buffer
        terms = np.empty_like(sq)
        plain = None
        for (condition, lam), sums in out.items():
            if isinstance(sums, NumericalError):
                continue
            try:
                if lam == 0.0:
                    if plain is None:
                        plain = _exact_split_sums(sq, chi)
                    sums.append(plain)
                    continue
                with np.errstate(over="ignore", invalid="ignore"):
                    if condition == "iv":
                        np.multiply(sq, checked_pow(float(j), lam), out=terms)
                    else:
                        np.power(logs, lam, out=terms)
                        terms *= sq
                sums.append(_exact_split_sums(terms, chi))
            except NumericalError as exc:
                out[condition, lam] = exc
    return out


def _rounded(*exact: int) -> tuple[float, ...]:
    # int / int rounds once, to nearest with ties to even, as math.fsum does
    return tuple(n / _UNIT for n in exact)


def _split(sums: list[tuple[int, int]]) -> tuple[float, float]:
    return _rounded(sum(s[1] for s in sums), sum(s[0] for s in sums))


def dyadic_reports(map_: CircleHomeomorphism, J: int, tasks) -> dict:
    """(iv)/(v) reports of every (condition, lambda) task, from one lift.

    A task whose sum is not finite maps to its NumericalError; argument and
    level guards raise for the whole call.
    """
    return {(c, lam): sums if isinstance(sums, NumericalError) else make_report(
                c, lam, J, range(1, J + 1), _rounded(*(n0 + n1 for n0, n1 in sums)),
                total=sum(_split(sums)))
            for (c, lam), sums in _level_sums(map_, J, tasks).items()}


def _only(results: dict):
    (result,) = results.values()
    if isinstance(result, NumericalError):
        raise result
    return result


def dyadic_energy_iv(map_: CircleHomeomorphism, lam: float, J: int) -> EnergyReport:
    """Truncated sum of j^lambda * sum_k l(phi(Gamma_{j,k}))**2."""
    return _only(dyadic_reports(map_, J, [("iv", lam)]))


def dyadic_energy_v(map_: CircleHomeomorphism, lam: float, J: int) -> EnergyReport:
    """Truncated sum of sum_k l**2 * log^lambda(e + l * 2**j)."""
    return _only(dyadic_reports(map_, J, [("v", lam)]))


def comparability_split(map_: CircleHomeomorphism, lam: float, J: int,
                        condition: str = "iv") -> tuple[float, float]:
    """(P1, P2): the chi = 1 and chi = 0 parts of the (iv) or (v) sum.

    Each part is its exact sum rounded once, and the matching report's total
    is P1 + P2 of these same two floats, so the identity holds exactly.
    The chi = 0 part is controlled explicitly: every such term has
    l <= 2**(-3j/4), so P2 <= sum_j j^lambda 2**(-j/2) for (iv) and, for
    lambda <= 0, P2' <= sum_j 2**(-j/2) for (v).
    """
    return _split(_only(_level_sums(map_, J, [(condition, lam)])))


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
