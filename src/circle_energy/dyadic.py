"""Dyadic arcs of the unit circle, Whitney cells of the disk, and the
annular arc decomposition used by the dyadic energy sums.

Level j splits the circle into 2**j closed arcs
I_{j,k} = [2*pi*(k-1)/2**j, 2*pi*k/2**j], k = 1..2**j.  Index arithmetic is
cyclic mod 2**j.  Adjacent arcs share exactly one endpoint.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .circle_map import TWO_PI
from .errors import DomainError, check_level

MAX_LEVEL = 30          # arcs_at_level guard: 2**30 arcs is already absurd
MAX_SEED_LEVEL = 24     # annular decompositions stay cheap well past this
MAX_INDUCER_LEVEL = 16  # inducer enumeration is exponential in the level


@dataclass(frozen=True, order=True)
class DyadicArc:
    """Closed arc I_{j,k} with 1-based cyclic index k at level j."""

    level: int
    index: int

    def __post_init__(self) -> None:
        check_level(self.level, MAX_LEVEL)
        if not isinstance(self.index, int) or not 1 <= self.index <= 2 ** self.level:
            raise DomainError(
                f"index must be in 1..2**{self.level}, got {self.index!r}"
            )

    @property
    def theta_left(self) -> float:
        return TWO_PI * (self.index - 1) / 2 ** self.level

    @property
    def theta_right(self) -> float:
        return TWO_PI * self.index / 2 ** self.level

    @property
    def width(self) -> float:
        return TWO_PI / 2 ** self.level

    def endpoints(self) -> tuple[complex, complex]:
        a, b = self.theta_left, self.theta_right
        return complex(math.cos(a), math.sin(a)), complex(math.cos(b), math.sin(b))

    def parent(self) -> "DyadicArc":
        if self.level == 1:
            raise DomainError("level-1 arcs have no parent")
        return DyadicArc(self.level - 1, (self.index + 1) // 2)

    def brother(self) -> "DyadicArc":
        # the sibling sharing the same parent: odd k pairs with k+1
        if self.level == 1:
            return DyadicArc(1, 3 - self.index)
        k = self.index
        return DyadicArc(self.level, k + 1 if k % 2 == 1 else k - 1)

    def children(self) -> tuple["DyadicArc", "DyadicArc"]:
        j, k = self.level + 1, 2 * self.index
        check_level(j, MAX_LEVEL)
        return DyadicArc(j, k - 1), DyadicArc(j, k)

    def neighbour(self, step: int) -> "DyadicArc":
        """Arc `step` positions anticlockwise (cyclic)."""
        n = 2 ** self.level
        return DyadicArc(self.level, (self.index - 1 + step) % n + 1)

    def contains_angle(self, theta: float) -> bool:
        t = theta % TWO_PI
        lo, hi = self.theta_left, self.theta_right
        if t < lo - 1e-15:
            t += TWO_PI
        return lo - 1e-12 <= t <= hi + 1e-12


def arcs_at_level(j: int) -> list[DyadicArc]:
    check_level(j, MAX_LEVEL)
    return [DyadicArc(j, k) for k in range(1, 2 ** j + 1)]


# ---------------------------------------------------------------------------
# Whitney cells


@dataclass(frozen=True)
class WhitneyCell:
    """Polar cell Q_{j,k} = {r*e^{i*t} : r_inner <= r <= r_outer, t in I_{j,k}}.

    dist(Q_{j,k}, S) = 2**-j and diam(Q_{j,k}) is comparable to 2**-j, which
    is the defining Whitney property of the family.
    """

    level: int
    index: int
    r_inner: float
    r_outer: float
    theta_left: float
    theta_right: float
    center: complex
    inscribed_radius: float
    covering_ratio: float  # smallest C with B subset Q subset C*B around center

    @property
    def arc(self) -> DyadicArc:
        return DyadicArc(self.level, self.index)

    @property
    def dist_to_circle(self) -> float:
        return 1.0 - self.r_outer

    @property
    def area(self) -> float:
        return 0.5 * (self.theta_right - self.theta_left) * (
            self.r_outer ** 2 - self.r_inner ** 2
        )


def whitney_cell(j: int, k: int) -> WhitneyCell:
    """Whitney cell over the dyadic arc I_{j,k}."""
    arc = DyadicArc(j, k)  # validates j, k
    r_in = 1.0 - 2.0 ** (1 - j)
    r_out = 1.0 - 2.0 ** (-j)
    t_l, t_r = arc.theta_left, arc.theta_right
    r_c = 1.0 - 3.0 * 2.0 ** (-(j + 1))
    t_c = math.pi * (2 * k - 1) / 2 ** j
    center = complex(r_c * math.cos(t_c), r_c * math.sin(t_c))

    half = math.pi / 2 ** j
    radial_clear = 2.0 ** (-(j + 1))
    side_clear = r_c * math.sin(min(half, 0.5 * math.pi))
    rho = min(radial_clear, side_clear)

    far = 0.0
    for r in (r_in, r_out):
        for t in (t_l, t_r):
            far = max(far, abs(center - complex(r * math.cos(t), r * math.sin(t))))
    return WhitneyCell(j, k, r_in, r_out, t_l, t_r, center, rho, far / rho)


def whitney_cells_up_to(max_level: int) -> list[WhitneyCell]:
    check_level(max_level, MAX_INDUCER_LEVEL)
    return [whitney_cell(j, k) for j in range(1, max_level + 1) for k in range(1, 2 ** j + 1)]


def whitney_covering_constant(max_level: int) -> float:
    """sup of per-cell covering ratios over levels 1..max_level."""
    return max(c.covering_ratio for c in whitney_cells_up_to(max_level))


# ---------------------------------------------------------------------------
# Annular decomposition


@dataclass(frozen=True)
class AnnularDecomposition:
    """Cover of the circle by the seed, its brother and coarser-level arcs.

    `members` are pairwise non-overlapping (interiors) and their union is the
    full circle.  `optional_flags[arc]` is True for members added by the
    second, parity-dependent choice on a side; mandatory members map to False.
    """

    seed: DyadicArc
    members: tuple[DyadicArc, ...]
    optional_flags: dict[DyadicArc, bool] = field(compare=False)
    terminal_level: int

    def arcs_at(self, level: int) -> list[DyadicArc]:
        return [a for a in self.members if a.level == level]

    def total_width(self) -> float:
        return sum(a.width for a in self.members)


def annular_decomposition(seed: DyadicArc) -> AnnularDecomposition:
    """Decompose the circle around `seed` into its brother and coarser arcs.

    Starting from the seed/brother pair (their union is the parent arc), each
    coarser level n receives on each side, anticlockwise first, the unique
    level-n arc meeting the covered range in a single point, plus - only when
    that mandatory arc's sibling lies further out on the same side - the
    sibling, which lands the front on the level-(n-1) grid.  The recursion
    stops once the two fronts meet; an arc is never added beyond the
    remaining uncovered gap, so the result is an exact cover.
    """
    j = seed.level
    check_level(j, MAX_SEED_LEVEL, minimum=2, what="seed level")

    brother = seed.brother()
    members: list[DyadicArc] = [seed, brother]
    flags: dict[DyadicArc, bool] = {seed: False, brother: False}

    # covered level-n arcs are the positions [lo, hi), taken cyclically mod 2**n;
    # each level ends on the parent grid (even positions) until the cover closes
    lo = min(seed.index, brother.index) - 1
    hi = lo + 2
    terminal = j
    for n in range(j - 1, 0, -1):
        lo, hi, size = lo // 2, hi // 2, 2 ** n
        if hi - lo == size:
            break
        terminal = n
        for step in (1, -1):
            p = hi if step == 1 else lo - 1
            for q in (p, p ^ 1) if p ^ 1 == p + step else (p,):
                if hi - lo == size:
                    break
                arc = DyadicArc(n, q % size + 1)
                members.append(arc)
                flags[arc] = q != p
                lo, hi = (lo, q + 1) if step == 1 else (q, hi)

    return AnnularDecomposition(
        seed=seed,
        members=tuple(members),
        optional_flags=flags,
        terminal_level=terminal,
    )


def inducer_counts(max_target_level: int, max_seed_level: int) -> dict[tuple[int, int, int], int]:
    """Count, per seed level j, how many seeds' decompositions contain each arc.

    Returns {(j, n, m): count} where (n, m) identifies the target arc and j
    the seed level.  Enumerates every seed of level 2..max_seed_level once.
    """
    check_level(max_target_level, MAX_INDUCER_LEVEL)
    check_level(max_seed_level, MAX_INDUCER_LEVEL, minimum=2)
    counts: dict[tuple[int, int, int], int] = {}
    for j in range(2, max_seed_level + 1):
        for seed in arcs_at_level(j):
            for arc in annular_decomposition(seed).members:
                if arc.level <= max_target_level:
                    key = (j, arc.level, arc.index)
                    counts[key] = counts.get(key, 0) + 1
    return counts


def inducers(target: DyadicArc, j: int) -> list[DyadicArc]:
    """Seeds at level j whose annular decomposition contains `target`."""
    check_level(j, MAX_INDUCER_LEVEL, minimum=2)
    if j < target.level:
        raise DomainError("seed level must be >= target level")
    return [seed for seed in arcs_at_level(j) if target in annular_decomposition(seed).members]
