"""Dyadic arcs of the unit circle, Whitney cells of the disk, and the
annular arc decomposition used by the dyadic energy sums.

Level j splits the circle into 2**j closed arcs
I_{j,k} = [2*pi*(k-1)/2**j, 2*pi*k/2**j], k = 1..2**j.  Index arithmetic is
cyclic mod 2**j.  Adjacent arcs share exactly one endpoint.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .circle_map import TWO_PI
from .errors import DomainError, check_level

MAX_LEVEL = 30          # arcs_at_level guard: 2**30 arcs is already absurd
MAX_SEED_LEVEL = 24     # annular decompositions stay cheap well past this
MAX_INDUCER_LEVEL = 16  # output size: < 2**17 Whitney cells, or inducer_counts keys per seed level


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


def _decomposition_steps(j: int, seeds: np.ndarray):
    """`annular_decomposition`'s rule over an int64 array of 0-based level-j
    seed positions.  Yields (n, positions, optional, add) per member choice in
    `members` order: the level-n positions (mod 2**n) the choice would add,
    its optional flag, and the mask of the seeds that take them."""
    # covered level-n arcs are the positions [lo, hi), taken cyclically mod 2**n;
    # each level ends on the parent grid (even positions) until the cover closes
    lo = seeds & ~1
    hi = lo + 2
    yield j, seeds, False, np.ones(seeds.shape, dtype=bool)
    yield j, seeds ^ 1, False, np.ones(seeds.shape, dtype=bool)
    for n in range(j - 1, 0, -1):
        lo, hi, size = lo // 2, hi // 2, 2 ** n
        gap, added = size - (hi - lo), []
        if not gap.any():
            break
        for q, optional, wanted in ((hi, False, True), (hi + 1, True, hi % 2 == 0),
                                    (lo - 1, False, True), (lo - 2, True, lo % 2 == 0)):
            added.append(wanted & (sum(added) < gap))
            yield n, q % size, optional, added[-1]
        hi, lo = hi + added[0] + added[1], lo - added[2] - added[3]


def annular_decomposition(seed: DyadicArc) -> AnnularDecomposition:
    """Decompose the circle around `seed` into its brother and coarser arcs.

    Starting from the seed/brother pair (their union is the parent arc), each
    coarser level n receives on each side, anticlockwise first, the unique
    level-n arc meeting the covered range in a single point, plus - only when
    that mandatory arc's sibling lies further out on the same side - the
    sibling, which lands the front on the level-(n-1) grid.  The recursion
    stops once the two fronts meet; an arc is never added beyond the
    remaining uncovered gap, so the result is an exact cover.  The rule runs
    over an array of seeds (`_decomposition_steps`); this is its one-seed case.
    """
    j = seed.level
    check_level(j, MAX_SEED_LEVEL, minimum=2, what="seed level")
    chosen = [(DyadicArc(n, int(q[0]) + 1), optional) for n, q, optional, add
              in _decomposition_steps(j, np.array([seed.index - 1])) if add[0]]
    return AnnularDecomposition(seed=seed, members=tuple(arc for arc, _ in chosen),
                                optional_flags=dict(chosen), terminal_level=chosen[-1][0].level)


def inducer_counts(max_target_level: int, max_seed_level: int) -> dict[tuple[int, int, int], int]:
    """Count, per seed level j, how many seeds' decompositions contain each arc.

    Returns {(j, n, m): count} where (n, m) identifies the target arc and j
    the seed level.  The rule runs over all 2**j seeds of each level
    j = 2..max_seed_level at once, with one bincount per (j, n).
    """
    check_level(max_target_level, MAX_INDUCER_LEVEL)
    check_level(max_seed_level, MAX_INDUCER_LEVEL, minimum=2)
    counts: dict[tuple[int, int, int], int] = {}
    for j in range(2, max_seed_level + 1):
        steps = _decomposition_steps(j, np.arange(2 ** j))
        for n, group in itertools.groupby(steps, key=lambda step: step[0]):
            if n <= max_target_level:
                c = np.bincount(np.concatenate([q[add] for _, q, _, add in group]),
                                minlength=2 ** n)
                counts.update(((j, n, m + 1), c[m].item()) for m in np.flatnonzero(c).tolist())
    return counts


def inducers(target: DyadicArc, j: int) -> list[DyadicArc]:
    """Seeds at level j whose annular decomposition contains `target`."""
    check_level(j, MAX_INDUCER_LEVEL, minimum=2)
    if j < target.level:
        raise DomainError("seed level must be >= target level")
    hit = sum(add & (q == target.index - 1) for n, q, _, add
              in _decomposition_steps(j, np.arange(2 ** j)) if n == target.level)
    return [DyadicArc(j, k + 1) for k in np.flatnonzero(hit).tolist()]
