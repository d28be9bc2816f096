import math
from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from circle_energy.dyadic import (DyadicArc, annular_decomposition,
                                  arcs_at_level, inducer_counts, inducers,
                                  whitney_cell, whitney_cells_up_to,
                                  whitney_covering_constant)
from circle_energy.errors import DomainError, ResourceGuardError

TWO_PI = 2.0 * math.pi


# -- arcs ---------------------------------------------------------------------

def test_arc_geometry():
    arc = DyadicArc(3, 5)
    assert arc.theta_left == pytest.approx(TWO_PI * 4 / 8)
    assert arc.theta_right == pytest.approx(TWO_PI * 5 / 8)
    assert arc.width == pytest.approx(TWO_PI / 8)
    a, b = arc.endpoints()
    assert abs(a) == pytest.approx(1.0) and abs(b) == pytest.approx(1.0)


def test_arc_index_validation():
    with pytest.raises(DomainError):
        DyadicArc(3, 0)
    with pytest.raises(DomainError):
        DyadicArc(3, 9)
    with pytest.raises(DomainError):
        DyadicArc(0, 1)
    with pytest.raises(ResourceGuardError):
        DyadicArc(31, 1)


def test_arcs_at_level_cover_circle():
    arcs = arcs_at_level(5)
    assert len(arcs) == 32
    assert arcs[0].theta_left == 0.0
    assert arcs[-1].theta_right == pytest.approx(TWO_PI)
    for left, right in zip(arcs, arcs[1:]):
        assert left.theta_right == pytest.approx(right.theta_left)


@given(st.integers(min_value=2, max_value=10), st.data())
def test_family_relations(j, data):
    k = data.draw(st.integers(min_value=1, max_value=2 ** j))
    arc = DyadicArc(j, k)
    assert arc.parent().children().count(arc) == 1
    assert arc.brother().brother() == arc
    assert arc.brother().parent() == arc.parent()
    assert arc.neighbour(1).neighbour(-1) == arc
    assert arc.neighbour(2 ** j) == arc


def test_level_one_relations():
    a = DyadicArc(1, 1)
    assert a.brother() == DyadicArc(1, 2)
    with pytest.raises(DomainError):
        a.parent()


def test_contains_angle_wraps():
    last = DyadicArc(2, 4)
    assert last.contains_angle(TWO_PI - 0.1)
    assert last.contains_angle(0.0)      # shared endpoint, cyclically
    assert not last.contains_angle(1.0)


# -- Whitney cells ------------------------------------------------------------

def test_whitney_cell_geometry():
    q = whitney_cell(4, 3)
    assert q.r_inner == pytest.approx(1.0 - 2.0 ** -3)
    assert q.r_outer == pytest.approx(1.0 - 2.0 ** -4)
    assert q.dist_to_circle == pytest.approx(2.0 ** -4)
    assert q.arc == DyadicArc(4, 3)
    # the centre sits mid-cell, strictly inside
    assert q.r_inner < abs(q.center) < q.r_outer
    assert q.area == pytest.approx(
        0.5 * (q.theta_right - q.theta_left) * (q.r_outer ** 2 - q.r_inner ** 2))


def test_whitney_cells_tile_disk():
    for J in (4, 8):
        total = math.fsum(c.area for c in whitney_cells_up_to(J))
        assert total == pytest.approx(math.pi * (1.0 - 2.0 ** -J) ** 2, rel=1e-12)


def test_whitney_diameter_comparable_to_distance():
    # Whitney property: diam(Q) within fixed multiples of dist(Q, circle)
    for j in (1, 3, 6, 9):
        q = whitney_cell(j, 1)
        corners = [complex(r * math.cos(t), r * math.sin(t))
                   for r in (q.r_inner, q.r_outer)
                   for t in (q.theta_left, q.theta_right)]
        diam = max(abs(a - b) for a in corners for b in corners)
        # thin outer cells approach the diagonal sqrt((2*pi)^2 + 1) * 2^-j
        assert 1.0 <= diam / q.dist_to_circle <= math.sqrt(4 * math.pi ** 2 + 1)


def test_whitney_covering_constant_window():
    # measured once at J = 8; the per-cell ratio is largest at level 1 and
    # settles quickly, so a fixed window is a stable regression check
    const = whitney_covering_constant(8)
    assert 5.0 < const < 6.5
    assert const == pytest.approx(whitney_covering_constant(10), rel=0.05)


def test_whitney_guard():
    with pytest.raises(ResourceGuardError):
        whitney_cells_up_to(17)


# -- annular decomposition ----------------------------------------------------

def test_annular_decomposition_exact_reference_set():
    got = set(annular_decomposition(DyadicArc(4, 7)).members)
    expected = {DyadicArc(4, 7), DyadicArc(4, 8), DyadicArc(3, 3),
                DyadicArc(3, 5), DyadicArc(3, 6), DyadicArc(2, 1),
                DyadicArc(2, 4)}
    assert got == expected


def test_annular_decomposition_order_and_flags():
    dec = annular_decomposition(DyadicArc(4, 7))
    got = [(a.level, a.index, dec.optional_flags[a]) for a in dec.members]
    assert got == [(4, 7, False), (4, 8, False), (3, 5, False), (3, 6, True),
                   (3, 3, False), (2, 4, False), (2, 1, False)]
    assert dec.terminal_level == 2


def test_annular_decomposition_tiles_once_with_sibling_flags():
    for j in range(2, 11):
        for k in range(1, 2 ** j + 1):
            dec = annular_decomposition(DyadicArc(j, k))
            # level-j cells [start, end) of each member chain from 0 to 2**j
            spans = sorted(((a.index - 1) << (j - a.level), a.index << (j - a.level))
                           for a in dec.members)
            assert [s for s, _ in spans] == [0] + [e for _, e in spans[:-1]], (j, k)
            assert spans[-1][1] == 2 ** j, (j, k)
            for prev, arc in zip(dec.members, dec.members[1:]):
                if dec.optional_flags[arc]:
                    assert not dec.optional_flags[prev], (j, k)
                    assert prev.level == arc.level, (j, k)
                    assert (arc.index - 1) ^ 1 == prev.index - 1, (j, k)


def test_annular_decomposition_contains_seed_and_brother():
    seed = DyadicArc(6, 17)
    dec = annular_decomposition(seed)
    assert dec.seed == seed
    assert seed in dec.members
    assert seed.brother() in dec.members
    assert dec.optional_flags[seed] is False


@given(st.integers(min_value=2, max_value=12), st.data())
def test_annular_decomposition_tiles_circle(j, data):
    k = data.draw(st.integers(min_value=1, max_value=2 ** j))
    dec = annular_decomposition(DyadicArc(j, k))
    assert dec.total_width() == pytest.approx(TWO_PI, abs=1e-12)
    # interiors are disjoint: endpoints sort into a strictly increasing chain
    cuts = sorted((a.theta_left + TWO_PI * (a.theta_right <= 1e-15)) # noqa: no wrap here
                  for a in dec.members)
    assert len(set(dec.members)) == len(dec.members)
    # per-level counts: 1 or 2 per side, never more than 4 in total
    for n in range(dec.terminal_level, j + 1):
        assert 1 <= len(dec.arcs_at(n)) <= 4
    assert cuts == sorted(set(cuts))


@given(st.integers(min_value=2, max_value=11), st.data())
def test_annular_decomposition_levels_descend(j, data):
    k = data.draw(st.integers(min_value=1, max_value=2 ** j))
    dec = annular_decomposition(DyadicArc(j, k))
    levels = {a.level for a in dec.members}
    assert max(levels) == j
    assert min(levels) == dec.terminal_level
    assert levels == set(range(dec.terminal_level, j + 1))


def _reference_decomposition(seed):
    """(members, optional flags, terminal level) by a scalar loop over
    DyadicArc objects: the reference for the rule run over arrays of seeds."""
    j = seed.level
    brother = seed.brother()
    members, flags = [seed, brother], [False, False]
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
                members.append(DyadicArc(n, q % size + 1))
                flags.append(q != p)
                lo, hi = (lo, q + 1) if step == 1 else (q, hi)
    return members, flags, terminal


@pytest.fixture(scope="module")
def reference_decompositions():
    """{seed: reference decomposition} for every seed of levels 2..12."""
    return {seed: _reference_decomposition(seed)
            for j in range(2, 13) for seed in arcs_at_level(j)}


def test_annular_decomposition_matches_the_reference_loop(reference_decompositions):
    for seed, (members, flags, terminal) in reference_decompositions.items():
        dec = annular_decomposition(seed)
        assert list(dec.members) == members, seed
        assert [dec.optional_flags[a] for a in dec.members] == flags, seed
        assert dec.terminal_level == terminal, seed


def test_inducers_match_the_reference_loop(reference_decompositions):
    want = Counter((seed.level, a.level, a.index)
                   for seed, (members, _, _) in reference_decompositions.items()
                   for a in members if a.level <= 6)
    assert inducer_counts(6, 12) == dict(want)
    for j in (2, 5, 9, 12):
        targets = [a for n in range(1, min(j, 3) + 1) for a in arcs_at_level(n)]
        for target in targets + [DyadicArc(j, 3)]:
            listed = [seed for seed in arcs_at_level(j)
                      if target in reference_decompositions[seed][0]]
            assert inducers(target, j) == listed, (target, j)


def test_annular_decomposition_guards():
    with pytest.raises(DomainError):
        annular_decomposition(DyadicArc(1, 1))
    with pytest.raises(ResourceGuardError):
        annular_decomposition(DyadicArc(25, 1))


# -- inducer counting ---------------------------------------------------------

def test_inducer_counts_bound():
    counts = inducer_counts(4, 8)
    for (j, n, _m), c in counts.items():
        assert c <= 3 * 2 ** (j - n), (j, n, c)


def test_inducer_counts_match_inducers():
    counts = inducer_counts(3, 6)
    target = DyadicArc(3, 5)
    for j in range(3, 7):
        listed = inducers(target, j)
        assert counts.get((j, 3, 5), 0) == len(listed)
        for seed in listed:
            assert target in annular_decomposition(seed).members


def test_inducers_guards():
    with pytest.raises(DomainError):
        inducers(DyadicArc(5, 1), 3)
    with pytest.raises(ResourceGuardError):
        inducer_counts(4, 17)
