import ast
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from circle_energy import chordarc
from circle_energy.chordarc import (CUSP_JUNCTION_X, PairSampler,
                                    PolygonDomain, chordarc_constant,
                                    cusp_domain, internal_chordarc_constant,
                                    load_vertices, regular_polygon,
                                    save_vertices)
from circle_energy.errors import (DomainError, InsufficientDataError,
                                  ValidationError)

SQUARE = [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]
L_SHAPE = [[0.0, 0.0], [2.0, 0.0], [2.0, 1.0], [1.0, 1.0], [1.0, 2.0],
           [0.0, 2.0]]
# two notches cut down from the top edge y = 3; four reflex corners at y = 1
ZIGZAG = [[0, 0], [5, 0], [5, 3], [4, 3], [4, 1], [3, 1], [3, 3], [2, 3],
          [2, 1], [1, 1], [1, 3], [0, 3]]
# notches down from the top at x in [1, 2] and [5, 6], up from the bottom at
# x in [3, 4]: a path from end to end winds round six reflex corners, and
# (1, 1) sees (3, 2) only through (2, 1)
COMB = [[0, 0], [3, 0], [3, 2], [4, 2], [4, 0], [7, 0], [7, 3], [6, 3], [6, 1],
        [5, 1], [5, 3], [2, 3], [2, 1], [1, 1], [1, 3], [0, 3]]


def _reference_point(dom, s):
    """The per-point boundary parametrization, one Python float at a time."""
    s = float(s) % dom.perimeter
    edge = min(int(np.searchsorted(dom.cum_lengths, s, side="right") - 1), dom.n - 1)
    t = (s - dom.cum_lengths[edge]) / dom.edge_lengths[edge]
    return dom.boundary_point(edge, min(max(t, 0.0), 1.0))


def _reference_distance(dom, a, b):
    """The per-pair geodesic: the chord if admissible, else through the table."""
    chord = float(np.hypot(*(a - b)))
    if chord < 1e-12:
        return 0.0
    if dom._segments_admissible(a[None, :], b[None, :])[0]:
        return chord
    pts, table = dom._reflex_graph
    m = len(pts)
    starts = np.repeat([a, b], m, axis=0)
    ends = np.tile(pts, (2, 1))
    reach = np.where(dom._segments_admissible(starts, ends),
                     np.hypot(*(starts - ends).T), np.inf).reshape(2, m)
    return float(np.min(reach[0][:, None] + table + reach[1][None, :]))


def _reference_constant(dom, sampler, internal):
    """max ell / chord (or / geodesic) over the sampler's pairs, pair by pair."""
    rng = np.random.default_rng(sampler.seed)
    per = dom.perimeter
    s1 = rng.uniform(0, per, sampler.n_uniform)
    s2 = rng.uniform(0, per, sampler.n_uniform)
    pairs = list(zip(s1, s2))
    pairs += [(u, u + per / 2) for u in rng.uniform(0, per, sampler.n_antipodal)]
    offs = per * np.geomspace(sampler.min_offset_frac, sampler.max_offset_frac,
                              sampler.n_straddle)
    pairs += [(float(dom.cum_lengths[k]) - d, float(dom.cum_lengths[k]) + d)
              for k in dom.reflex_vertices for d in offs]
    best = 0.0
    for u, v in pairs:
        w1, w2 = _reference_point(dom, u), _reference_point(dom, v)
        chord = float(np.hypot(w1.x - w2.x, w1.y - w2.y))
        if chord < 1e-9:
            continue
        ell = dom.boundary_arc_length(w1, w2)
        denom = _reference_distance(dom, w1.coords, w2.coords) if internal else chord
        if denom > 0:
            best = max(best, ell / denom)
    return best


# -- dense references: every query against every polygon edge ---------------------

def _dense_crossings(dom, starts, ends):
    """(rows, n) proper-crossing mask and products (t - s) x (v - s)."""
    vx, vy, wx, wy, ex, ey = dom._edge_rows[:, None, :]
    sx, sy = starts.T[:, :, None]
    tx, ty = ends.T[:, :, None]
    gx, gy = tx - sx, ty - sy
    d1 = chordarc._cross(ex, ey, sx - vx, sy - vy)
    d2 = chordarc._cross(ex, ey, tx - vx, ty - vy)
    d3 = chordarc._cross(gx, gy, vx - sx, vy - sy)
    d4 = chordarc._cross(gx, gy, wx - sx, wy - sy)
    tol = -1e-12 * ((ex * ex + ey * ey) * (gx * gx + gy * gy))
    return (d1 * d2 < tol) & (d3 * d4 < tol), d3


def _dense_inside(dom, pts):
    """Even-odd ray cast towards +x over every edge."""
    x1, y1, x2, y2 = dom._edge_rows[:4, None, :]
    px, py = pts.T[:, :, None]
    straddle = (y1 > py) != (y2 > py)
    with np.errstate(divide="ignore", invalid="ignore"):
        xs = x1 + (py - y1) * (x2 - x1) / (y2 - y1)
    return np.count_nonzero(straddle & (px < xs), axis=1) % 2 == 1


def _dense_near(dom, pts):
    """Distance to every edge, below the boundary tolerance."""
    v, e = dom.vertices[None], dom._edge_vec[None]
    d = pts[:, None, :] - v
    tt = np.clip(np.sum(d * e, axis=2) / np.sum(e * e, axis=2), 0.0, 1.0)
    proj = v + tt[:, :, None] * e
    return np.min(np.hypot(*(pts[:, None, :] - proj).transpose(2, 0, 1)), axis=1) < dom._delta


def _dense_admissible(dom, starts, ends):
    """No proper crossing, and every piece between through-vertices has its
    midpoint inside or near the boundary."""
    def closure(pts):
        return _dense_inside(dom, pts) | _dense_near(dom, pts)
    crossing, side = _dense_crossings(dom, starts, ends)
    ok = ~crossing.any(axis=1) & closure(0.5 * (starts + ends))
    vx, vy = dom.vertices.T[:, None]
    sx, sy = starts.T[:, :, None]
    gx, gy = (ends - starts).T[:, :, None]
    gg = gx * gx + gy * gy
    along = (vx - sx) * gx + (vy - sy) * gy
    tol = dom._delta * np.sqrt(gg)
    through = (np.abs(side) <= tol) & (along > tol) & (along < gg - tol)
    for r in np.nonzero(ok & through.any(axis=1))[0]:
        cut = np.concatenate([[0.0], np.sort(along[r, through[r]]) / gg[r, 0], [1.0]])
        u = 0.5 * (cut[:-1] + cut[1:])
        ok[r] = closure(starts[r] + u[:, None] * (ends[r] - starts[r])).all()
    return ok


def _probe_queries(dom, rng):
    """Segments (starts, ends) and points that meet every rule at its tolerance."""
    n, v, e, delta = dom.n, dom.vertices, dom._edge_vec, dom._delta
    normal = np.column_stack([e[:, 1], -e[:, 0]]) / dom.edge_lengths[:, None]
    a, _ = dom.points_at_arclength(rng.uniform(0, dom.perimeter, 300))
    b, _ = dom.points_at_arclength(rng.uniform(0, dom.perimeter, 300))
    i, j = rng.integers(0, n, (2, 200))
    refl = np.repeat(dom.reflex_vertices, 40)[:300]
    far = rng.integers(0, n, len(refl))
    k = rng.integers(0, n, 100)                       # along the line of an edge
    m = rng.integers(0, n, 200)                       # grazing a vertex
    ang = rng.uniform(0, 2 * math.pi, 200)
    u = np.column_stack([np.cos(ang), np.sin(ang)])
    d = u * dom.edge_lengths[m, None]
    off = rng.choice([-2.0, -0.5, 0.5, 2.0], 200)[:, None] * delta * u[:, ::-1] * [1, -1]
    starts = np.vstack([a, v[i], v[refl], a[:len(refl)], v[k] - 0.5 * e[k], v[m] + off - d])
    ends = np.vstack([b, v[j], v[far], v[refl], v[k] + 1.5 * e[k], v[m] + off + d])
    h = rng.integers(0, n, 300)                       # points at 0.5 and 2 delta off edges
    side = rng.choice([-2.0, -0.5, 0.5, 2.0], 300)[:, None] * delta
    lo, hi = v.min(axis=0), v.max(axis=0)
    pts = np.vstack([v[h] + rng.uniform(0, 1, 300)[:, None] * e[h] + side * normal[h],
                     v + rng.uniform(-1, 1, v.shape) * delta,
                     v + rng.uniform(-1, 1, v.shape) * 1e-9 * dom._length,
                     np.column_stack([rng.uniform(lo[0], hi[0], n), v[:, 1]]),  # rays through vertices
                     lo + rng.uniform(0, 1, (300, 2)) * (hi - lo)])
    return starts, ends, pts


def _in_rows(rule, *arrays, rows=64):
    return np.concatenate([rule(*(x[r:r + rows] for x in arrays))
                           for r in range(0, len(arrays[0]), rows)])


PROBE_DOMAINS = {"gon256": lambda: regular_polygon(256).vertices,
                 "cusp64": lambda: cusp_domain(64).vertices,
                 "cusp256": lambda: cusp_domain(256).vertices,
                 "comb": lambda: np.asarray(COMB, dtype=float),
                 "zigzag": lambda: np.asarray(ZIGZAG, dtype=float)}


@pytest.mark.parametrize("scale, shift", [(1e-4, 0.0), (1.0, 0.0), (1e4, 0.0),
                                          (1.0, np.array([1e3, -1e3]))])
@pytest.mark.parametrize("name", sorted(PROBE_DOMAINS))
def test_culled_rules_equal_dense_reference(name, scale, shift):
    dom = PolygonDomain(PROBE_DOMAINS[name]() * scale + shift)
    starts, ends, pts = _probe_queries(dom, np.random.default_rng(7))
    adm = dom._segments_admissible(starts, ends)
    assert adm.tolist() == _in_rows(lambda s, t: _dense_admissible(dom, s, t),
                                    starts, ends).tolist()
    inside, near = dom._inside_mask(pts), dom._near_boundary(pts)
    assert inside.tolist() == _in_rows(lambda p: _dense_inside(dom, p), pts).tolist()
    assert near.tolist() == _in_rows(lambda p: _dense_near(dom, p), pts).tolist()
    for mask in (adm, inside, near):                  # both answers are probed
        assert 0 < np.count_nonzero(mask) < len(mask)


def test_random_chords_test_few_edges():
    # a random chord of the 1024-gon meets the runs around its two ends only
    dom = regular_polygon(1024)
    rng = np.random.default_rng(5)
    a, _ = dom.points_at_arclength(rng.uniform(0, dom.perimeter, 128))
    b, _ = dom.points_at_arclength(rng.uniform(0, dom.perimeter, 128))
    q, _ = dom._near_pairs(np.vstack([a.T, b.T]))
    assert len(q) < 0.1 * len(a) * dom.n


# -- polygon basics -------------------------------------------------------------

def test_square_metrics():
    sq = PolygonDomain(SQUARE)
    assert sq.perimeter == pytest.approx(4.0)
    assert len(sq.reflex_vertices) == 0
    assert sq.contains((0.5, 0.5))
    assert not sq.contains((1.5, 0.5))
    assert sq.contains((1.0, 0.5))  # boundary counts as inside


def test_boundary_point_and_arclength_roundtrip():
    sq = PolygonDomain(SQUARE)
    p = sq.boundary_point(2, 0.5)
    assert p.coords == pytest.approx((0.5, 1.0))
    assert p.s == pytest.approx(2.5)
    q = sq.point_at_arclength(2.5)
    assert q.coords == pytest.approx(p.coords)
    wrap = sq.point_at_arclength(4.0 + 2.5)
    assert wrap.coords == pytest.approx(p.coords)
    with pytest.raises(DomainError):
        sq.boundary_point(4, 0.5)
    with pytest.raises(DomainError):
        sq.boundary_point(0, 1.5)


def test_points_at_arclength_equal_per_point_reference():
    dom = cusp_domain(64)
    per = dom.perimeter
    s = np.concatenate([np.random.default_rng(2).uniform(-per, 2 * per, 500),
                        dom.cum_lengths, [-1e-300, -per, per, 0.0]])
    xy, pos = dom.points_at_arclength(s)
    want = [_reference_point(dom, u) for u in s]
    assert xy.tolist() == [[w.x, w.y] for w in want]
    assert pos.tolist() == [w.s for w in want]
    assert [dom.point_at_arclength(u) for u in s] == want


def test_boundary_arc_length_shorter_side():
    sq = PolygonDomain(SQUARE)
    a = sq.boundary_point(0, 0.5)   # (0.5, 0), s = 0.5
    b = sq.point_at_arclength(3.5)  # (0, 0.5)
    assert sq.boundary_arc_length(a, b) == pytest.approx(1.0)


def test_polygon_validation():
    with pytest.raises(DomainError):
        PolygonDomain([[0, 0], [1, 0]])
    with pytest.raises(ValidationError):
        PolygonDomain([[0, 0], [0, 1], [1, 1], [1, 0]])      # clockwise
    with pytest.raises(ValidationError):
        PolygonDomain([[0, 0], [1, 1], [1, 0], [0, 1]])      # self-crossing
    with pytest.raises(ValidationError):
        PolygonDomain([[0, 0], [0, 0], [1, 0], [1, 1]])      # degenerate edge


def test_regular_polygon_perimeter():
    gon = regular_polygon(256, 1.0)
    assert gon.perimeter == pytest.approx(2 * 256 * math.sin(math.pi / 256),
                                          rel=1e-12)
    assert len(gon.reflex_vertices) == 0


# -- geodesics -------------------------------------------------------------------

def test_convex_internal_distance_is_chord():
    sq = PolygonDomain(SQUARE)
    a = sq.boundary_point(0, 0.25)
    b = sq.boundary_point(2, 0.25)
    assert sq.internal_distance(a, b) == pytest.approx(
        math.hypot(*(np.asarray(a.coords) - b.coords)))


def test_l_shape_geodesic_turns_at_reflex_corner():
    # (1.5, 1) to (0.5, 2) must bend at (1, 1): 1/2 + sqrt(5)/2, golden ratio
    dom = PolygonDomain(L_SHAPE)
    assert list(dom.reflex_vertices) == [3]
    p = dom.boundary_point(2, 0.5)
    q = dom.boundary_point(4, 0.5)
    assert dom.internal_distance(p, q) == pytest.approx((1 + math.sqrt(5)) / 2,
                                                        rel=1e-12)
    chord = math.hypot(p.coords[0] - q.coords[0], p.coords[1] - q.coords[1])
    assert dom.internal_distance(p, q) > chord


def test_zigzag_geodesic_through_collinear_vertices():
    # the chord y = 3 runs along the top edges and across both notches; it
    # meets no edge properly, and its midpoint (2.5, 3) lies on the boundary
    dom = PolygonDomain(ZIGZAG)
    assert list(dom.reflex_vertices) == [4, 5, 8, 9]
    p = dom.boundary_point(10, 0.5)     # (0.5, 3)
    q = dom.boundary_point(2, 0.5)      # (4.5, 3), bends at (1, 1) and (4, 1)
    assert dom.internal_distance(p, q) == pytest.approx(3 + 2 * math.sqrt(4.25),
                                                        rel=1e-12)


@pytest.mark.parametrize("scale", [1e-7, 5e-7])
def test_tiny_zigzag_keeps_its_orientation_and_reflex_corners(scale):
    # the doubled area 22 scale^2 (at 1e-7) and the reflex turns -2 scale^2
    # (at both scales) lie within an absolute 1e-12 of zero: only tolerances
    # relative to the lengths see them
    dom = PolygonDomain(np.asarray(ZIGZAG) * scale)
    assert list(dom.reflex_vertices) == [4, 5, 8, 9]
    p, q = dom.boundary_point(10, 0.5), dom.boundary_point(2, 0.5)
    assert dom.internal_distance(p, q) == pytest.approx(
        (3 + 2 * math.sqrt(4.25)) * scale, rel=1e-12)


@pytest.mark.parametrize("scale", [1e-9, 1e-10])
def test_tiny_zigzag_keeps_its_notches(scale):
    # an absolute 1e-9 boundary tolerance made every point of this polygon a
    # boundary point: the chord across both notches was taken as the geodesic
    dom = PolygonDomain(np.asarray(ZIGZAG) * scale)
    p, q = dom.boundary_point(10, 0.5), dom.boundary_point(2, 0.5)
    assert dom.internal_distance(p, q) == pytest.approx(
        (3 + 2 * math.sqrt(4.25)) * scale, rel=1e-12)
    assert not dom.contains((1.5 * scale, 2 * scale))     # in a notch
    assert dom.contains((1.5 * scale, 0.5 * scale), include_boundary=False)
    assert dom.contains((2.5 * scale, 2 * scale), include_boundary=False)  # between notches
    assert dom.contains((1.5 * scale, 1 * scale))         # on the notch floor
    assert not dom.contains((1.5 * scale, 1 * scale), include_boundary=False)


def test_tiny_polygon_constants_equal_unit_ones():
    # an absolute 1e-9 chord floor dropped every pair of a polygon this small
    tiny, unit = regular_polygon(64, 1e-10), regular_polygon(64)
    assert chordarc_constant(tiny) == pytest.approx(chordarc_constant(unit), rel=1e-12)
    assert internal_chordarc_constant(tiny) == pytest.approx(
        internal_chordarc_constant(unit), rel=1e-12)


def test_internal_distance_triangle_inequality():
    for verts, arcs in ((L_SHAPE, (0.5, 2.3, 4.1, 6.0, 7.2)),
                        (ZIGZAG, (0.5, 5.5, 8.5, 12.5, 17.5, 21.5))):
        dom = PolygonDomain(verts)
        pts = [dom.point_at_arclength(s) for s in arcs]
        for a in pts:
            for b in pts:
                for c in pts:
                    dab = dom.internal_distance(a, b)
                    dbc = dom.internal_distance(b, c)
                    dac = dom.internal_distance(a, c)
                    assert dac <= dab + dbc + 1e-9


def test_internal_distance_between_chord_and_arc():
    for verts, pairs in ((L_SHAPE, [(1.0, 5.0)]),
                         (ZIGZAG, [(0.5, 5.5), (8.5, 17.5), (12.5, 21.5)])):
        dom = PolygonDomain(verts)
        for s, t in pairs:
            a = dom.point_at_arclength(s)
            b = dom.point_at_arclength(t)
            chord = math.hypot(a.coords[0] - b.coords[0], a.coords[1] - b.coords[1])
            ell = dom.internal_distance(a, b)
            assert chord - 1e-12 <= ell <= dom.boundary_arc_length(a, b) + 1e-12


@pytest.mark.parametrize("name, n_pairs", [
    ("square", 120), ("l_shape", 120), ("gon256", 120), ("comb", 120),
    ("cusp64", 120), ("cusp64", 900)])
def test_batched_distances_equal_per_pair(name, n_pairs):
    dom = {"square": lambda: PolygonDomain(SQUARE),
           "l_shape": lambda: PolygonDomain(L_SHAPE),
           "gon256": lambda: regular_polygon(256),
           "comb": lambda: PolygonDomain(COMB),
           "cusp64": lambda: cusp_domain(64)}[name]()
    s = np.random.default_rng(n_pairs).uniform(0, dom.perimeter, (2, n_pairs))
    s[1, :10] = s[0, :10]                                 # coincident ends
    s[1, 10:20] = s[0, 10:20] + 1e-13                     # ends under 1e-12 apart
    a, _ = dom.points_at_arclength(s[0])
    b, _ = dom.points_at_arclength(s[1])
    got = dom.internal_distances(a, b)
    assert got.tolist() == [_reference_distance(dom, p, q) for p, q in zip(a, b)]
    assert got.tolist() == [dom.internal_distance(dom.point_at_arclength(u),
                                                  dom.point_at_arclength(v))
                            for u, v in zip(*s)]
    assert not got[:20].any()
    if n_pairs == 900:                                    # several row blocks
        assert n_pairs > 3 * (chordarc._BLOCK_ENTRIES // dom.n)


def test_comb_geodesic_bends_at_six_reflex_corners():
    dom = PolygonDomain(COMB)
    assert len(dom.reflex_vertices) == 6
    p = dom.boundary_point(14, 0.5)     # (0.5, 3)
    q = dom.boundary_point(6, 0.5)      # (6.5, 3)
    want = 2 * math.sqrt(4.25) + 3 + 2 * math.sqrt(2)
    assert dom.internal_distances(p.coords[None], q.coords[None])[0] == pytest.approx(
        want, rel=1e-12)


def test_internal_distances_raise_without_a_path():
    # an end off the domain blocks the chord and every reflex segment
    inside, outside = np.array([[0.5, 0.0]]), np.array([[5.0, 5.0]])
    with pytest.raises(ValidationError, match="no reflex vertices"):
        PolygonDomain(SQUARE).internal_distances(inside, outside)
    with pytest.raises(ValidationError, match="no admissible path"):
        PolygonDomain(L_SHAPE).internal_distances(inside, outside)


def test_chordarc_imports_no_scipy():
    # the geodesic table needs numpy only; scipy costs most of the import time
    tree = ast.parse(Path(chordarc.__file__).read_text())
    names = [a.name for node in ast.walk(tree) if isinstance(node, ast.Import)
             for a in node.names]
    names += [node.module or "" for node in ast.walk(tree)
              if isinstance(node, ast.ImportFrom)]
    assert not [n for n in names if n.split(".")[0] == "scipy"]


# -- sampled constants --------------------------------------------------------------

def test_square_constants_near_two():
    # sup ratio 2 at midpoints of opposite edges (arc 2 against chord 1)
    sq = PolygonDomain(SQUARE)
    cc = chordarc_constant(sq)
    assert cc == pytest.approx(2.0, rel=1e-3)
    assert cc <= 2.0
    assert internal_chordarc_constant(sq) == pytest.approx(cc, abs=1e-9)


def test_regular_256gon_constants_near_half_pi():
    gon = regular_polygon(256, 1.0)
    cc = chordarc_constant(gon)
    ic = internal_chordarc_constant(gon)
    assert abs(cc - ic) < 1e-9                      # convex: geodesic = chord
    assert cc == pytest.approx(math.pi / 2, rel=0.02)
    assert cc == pytest.approx(1.5708751806617491, rel=1e-9)  # frozen sample


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("name", ["gon256", "cusp64"])
def test_constants_equal_per_pair_reference(name, seed):
    dom = regular_polygon(256) if name == "gon256" else cusp_domain(64)
    sampler = PairSampler(seed=seed)
    assert chordarc_constant(dom, sampler) == _reference_constant(dom, sampler, False)
    assert (internal_chordarc_constant(dom, sampler)
            == _reference_constant(dom, sampler, True))


def test_sampler_determinism():
    gon = regular_polygon(64, 1.0)
    s = PairSampler(seed=3)
    assert chordarc_constant(gon, s) == chordarc_constant(gon, PairSampler(seed=3))


def test_insufficient_pairs_raise():
    sq = PolygonDomain(SQUARE)
    tiny = PairSampler(n_uniform=20, n_antipodal=5)
    with pytest.raises(InsufficientDataError):
        chordarc_constant(sq, tiny)


# -- the inward cusp -----------------------------------------------------------------

def test_cusp_junction_on_unit_circle():
    assert CUSP_JUNCTION_X ** 2 + CUSP_JUNCTION_X ** 4 == pytest.approx(1.0,
                                                                        abs=1e-15)


def test_cusp_domain_shape():
    dom = cusp_domain(64)
    assert dom.vertices.shape == (517, 2)
    assert dom.perimeter == pytest.approx(7.03262315745483, rel=1e-12)
    # the only reflex vertex is the cusp tip at the origin
    assert len(dom.reflex_vertices) == 1
    tip = dom.vertices[dom.reflex_vertices[0]]
    assert tip == pytest.approx((0.0, 0.0), abs=1e-15)


def test_cusp_membership():
    dom = cusp_domain(32)
    assert not dom.contains((0.5, 0.0))     # inside the pinched notch
    assert dom.contains((-0.5, 0.0))
    assert dom.contains((0.5, 0.5))
    assert dom.contains((0.5, -0.5))


def test_cusp_contrast_between_constants():
    # boundary pairs straddling the tip see an enormous arc/chord ratio while
    # geodesics cut across the notch; measured 64.0 against 3.51 at res 64
    dom = cusp_domain(64)
    cc = chordarc_constant(dom)
    ic = internal_chordarc_constant(dom)
    assert cc > 50.0
    assert ic < 10.0
    assert cc == pytest.approx(64.00781202322122, rel=1e-9)   # frozen sample
    assert ic == pytest.approx(3.509017108299031, rel=1e-9)


def test_cusp256_constants_frozen():
    # 2122 edges: the cusp's runs cull most of every visibility test
    dom = cusp_domain(256)
    assert chordarc_constant(dom) == 256.0019531175495
    assert internal_chordarc_constant(dom) == 3.5089533778967885


def test_cusp256_distances_memory_is_bounded():
    # every (pair, edge) entry at once peaked at 7.8 MB for these 2^14 pairs
    dom = cusp_domain(256)
    s = np.random.default_rng(4).uniform(0, dom.perimeter, (2, 2 ** 14))
    a, _ = dom.points_at_arclength(s[0])
    b, _ = dom.points_at_arclength(s[1])
    tracemalloc.start()
    try:
        d = dom.internal_distances(a, b)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.all(d >= np.hypot(*(a - b).T))
    assert peak <= 4 * 2 ** 20


def test_cusp_resolution_guard():
    with pytest.raises(DomainError):
        cusp_domain(8)
    with pytest.raises(DomainError):
        cusp_domain(16.5)


def test_cusp_ratio_grows_with_resolution():
    lo = chordarc_constant(cusp_domain(32))
    hi = chordarc_constant(cusp_domain(128))
    assert hi > lo > 10.0


# -- vertex files -----------------------------------------------------------------------

def test_vertex_file_roundtrip(tmp_path):
    dom = cusp_domain(32)
    path = tmp_path / "verts.txt"
    save_vertices(dom, path)
    again = load_vertices(path)
    np.testing.assert_array_equal(again.vertices, dom.vertices)
    assert again.perimeter == dom.perimeter


def test_vertex_file_rejects_garbage(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("0.0 0.0\n1.0\n", encoding="utf-8")
    with pytest.raises(ValidationError):
        load_vertices(path)


@pytest.mark.parametrize("line, match", [("nan 1", "vertex 2 is not finite"),
                                         ("inf 1", "vertex 2 is not finite"),
                                         ("x 1", "line 3: expected 'x y' numbers")])
def test_vertex_file_rejects_non_finite_and_non_numeric(tmp_path, line, match):
    # refused before any arithmetic: a RuntimeWarning on the way fails the test
    path = tmp_path / "bad.txt"
    path.write_text(f"0 0\n1 0\n{line}\n0 1\n", encoding="utf-8")
    with pytest.raises(ValidationError, match=match):
        load_vertices(path)


def test_simplicity_check_reports_first_crossing_across_blocks():
    # 1000 edges run in blocks of 131 rows; swapping vertices 700 and 701 makes
    # edges 699 and 701 the first crossing pair in (i, j) order.  At radii 1
    # and 1e-3 the length^4 orientation products lie far below 1e-12, so only a
    # tolerance that scales with the lengths sees the crossing.
    for radius in (1.0, 1000.0, 1e-3):
        verts = regular_polygon(1000, radius=radius).vertices.copy()
        verts[[700, 701]] = verts[[701, 700]]
        with pytest.raises(ValidationError, match="edges 699 and 701 intersect"):
            PolygonDomain(verts)


@pytest.mark.parametrize("scale", [1e-4, 1e4])
def test_internal_distances_scale_with_the_polygon(scale):
    # at 1e-4 the orientation products lie below 1e-12: only a crossing
    # tolerance that scales with the lengths keeps blocked chords blocked
    rng = np.random.default_rng(3)
    unit, scaled = PolygonDomain(ZIGZAG), PolygonDomain(np.asarray(ZIGZAG) * scale)
    a, _ = unit.points_at_arclength(rng.uniform(0, unit.perimeter, 400))
    b, _ = unit.points_at_arclength(rng.uniform(0, unit.perimeter, 400))
    d = unit.internal_distances(a, b)
    assert np.count_nonzero(d > 1.01 * np.hypot(*(a - b).T)) > 100   # many bent paths
    np.testing.assert_allclose(scaled.internal_distances(a * scale, b * scale) / scale,
                               d, rtol=1e-13)


def test_simplicity_check_memory_is_blocked():
    # all edge pairs at once peaked at 328 MB for these 2122 vertices
    tracemalloc.start()
    try:
        dom = cusp_domain(256)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert dom.n > 2000
    assert peak <= 64 * 2 ** 20


def test_vertex_file_rejects_non_utf8(tmp_path):
    path = tmp_path / "utf16.txt"
    path.write_bytes(b"\xff\xfe0\x00 \x000\x00\n\x00")
    with pytest.raises(ValidationError, match="utf16.txt: not UTF-8"):
        load_vertices(path)


def test_vertex_file_skips_comments(tmp_path):
    path = tmp_path / "sq.txt"
    path.write_text("# unit square\n0 0\n1 0\n\n1 1\n0 1\n", encoding="utf-8")
    dom = load_vertices(path)
    assert dom.perimeter == pytest.approx(4.0)
