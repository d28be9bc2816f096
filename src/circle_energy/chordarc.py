"""Polygonal Jordan domains, internal (geodesic) distance, chord-arc ratios.

A PolygonDomain is a simple, positively oriented closed polygon.  The
internal distance between two boundary points is the length of the shortest
path joining them inside the closed domain; on polygons this geodesic is a
polyline whose interior corners occur only at reflex vertices.  The polygon
caches one table of geodesic distances between its reflex vertices.  Many
pairs cost one visibility test for all chords, one for the blocked chords'
(endpoint, reflex vertex) segments and a minimum over the table, run in row
blocks of about 2^17 (segment, edge) entries so memory stays bounded.

One rule, `_crossings`, decides simplicity and visibility: segment st
properly crosses edge vw when [(w-v) x (s-v)] [(w-v) x (t-v)] and
[(t-s) x (v-s)] [(t-s) x (w-s)] both lie below -1e-12 |w-v|^2 |t-s|^2.  The
products and the tolerance scale alike, as length^4: the rule is scale-free.
So are the orientation test, twice the signed area above 1e-12 perimeter^2,
and the reflex test, turn (e_prev x e) below -1e-12 |e_prev| |e|.

The chord-arc constant max ell(w1,w2)/|w1-w2| and its internal variant
max ell(w1,w2)/lambda(w1,w2) are estimated by stratified pair sampling
(uniform + antipodal + pairs straddling reflex corners); both are lower
bounds for the true suprema.  The inward-cusp construction `cusp_domain`
(disk minus {0 <= x <= 1, |y| <= x^2}) separates the two: straddling pairs
drive the plain ratio like 1/t while the internal ratio stays near 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DomainError, InsufficientDataError, ValidationError

_EPS = 1e-12
_ON_BOUNDARY = 1e-9
_BLOCK_ENTRIES = 2 ** 17   # (segment, edge) entries per visibility block


def _cross(ux, uy, vx, vy):
    return ux * vy - uy * vx


@dataclass(frozen=True)
class BoundaryPoint:
    """A point on the polygon boundary: edge index + parameter in [0, 1]."""

    edge: int
    t: float
    x: float
    y: float
    s: float  # arc-length position along the boundary

    @property
    def coords(self) -> np.ndarray:
        return np.array([self.x, self.y])


class PolygonDomain:
    """Simple closed polygon with positive (counterclockwise) orientation."""

    def __init__(self, vertices):
        verts = np.asarray(vertices, dtype=float)
        if verts.ndim != 2 or verts.shape[1] != 2 or len(verts) < 3:
            raise DomainError("polygon needs an (n, 2) array with n >= 3")
        if not np.isfinite(verts).all():
            k = int(np.argmin(np.isfinite(verts).all(axis=1)))
            raise ValidationError(f"polygon vertex {k} is not finite: {verts[k].tolist()}")
        if np.hypot(*(verts[0] - verts[-1])) < _EPS:
            verts = verts[:-1]
        self.vertices = verts
        self.n = len(verts)
        self._next_vertices = np.roll(verts, -1, axis=0)
        self._edge_vec = e = self._next_vertices - verts
        self.edge_lengths = np.hypot(e[:, 0], e[:, 1])
        if np.any(self.edge_lengths < _EPS):
            raise ValidationError("degenerate (zero-length) polygon edge")
        self.cum_lengths = np.concatenate([[0.0], np.cumsum(self.edge_lengths)])
        self.perimeter = float(self.cum_lengths[-1])
        nxt = self._next_vertices
        area2 = float(np.sum(verts[:, 0] * nxt[:, 1] - nxt[:, 0] * verts[:, 1]))
        if area2 <= _EPS * self.perimeter ** 2:
            raise ValidationError("polygon must be counterclockwise (signed area > 0)")
        self.area = 0.5 * area2
        self._check_simple()

    def _check_simple(self) -> None:
        """No two non-adjacent edges properly cross (`_crossings`), over row
        blocks of at most _BLOCK_ENTRIES (edge, edge) entries; the first
        crossing pair in (i, j) order is reported."""
        n = self.n
        rows = max(1, _BLOCK_ENTRIES // n)
        for start in range(0, n, rows):
            crossing, _ = self._crossings(self.vertices[start:start + rows],
                                          self._next_vertices[start:start + rows])
            crossing = np.triu(crossing, start + 2)   # pairs (i, j) with j >= i + 2
            crossing[0, n - 1] &= start > 0           # edges 0 and n - 1 are adjacent
            if crossing.any():
                i, j = divmod(int(np.argmax(crossing)), n)
                raise ValidationError(
                    f"polygon is not simple: edges {start + i} and {j} intersect")

    # -- boundary parametrization -----------------------------------------

    def boundary_point(self, edge: int, t: float) -> BoundaryPoint:
        if not 0 <= edge < self.n:
            raise DomainError(f"edge index {edge} out of range")
        if not 0.0 <= t <= 1.0:
            raise DomainError("edge parameter must lie in [0, 1]")
        p = self.vertices[edge] + t * self._edge_vec[edge]
        s = float(self.cum_lengths[edge] + t * self.edge_lengths[edge])
        return BoundaryPoint(edge=edge, t=float(t), x=float(p[0]), y=float(p[1]), s=s)

    def point_at_arclength(self, s: float) -> BoundaryPoint:
        edge, t = self._edge_params(np.array([float(s)]))
        return self.boundary_point(int(edge[0]), float(t[0]))

    def points_at_arclength(self, s) -> tuple[np.ndarray, np.ndarray]:
        """(n, 2) coordinates and arc positions of the points at arc lengths s
        (taken mod the perimeter), as `point_at_arclength` places each one."""
        edge, t = self._edge_params(np.asarray(s, dtype=float))
        return (self.vertices[edge] + t[:, None] * self._edge_vec[edge],
                self.cum_lengths[edge] + t * self.edge_lengths[edge])

    def _edge_params(self, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        s = s % self.perimeter
        edge = np.minimum(np.searchsorted(self.cum_lengths, s, side="right") - 1,
                          self.n - 1)
        t = (s - self.cum_lengths[edge]) / self.edge_lengths[edge]
        return edge, np.clip(t, 0.0, 1.0)

    @cached_property
    def reflex_vertices(self) -> np.ndarray:
        """Indices of vertices with interior angle > pi (left-turn test)."""
        e_prev = np.roll(self._edge_vec, 1, axis=0)
        turn = _cross(e_prev[:, 0], e_prev[:, 1],
                      self._edge_vec[:, 0], self._edge_vec[:, 1])
        scale = np.roll(self.edge_lengths, 1) * self.edge_lengths
        return np.nonzero(turn < -_EPS * scale)[0]

    def contains(self, point, include_boundary: bool = True) -> bool:
        """Even-odd membership; points within 1e-9 of an edge count as boundary."""
        p = np.asarray(point, dtype=float)
        if self._distance_to_boundary(p[None, :])[0] < _ON_BOUNDARY:
            return include_boundary
        return bool(self._inside_mask(p[None, :])[0])

    def _inside_mask(self, pts: np.ndarray) -> np.ndarray:
        v, w = self.vertices, self._next_vertices
        y1, y2 = v[:, 1][None, :], w[:, 1][None, :]
        x1, x2 = v[:, 0][None, :], w[:, 0][None, :]
        py = pts[:, 1][:, None]
        px = pts[:, 0][:, None]
        straddle = (y1 > py) != (y2 > py)
        with np.errstate(divide="ignore", invalid="ignore"):
            xs = x1 + (py - y1) * (x2 - x1) / (y2 - y1)
        hits = straddle & (px < xs)
        return (np.count_nonzero(hits, axis=1) % 2) == 1

    def _distance_to_boundary(self, pts: np.ndarray) -> np.ndarray:
        v = self.vertices[None, :, :]
        e = self._edge_vec[None, :, :]
        d = pts[:, None, :] - v
        tt = np.clip(np.sum(d * e, axis=2) / np.sum(e * e, axis=2), 0.0, 1.0)
        proj = v + tt[:, :, None] * e
        return np.min(np.hypot(*(pts[:, None, :] - proj).transpose(2, 0, 1)), axis=1)

    # -- visibility --------------------------------------------------------

    def _crossings(self, starts: np.ndarray, ends: np.ndarray):
        """(rows, n) mask of segment r properly crossing edge k (the module
        docstring's rule), and the products (t - s) x (v - s) of each pair."""
        vx, vy = self.vertices.T[:, None]
        wx, wy = self._next_vertices.T[:, None]
        ex, ey = self._edge_vec.T[:, None]
        sx, sy = starts.T[:, :, None]
        tx, ty = ends.T[:, :, None]
        gx, gy = tx - sx, ty - sy
        d1 = _cross(ex, ey, sx - vx, sy - vy)
        d2 = _cross(ex, ey, tx - vx, ty - vy)
        d3 = _cross(gx, gy, vx - sx, vy - sy)
        d4 = _cross(gx, gy, wx - sx, wy - sy)
        tol = -_EPS * ((ex * ex + ey * ey) * (gx * gx + gy * gy))
        return (d1 * d2 < tol) & (d3 * d4 < tol), d3

    def _segments_admissible(self, starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
        """True where the open segment stays in the closed domain.

        A segment is admissible iff it properly crosses no edge and the
        midpoint of each piece between the polygon vertices it passes
        through is inside or on the boundary.  Rows are independent, and run
        in blocks of at most _BLOCK_ENTRIES (segment, edge) entries.
        """
        rows = max(1, _BLOCK_ENTRIES // self.n)
        if len(starts) > rows:
            return np.concatenate([self._segments_admissible(starts[i:i + rows], ends[i:i + rows])
                                   for i in range(0, len(starts), rows)])
        crossing, side = self._crossings(starts, ends)
        ok = ~crossing.any(axis=1) & self._in_closure(0.5 * (starts + ends))
        vx, vy = self.vertices.T[:, None]
        sx, sy = starts.T[:, :, None]
        gx, gy = (ends - starts).T[:, :, None]
        # vertices within _ON_BOUNDARY of the open segment; its ends are dropped,
        # since every visibility segment ends at a reflex vertex
        gg = gx * gx + gy * gy
        along = (vx - sx) * gx + (vy - sy) * gy
        tol = _ON_BOUNDARY * np.sqrt(gg)
        through = (np.abs(side) <= tol) & (along > tol) & (along < gg - tol)
        for r in np.nonzero(ok & through.any(axis=1))[0]:
            cut = np.concatenate([[0.0], np.sort(along[r, through[r]]) / gg[r, 0], [1.0]])
            u = 0.5 * (cut[:-1] + cut[1:])
            ok[r] = self._in_closure(starts[r] + u[:, None] * (ends[r] - starts[r])).all()
        return ok

    def _in_closure(self, pts: np.ndarray) -> np.ndarray:
        """Inside or within _ON_BOUNDARY of an edge; distances only where outside."""
        ok = self._inside_mask(pts)
        ok[~ok] = self._distance_to_boundary(pts[~ok]) < _ON_BOUNDARY
        return ok

    @cached_property
    def _reflex_graph(self) -> tuple[np.ndarray, np.ndarray]:
        """(reflex coordinates, all-pairs geodesic distances between them).

        Admissible segments seed the table (inf where blocked); Floyd-Warshall
        closes it over paths that bend at other reflex vertices."""
        pts = self.vertices[self.reflex_vertices]
        m = len(pts)
        dist = np.zeros((m, m))
        ii, jj = np.triu_indices(m, k=1)
        adm = self._segments_admissible(pts[ii], pts[jj])
        d = np.where(adm, np.hypot(*(pts[ii] - pts[jj]).T), np.inf)
        dist[ii, jj] = d
        dist[jj, ii] = d
        for k in range(m):
            np.minimum(dist, dist[:, k:k + 1] + dist[k:k + 1, :], out=dist)
        return pts, dist

    # -- distances ----------------------------------------------------------

    def boundary_arc_length(self, w1: BoundaryPoint, w2: BoundaryPoint) -> float:
        """Length of the shorter of the two boundary arcs between w1, w2."""
        d = abs(w1.s - w2.s)
        return min(d, self.perimeter - d)

    def internal_distance(self, w1: BoundaryPoint, w2: BoundaryPoint) -> float:
        """Geodesic distance inside the closed polygon (`internal_distances`)."""
        return float(self.internal_distances(w1.coords[None, :], w2.coords[None, :])[0])

    def internal_distances(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Geodesic distances between the rows of (n, 2) boundary points a, b: the
        chord if admissible, else min over i, k of |a r_i| + D[i, k] + |r_k b|."""
        out = np.hypot(a[:, 0] - b[:, 0], a[:, 1] - b[:, 1])
        out[out < _EPS] = 0.0
        far = np.nonzero(out)[0]
        blocked = far[~self._segments_admissible(a[far], b[far])]
        if blocked.size == 0:
            return out
        pts, table = self._reflex_graph
        m = len(pts)
        if m == 0:
            raise ValidationError(
                "blocked chord in a polygon with no reflex vertices")
        starts = np.repeat(np.concatenate([a[blocked], b[blocked]]), m, axis=0)
        ends = np.tile(pts, (2 * blocked.size, 1))
        reach = np.where(self._segments_admissible(starts, ends),
                         np.hypot(*(starts - ends).T), np.inf).reshape(2, -1, m)
        best = np.full(blocked.size, np.inf)
        for i in range(m):      # one reflex vertex at a time: (pairs, m) memory
            best = np.minimum(best, np.min(reach[0][:, i, None] + table[i] + reach[1], 1))
        if not np.all(np.isfinite(best)):
            raise ValidationError("no admissible path found between boundary points")
        out[blocked] = best
        return out


# -- pair sampling and constants ---------------------------------------------

@dataclass(frozen=True)
class PairSampler:
    """Stratified boundary-pair generator for sup-type ratio estimates.

    Uniform pairs explore globally; antipodal pairs (arc-length offset
    perimeter/2) pin down the convex optimum; straddling pairs bracket each
    reflex vertex at geometrically shrinking arc offsets, which is where
    chord-arc ratios degenerate.
    """

    n_uniform: int = 800
    n_antipodal: int = 256
    n_straddle: int = 24
    seed: int = 0
    min_offset_frac: float = 1e-4
    max_offset_frac: float = 0.05

    def arclengths(self, P: PolygonDomain) -> tuple[np.ndarray, np.ndarray]:
        """The arc lengths of both ends of every pair: uniform, then antipodal,
        then straddling pairs by reflex vertex and growing offset."""
        rng = np.random.default_rng(self.seed)
        per = P.perimeter
        s1 = rng.uniform(0, per, self.n_uniform)
        s2 = rng.uniform(0, per, self.n_uniform)
        base = rng.uniform(0, per, self.n_antipodal)
        offs = per * np.geomspace(self.min_offset_frac, self.max_offset_frac,
                                  self.n_straddle)
        sv = P.cum_lengths[P.reflex_vertices][:, None]
        return (np.concatenate([s1, base, (sv - offs).ravel()]),
                np.concatenate([s2, base + per / 2, (sv + offs).ravel()]))


def _ratio_max(P: PolygonDomain, sampler: PairSampler, internal: bool) -> float:
    (a, pos_a), (b, pos_b) = (P.points_at_arclength(s) for s in sampler.arclengths(P))
    chord = np.hypot(a[:, 0] - b[:, 0], a[:, 1] - b[:, 1])
    keep = chord >= 1e-9
    usable = int(np.count_nonzero(keep))
    if usable < 1000:
        raise InsufficientDataError(
            f"sampler produced only {usable} usable pairs (need >= 1000)")
    d = np.abs(pos_a[keep] - pos_b[keep])
    ell = np.minimum(d, P.perimeter - d)
    # every kept chord is >= 1e-9 and an internal distance is at least its chord
    denom = P.internal_distances(a[keep], b[keep]) if internal else chord[keep]
    return float(np.max(ell / denom))


def chordarc_constant(P: PolygonDomain, sampler: PairSampler | None = None) -> float:
    """max over sampled pairs of arc length / chord; lower bound of the sup."""
    return _ratio_max(P, sampler or PairSampler(), internal=False)


def internal_chordarc_constant(P: PolygonDomain,
                               sampler: PairSampler | None = None) -> float:
    """max over sampled pairs of arc length / internal distance."""
    return _ratio_max(P, sampler or PairSampler(), internal=True)


# -- canonical domains --------------------------------------------------------

def regular_polygon(n: int, radius: float = 1.0) -> PolygonDomain:
    ang = 2.0 * math.pi * np.arange(n) / n
    return PolygonDomain(np.column_stack([radius * np.cos(ang),
                                          radius * np.sin(ang)]))


CUSP_JUNCTION_X = math.sqrt((math.sqrt(5.0) - 1.0) / 2.0)


def cusp_domain(resolution: int = 64) -> PolygonDomain:
    """Polygonal D \\ {(x,y): 0 <= x <= 1, |y| <= x^2} (inward cusp at 0).

    The parabola branches y = +-x^2 meet the unit circle where
    x^2 + x^4 = 1, i.e. x* = sqrt((sqrt 5 - 1)/2).  The circular arc is
    sampled uniformly at `resolution` points per unit length; the branch
    chains use vertex spacing proportional to x^2 (the local cusp width),
    realized as a harmonic progression in 1/x down to x = 1/resolution,
    then one terminal vertex at the tip itself.
    """
    if not isinstance(resolution, int) or resolution < 16:
        raise DomainError("cusp resolution must be an integer >= 16")
    xj = CUSP_JUNCTION_X
    yj = xj * xj
    theta_j = math.atan2(yj, xj)
    arc_span = 2.0 * math.pi - 2.0 * theta_j
    n_arc = max(8, int(math.ceil(arc_span * resolution)))
    ang = theta_j + arc_span * np.arange(n_arc + 1) / n_arc
    circle = np.column_stack([np.cos(ang), np.sin(ang)])

    x_switch = 1.0 / math.sqrt(resolution)       # where x^2 drops below 1/res
    uniform = np.arange(xj - 1.0 / resolution, x_switch, -1.0 / resolution)
    inv = np.arange(math.ceil(1.0 / x_switch), resolution + 1, 1.0)
    xs = np.concatenate([uniform, 1.0 / inv])    # descending toward the tip
    lower = np.column_stack([xs, -xs * xs])
    upper = np.column_stack([xs[::-1], xs[::-1] ** 2])
    tip = np.array([[0.0, 0.0]])
    verts = np.vstack([circle, lower, tip, upper])
    return PolygonDomain(verts)


# -- vertex-list text format --------------------------------------------------

def save_vertices(P: PolygonDomain, path) -> None:
    """One "x y" pair per line; the polygon closes implicitly."""
    with open(path, "w") as fh:
        for x, y in P.vertices:
            fh.write(f"{float(x)!r} {float(y)!r}\n")


def load_vertices(path) -> PolygonDomain:
    rows = []
    with open(path) as fh:
        for number, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            try:
                x, y = map(float, line.split())
            except ValueError:
                raise ValidationError(
                    f"line {number}: expected 'x y' numbers, got {line!r}") from None
            rows.append((x, y))
    return PolygonDomain(np.asarray(rows))
