"""Polygonal Jordan domains, internal (geodesic) distance, chord-arc ratios.

A PolygonDomain is a simple, positively oriented closed polygon.  The
internal distance between two boundary points is the length of the shortest
path joining them inside the closed domain; on polygons this geodesic is a
polyline whose interior corners occur only at reflex vertices.  The polygon
caches one table of geodesic distances between its reflex vertices.  Many
pairs cost one visibility test for all chords, one for the blocked chords'
(endpoint, reflex vertex) segments and a minimum over the table.

One rule, `_crossings`, decides simplicity and visibility: segment st
properly crosses edge vw when [(w-v) x (s-v)] [(w-v) x (t-v)] and
[(t-s) x (v-s)] [(t-s) x (w-s)] both lie below -1e-12 |w-v|^2 |t-s|^2.  The
products and the tolerance scale alike, as length^4: the rule is scale-free.
So are the orientation test, twice the signed area above 1e-12 perimeter^2,
and the reflex test, turn (e_prev x e) below -1e-12 |e_prev| |e|.  The other
tolerances are multiples of the length L, the least power of two at or above
the largest |vertex coordinate| (1 for the unit-radius domains below), so a
power-of-two scaling scales every answer exactly: points within delta =
1e-9 L of an edge are on the boundary, chords under delta are not sampled,
and edges, closing vertices and distances under 1e-12 L are zero.

Each query tests only nearby edges.  The edges form runs of _RUN consecutive
edges, each with the box of its endpoints.  A segment st (a point is s = t)
keeps a run when its box, padded by p, meets the run's box and the padded
box is not strictly on one side of its line.  A proper crossing, a vertex
within delta of the open segment and a point within delta of an edge all
put a point of the query within delta of the run's box, so the pad p =
delta + 64 eps L' (1 + L'/min(|t - s|, shortest edge)), L' the larger of L
and the query's largest |coordinate|, also covers rounding, down to
near-parallel pairs whose signs rounding decides.  The ray cast keeps runs
with y_min <= y < y_max and x < x_max + 64 eps L; no dropped run has an edge
straddling the ray.  The exact rules then run on the kept (query, edge)
pairs with the dense arithmetic, so every mask is bit for bit the dense one,
and row blocks keep the pairs within 2^17.

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
_ON_BOUNDARY = 1e-9        # boundary tolerance delta, in units of the length L
_BLOCK_ENTRIES = 2 ** 17   # (segment, edge) entries per visibility block
_RUN = 12                  # consecutive edges per culling box
_ROUNDING = 64 * np.finfo(float).eps


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
        mant, exp = math.frexp(float(np.abs(verts).max()))
        self._length = math.ldexp(1.0, exp - (mant == 0.5))   # L of the module docstring
        self._delta = _ON_BOUNDARY * self._length
        if np.hypot(*(verts[0] - verts[-1])) < _EPS * self._length:
            verts = verts[:-1]
        self.vertices = verts
        self.n = len(verts)
        nxt = np.roll(verts, -1, axis=0)
        self._edge_vec = e = nxt - verts
        self._edge_rows = np.vstack([verts.T, nxt.T, e.T])   # vx, vy, wx, wy, ex, ey
        self.edge_lengths = np.hypot(e[:, 0], e[:, 1])
        if np.any(self.edge_lengths < _EPS * self._length):
            raise ValidationError("degenerate (zero-length) polygon edge")
        self.cum_lengths = np.concatenate([[0.0], np.cumsum(self.edge_lengths)])
        self.perimeter = float(self.cum_lengths[-1])
        area2 = float(np.sum(verts[:, 0] * nxt[:, 1] - nxt[:, 0] * verts[:, 1]))
        if area2 <= _EPS * self.perimeter ** 2:
            raise ValidationError("polygon must be counterclockwise (signed area > 0)")
        self.area = 0.5 * area2
        self._check_simple()

    def _check_simple(self) -> None:
        """No two non-adjacent edges properly cross (`_crossings`); edges go
        in row blocks against the edges of nearby runs, and the first
        crossing pair in (i, j) order is reported."""
        n = self.n
        rows = max(1, _BLOCK_ENTRIES // n)
        for start in range(0, n, rows):
            seg = self._edge_rows[:4, start:start + rows]
            i, j = self._near_pairs(seg)
            # pairs (i, j) with j >= i + 2; edges 0 and n - 1 are adjacent
            keep = (j >= start + i + 2) & ((start + i > 0) | (j < n - 1))
            i, j = i[keep], j[keep]
            crossing, _ = self._crossings(seg[:, i], j)
            if crossing.any():
                first = int(np.argmax(crossing))
                raise ValidationError(f"polygon is not simple: edges "
                                      f"{start + i[first]} and {j[first]} intersect")

    @cached_property
    def _runs(self) -> tuple[np.ndarray, np.ndarray]:
        """(2, n_runs) lower and upper corners of the boxes of the edge runs."""
        vw, first = self._edge_rows[:4].reshape(2, 2, -1), np.arange(0, self.n, _RUN)
        return (np.minimum.reduceat(vw.min(axis=0), first, axis=1),
                np.maximum.reduceat(vw.max(axis=0), first, axis=1))

    def _pairs(self, keep: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(query, edge) index pairs, sorted, over every edge of each run
        that the (queries, n_runs) mask keep sets for that query."""
        q, r = np.nonzero(keep)
        k = (r[:, None] * _RUN + np.arange(_RUN)).ravel()
        real = k < self.n
        return np.repeat(q, _RUN)[real], k[real]

    def _near_pairs(self, seg: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """`_pairs` of the runs within the pad p of the segments (sx, sy, tx,
        ty) of the (4, rows) seg (module docstring); a point is s = t."""
        (lx, ly), (ux, uy) = self._runs
        sx, sy, tx, ty = seg[..., None]
        gx, gy = tx - sx, ty - sy
        size = max(self._length, np.abs(seg).max(initial=0.0))
        glen = np.hypot(gx, gy)
        short = np.where(glen > 0, np.minimum(glen, self.edge_lengths.min()), np.inf)
        pad = self._delta + _ROUNDING * size * (1.0 + size / short)
        ax, ay, hx, hy = np.abs(gx), np.abs(gy), 0.5 * (ux - lx), 0.5 * (uy - ly)
        dx, dy = 0.5 * (lx + ux) - 0.5 * (sx + tx), 0.5 * (ly + uy) - 0.5 * (sy + ty)
        keep = np.abs(dx) <= hx + (pad + 0.5 * ax)
        keep &= np.abs(dy) <= hy + (pad + 0.5 * ay)
        keep &= np.abs(gx * dy - gy * dx) <= ax * hy + ay * hx + pad * (ax + ay)
        return self._pairs(keep)

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
        """Even-odd membership; points within 1e-9 L of an edge count as boundary."""
        p = np.asarray(point, dtype=float)[None, :]
        if self._near_boundary(p)[0]:
            return include_boundary
        return bool(self._inside_mask(p)[0])

    def _inside_mask(self, pts: np.ndarray) -> np.ndarray:
        """Even-odd ray cast towards +x over the runs the module docstring keeps."""
        (_, ly), (ux, uy) = self._runs
        px, py = pts.T[..., None]
        q, k = self._pairs((ly <= py) & (py < uy) & (px < ux + _ROUNDING * self._length))
        x1, y1, x2, y2 = self._edge_rows[:4, k]
        px, py = pts[q].T
        straddle = (y1 > py) != (y2 > py)
        with np.errstate(divide="ignore", invalid="ignore"):
            xs = x1 + (py - y1) * (x2 - x1) / (y2 - y1)
        hits = straddle & (px < xs)
        return np.bincount(q[hits], minlength=len(pts)) % 2 == 1

    def _near_boundary(self, pts: np.ndarray) -> np.ndarray:
        """True where a point lies within delta of an edge."""
        q, k = self._near_pairs(np.vstack([pts.T, pts.T]))
        vx, vy, _, _, ex, ey = self._edge_rows[:, k]
        px, py = pts[q].T
        tt = np.clip(((px - vx) * ex + (py - vy) * ey) / (ex * ex + ey * ey), 0.0, 1.0)
        near = np.hypot(px - (vx + tt * ex), py - (vy + tt * ey)) < self._delta
        return np.bincount(q[near], minlength=len(pts)) > 0

    # -- visibility --------------------------------------------------------

    def _crossings(self, seg: np.ndarray, k: np.ndarray):
        """Mask of segment r of the (4, m) rows sx, sy, tx, ty properly
        crossing edge k[r] (the module docstring's rule), and the products
        (t - s) x (v - s) of each pair."""
        vx, vy, wx, wy, ex, ey = self._edge_rows[:, k]
        sx, sy, tx, ty = seg
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
        in blocks of at most _BLOCK_ENTRIES // n segments against the edges
        of nearby runs.
        """
        rows = max(1, _BLOCK_ENTRIES // self.n)
        if len(starts) > rows:
            return np.concatenate([self._segments_admissible(starts[i:i + rows], ends[i:i + rows])
                                   for i in range(0, len(starts), rows)])
        seg = np.vstack([starts.T, ends.T])
        q, k = self._near_pairs(seg)
        sx, sy, tx, ty = seg = seg[:, q]
        crossing, side = self._crossings(seg, k)
        ok = self._in_closure(0.5 * (starts + ends))
        ok[q[crossing]] = False
        vx, vy = self._edge_rows[:2, k]
        gx, gy = tx - sx, ty - sy
        # vertices within delta of the open segment; its ends are dropped,
        # since every visibility segment ends at a reflex vertex
        gg = gx * gx + gy * gy
        along = (vx - sx) * gx + (vy - sy) * gy
        tol = self._delta * np.sqrt(gg)
        hit = np.nonzero((np.abs(side) <= tol) & (along > tol) & (along < gg - tol))[0]
        for r in np.unique(q[hit]):
            if ok[r]:
                mine = hit[q[hit] == r]
                cut = np.concatenate([[0.0], np.sort(along[mine]) / gg[mine[0]], [1.0]])
                u = 0.5 * (cut[:-1] + cut[1:])
                ok[r] = self._in_closure(starts[r] + u[:, None] * (ends[r] - starts[r])).all()
        return ok

    def _in_closure(self, pts: np.ndarray) -> np.ndarray:
        """Inside or within delta of an edge; the delta test only where outside."""
        ok = self._inside_mask(pts)
        ok[~ok] = self._near_boundary(pts[~ok])
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
        out[out < _EPS * self._length] = 0.0
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
    keep = chord >= P._delta
    usable = int(np.count_nonzero(keep))
    if usable < 1000:
        raise InsufficientDataError(
            f"sampler produced only {usable} usable pairs (need >= 1000)")
    d = np.abs(pos_a[keep] - pos_b[keep])
    ell = np.minimum(d, P.perimeter - d)
    # every kept chord is >= delta and an internal distance is at least its chord
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
    with open(path, "w", encoding="utf-8") as fh:
        for x, y in P.vertices:
            fh.write(f"{float(x)!r} {float(y)!r}\n")


def load_vertices(path) -> PolygonDomain:
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except UnicodeDecodeError as exc:
        raise ValidationError(f"vertex file {path}: not UTF-8 text ({exc})") from None
    rows = []
    for number, line in enumerate(lines, 1):
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
