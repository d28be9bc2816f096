"""Named invariant suites for each module, runnable from the CLI.

Each suite re-derives its module's key identities and oracle values at
runtime and reports one CheckResult per invariant.  The poisson suite
accepts a deliberately coarse boundary node count so quadrature-tolerance
sensitivity is demonstrable: the finite-difference oracle always uses a
fine reference extension, so coarse kernels fail the agreement check.
"""

from __future__ import annotations

import math
import tempfile
from dataclasses import dataclass

import numpy as np

from . import chordarc as ca
from . import dyadic as dy
from . import energy as en
from . import logkernel as lk
from . import orlicz as oz
from .circle_map import TWO_PI, catalog, identity_map
from .errors import DomainError
from .poisson import DEFAULT_NODES, HarmonicExtension

SUITE_NAMES = ("dyadic", "energy", "logkernel", "poisson", "orlicz",
               "chordarc", "all")


@dataclass(frozen=True)
class CheckResult:
    suite: str
    name: str
    passed: bool
    detail: str


def _check(results: list, suite: str, name: str, passed: bool, detail: str = ""):
    results.append(CheckResult(suite=suite, name=name, passed=bool(passed),
                               detail=detail))


# -- dyadic -------------------------------------------------------------------

def _suite_dyadic(seed: int = 0, **_) -> list[CheckResult]:
    out: list[CheckResult] = []
    fig = dy.annular_decomposition(dy.DyadicArc(4, 7))
    got = {(a.level, a.index) for a in fig.members}
    want = {(4, 7), (4, 8), (3, 3), (3, 5), (3, 6), (2, 1), (2, 4)}
    _check(out, "dyadic", "seed (4,7) decomposition exact set", got == want,
           f"got {sorted(got)}")

    worst = 0.0
    violations = 0
    counts = dy.inducer_counts(max_target_level=5, max_seed_level=10)
    for (j, n, _k), c in counts.items():
        bound = 3 * 2 ** (j - n)
        worst = max(worst, c / bound)
        violations += c > bound
    _check(out, "dyadic", "inducer counting bound <= 3*2^(j-n) (n<=5, j<=10)",
           violations == 0, f"max count/bound ratio {worst:.3f}")

    cover_ok = True
    for j, k in [(2, 1), (3, 2), (6, 41), (9, 300), (10, 1)]:
        d = dy.annular_decomposition(dy.DyadicArc(j, k))
        cover_ok &= abs(d.total_width() - TWO_PI) < 1e-12
        per_level: dict[int, int] = {}
        for a in d.members:
            per_level[a.level] = per_level.get(a.level, 0) + 1
        cover_ok &= all(1 <= v <= 4 for v in per_level.values())
    _check(out, "dyadic", "annular decompositions tile the circle",
           cover_ok, "widths sum to 2*pi; 1-4 members per level")

    areas = math.fsum(c.area for c in dy.whitney_cells_up_to(8))
    oracle = math.pi * (1.0 - 2.0 ** -8) ** 2
    _check(out, "dyadic", "Whitney cells tile disk of radius 1-2^-J",
           abs(areas - oracle) < 1e-12 * oracle, f"J=8 area {areas!r}")

    cc = dy.whitney_covering_constant(6)
    _check(out, "dyadic", "covering-circle to inscribed-disk ratio bounded",
           5.0 < cc < 6.5, f"constant {cc:.4f}")

    a = dy.DyadicArc(5, 9)
    rel_ok = (a.parent() == dy.DyadicArc(4, 5) and a.brother() == dy.DyadicArc(5, 10)
              and a.children() == (dy.DyadicArc(6, 17), dy.DyadicArc(6, 18))
              and a.neighbour(1) == dy.DyadicArc(5, 10)
              and dy.DyadicArc(5, 32).neighbour(1) == dy.DyadicArc(5, 1))
    _check(out, "dyadic", "parent/brother/children/neighbour relations", rel_ok)
    return out


# -- energy -------------------------------------------------------------------

def _suite_energy(seed: int = 0, **_) -> list[CheckResult]:
    out: list[CheckResult] = []
    ident = identity_map()
    rep = en.dyadic_energy_iv(ident, 0.0, 12)
    oracle = 4.0 * math.pi ** 2 * (1.0 - 2.0 ** -12)
    _check(out, "energy", "identity (iv) lam=0 equals 4pi^2(1-2^-J)",
           abs(rep.total - oracle) < 1e-12 * oracle, f"total {rep.total!r}")

    rep_v = en.dyadic_energy_v(ident, 0.0, 12)
    _check(out, "energy", "identity (v) lam=0 matches (iv)",
           abs(rep_v.total - rep.total) < 1e-12 * oracle)

    mob = catalog()["mobius_trace"]
    ok_part = True
    for lam in (-0.5, 0.0, 1.0):
        for cond in ("iv", "v"):
            p1, p2 = en.comparability_split(mob, lam, 12, condition=cond)
            total = (en.dyadic_energy_iv if cond == "iv" else en.dyadic_energy_v)(
                mob, lam, 12).total
            ok_part &= p1 + p2 == total
    _check(out, "energy", "partition identity P1 + P2' == total (bit exact)",
           ok_part)

    bound = math.fsum(2.0 ** (-j / 2.0) for j in range(1, 13))
    ok_bound = True
    for _name, m in catalog().items():
        for lam in (-0.5, 0.0, 1.0):
            _p1, p2 = en.comparability_split(m, lam, 12, condition="iv")
            ok_bound &= p2 <= bound
    _check(out, "energy", "thin-arc part dominated by sum 2^(-j/2)",
           ok_bound, f"bound {bound:.4f}")

    cls = en.classify_convergence(en.dyadic_energy_iv(ident, 0.0, 12))
    _check(out, "energy", "identity classified convergent", cls == "convergent", cls)
    crit = en.classify_sequence(range(1, 15), [j * (1.0 / j) for j in range(1, 15)])
    _check(out, "energy", "critical flat profile classified inconclusive",
           crit == "inconclusive", crit)
    div = en.classify_sequence(range(1, 13), [2.0 ** j for j in range(1, 13)])
    _check(out, "energy", "geometric growth classified divergent",
           div == "divergent", div)
    return out


# -- logkernel ---------------------------------------------------------------

def _suite_logkernel(seed: int = 0, **_) -> list[CheckResult]:
    out: list[CheckResult] = []
    lam = 1.0
    quad, _err = oz.gauss_legendre(np.vectorize(lambda t: lk.lambda_weight(t, lam)),
                                   0.01, 0.5)
    closed = lk.interval_weight(0.01, 0.5, lam)
    _check(out, "logkernel", "interval weight equals integral of Lambda",
           abs(quad - closed) < 1e-8 * abs(closed), f"{closed!r}")

    tele = math.fsum(lk.band_weight(j, lam) for j in range(1, 21))
    closed_t = (21 * math.log(2.0)) ** (lam + 1) - math.log(2.0) ** (lam + 1)
    _check(out, "logkernel", "band weights telescope",
           abs(tele - closed_t) < 1e-10 * closed_t)

    ident = identity_map()
    t = 2.0 ** -5
    sub = lk.sublevel_integral(ident, t, resolution=4096)
    oracle = 8.0 * math.pi * math.asin(t / 2.0)
    _check(out, "logkernel", "identity sublevel mass equals 8pi*asin(t/2)",
           abs(sub - oracle) < 1e-6 * oracle, f"{sub!r} vs {oracle!r}")

    dyd = lk.log_energy_dyadic(ident, 0.0, J=10)
    closed_d = 8.0 * math.pi * math.log(2.0) * math.fsum(
        math.asin(2.0 ** -(j + 1)) for j in range(1, 11))
    _check(out, "logkernel", "identity dyadic band sum closed form",
           abs(math.fsum(dyd.band_terms) - closed_d) < 1e-10 * closed_d)

    ok_p1 = True
    for name, m in catalog().items():
        for lam2 in (-0.5, 0.0, 1.0):
            res = lk.log_energy_direct(m, lam2, resolution=256)
            cap = math.log(2.0) ** (lam2 + 1.0) * TWO_PI ** 2
            ok_p1 &= res.part_one <= cap * (1.0 + 1e-9)
            ok_p1 &= res.excluded_band_bound >= 0.0
    _check(out, "logkernel", "far-pair part bounded by (log 2)^(lam+1)(2pi)^2",
           ok_p1)
    return out


# -- poisson -----------------------------------------------------------------

_SMOOTH = ("identity", "rotation", "mobius_trace", "power")


def _suite_poisson(seed: int = 0, n_boundary: int | None = None, **_):
    out: list[CheckResult] = []
    nb = DEFAULT_NODES if n_boundary is None else int(n_boundary)
    rng = np.random.default_rng(seed)
    maps = catalog()

    exts = {name: HarmonicExtension(maps[name], n_boundary=nb)
            for name in maps}
    refs = {name: (exts[name] if nb == DEFAULT_NODES else
                   HarmonicExtension(maps[name], n_boundary=DEFAULT_NODES))
            for name in maps}

    mv = max(abs(exts[n].extend(0.0) - np.mean(exts[n]._phi)) for n in maps)
    _check(out, "poisson", "mean-value property at the origin", mv < 1e-9,
           f"max deviation {mv:.2e}")

    pts = rng.uniform(0.05, 0.9, 20) * np.exp(1j * rng.uniform(0, TWO_PI, 20))
    fd_worst = 0.0
    for name in maps:
        for z in pts:
            k = exts[name].derivative(z)
            f = refs[name].fd_derivative(z)
            fd_worst = max(fd_worst, abs(k.h_z - f.h_z), abs(k.h_zbar - f.h_zbar))
    _check(out, "poisson", "kernel derivatives match finite differences",
           fd_worst < 1e-6, f"max |kernel - FD| = {fd_worst:.2e} at N_b={nb}")

    dom_ok = True
    for name in maps:
        zs = rng.uniform(0.0, 0.995, 50) * np.exp(1j * rng.uniform(0, TWO_PI, 50))
        for z in zs:
            d = exts[name].derivative(z)
            dom_ok &= exts[name].derivative_bound(z) >= abs(d.h_z) - 1e-6
    _check(out, "poisson", "Stieltjes bound dominates |h_z|", dom_ok)

    lap = max(exts[n].laplacian_probe(z)
              for n in _SMOOTH[:2] for z in pts[:10] * 0.8)
    _check(out, "poisson", "harmonicity probe (5-point Laplacian)",
           lap < 1e-4, f"max {lap:.2e}")

    zs = rng.uniform(0, 0.99, 100) * np.exp(1j * rng.uniform(0, TWO_PI, 100))
    hv = np.array([exts["identity"].extend(z) for z in zs])
    idmax = float(np.max(np.abs(hv - zs)))
    _check(out, "poisson", "identity extension reproduces z", idmax < 1e-9,
           f"max |h(z)-z| = {idmax:.2e}")

    repi = exts["identity"].energy_i(0.0, 8)
    oracle = math.pi * (1.0 - 2.0 ** -8) ** 2
    rel = abs(repi.total - oracle) / oracle
    _check(out, "poisson", "identity disk energy equals pi(1-2^-J)^2",
           rel < 1e-5, f"relative error {rel:.2e}")

    try:
        exts["mobius_trace"].energy_ii(1.0, 8)
        _check(out, "poisson", "(ii) weight comparable to j^lambda per cell", True)
    except Exception as exc:
        _check(out, "poisson", "(ii) weight comparable to j^lambda per cell",
               False, str(exc))
    return out


# -- orlicz ------------------------------------------------------------------

def _suite_orlicz(seed: int = 0, **_) -> list[CheckResult]:
    out: list[CheckResult] = []
    grid = oz.log_grid(160)

    ok_fd = True
    for lam in (-0.9, -0.5, 0.0, 1.0, 2.0):
        ts = np.logspace(-6, 6, 30)
        h = ts * 1e-7
        fd = (oz.phi_lambda(ts + h, lam) - oz.phi_lambda(ts - h, lam)) / (2 * h)
        an = oz.phi_lambda_density(ts, lam)
        ok_fd &= bool(np.max(np.abs(fd - an) / np.abs(an)) < 1e-6)
        mids = oz.phi_lambda((grid[:-1] + grid[1:]) / 2, lam)
        ok_fd &= bool(np.all(mids <= (oz.phi_lambda(grid[:-1], lam)
                                      + oz.phi_lambda(grid[1:], lam)) / 2 + 1e-12))
    _check(out, "orlicz", "density matches FD; Phi midpoint-convex", ok_fd)

    f0 = oz.log_weighted_square(0.0)
    _check(out, "orlicz", "Delta2 constant exactly 4 at lam=0",
           oz.delta2_constant(f0, grid) == 4.0)
    ok_d2 = all(oz.delta2_constant(oz.log_weighted_square(lam), grid)
                <= 4.0 * 2.0 ** abs(lam) + 1e-9 for lam in (-0.5, 1.0, 2.0))
    _check(out, "orlicz", "Delta2 constant within 4*2^|lambda|", ok_d2)

    ok_kr = all(oz.check_kr_criterion(oz.log_weighted_square(lam), 2.0, grid)
                for lam in (0.0, 1.0, 2.0))
    ok_kr &= all(oz.check_kr_criterion(oz.log_weighted_square(lam),
                                       2.0 ** (1.0 / (1.0 + lam)), grid)
                 for lam in (-0.5, -0.9))
    _check(out, "orlicz", "l-criterion: l=2 for lam>=0, l=2^(1/(1+lam)) for lam<0",
           ok_kr)

    ok_y = True
    sgrid = np.logspace(-3, 3, 25)
    for lam in (-0.5, 0.0, 1.0):
        pair = oz.complementary_pair(oz.log_weighted_square(lam))
        ok_y &= pair.young_slack(sgrid, sgrid) > -1e-6
        ok_y &= max(pair.legendre_residual(t) for t in (0.5, 3.0, 50.0)) < 1e-8
    _check(out, "orlicz", "Young inequality and Legendre identity", ok_y)

    f1 = oz.log_weighted_square(1.0)
    ok_db = all(0 < lo <= hi < math.inf
                for lo, hi in (oz.doubling_window(f1, c, grid)
                               for c in (1/3, 1/2, 2.0, 3.0)))
    _check(out, "orlicz", "doubling sandwich windows finite", ok_db)

    rng = np.random.default_rng(seed)
    gf = oz.GridField(rng.uniform(0, 3, (48, 48)), extent=1.25)
    mf = oz.maximal_field(gf)
    cs = gf.centers()
    pts = [(cs[1], cs[5]), (cs[24], cs[24]), (cs[47], cs[0])]
    ok_m = all(abs(mf[int(np.searchsorted(cs, y)), int(np.searchsorted(cs, x))]
                   - oz.maximal_on_grid(gf, (x, y), oz.dyadic_radii(1.25))) < 1e-10
               for x, y in pts)
    ok_m &= bool(np.all(mf >= gf.values - 1e-12))
    cf = oz.GridField(np.full((32, 32), 2.0))
    res = oz.orlicz_maximal_test(cf, f1, 1.0)
    ok_m &= abs(res.lhs - res.rhs) < 1e-12 * res.rhs
    _check(out, "orlicz", "maximal operator: FFT/per-point/dominance/constant",
           ok_m)
    return out


# -- chordarc ----------------------------------------------------------------

def _suite_chordarc(seed: int = 0, **_) -> list[CheckResult]:
    out: list[CheckResult] = []
    sq = ca.PolygonDomain([(0, 0), (1, 0), (1, 1), (0, 1)])
    w_a, w_b = sq.point_at_arclength(0.5), sq.point_at_arclength(1.5)
    ok_sq = (abs(sq.boundary_arc_length(w_a, w_b) - 1.0) < 1e-12
             and abs(sq.internal_distance(w_a, w_b) - math.hypot(0.5, 0.5)) < 1e-12)
    _check(out, "chordarc", "unit square arc and geodesic oracles", ok_sq)

    lsh = ca.PolygonDomain([(0, 0), (2, 0), (2, 1), (1, 1), (1, 2), (0, 2)])
    d = lsh.internal_distance(lsh.boundary_point(1, 1.0), lsh.boundary_point(3, 1.0))
    _check(out, "chordarc", "L-shape geodesic turns at the reflex corner",
           abs(d - 2.0) < 1e-12, f"distance {d!r}")

    sampler = ca.PairSampler(seed=seed)
    gon = ca.regular_polygon(256)
    c1, c2 = ca.chordarc_constant(gon, sampler), ca.internal_chordarc_constant(gon, sampler)
    ok_g = abs(c1 - math.pi / 2) < 0.02 * math.pi / 2 and abs(c1 - c2) < 1e-9
    _check(out, "chordarc", "regular 256-gon: both constants near pi/2",
           ok_g, f"chordarc {c1:.6f}")

    cusp = ca.cusp_domain(64)
    cc = ca.chordarc_constant(cusp, sampler)
    ic = ca.internal_chordarc_constant(cusp, sampler)
    _check(out, "chordarc", "cusp contrast: chord-arc blows up, internal stays",
           cc > 50.0 and ic < 10.0, f"chordarc {cc:.1f}, internal {ic:.3f}")
    _check(out, "chordarc", "(0.5, 0) lies outside the cusp domain",
           not cusp.contains((0.5, 0.0), include_boundary=False))

    rng = np.random.default_rng(seed)
    xy, pos = cusp.points_at_arclength(rng.uniform(0, cusp.perimeter, 45))
    a, b, c = xy[0::3], xy[1::3], xy[2::3]
    d_ac, d_ab, d_bc = cusp.internal_distances(np.vstack([a, a, b]),
                                               np.vstack([c, b, c])).reshape(3, 15)
    arc = np.abs(pos[0::3] - pos[1::3])
    ell = np.minimum(arc, cusp.perimeter - arc)
    chord = np.hypot(a[:, 0] - b[:, 0], a[:, 1] - b[:, 1])
    ok_tri = np.all(d_ac <= d_ab + d_bc + 1e-9)
    ok_sand = np.all((chord - 1e-12 <= d_ab) & (d_ab <= ell * (1 + 1e-6) + 1e-12))
    _check(out, "chordarc", "triangle inequality and chord <= lambda <= ell",
           ok_tri and ok_sand)

    with tempfile.TemporaryDirectory() as tmp:
        path = f"{tmp}/cusp_vertices.txt"
        ca.save_vertices(cusp, path)
        back = ca.load_vertices(path)
    _check(out, "chordarc", "vertex-list text round trip",
           np.array_equal(back.vertices, cusp.vertices))
    return out


_SUITES = {
    "dyadic": _suite_dyadic,
    "energy": _suite_energy,
    "logkernel": _suite_logkernel,
    "poisson": _suite_poisson,
    "orlicz": _suite_orlicz,
    "chordarc": _suite_chordarc,
}


def run_suite(name: str, seed: int = 0,
              n_boundary: int | None = None) -> list[CheckResult]:
    """Run one named invariant suite (or 'all'); returns per-check results."""
    if name not in SUITE_NAMES:
        raise DomainError(f"unknown suite {name!r}; valid: {SUITE_NAMES}")
    names = [s for s in SUITE_NAMES if s != "all"] if name == "all" else [name]
    results: list[CheckResult] = []
    for nm in names:
        results.extend(_SUITES[nm](seed=seed, n_boundary=n_boundary))
    return results
