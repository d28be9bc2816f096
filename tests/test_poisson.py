import csv
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import circle_energy
from circle_energy.circle_map import identity_map
from circle_energy.dyadic import whitney_cell
from circle_energy.errors import DomainError, ResourceGuardError
from circle_energy.poisson import (BARRIER, DEFAULT_GAUSS, DEFAULT_NODES, GAUSS_RANGE,
                                   MAX_WHITNEY_J, NODES_RANGE, DerivativePair,
                                   HarmonicExtension, _ring_rows, operator_norm)

TWO_PI = 2.0 * math.pi


@pytest.fixture(scope="module")
def ident_ext():
    # 2^12 nodes: spectral accuracy of the periodic midpoint rule makes this
    # exact to ~1e-15 for |z| <= 0.9 while keeping the suite fast
    return HarmonicExtension(identity_map(), n_boundary=2 ** 12)


@pytest.fixture(scope="module")
def sample_points():
    rng = np.random.default_rng(7)
    r = 0.9 * np.sqrt(rng.uniform(0.01, 1.0, 40))
    t = rng.uniform(0.0, TWO_PI, 40)
    return r * np.exp(1j * t)


# -- extension values ----------------------------------------------------------

def test_identity_extension_reproduces_z(ident_ext, sample_points):
    for z in sample_points:
        assert abs(ident_ext.extend(complex(z)) - complex(z)) < 1e-12


def test_extension_at_origin_is_boundary_mean(ident_ext, families):
    # h(0) = (1/2pi) int phi: for the identity the mean of e^(i theta) is 0
    assert abs(ident_ext.extend(0.0 + 0.0j)) < 1e-12
    ext = HarmonicExtension(families["log_singular"], n_boundary=2 ** 12)
    mean = np.mean(ext._phi)
    assert ext.extend(0.0 + 0.0j) == pytest.approx(mean, abs=1e-12)


def test_rotation_extension_is_rotated_identity(families, sample_points):
    rot = families["rotation"]
    ext = HarmonicExtension(rot, n_boundary=2 ** 12)
    c = rot.params["c"]
    for z in sample_points[:10]:
        expected = np.exp(1j * c) * complex(z)
        assert abs(ext.extend(complex(z)) - expected) < 1e-12


def test_harmonicity_probe(families, sample_points):
    ext = HarmonicExtension(families["mobius_trace"], n_boundary=2 ** 12)
    for z in sample_points[:8]:
        assert ext.laplacian_probe(complex(z)) < 1e-4


# -- derivatives ----------------------------------------------------------------

def test_identity_derivative_is_one(ident_ext):
    d = ident_ext.derivative(0.3 + 0.4j)
    assert abs(d.h_z - 1.0) < 1e-12
    assert abs(d.h_zbar) < 1e-12
    assert d.norm == pytest.approx(1.0, abs=1e-12)
    assert d.jacobian == pytest.approx(1.0, abs=1e-12)


def test_kernel_derivatives_match_finite_differences(families, sample_points):
    for name in ("identity", "mobius_trace", "log_singular"):
        ext = HarmonicExtension(families[name], n_boundary=2 ** 12)
        for z in sample_points[:12]:
            d = ext.derivative(complex(z))
            fd = ext.fd_derivative(complex(z), step=1e-5)
            assert abs(d.h_z - fd.h_z) < 1e-8, name
            assert abs(d.h_zbar - fd.h_zbar) < 1e-8, name


def test_derivative_bound_dominates(families, sample_points):
    for name in ("power", "smoothed_cantor", "piecewise_linear"):
        ext = HarmonicExtension(families[name], n_boundary=2 ** 12)
        for z in sample_points:
            d = ext.derivative(complex(z))
            assert ext.derivative_bound(complex(z)) >= abs(d.h_z) - 1e-9, name


def test_operator_norm_definition():
    assert operator_norm(3.0 + 4.0j, 1.0) == pytest.approx(6.0)
    a = np.array([1.0 + 0.0j, 0.0 + 2.0j])
    b = np.array([1.0 + 0.0j, 0.0 + 0.0j])
    np.testing.assert_allclose(operator_norm(a, b), [2.0, 2.0])


def test_derivative_pair_fields():
    d = DerivativePair(2.0 + 0.0j, 1.0 + 0.0j)
    assert d.norm == pytest.approx(3.0)
    assert d.jacobian == pytest.approx(3.0)  # |h_z|^2 - |h_zbar|^2


# -- disk energies ----------------------------------------------------------------

def test_identity_energy_i_matches_disk_area(ident_ext):
    # |Dh| = 1 and log^0 = 1, so the energy is the Whitney-covered area
    rep = ident_ext.energy_i(0.0, J=6)
    assert rep.total == pytest.approx(math.pi * (1.0 - 2.0 ** -6) ** 2, rel=1e-12)
    rep8 = ident_ext.energy_i(0.0, J=8)
    assert rep8.total == pytest.approx(math.pi * (1.0 - 2.0 ** -8) ** 2, rel=1e-5)


def test_identity_energy_ii_matches_radial_integral(ident_ext):
    # |Dh| = 1 reduces (ii) to 2*pi int r log^lam(2/(1-r)) dr; quad oracles
    oracles = {(1.0, 6): 6.319558298810311, (-0.5, 6): 2.2629217308009557}
    for (lam, J), truth in oracles.items():
        rep = ident_ext.energy_ii(lam, J=J)
        assert rep.total == pytest.approx(truth, rel=1e-5)


def test_energy_reports_have_condition_tags(ident_ext):
    assert ident_ext.energy_i(0.0, J=6).condition == "i"
    assert ident_ext.energy_ii(0.0, J=6).condition == "ii"


def test_whitney_field_cache_reused(families):
    ext = HarmonicExtension(families["mobius_trace"], n_boundary=2 ** 10)
    a8 = ext.energy_i(1.0, J=8).total
    assert len(ext._field_cache) == 1
    a6 = ext.energy_i(1.0, J=6).total
    fresh = HarmonicExtension(families["mobius_trace"], n_boundary=2 ** 10)
    assert fresh.energy_i(1.0, J=6).total == a6
    assert fresh.energy_i(1.0, J=8).total == a8


def _gauss_radii(j, g):
    """The g Gauss radii of level j, rebuilt from the cell geometry."""
    gx, _ = np.polynomial.legendre.leggauss(g)
    c0 = whitney_cell(j, 1)
    return 0.5 * (c0.r_outer + c0.r_inner) + 0.5 * (c0.r_outer - c0.r_inner) * gx


def _whitney_nodes(J, g):
    """Field nodes rebuilt from the cell geometry, in the field's layout."""
    gx, _ = np.polynomial.legendre.leggauss(g)
    nodes = []
    for j in range(1, J + 1):
        r = _gauss_radii(j, g)
        t0 = math.pi / 2 ** j * (gx + 1.0)
        theta = (TWO_PI * np.arange(2 ** j) / 2 ** j)[:, None] + t0[None, :]
        nodes.append((r[None, :] * np.exp(1j * theta.ravel())[:, None]).ravel())
    return np.concatenate(nodes)


def _flat_norm(field):
    """|Dh| of every level, flattened in the node order of `_whitney_nodes`."""
    return np.concatenate([norm.ravel() for norm, _, _ in field])


# N_b not a power of two; 2^j > N_b at level 9; 2^j dividing N_b; each at
# the default Gauss order 4 and at both ends of GAUSS_RANGE
@pytest.mark.parametrize("n_boundary, J, gauss_order", [
    pytest.param(n, J, g, id=f"{n}-{J}" if g == 4 else f"{n}-{J}-g{g}")
    for n, J in [(1000, 8), (256, 9), (2 ** 10, 8)] for g in (4, 2, 12)])
def test_spectral_field_matches_direct_sum(families, n_boundary, J, gauss_order):
    names = ("identity", "mobius_trace", "power", "log_singular",
             "smoothed_cantor", "piecewise_linear")
    if gauss_order == 12:
        # the direct sum grows like g^2: one map whose slowly decaying
        # coefficients reach every row of the ring matrix
        names = ("piecewise_linear",)
    for name in names:
        ext = HarmonicExtension(families[name], n_boundary=n_boundary,
                                gauss_order=gauss_order)
        field = ext._whitney_field(J)
        direct = operator_norm(*ext._derivative_batch(_whitney_nodes(J, ext.gauss_order)))
        np.testing.assert_allclose(_flat_norm(field), direct, rtol=1e-9, atol=0, err_msg=name)
        oracle = HarmonicExtension(families[name], n_boundary=n_boundary,
                                   gauss_order=gauss_order)
        cuts = np.cumsum([w.size for _, w, _ in field])[:-1]
        oracle._field_cache[J] = [(d.reshape(w.shape), w, r)
                                  for d, (_, w, r) in zip(np.split(direct, cuts), field)]
        for lam in (-0.5, 0.0, 1.0):
            for cond in ("energy_i", "energy_ii"):
                got = getattr(ext, cond)(lam, J=J).per_level
                want = getattr(oracle, cond)(lam, J=J).per_level
                np.testing.assert_allclose(got, want, rtol=1e-12, atol=0,
                                           err_msg=f"{name} {cond} {lam}")


def test_truncated_ring_sums_match_direct_sum(families):
    # at the fixture config levels 1-6 keep K_j of their L rows (level 1: 31
    # of 8192); the dropped tail must stay invisible next to the direct sum
    # at all 16 (2^7 - 2) = 2016 nodes
    J = 6
    assert _ring_rows(DEFAULT_NODES, 1, _gauss_radii(1, DEFAULT_GAUSS).max()) <= 64
    nodes = _whitney_nodes(J, DEFAULT_GAUSS)
    assert nodes.size == 2016
    for name, map_ in families.items():
        ext = HarmonicExtension(map_)
        direct = operator_norm(*ext._derivative_batch(nodes))
        np.testing.assert_allclose(_flat_norm(ext._whitney_field(J)), direct,
                                   rtol=1e-12, atol=0, err_msg=name)


def test_ring_row_count_stays_within_the_rows():
    # every power-of-two N_b, Gauss order and level the guards allow; a
    # RuntimeWarning from the tail bound would fail the test
    for e in range(NODES_RANGE[0].bit_length() - 1, NODES_RANGE[1].bit_length()):
        for g in range(GAUSS_RANGE[0], GAUSS_RANGE[1] + 1):
            for j in range(1, MAX_WHITNEY_J + 1):
                kept = _ring_rows(2 ** e, j, _gauss_radii(j, g).max())
                assert 1 <= kept <= 2 ** max(0, e - j), (e, g, j)   # L = ceil(N_b/2^j)


def test_field_bytes_do_not_depend_on_blas_threads():
    # each ring product V C has 4 g N_b = 786,432 complex multiply-adds here,
    # enough for a threaded BLAS to split it; reports must stay byte-identical
    src = str(Path(circle_energy.__file__).resolve().parents[1])
    code = """
import hashlib, sys
sys.path.insert(0, sys.argv[1])
from circle_energy.circle_map import catalog
from circle_energy.poisson import HarmonicExtension
ext = HarmonicExtension(catalog()["mobius_trace"], 2 ** 14, 12)
digest = hashlib.sha256()
for norm, _, _ in ext._whitney_field(8):
    digest.update(norm.tobytes())
print(digest.hexdigest())
"""
    digests = [subprocess.run([sys.executable, "-c", code, src], check=True,
                              capture_output=True, text=True,
                              env={**os.environ, "OPENBLAS_NUM_THREADS": threads}).stdout
               for threads in ("1", "2")]
    assert len(digests[0].strip()) == 64
    assert digests[0] == digests[1]


def test_field_peak_memory_within_the_working_set(identity):
    # tracemalloc counts numpy's buffers, so the peak is deterministic; the
    # bound is the working set of `_whitney_field`'s docstring at the last level
    n, g, J = 2 ** 16, 12, 12
    ext = HarmonicExtension(identity, n_boundary=n, gauss_order=g)
    tracemalloc.start()
    try:
        ext._whitney_field(J)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    size, length = 2 ** J, n // 2 ** J
    field = 2 * 8 * g * g * (2 ** (J + 1) - 2)   # |Dh| and weights, all levels
    rows = 16 * 4 * n                             # coefficient rows
    level = 16 * 2 * 4 * length * size            # C and its reordered copy
    # V, z0^p, V C, its FFT and the combine's temporaries: 16 complex entries
    # per (radius, k) and per (radius, ring node)
    angle = 16 * 16 * g * (length + size)
    assert peak < field + rows + level + angle


def test_identity_deep_field_oracle(identity):
    # N_b(1 - |z|) >= 64 at every node of level 12, so the midpoint-rule
    # aliasing term N_b |z|^N_b is below 1e-20 and |Dh| = 1 to rounding
    ext = HarmonicExtension(identity, n_boundary=2 ** 18)
    rep = ext.energy_i(0.0, J=12)
    assert rep.total == pytest.approx(math.pi * (1.0 - 2.0 ** -12) ** 2, rel=1e-12)
    norm = _flat_norm(ext._whitney_field(12))
    assert norm.size == ext.gauss_order ** 2 * (2 ** 13 - 2)
    assert np.max(np.abs(norm - 1.0)) < 1e-10


# -- guards and diagnostics --------------------------------------------------------

def test_barrier_guard(ident_ext):
    with pytest.raises(DomainError):
        ident_ext.extend(complex(BARRIER + 1e-9, 0.0))
    with pytest.raises(DomainError):
        ident_ext.derivative(1.5 + 0.0j)


def test_constructor_guards(identity):
    with pytest.raises(DomainError):
        HarmonicExtension(identity, n_boundary=2 ** 7)
    with pytest.raises(DomainError):
        HarmonicExtension(identity, n_boundary=2 ** 19)
    with pytest.raises(DomainError):
        HarmonicExtension(identity, n_boundary=2 ** 10, gauss_order=1)
    with pytest.raises(DomainError):
        HarmonicExtension(identity, n_boundary=2 ** 10, gauss_order=13)


def test_energy_level_guard(ident_ext):
    with pytest.raises(ResourceGuardError):
        ident_ext.energy_i(0.0, J=13)
    with pytest.raises(DomainError):
        ident_ext.energy_i(-1.0, J=8)


def test_derivative_raster_dump(ident_ext, tmp_path):
    path = tmp_path / "raster.csv"
    radii = [0.1, 0.5]
    angles = [0.0, math.pi]
    ident_ext.dump_derivative_raster(path, radii, angles)
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 4
    assert set(rows[0]) == {"r", "theta", "abs_h_z", "abs_h_zbar"}
    for row in rows:
        assert float(row["abs_h_z"]) == pytest.approx(1.0, abs=1e-12)
        assert float(row["abs_h_zbar"]) == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(DomainError):
        ident_ext.dump_derivative_raster(path, [1.5], angles)
