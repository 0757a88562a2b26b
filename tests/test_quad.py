import math

import numpy as np
import pytest

from capell._quad import (
    ThetaDensity,
    cheb_nodes,
    gauss_legendre,
    log_abs_sum,
    uniform_density,
)
from capell.core import make_interval_union


def arcsine_22():
    E = make_interval_union([(-2, 2)])
    return ThetaDensity(E, [lambda th: np.full_like(th, 1.0 / math.pi)])


def test_gauss_legendre_cached_and_exact():
    x, w = gauss_legendre(12)
    assert w.sum() == pytest.approx(2.0)
    # degree-2n-1 exactness
    assert (w * x**22).sum() == pytest.approx(2.0 / 23.0, rel=1e-13)


def singular_integral(f, u, v, n):
    # int_u^v f(x) / sqrt((x-u)(v-x)) dx on the band nodes, weight pi/n each
    x = (u + v) / 2 + (v - u) / 2 * cheb_nodes(n)
    return float(np.pi / n * np.sum(f(x)))


def test_singular_integral_constant():
    # int_{-1}^{1} dx / sqrt(1-x^2) = pi
    val = singular_integral(lambda x: np.ones_like(x), -1.0, 1.0, 64)
    assert val == pytest.approx(math.pi, rel=1e-14)


def test_singular_integral_poly_weight():
    # int_0^2 x / sqrt(x(2-x)) dx = pi (midpoint value times pi)
    val = singular_integral(lambda x: x, 0.0, 2.0, 64)
    assert val == pytest.approx(math.pi, rel=1e-13)


def test_cheb_nodes_interlace():
    t = cheb_nodes(16)
    assert len(t) == 16
    assert np.all(np.diff(t) < 0)  # cos of increasing angles
    assert -1 < t[-1] and t[0] < 1


def test_log_abs_sum():
    got = log_abs_sum(np.array([3.0]), np.array([1.0, 2.0]))
    assert got[0] == pytest.approx(math.log(2.0), rel=1e-14)


# -- the arcsine law on [-2, 2]: every quantity in closed form -----------------


def test_arcsine_mass_and_moments():
    mu = arcsine_22()
    assert mu.total_mass == pytest.approx(1.0, abs=1e-14)
    assert mu.integrate(lambda x: x) == pytest.approx(0.0, abs=1e-13)
    assert mu.integrate(lambda x: x * x) == pytest.approx(2.0, abs=1e-12)


def test_arcsine_energy_is_log_capacity():
    # cap([-2,2]) = 1, so the equilibrium energy vanishes
    assert arcsine_22().energy() == pytest.approx(0.0, abs=1e-12)


def test_arcsine_potential_inside_and_outside():
    mu = arcsine_22()
    # Frostman: constant log cap = 0 on the set
    for z in (0.0, 0.7, -1.9):
        assert mu.potential(z) == pytest.approx(0.0, abs=1e-10)
    # outside: log of the Joukowski radius |z + sqrt(z^2-4)| / 2
    for z in (2.5, -3.0, 10.0):
        expect = math.log((abs(z) + math.sqrt(z * z - 4.0)) / 2.0)
        assert mu.potential(z) == pytest.approx(expect, rel=1e-10)


def test_arcsine_cdf_quantile_round_trip():
    mu = arcsine_22()
    ps = np.linspace(0.05, 0.95, 7)
    xs = mu.quantile(ps)
    assert np.allclose(mu.cdf(xs), ps, atol=1e-9)
    assert mu.cdf(np.array([0.0]))[0] == pytest.approx(0.5, abs=1e-12)


def test_uniform_density_energy():
    # normalized Lebesgue on [0, 1]: energy log 1 - 3/2
    mu = uniform_density(make_interval_union([(0, 1)]))
    # the flat profile is not of equilibrium type, so the theta grid is
    # second-order rather than spectral: ~2.5e-8 at the default resolution
    assert mu.total_mass == pytest.approx(1.0, abs=1e-7)
    assert mu.energy() == pytest.approx(-1.5, abs=1e-6)


def test_uniform_density_two_bands_mass():
    mu = uniform_density(make_interval_union([(0, 1), (2, 4)]))
    assert mu.total_mass == pytest.approx(1.0, abs=1e-7)
    # each band carries mass proportional to its length
    assert mu.band_masses[0] == pytest.approx(1.0 / 3.0, abs=1e-7)
