import cmath
import math

import numpy as np
import pytest

from capell._quad import (
    ThetaDensity,
    gauss_legendre,
    graded_nodes,
    log_abs_sum,
    uniform_density,
)
from capell.core import QuadratureError, make_interval_union


def arcsine_22():
    E = make_interval_union([(-2, 2)])
    return ThetaDensity(E, [lambda th: np.full_like(th, 1.0 / math.pi)])


def test_gauss_legendre_cached_and_exact():
    x, w = gauss_legendre(12)
    assert w.sum() == pytest.approx(2.0)
    # degree-2n-1 exactness
    assert (w * x**22).sum() == pytest.approx(2.0 / 23.0, rel=1e-13)


def singular_integral(f, u, v, n, d=math.inf):
    # int_u^v f(x) / sqrt((x-u)(v-x)) dx on n graded nodes, graded at v for
    # a branch point at distance d beyond it
    x, logw = graded_nodes(np.array([u]), np.array([v]), np.array([math.inf]), np.array([d]), n)
    return float(np.sum(f(x[0]) * np.exp(logw[0])))


def test_singular_integral_constant():
    # int_{-1}^{1} dx / sqrt(1-x^2) = pi
    val = singular_integral(lambda x: np.ones_like(x), -1.0, 1.0, 64)
    assert val == pytest.approx(math.pi, rel=1e-14)


def test_singular_integral_poly_weight():
    # int_0^2 x / sqrt(x(2-x)) dx = pi (midpoint value times pi)
    val = singular_integral(lambda x: x, 0.0, 2.0, 64)
    assert val == pytest.approx(math.pi, rel=1e-13)


def _ellipe(m):
    """Complete elliptic integral E(m) of the second kind, by the AGM."""
    a, b, c2, s, p = 1.0, math.sqrt(1.0 - m), m, 0.5 * m, 0.5
    while c2 > 1e-32:
        a, b, c2 = 0.5 * (a + b), math.sqrt(a * b), (0.5 * (a - b)) ** 2
        p *= 2
        s += p * c2
    return math.pi / (2 * a) * (1.0 - s)


def test_graded_nodes_reach_a_close_branch_point():
    # sqrt(1 + d - x) has its branch point d beyond 1; the integral is
    # 2 sqrt(2 + d) E(2 / (2 + d)).  64 graded nodes reach rounding at every
    # d, where a rule uniform in theta needs ~1/sqrt(d) nodes
    for d in (1.0, 1e-4, 1e-8, 1e-12):
        exact = 2 * math.sqrt(2 + d) * _ellipe(2 / (2 + d))
        got = singular_integral(lambda x: np.sqrt(1.0 + d - x), -1.0, 1.0, 64, d)
        assert got == pytest.approx(exact, rel=1e-13)
    x, _ = graded_nodes(np.array([-1.0]), np.array([1.0]), np.array([1e-8]), np.array([1e-8]), 32)
    assert np.all(np.abs(x) < 1) and 1 - np.abs(x).max() < 1e-9


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
    # and off the real line, where the same formula holds
    for z in (1 + 1j, -3 + 0.5j, 0.3j):
        expect = math.log(abs(z + cmath.sqrt(z - 2) * cmath.sqrt(z + 2))) - math.log(2.0)
        assert mu.potential(z) == pytest.approx(expect, abs=1e-12)
    zs = np.array([1 + 1j, 0.3j, 0.7])
    assert np.allclose(mu.potential(zs), [mu.potential(z) for z in zs], rtol=0, atol=1e-15)


def test_arcsine_cdf_quantile_round_trip():
    mu = arcsine_22()
    ps = np.linspace(0.05, 0.95, 7)
    xs = mu.quantile(ps)
    assert np.allclose(mu.cdf(xs), ps, atol=1e-9)
    assert mu.cdf(np.array([0.0]))[0] == pytest.approx(0.5, abs=1e-12)


def test_uniform_density_energy():
    # normalized Lebesgue on [0, 1]: energy log 1 - 3/2; the sin(theta)
    # profile's series is exact, so only its tail past 4096 terms is missed
    mu = uniform_density(make_interval_union([(0, 1)]))
    assert mu.total_mass == pytest.approx(1.0, abs=1e-15)
    assert mu.energy() == pytest.approx(-1.5, abs=1e-13)


def test_uniform_energy_of_the_readme_pair_closed_form():
    # [-b, -a] u [a, b], l = b - a, L = 2l: each band's own term is
    # (1/4)(log l - 3/2), and the two cross terms add
    # 2 [G(2b) - 2 G(a + b) + G(2a)] / L^2 with G(t) = t^2 log(t) / 2 - 3 t^2 / 4
    # (G'' = log); evaluated in 40-digit decimal arithmetic
    a, b = 1.4142135624, 2.8284271247
    mu = uniform_density(make_interval_union([(-b, -a), (a, b)]))
    assert mu.energy() == pytest.approx(0.14114291628532818, abs=1e-13)


def test_non_finite_energy_names_the_stage():
    mu = ThetaDensity(make_interval_union([(0, 1)]), [lambda th: np.full_like(th, np.nan)])
    with pytest.raises(QuadratureError, match="energy"):
        mu.energy()


def test_uniform_density_two_bands_mass():
    mu = uniform_density(make_interval_union([(0, 1), (2, 4)]))
    assert mu.total_mass == pytest.approx(1.0, abs=1e-7)
    # each band carries mass proportional to its length
    assert mu.band_masses[0] == pytest.approx(1.0 / 3.0, abs=1e-7)
