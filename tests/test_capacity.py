import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial import Legendre, Polynomial

from capell.capacity import (
    capacity,
    capacity_closed_form,
    capacity_preimage,
    chebyshev_constant,
    energy,
    fekete_diameter,
    fekete_points,
    pullback_density,
)
from capell.core import QuadratureError, make_interval_union
from capell._quad import ThetaDensity, uniform_density

I22 = make_interval_union([(-2, 2)])
PAIR = make_interval_union([(-math.sqrt(8), -math.sqrt(2)), (math.sqrt(2), math.sqrt(8))])


# -- closed forms ---------------------------------------------------------------


def test_closed_form_interval():
    assert capacity_closed_form(("interval", -2, 2)) == 1.0
    assert capacity_closed_form(("interval", 0, 1)) == 0.25
    assert capacity_closed_form(("interval", 3, 7)) == 1.0


def test_closed_form_symmetric_pair():
    # [-b,-a] u [a,b]: half the geometric mean of the band-edge gaps
    got = capacity_closed_form(("symmetric_pair", math.sqrt(2), math.sqrt(8)))
    assert got == pytest.approx(0.5 * math.sqrt(6), rel=1e-15)


def test_closed_form_circle_and_arc():
    assert capacity_closed_form(("circle", 2.5)) == 2.5
    # full-angle arc closes the circle
    assert capacity_closed_form(("arc", 3.0, 2 * math.pi)) == pytest.approx(3.0)
    assert capacity_closed_form(("arc", 1.0, math.pi)) == pytest.approx(
        math.sin(math.pi / 4)
    )


def test_closed_form_rejects_junk():
    with pytest.raises(ValueError):
        capacity_closed_form(("segment", 0, 1))


def test_capacity_scaling_laws():
    assert capacity_preimage(1.0, 2) == 1.0
    # preimage of a capacity-c set under monic degree d has capacity c^(1/d)
    assert capacity_preimage(0.25, 2) == pytest.approx(0.5)


# -- Fekete ----------------------------------------------------------------------


def test_fekete_two_and_three_points():
    # two points maximize |x-y| at the endpoints
    assert fekete_diameter(I22, 2) == pytest.approx(4.0, rel=1e-12)
    # three points: endpoints plus midpoint, diameter (4*4*2... )^(1/3) on products
    d3 = fekete_diameter(I22, 3)
    assert d3 == pytest.approx(16.0 ** (1.0 / 3.0), rel=1e-9)


def test_fekete_points_structure():
    pts = fekete_points(I22, 4, seed=0)
    assert len(pts) == 4
    assert pts[0] == pytest.approx(-2.0, abs=1e-9)
    assert pts[-1] == pytest.approx(2.0, abs=1e-9)
    # interior pair for n=4 sits at +-2/sqrt5
    assert abs(pts[1]) == pytest.approx(2.0 / math.sqrt(5.0), abs=1e-6)


def test_fekete_diameter_nonincreasing():
    ds = [fekete_diameter(I22, n) for n in range(2, 9)]
    for a, b in zip(ds, ds[1:]):
        assert b <= a + 1e-9
    assert all(d >= 1.0 for d in ds)  # limit is the capacity


def test_fekete_respects_bands():
    E = make_interval_union([(0, 1), (2, 3)])
    pts = fekete_points(E, 6, seed=1)
    assert all(E.contains(x, tol=1e-9) for x in pts)


@pytest.mark.parametrize("n", range(3, 13))
def test_fekete_interval_is_legendre(n):
    # on [-2, 2]: the ends and twice the roots of P'_{n-1}
    exact = np.concatenate([[-2.0], 2.0 * Legendre.basis(n - 1).deriv().roots(), [2.0]])
    assert np.max(np.abs(fekete_points(I22, n) - exact)) <= 1e-11


@pytest.mark.parametrize("s", [1e-300, 1e-8, 1e8, 1e300])
def test_fekete_follows_affine_maps(s):
    bands = [(0.0, 1.0), (2.0, 3.0)]
    t = 0.75 * s
    moved = fekete_points(make_interval_union([(s * u + t, s * v + t) for u, v in bands]), 6)
    base = fekete_points(make_interval_union(bands), 6)
    assert np.max(np.abs(moved - (s * base + t))) <= 1e-12 * 3.0 * s


def test_fekete_readme_pair_interior_point():
    # the interior point of the README's n = 6 output, by mpmath to 40 digits
    E = make_interval_union([(-2.8284271247, -1.4142135624), (1.4142135624, 2.8284271247)])
    pts = fekete_points(E, 6)
    assert pts[4] == pytest.approx(2.28355746341470191, abs=1e-14)
    assert pts[1] == pytest.approx(-2.28355746341470191, abs=1e-14)


# -- Chebyshev / Remez -------------------------------------------------------------


def test_chebyshev_norm_interval():
    t2, p2 = chebyshev_constant(I22, 2)
    assert t2 == pytest.approx(2.0, rel=1e-10)
    assert np.allclose(p2.coef, (-2.0, 0.0, 1.0), atol=1e-9)

    t5, p5 = chebyshev_constant(I22, 5)
    assert t5 == pytest.approx(2.0, rel=1e-10)
    assert np.allclose(p5.coef, (0.0, 5.0, 0.0, -5.0, 0.0, 1.0), atol=1e-8)


def test_chebyshev_degree_one_midpoint():
    t1, p1 = chebyshev_constant(make_interval_union([(0, 4)]), 1)
    assert t1 == pytest.approx(2.0, rel=1e-12)
    assert np.allclose(p1.coef, (-2.0, 1.0), atol=1e-10)


def test_chebyshev_union_degree_one():
    t1, _ = chebyshev_constant(make_interval_union([(0, 1), (2, 3)]), 1)
    assert t1 == pytest.approx(1.5, rel=1e-10)


def test_chebyshev_norm_dominates_capacity():
    E = make_interval_union([(0, 1), (2, 3)])
    cap = capacity(E, method="abel_integral").value
    for n in (2, 4, 8):
        t_n, _ = chebyshev_constant(E, n)
        assert t_n ** (1.0 / n) >= cap - 1e-9


@pytest.mark.parametrize("n", range(2, 17, 2))
def test_chebyshev_pair_is_exact(n):
    # x^2 maps the pair onto [2, 8], so t_n = 2 ((8 - 2)/4)^(n/2)
    t_n, _ = chebyshev_constant(PAIR, n)
    assert t_n == pytest.approx(2.0 * 1.5 ** (n / 2), rel=1e-12)


@pytest.mark.parametrize("s", [1e-3, 0.1, 10.0])
@pytest.mark.parametrize("n", [4, 8, 12, 16])
def test_chebyshev_scales_as_s_to_the_n(s, n):
    bands = [(0.0, 1.0), (1.5, 3.0)]
    t_n, _ = chebyshev_constant(make_interval_union(bands), n)
    t_sn, _ = chebyshev_constant(make_interval_union([(s * u, s * v) for u, v in bands]), n)
    assert t_sn == pytest.approx(s**n * t_n, rel=1e-12, abs=0.0)


@settings(max_examples=100, deadline=None)
@given(st.floats(0.05, 0.95), st.floats(0.01, 100.0), st.integers(1, 8))
def test_chebyshev_symmetric_pairs_exact_or_exit(ratio, b, half_n):
    # the exchange meets its tolerance or says so; it never returns a wrong value
    a, n = ratio * b, 2 * half_n
    E = make_interval_union([(-b, -a), (a, b)])
    try:
        t_n, _ = chebyshev_constant(E, n)
    except QuadratureError:
        return
    assert t_n == pytest.approx(2.0 * ((b * b - a * a) / 4.0) ** half_n, rel=1e-10, abs=0.0)


# -- dispatcher ---------------------------------------------------------------------


def test_capacity_dispatcher_routes():
    r = capacity(I22, method="closed_form")
    assert r.value == 1.0 and r.method == "closed_form"

    r = capacity(I22, method="abel_integral")
    assert r.value == pytest.approx(1.0, abs=1e-8)

    r = capacity(I22, method="chebyshev", n=64)
    assert r.value == pytest.approx(1.0, abs=1e-3)
    assert r.diagnostics["t_n"] == pytest.approx(2.0, rel=1e-9)

    r = capacity(I22, method="fekete", n=6)
    assert r.value >= 1.0
    assert r.diagnostics["d_n"] == sorted(r.diagnostics["d_n"], reverse=True)


def test_capacity_closed_form_pair_detection():
    r = capacity(PAIR, method="closed_form")
    assert r.value == pytest.approx(0.5 * math.sqrt(6), rel=1e-12)


def test_capacity_unknown_method():
    with pytest.raises(ValueError):
        capacity(I22, method="magic")


# -- pullbacks and energies -----------------------------------------------------------


def test_arcsine_is_pullback_fixed_point():
    # x^2 - 2 maps [-2,2] onto itself two-to-one and preserves the
    # equilibrium measure
    f = Polynomial([-2.0, 0.0, 1.0])
    mu = ThetaDensity(I22, [lambda th: np.full_like(th, 1.0 / math.pi)])
    nu = pullback_density(f, mu)
    assert nu.total_mass == pytest.approx(1.0, abs=1e-10)
    xs = np.linspace(-1.9, 1.9, 21)
    assert np.allclose(nu.density(xs), mu.density(xs), atol=1e-8)


def test_pullback_energy_halving():
    f = Polynomial([-2.0, 0.0, 1.0])
    mu = uniform_density(I22)
    nu = pullback_density(f, mu)
    assert nu.energy() == pytest.approx(mu.energy() / 2.0, abs=2e-4)


def test_energy_requires_probability():
    half = ThetaDensity(I22, [lambda th: np.full_like(th, 0.5 / math.pi)])
    with pytest.raises(ValueError):
        energy(half)
