import math
from fractions import Fraction

import numpy as np
import pytest

from capell.abel import (
    BandDensity,
    abel_capacity,
    equilibrium_density,
    equilibrium_potential,
    gap_integral,
    resultant_positivity,
    solve_R,
)
from capell.core import ExactPoly, QuadratureError, make_interval_union

X = ExactPoly.x()
I22 = make_interval_union([(-2, 2)])
PAIR = make_interval_union([(-math.sqrt(8), -math.sqrt(2)), (math.sqrt(2), math.sqrt(8))])
UNION = make_interval_union([(0, 1), (2, 3)])


def cantor_union(level):
    bands = [(0.0, 1.0)]
    for _ in range(level):
        bands = [p for (a, b) in bands
                 for p in ((a, a + (b - a) / 3), (b - (b - a) / 3, b))]
    return make_interval_union(bands)


# -- the solved datum -------------------------------------------------------------


def test_interval_datum():
    d = solve_R(I22)
    assert d.omega == (1.0,)
    assert d.gap_roots == ()
    assert abel_capacity(d) == pytest.approx(1.0, abs=1e-10)
    assert d.vE == pytest.approx(0.0, abs=1e-10)


def test_pair_datum_symmetry():
    d = solve_R(PAIR)
    assert len(d.gap_roots) == 1
    assert d.gap_roots[0] == pytest.approx(0.0, abs=1e-12)
    assert np.allclose(d.omega, (0.5, 0.5), atol=1e-12)
    assert abel_capacity(d) == pytest.approx(0.5 * math.sqrt(6), rel=1e-9)
    assert d.vE == pytest.approx(math.log(0.5 * math.sqrt(6)), abs=1e-9)


def test_union_datum():
    d = solve_R(UNION)
    assert len(d.gap_roots) == 1
    # symmetric about 3/2, so the zero of R sits there
    assert d.gap_roots[0] == pytest.approx(1.5, abs=1e-10)
    assert sum(d.omega) == pytest.approx(1.0, abs=1e-10)
    # capacity of two equal bands: known to dominate the closed-form rescale
    cap = abel_capacity(d)
    assert 0.25 < cap < 0.75
    # against the symmetric-pair closed form after recentring: the set
    # {|x-3/2| in [1/2, 3/2]} has capacity sqrt(9/4 - 1/4)/2 = sqrt(2)/2
    assert cap == pytest.approx(0.5 * math.sqrt(2), rel=1e-9)


def test_omega_scale_invariance():
    d1 = solve_R(UNION)
    d2 = solve_R(UNION.scaled(5.0).translated(-2.0))
    assert np.allclose(d1.omega, d2.omega, atol=1e-10)
    assert abel_capacity(d2) == pytest.approx(5 * abel_capacity(d1), rel=1e-8)


def test_cantor_capacity_decreasing():
    caps = [abel_capacity(solve_R(cantor_union(k))) for k in (1, 2, 3, 4)]
    for a, b in zip(caps, caps[1:]):
        assert b < a
    assert caps[0] < 0.25  # below the full interval [0,1]


# -- equilibrium density ------------------------------------------------------------


def test_interval_density_matches_arcsine():
    mu = equilibrium_density(solve_R(I22))
    xs = np.linspace(-1.95, 1.95, 50)
    expect = 1.0 / (math.pi * np.sqrt(4.0 - xs**2))
    assert np.allclose(mu.density(xs), expect, atol=1e-10)
    assert mu.density(np.array([0.0]))[0] == pytest.approx(1.0 / (2 * math.pi), rel=1e-12)


def test_band_masses_equal_omega():
    d = solve_R(UNION)
    mu = BandDensity(d)
    assert np.allclose(mu.band_masses, d.omega, atol=1e-9)
    assert mu.total_mass == pytest.approx(1.0, abs=1e-9)


def test_density_vanishes_nowhere_inside():
    mu = equilibrium_density(solve_R(PAIR))
    xs = np.linspace(math.sqrt(2) + 1e-3, math.sqrt(8) - 1e-3, 40)
    assert np.all(mu.density(xs) > 0)


def test_cdf_and_quantile():
    mu = equilibrium_density(solve_R(PAIR))
    # symmetric set: half the mass below 0
    assert mu.cdf(np.array([0.0]))[0] == pytest.approx(0.5, abs=1e-10)
    assert mu.quantile(np.array([0.25]))[0] == pytest.approx(
        -mu.quantile(np.array([0.75]))[0], abs=1e-8
    )


# -- potential: Frostman dichotomy ---------------------------------------------------


def test_potential_on_set_equals_vE():
    d = solve_R(PAIR)
    for x in (2.0, -1.6, math.sqrt(2) + 0.01):
        assert equilibrium_potential(d, x) == pytest.approx(d.vE, abs=1e-8)


def test_potential_strictly_larger_off_set():
    d = solve_R(PAIR)
    # the gap midpoint and far field both exceed v(E)
    assert equilibrium_potential(d, 0.0) > d.vE + 0.1
    assert equilibrium_potential(d, 10.0) > d.vE


def test_potential_far_field_is_log_abs():
    d = solve_R(UNION)
    mu = BandDensity(d)
    m1 = mu.integrate(lambda x: x)
    z = 1e6
    # U(z) = log|z - mean| + O(1/z^2) for a probability measure
    assert equilibrium_potential(d, z) - math.log(z - m1) == pytest.approx(0.0, abs=1e-9)


def test_gap_integral_antisymmetric_case():
    d = solve_R(PAIR)
    # R odd, gap symmetric about 0: the principal integral cancels
    assert gap_integral(d.R, d.D, 1) == pytest.approx(0.0, abs=1e-12)


def test_gap_integral_requires_valid_index():
    d = solve_R(PAIR)
    with pytest.raises(ValueError):
        gap_integral(d.R, d.D, 2)


# -- exact resultant positivity -------------------------------------------------------


def test_resultant_positivity_oracles():
    val, res = resultant_positivity(X**2 - 2, X**2 - 3)
    assert res == 1 and val == 0.0
    val, res = resultant_positivity(X**2 - 2, X)
    assert abs(res) == 2 and val == pytest.approx(math.log(2) / 2)
    val, res = resultant_positivity(X - 3, X - 3)
    assert res == 0 and val == -math.inf


def test_resultant_positivity_random_coprime():
    rng = np.random.default_rng(5)
    hits = 0
    for _ in range(200):
        p = ExactPoly.from_list([int(c) for c in rng.integers(-9, 10, 3)] + [1])
        q = ExactPoly.from_list([int(c) for c in rng.integers(-9, 10, rng.integers(2, 5))])
        if q.is_zero or p.resultant(q) == 0:
            continue
        val, res = resultant_positivity(p, q)
        hits += 1
        assert res != 0
        assert val >= 0.0 or abs(res) >= 1
        assert val == pytest.approx(math.log(abs(res)) / p.degree)
    assert hits > 150


def test_resultant_positivity_engineered_common_factor():
    rng = np.random.default_rng(6)
    for _ in range(20):
        shared = X - int(rng.integers(-5, 6))
        p = shared * (X + int(rng.integers(-5, 6)))
        q = shared * ExactPoly.from_list([int(rng.integers(1, 7)), 1])
        val, res = resultant_positivity(p, q)
        assert res == 0 and val == -math.inf


def test_resultant_positivity_validates_input():
    with pytest.raises(ValueError):
        resultant_positivity(ExactPoly.from_list(["1/2", 1]), X)
    with pytest.raises(ValueError):
        resultant_positivity(2 * X, X + 1)


# -- error paths ------------------------------------------------------------------------


def test_two_sided_capacity_check_guards():
    # sanity: the guard exists and normal sets pass through it
    d = solve_R(UNION)
    assert isinstance(abel_capacity(d), float)
    with pytest.raises((ValueError, QuadratureError)):
        gap_integral(d.R, ExactPoly.from_list([1, 0, 1]).to_real(), 1)
