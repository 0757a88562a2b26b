import dataclasses
import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import capell.abel
from capell.abel import (
    BandDensity,
    _cached_density,
    _gap_nodes,
    _log_weight,
    _residual,
    _solve_grid,
    _unit_frame,
    abel_capacity,
    equilibrium_potential,
    gap_integral,
    resultant_positivity,
    solve_R,
)
from capell._quad import log_abs_sum
from capell.cli import main
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
    mu = BandDensity(solve_R(I22))
    xs = np.linspace(-1.95, 1.95, 50)
    expect = 1.0 / (math.pi * np.sqrt(4.0 - xs**2))
    assert np.allclose(mu.density(xs), expect, atol=1e-10)
    assert mu.density(np.array([0.0]))[0] == pytest.approx(1.0 / (2 * math.pi), rel=1e-12)


def test_band_masses_equal_omega():
    d = solve_R(UNION)
    mu = BandDensity(d)
    assert np.allclose(mu.band_masses, d.omega, atol=1e-9)
    assert mu.total_mass == pytest.approx(1.0, abs=1e-9)


def test_density_grid_is_sampled_on_first_use(monkeypatch):
    import capell.abel as abel

    d = solve_R(PAIR)
    calls = []
    log_weight = abel._log_weight
    monkeypatch.setattr(abel, "_log_weight", lambda *a: calls.append(1) or log_weight(*a))
    mu = BandDensity(d)
    assert mu.density(0.5 * (math.sqrt(2) + math.sqrt(8))) > 0
    assert not calls
    mu.cdf(0.0)
    assert calls
    # the mass check runs with the grid it checks
    bad = BandDensity(dataclasses.replace(d, omega=(d.omega[0] + 1e-6, d.omega[1])))
    with pytest.raises(QuadratureError, match="period data"):
        bad.cdf(0.0)


def test_density_vanishes_nowhere_inside():
    mu = BandDensity(solve_R(PAIR))
    xs = np.linspace(math.sqrt(2) + 1e-3, math.sqrt(8) - 1e-3, 40)
    assert np.all(mu.density(xs) > 0)


def test_cdf_and_quantile():
    mu = BandDensity(solve_R(PAIR))
    # symmetric set: half the mass below 0
    assert mu.cdf(np.array([0.0]))[0] == pytest.approx(0.5, abs=1e-10)
    assert mu.quantile(np.array([0.25]))[0] == pytest.approx(
        -mu.quantile(np.array([0.75]))[0], abs=1e-8
    )


# CDF of [[0, 1], [1 + delta, 2]]: each reference is scipy.integrate.quad
# (epsabs 1e-17, epsrel 1e-15) of BandDensity's profile q_j in theta from
# theta_x to pi, split at theta = 1e-6, 1e-5, ..., 0.1, 1, 2, 3 and pi - 1e-2,
# pi - 1e-4, pi - 1e-6, plus band 0's whole mass on band 1
CDF_REFERENCE = {
    1e-2: [(0.001, 0.014236614601370476), (0.3, 0.25318734178208774),
           (0.999, 0.5005358589530536), (0.999999999, 0.5015905793089278),
           (1.0, 0.5015915859057888), (1.02, 0.506093598969718),
           (1.5, 0.6666597050039388), (1.7, 0.7468126002205441),
           (1.999, 0.9857633836159445), (1.9999999, 0.9998576457017458)],
    1e-4: [(0.001, 0.014236437424046143), (0.3, 0.25318331151253237),
           (0.999, 0.49968206921597985), (0.999999999, 0.5000158148354195),
           (1.0, 0.5000159154943457), (1.0002, 0.5000609313105849),
           (1.5, 0.6666666659774366), (1.7, 0.7468166884874098),
           (1.999, 0.9857635625759535), (1.9999999, 0.9998576474899898)],
}


@pytest.mark.parametrize("delta", sorted(CDF_REFERENCE))
def test_cdf_next_to_a_small_gap_matches_quadrature(delta):
    mu = BandDensity(solve_R(make_interval_union([(0, 1), (1 + delta, 2)])))
    x, ref = np.array(CDF_REFERENCE[delta]).T
    assert np.max(np.abs(mu.cdf(x) - ref)) <= 1e-13


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


def test_potential_reuses_the_cached_density():
    # the datum keys an lru_cache, so it must hash; a second call on it
    # reuses the density built by the first
    d = solve_R(UNION)
    assert hash(d) == hash(solve_R(UNION))
    equilibrium_potential(d, 5.0)
    hits = _cached_density.cache_info().hits
    equilibrium_potential(d, 6.0)
    assert _cached_density.cache_info().hits == hits + 1


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
    assert gap_integral(d, 1) == pytest.approx(0.0, abs=1e-12)


def test_gap_integrals_of_a_64_band_union_vanish():
    # the pullback of [-4, 4] by six quadratics x^2 - c, as in the benchmark
    bands = [(-4.0, 4.0)]
    for ratio in (1.3, 1.6, 1.45, 1.35, 1.55, 1.4):
        c = bands[-1][1] * ratio
        right = [(math.sqrt(a + c), math.sqrt(b + c)) for a, b in bands]
        bands = [(-b, -a) for a, b in reversed(right)] + right
    d = solve_R(make_interval_union(bands))
    e, _, _ = _unit_frame(d.E)
    z = np.asarray(d.unit_roots)
    for i in range(d.E.g):
        x, logw = _gap_nodes(e, 64, [i])
        scale = float(np.sum(np.abs(np.prod(x[0, :, None] - z, axis=1)) * np.exp(logw[0])))
        assert abs(gap_integral(d, i + 1)) <= 1e-10 * scale


# 2-8 bands: 2m endpoints as running sums of steps in [0.05, 3]
_UNIONS = st.integers(2, 8).flatmap(
    lambda m: st.lists(st.floats(0.05, 3.0), min_size=2 * m, max_size=2 * m))


@settings(max_examples=200, deadline=None)
@given(_UNIONS)
def test_gap_conditions_are_linear_in_R(steps):
    # one grid, two sets of points y: the same R, so the same roots
    ends = np.cumsum(steps)
    e, _, _ = _unit_frame(make_interval_union(list(zip(ends[::2], ends[1::2]))))
    lo, hi = e[1:-1].reshape(-1, 2).T
    X, logw = _gap_nodes(e, 64)

    def solve_from(y):
        F, _, J = _residual(y, X, logw, jac=True)
        return _solve_grid(y, F, J, lo, hi)

    mid = solve_from(0.5 * lo + 0.5 * hi)
    quarter = solve_from(lo + 0.25 * (hi - lo))
    assert np.all(np.abs(mid - quarter) <= 1e-12 * (hi - lo))


def test_blocked_residual_matches_one_tensor():
    # 45 gaps on 64 nodes: blocks of 22, 22 and 1 gap rows, against the
    # whole (g, n, g) tensor at once
    e, _, _ = _unit_frame(make_interval_union([(4 * j, 4 * j + 1 + j % 3) for j in range(46)]))
    lo, hi = e[1:-1].reshape(-1, 2).T
    z = lo + np.random.default_rng(3).uniform(0.1, 0.9, len(lo)) * (hi - lo)
    X, logw = _gap_nodes(e, 64)
    L = np.log(np.abs(X[:, :, None] - z))
    lw = L.sum(axis=2) - L.diagonal(axis1=0, axis2=2).T + logw
    core = np.exp(lw - lw.max(axis=1, keepdims=True))
    dx = X - z[:, None]
    sig = (-1.0) ** (len(z) - 1 - np.arange(len(z)))
    F, W = sig * (dx * core).sum(axis=1), (np.abs(dx) * core).sum(axis=1)
    J = -sig[:, None] * np.einsum("ik,ikl->il", dx * core, 1.0 / (X[:, :, None] - z))
    got = _residual(z, X, logw, jac=True)
    for a, b in zip(got, (F, W, J)):
        assert np.array_equal(a, b)
    assert np.array_equal(_residual(z, X, logw)[0], F)


THREE = "[[0,1],[2,3],[3.5,4]]"


def _nan_solve(solve):
    return lambda a, b: np.full_like(b, np.nan)


def _root_outside_solve(solve):
    # c_0 + 10 puts gap 0's root near y_0 - 10, off E mapped onto [-1, 1]
    def bad(a, b):
        c = solve(a, b)
        c[0] += 10.0
        return c
    return bad


@pytest.mark.parametrize("bad,message", [
    (_nan_solve, "gap conditions: the linear solve is not finite"),
    (_root_outside_solve, "gap conditions: a root of R is not inside its gap"),
], ids=["nan", "root-outside"])
def test_a_bad_linear_solve_exits_4_naming_the_stage(capsys, monkeypatch, bad, message):
    monkeypatch.setattr(np.linalg, "solve", bad(np.linalg.solve))
    with pytest.raises(QuadratureError, match=f"^{message}$"):
        solve_R(make_interval_union(json.loads(THREE)))
    assert main(["cap", "--bands", THREE]) == 4
    assert message in capsys.readouterr().err


def test_out_of_memory_in_the_gap_conditions_exits_4(capsys, monkeypatch):
    def out_of_memory(*args, **kwargs):
        raise MemoryError
    monkeypatch.setattr(capell.abel, "_residual", out_of_memory)
    assert main(["cap", "--bands", THREE]) == 4
    assert "gap conditions: out of memory at 32 nodes on 2 gaps" in capsys.readouterr().err


def test_log_weights_match_the_per_interval_loop():
    # all rows at once, in blocks, against one np.delete per row
    rng = np.random.default_rng(5)
    e = np.sort(rng.uniform(-1, 1, 512))
    z = 0.5 * (e[1:-1:2] + e[2::2])
    own = np.arange(1, 510, 2)
    x = 0.5 * (e[own] + e[own + 1])[:, None] + rng.uniform(-0.4, 0.4, (255, 64)) * (e[own + 1] - e[own])[:, None]
    loop = np.array([log_abs_sum(xi, z) - 0.5 * log_abs_sum(xi, np.delete(e, (o, o + 1)))
                     for xi, o in zip(x, own)])
    assert np.array_equal(_log_weight(x, e, own, z), loop)


def test_density_is_zero_off_the_open_bands():
    mu = BandDensity(solve_R(UNION))
    xs = np.array([-1.0, 0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 4.0, np.nan])
    loop = np.any([(xs > u) & (xs < v) for u, v in UNION.bands], axis=0)
    assert np.array_equal(mu.density(xs) > 0, loop)


def test_gap_integral_requires_valid_index():
    d = solve_R(PAIR)
    with pytest.raises(ValueError):
        gap_integral(d, 2)


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
