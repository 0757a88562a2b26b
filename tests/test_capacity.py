import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.polynomial import Legendre, Polynomial

import capell.capacity
from capell.capacity import (
    _critical_points,
    capacity,
    capacity_closed_form,
    chebyshev_constant,
    fekete_diameter,
    fekete_points,
)
from capell.abel import BandDensity, solve_R
from capell.core import QuadratureError, _unit_map, make_interval_union
from capell.robinson import convergence_report
from capell.weil import CircleSet, circle_capacity

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


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.integers(2, 10**9), st.floats(0.01, 2 * math.pi))
def test_closed_form_circle_and_arc(q, alpha):
    # the arc of |z| = r = sqrt(q) with opening angle alpha has capacity
    # r sin(alpha/4), the circle (alpha = 2 pi) r: the oracle for the circle
    # transfer, whose trace bands are [2 r cos(alpha/2), 2 r]
    r = math.sqrt(q)
    cs = CircleSet(q, make_interval_union([(2 * r * math.cos(alpha / 2), 2 * r)]))
    assert circle_capacity(cs) == pytest.approx(r * math.sin(alpha / 4), rel=1e-12)


def test_closed_form_rejects_junk():
    with pytest.raises(ValueError):
        capacity_closed_form(("segment", 0, 1))


def test_capacity_scaling_laws():
    # the preimage of a capacity-c set under a monic degree-d map has
    # capacity c^(1/d): [-4, 4] (c = 2) under x^2 - 6 is +-[sqrt 2, sqrt 10]
    pair = make_interval_union([(-math.sqrt(10), -math.sqrt(2)), (math.sqrt(2), math.sqrt(10))])
    assert capacity(pair).value == pytest.approx(math.sqrt(2), rel=1e-12)


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
    assert all(any(a - 1e-9 <= x <= b + 1e-9 for a, b in E.bands) for x in pts)


@pytest.mark.parametrize("n", [*range(3, 13), 16, 32, 64])
def test_fekete_interval_is_legendre(n):
    # on [-2, 2]: the ends and twice the roots of P'_{n-1} (the Gauss-Lobatto
    # points), to 1e-14 of the half-width
    exact = np.concatenate([[-2.0], 2.0 * Legendre.basis(n - 1).deriv().roots(), [2.0]])
    assert np.max(np.abs(fekete_points(I22, n) - exact)) <= 2e-14


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


@st.composite
def _band_unions(draw):
    """1-4 bands with ends on a grid of 1/1000, scaled by 10^-300..10^300
    and shifted by up to three times the scale."""
    k = draw(st.integers(1, 4))
    ends = sorted(draw(st.lists(st.integers(0, 1000), min_size=2 * k, max_size=2 * k,
                                unique=True)))
    scale, shift = 10.0 ** draw(st.integers(-300, 300)), draw(st.integers(-3000, 3000))
    return [(scale * ((a + shift) / 1000), scale * ((b + shift) / 1000))
            for a, b in zip(ends[::2], ends[1::2])]


@settings(max_examples=40, deadline=None)
@given(_band_unions(), st.integers(2, 12))
@example([(-1.0, -0.99), (0.99, 1.0)], 12)
def test_fekete_points_are_stationary_inside_the_bands(bands, n):
    # the linear ascent stopped 1.3e-6 off on the example, after its 80 sweeps
    _assert_stationary(bands, n, 1e-8)


def _assert_stationary(bands, n, tol):
    """Every Fekete point lies in E, and a point inside a band is a critical
    point of the log product in its own coordinate, to tol of the sum of the
    sizes of its terms."""
    E = make_interval_union(bands)
    x = fekete_points(E, n)
    assert all(any(a <= v <= b for a, b in E.bands) for v in x)
    inside = np.array([any(a < v < b for a, b in E.bands) for v in x])
    d = x[:, None] - x[None, :]
    np.fill_diagonal(d, np.inf)
    g, size = (1.0 / d).sum(axis=1), np.abs(1.0 / d).sum(axis=1)
    assert np.all(np.abs(g[inside]) <= tol * size[inside])


def test_fekete_ascent_budget(monkeypatch):
    # one _critical_points call per point and sweep: [-2, 2] at n = 6 took
    # 21 sweeps (126 calls) while the ascent converged linearly
    calls = []
    inner = capell.capacity._critical_points

    def counted(roots):
        calls.append(len(roots))
        return inner(roots)

    monkeypatch.setattr(capell.capacity, "_critical_points", counted)
    fekete_points(I22, 6)
    assert len(calls) <= 42


def _choice_starts(E, n, seed):
    """The 20 starts as Generator.choice with band-length weights and
    Generator.random drew them, start by start, on E mapped onto [-1, 1]."""
    mid, half = _unit_map(*E.hull)
    bands = (np.asarray(E.bands, dtype=float) - mid) / half
    rng = np.random.default_rng(seed)
    lengths = bands[:, 1] - bands[:, 0]
    weights = lengths / lengths.sum()
    starts = []
    for _ in range(20):
        j = rng.choice(len(bands), size=n, p=weights)
        starts.append(bands[j, 0] + rng.random(n) * lengths[j])
    return np.array(starts)


@pytest.mark.parametrize("bands", [[(-2.0, 2.0)], [(0.0, 1.0), (2.0, 3.0)],
                                   [(0.0, 1.0), (1.5, 2.0), (3.0, 4.0)]])
@pytest.mark.parametrize("n", [2, 6, 13])
def test_fekete_start_stream_is_pinned(monkeypatch, bands, n):
    # one draw of 20 x 2 x n uniforms gives the choice-and-random starts bit
    # for bit, so every seed keeps its result
    seen = []
    inner = capell.capacity._polish_coordinates

    def captured(b, y):
        seen.append(y.copy())
        return inner(b, y)

    monkeypatch.setattr(capell.capacity, "_polish_coordinates", captured)
    E = make_interval_union(bands)
    for seed in range(5):
        fekete_points(E, n, seed=seed)
        assert seen[-1].tobytes() == _choice_starts(E, n, seed).tobytes()


@pytest.mark.parametrize("m", [1, 2, 6, 13, 64])
def test_unit_basis_is_cached_read_only_and_exact(m):
    q = capell.capacity._unit_basis(m)
    assert q is capell.capacity._unit_basis(m)
    with pytest.raises(ValueError):
        q[..., :1] = 0.0
    # the per-row formula of unit weights, every row bit for bit
    v = np.ones((3, m))
    v = v / np.linalg.norm(v, axis=-1, keepdims=True)
    u = v.copy()
    u[..., 0] += 1.0
    want = np.eye(m)[:, 1:] - u[..., :, None] * (v[..., None, 1:] / u[..., None, :1])
    assert all(row.tobytes() == q.tobytes() for row in want)


@pytest.mark.parametrize("bands", [[(-1.0, 1.0)], PAIR.bands,
                                   [(0.0, 1.0), (1.5, 2.0), (3.0, 4.0)],
                                   [(-1.0, -0.5), (0.0, 0.2), (0.7, 1.0), (1.3, 2.0)],
                                   [(-1.0, -0.99), (0.99, 1.0)]])
def test_fekete_points_follow_the_band_integral_measure(bands):
    # the transfinite-diameter route against the band-integral route: the
    # Kolmogorov distance of n Fekete points to mu_E is at most 2/n
    E = make_interval_union(bands)
    ns = (16, 32, 64)
    ks = convergence_report([fekete_points(E, n) for n in ns], BandDensity(solve_R(E)))
    assert all(n * k <= 2.0 for n, k in zip(ns, ks)), [n * k for n, k in zip(ns, ks)]


def test_fekete_no_convergence_raises(monkeypatch):
    # one sweep cannot confirm a random start
    monkeypatch.setattr(capell.capacity, "_FEKETE_SWEEPS", 1)
    with pytest.raises(QuadratureError, match="Fekete ascent: no convergence in 1 sweeps"):
        fekete_points(make_interval_union([(-1.0, -0.99), (0.99, 1.0)]), 12)


NARROW = [(-1.0, -0.99), (0.99, 1.0)]
CANTOR2 = [(0.0, 1 / 9), (2 / 9, 1 / 3), (2 / 3, 7 / 9), (8 / 9, 1.0)]


@pytest.mark.parametrize("bands, n", [(NARROW, 24), (NARROW, 32), (NARROW, 64), (CANTOR2, 64)])
def test_fekete_points_are_stationary_past_twelve(bands, n):
    # the monomial-basis critical points stopped the narrow pair from n = 24
    _assert_stationary(bands, n, 1e-12)


@pytest.mark.parametrize("bands", [[(0.0, 1.0), (2.0, 3.0)],
                                   [(-2.8284271247, -1.4142135624), (1.4142135624, 2.8284271247)],
                                   CANTOR2])
@pytest.mark.parametrize("n", [5, 7, 9])
def test_fekete_mirror_images_tie_to_the_lower_sum(bands, n):
    # at odd n a symmetric union has two mirror-image configurations with the
    # same product; every seed returns the one whose points sum lowest
    E = make_interval_union(bands)
    centre, width = 0.5 * (E.hull[0] + E.hull[1]), E.hull[1] - E.hull[0]
    first = fekete_points(E, n, seed=0)
    assert np.sum(first - centre) < -0.01 * width
    for seed in range(1, 5):
        assert np.max(np.abs(fekete_points(E, n, seed=seed) - first)) <= 1e-13 * width


def _secular_root(y, w, lo, hi):
    """The root of sum w/(x - y) in (lo, hi) by 50-digit bisection; the sum
    falls from +inf to -inf there."""
    with mpmath.workdps(50):
        lo, hi = mpmath.mpf(lo), mpmath.mpf(hi)
        for _ in range(60):
            mid = (lo + hi) / 2
            if sum(mpmath.mpf(b) / (mid - mpmath.mpf(a)) for a, b in zip(y, w)) > 0:
                lo = mid
            else:
                hi = mid
        return float(lo)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 11), st.integers(1, 3), st.integers(0, 2**32 - 1), st.booleans(),
       st.booleans())
def test_critical_points_match_an_mpmath_reference(k, rows, seed, weighted, repeat):
    # row by row, the roots of sum w/(x - y) interlace the sorted points and
    # lie within 1e-14 of a 50-digit bisection root; a repeated point is a root
    rng = np.random.default_rng(seed)
    y = rng.uniform(-1.0, 1.0, (rows, k))
    y[:, 0] = rng.choice([-1.0, -0.0, 0.0, 1.0, y[0, 0]])
    if repeat and k > 1:
        y[:, -1] = y[:, 0]
    w = rng.uniform(1e-3, 1.0, (rows, k)) if weighted else None
    got = _critical_points(y, w)
    assert got.shape == (rows, k - 1)
    for r, wr, g in zip(y, np.ones_like(y) if w is None else w, got):
        order = np.argsort(r)
        ys, ws = r[order], wr[order]
        assert np.all((ys[:-1] <= g) & (g <= ys[1:]))
        want = [lo if lo == hi else _secular_root(ys, ws, lo, hi)
                for lo, hi in zip(ys[:-1], ys[1:])]
        assert np.max(np.abs(g - want), initial=0.0) <= 1e-14
        if repeat and k > 1:
            assert np.min(np.abs(g - r[0])) <= 1e-14


# -- Chebyshev / Remez -------------------------------------------------------------


def _assert_bracket(t_n, lower, exact):
    """lower <= exact <= t_n up to rounding, and the bracket within 1e-12 relative."""
    assert 0.0 <= t_n - lower <= 1e-12 * t_n
    assert lower <= exact * (1 + 1e-12) and t_n >= exact * (1 - 1e-12)


def test_chebyshev_norm_interval():
    # 2 T_n(x/2) is the monic minimax polynomial on [-2, 2]
    for n in (2, 5):
        _assert_bracket(*chebyshev_constant(I22, n), 2.0)


def test_chebyshev_degree_one_midpoint():
    # x - 2 on [0, 4]
    _assert_bracket(*chebyshev_constant(make_interval_union([(0, 4)]), 1), 2.0)


def test_chebyshev_union_degree_one():
    t1, _ = chebyshev_constant(make_interval_union([(0, 1), (2, 3)]), 1)
    assert t1 == pytest.approx(1.5, rel=1e-10)


def test_chebyshev_norm_dominates_capacity():
    E = make_interval_union([(0, 1), (2, 3)])
    cap = capacity(E, method="abel_integral").value
    for n in (2, 4, 8):
        t_n, _ = chebyshev_constant(E, n)
        assert t_n ** (1.0 / n) >= cap - 1e-9


@pytest.mark.parametrize("n", [*range(2, 17, 2), 24, 32, 48, 64, 96, 128])
def test_chebyshev_pair_is_exact(n):
    # x^2 maps the pair onto [2, 8], so t_n = 2 ((8 - 2)/4)^(n/2)
    t_n, lower = chebyshev_constant(PAIR, n)
    assert t_n == pytest.approx(2.0 * 1.5 ** (n / 2), rel=1e-12)
    _assert_bracket(t_n, lower, 2.0 * 1.5 ** (n / 2))


def _pell_bands(roots, M):
    """Bands of {|P| <= M} for P with the given roots, each end the float
    nearest a root of P -+ M (two Newton steps in exact arithmetic)."""
    cs = [Fraction(1)]
    for x0 in map(Fraction, roots):  # multiply by (x - x0)
        cs = [Fraction(0)] + cs
        for k in range(len(cs) - 1):
            cs[k] -= x0 * cs[k + 1]
    P = Polynomial([float(c) for c in cs])
    ends = []
    for level in (M, -M):
        for x in (P - level).roots().real:
            x = Fraction(x)
            for _ in range(2):
                val = sum(c * x**k for k, c in enumerate(cs)) - Fraction(level)
                x -= val / sum(k * c * x ** (k - 1) for k, c in enumerate(cs) if k)
            ends.append(float(x))
    ends.sort()
    return make_interval_union(list(zip(ends[::2], ends[1::2])))


@pytest.mark.parametrize("roots", [(0.0, 1.7), (0.0, 1.6, 3.3), (-2.5, -0.8, 0.9, 2.6)],
                         ids=["r2", "r3", "r4"])
@pytest.mark.parametrize("n", range(16, 65, 8))
def test_chebyshev_pell_unions(roots, n):
    # E = P^-1([-M, M]) has cap (M/2)^(1/r) and t_n(E) >= 2 cap^n, with
    # equality at n = kr, where 2 (M/2)^k T_k(P/M) is extremal
    r = len(roots)
    P = Polynomial.fromroots(roots)
    M = 0.65 * np.min(np.abs(P(P.deriv().roots())))
    t_n, lower = chebyshev_constant(_pell_bands(roots, M), n)
    low = 2.0 * (M / 2.0) ** (n / r)
    if n % r == 0:
        _assert_bracket(t_n, lower, low)
    else:
        assert 0.0 <= t_n - lower <= 1e-12 * t_n and t_n >= low * (1 - 1e-12)


@pytest.mark.parametrize("s", [1e-3, 0.1, 10.0])
@pytest.mark.parametrize("n", [4, 8, 12, 16])
def test_chebyshev_scales_as_s_to_the_n(s, n):
    bands = [(0.0, 1.0), (1.5, 3.0)]
    t_n, _ = chebyshev_constant(make_interval_union(bands), n)
    t_sn, _ = chebyshev_constant(make_interval_union([(s * u, s * v) for u, v in bands]), n)
    assert t_sn == pytest.approx(s**n * t_n, rel=1e-12, abs=0.0)


@settings(max_examples=100, deadline=None)
@given(st.floats(0.05, 0.95), st.floats(0.01, 100.0), st.integers(1, 8))
def test_chebyshev_symmetric_pairs_exact(ratio, b, half_n):
    # the exchange closes its bracket on every pair, around the exact value
    a, n = ratio * b, 2 * half_n
    t_n, lower = chebyshev_constant(make_interval_union([(-b, -a), (a, b)]), n)
    assert 0.0 <= t_n - lower <= 1e-12 * t_n
    assert t_n == pytest.approx(2.0 * ((b * b - a * a) / 4.0) ** half_n, rel=1e-11, abs=0.0)


# Unions of perfbench's cap-routes shape family (CapRoutes.instance drawn
# from random.Random(32), the first eight of two to four bands), with t_16,
# t_24 and t_32 as chebyshev_constant computed them when it found the
# critical points from one Chebyshev series per band and its companion
# eigenvalues.
REMEZ_REFERENCE = [
    ([[-0.02504972482270033, 0.6756857253182561], [1.9672011253860213, 2.667936575526978]],
     [0.00044028606819407356, 6.53262031855314e-06, 9.692591092289474e-08]),
    ([[0.3508022951666146, 0.9337714763944724], [2.067885728138035, 3.2184541814588514],
      [4.414434907148795, 4.982034179241748]],
     [7.2752763311362365, 6.5105582913307005, 17.617989547412005]),
    ([[-6.030429432774318, -5.786335010472153], [-4.279597599126802, -3.508256091291314],
      [-2.422150899010155, -1.659732856582697], [-0.09507696825818894, 0.1400939886359432]],
     [118.02876919686038, 906.7066890427394, 6965.395179057411]),
    ([[-3.5435387772555065, -2.8302912164465397], [-1.7207080343983159, -1.0074604735893486]],
     [0.00024913984063154766, 2.7806720759205227e-06, 3.103533009496062e-08]),
    ([[-4.84353652673066, -4.346836117071013], [-3.203100836896168, -2.211566023827048],
      [-1.0597787017724283, -0.5649442983629588]],
     [1.6526377012855118, 0.6658663518367378, 0.8891867846716044]),
    ([[-5.268737308342814, -5.003451741222122], [-3.4082958003082005, -2.572184035531529],
      [-1.412831862368188, -0.5755842138065964], [1.0125103978950258, 1.2789318488006314]],
     [350.0669987862945, 4631.394323931002, 61273.45181956211]),
    ([[-2.9757505788765277, -2.257692723374558], [-0.9907616129936153, -0.2727037574916455]],
     [0.0005198647162490815, 8.381476193649193e-06, 1.3512966160037161e-07]),
    ([[-2.7779526351797523, -2.2345082243178225], [-0.9914441772783376, 0.08884480663009682],
      [1.3604715959642657, 1.8973161690107712]],
     [6.762846645049701, 5.499008305994292, 14.876296145251377]),
]


@pytest.mark.parametrize("bands, t_n", REMEZ_REFERENCE)
def test_chebyshev_matches_the_per_band_series(bands, t_n):
    E = make_interval_union(bands)
    for n, want in zip((16, 24, 32), t_n, strict=True):
        got, lower = chebyshev_constant(E, n)
        assert 0.0 <= got - lower <= 1e-12 * got
        assert got == pytest.approx(want, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("bands,n", [([(0.0, 1e-5)], 64), ([(-1e300, 1e300)], 4)])
def test_chebyshev_outside_float_range_raises(bands, n):
    with pytest.raises(QuadratureError, match="outside the float range"):
        chebyshev_constant(make_interval_union(bands), n)


# -- dispatcher ---------------------------------------------------------------------


def test_capacity_dispatcher_routes():
    r = capacity(I22, method="closed_form")
    assert r.value == 1.0 and r.method == "closed_form"

    r = capacity(I22, method="abel_integral")
    assert r.value == pytest.approx(1.0, abs=1e-8)

    r = capacity(I22, method="chebyshev", n=64)
    assert r.value == pytest.approx(1.0, abs=1e-3)
    assert r.diagnostics["t_n"] == pytest.approx(2.0, rel=1e-9)
    assert 0.0 <= r.diagnostics["t_n"] - r.diagnostics["t_n_lower"] <= 1e-12 * 2.0

    r = capacity(I22, method="fekete", n=6)
    assert r.value >= 1.0
    assert r.diagnostics["d_n"] == sorted(r.diagnostics["d_n"], reverse=True)


def test_capacity_closed_form_pair_detection():
    r = capacity(PAIR, method="closed_form")
    assert r.value == pytest.approx(0.5 * math.sqrt(6), rel=1e-12)


def test_capacity_unknown_method():
    with pytest.raises(ValueError):
        capacity(I22, method="magic")


# -- pullbacks ---------------------------------------------------------------------


def test_arcsine_is_pullback_fixed_point():
    # f = x^2 - c maps E = f^-1([-M, M]) two-to-one onto [-M, M], and E's
    # equilibrium density is nu(f(x)) |f'(x)| / 2, nu the arcsine law on
    # [-M, M]: at c = M = 2, E = [-2, 2] and nu is a fixed point
    for c, M in ((2.0, 2.0), (6.0, 4.0)):
        lo, hi = math.sqrt(c - M), math.sqrt(c + M)
        E = make_interval_union([(-hi, -lo), (lo, hi)] if lo else [(-hi, hi)])
        mu = BandDensity(solve_R(E))
        xs = np.concatenate([np.linspace(-hi, -lo, 23)[1:-1], np.linspace(lo, hi, 23)[1:-1]])
        fx = xs * xs - c
        want = np.abs(2 * xs) / (2 * math.pi * np.sqrt(M * M - fx * fx))
        assert np.allclose(mu.density(xs), want, rtol=1e-10, atol=0)


def test_pullback_energy_halving():
    # the pullback of [-4, 4]'s equilibrium measure by x^2 - 6 is that of
    # +-[sqrt 2, sqrt 10], and its energy, log cap, is half of log 2
    mu = BandDensity(solve_R(make_interval_union([(-4.0, 4.0)])))
    nu = BandDensity(solve_R(make_interval_union(
        [(-math.sqrt(10), -math.sqrt(2)), (math.sqrt(2), math.sqrt(10))])))
    assert mu.energy() == pytest.approx(math.log(2.0), abs=1e-13)
    assert nu.energy() == pytest.approx(mu.energy() / 2.0, abs=1e-13)
