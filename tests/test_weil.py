import math
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from capell.abel import BandDensity, solve_R
from capell.core import ExactPoly, NonSquarefreeError, isolate_real_roots, make_interval_union
from capell.robinson import generate, preset_x2m6
from capell.weil import (
    CircleSet,
    _all_roots_real_in_window,
    _even_odd_parts,
    circle_capacity,
    pushforward_check,
    support_capacity_bound,
    weil_lift,
)

X = ExactPoly.x()


def poly_from_int_roots(roots):
    p = ExactPoly((Fraction(1),))
    for a in roots:
        p = p * ExactPoly.from_list([-a, 1])
    return p


# -- circle sets -------------------------------------------------------------------


def test_circle_set_validation():
    full = make_interval_union([(-2 * math.sqrt(2), 2 * math.sqrt(2))])
    cs = CircleSet(2, full)
    assert cs.radius == pytest.approx(math.sqrt(2))
    with pytest.raises(ValueError):
        CircleSet(1, full)
    with pytest.raises(ValueError):
        CircleSet(2, make_interval_union([(0.0, 3.0)]))  # 3 > 2 sqrt 2


def test_full_circle_capacity_is_radius():
    for q in (2, 3, 5):
        w = 2 * math.sqrt(q)
        cs = CircleSet(q, make_interval_union([(-w, w)]))
        assert circle_capacity(cs) == pytest.approx(math.sqrt(q), rel=1e-10)


def test_half_trace_capacity():
    # K = [0, 2 sqrt q] has cap sqrt(q)/2, so the preimage has
    # cap = q^(1/4) (sqrt(q)/2)^(1/2)
    q = 3
    cs = CircleSet(q, make_interval_union([(0.0, 2 * math.sqrt(q))]))
    want = q**0.25 * (math.sqrt(q) / 2.0) ** 0.5
    assert circle_capacity(cs) == pytest.approx(want, rel=1e-9)


def test_support_bound_full_vs_thin():
    q = 2
    w = 2 * math.sqrt(q)
    cap, bound, ok = support_capacity_bound(CircleSet(q, make_interval_union([(-w, w)])))
    assert bound == pytest.approx(2**0.25)
    assert ok and cap == pytest.approx(math.sqrt(2), rel=1e-10)
    cap2, bound2, ok2 = support_capacity_bound(
        CircleSet(q, make_interval_union([(2.0, 2.5)])))
    assert not ok2 and cap2 < bound2


# -- lifting -----------------------------------------------------------------------


def test_lift_quadratic():
    # roots +-sqrt5 lift pairwise: (X^2+2)^2 - 5 X^2 = X^4 - X^2 + 4
    out = weil_lift(ExactPoly.from_list([-5, 0, 1]), 2)
    assert out.coeffs == tuple(Fraction(c) for c in (4, 0, -1, 0, 1))


def test_lift_linear():
    assert weil_lift(ExactPoly.from_list([-1, 1]), 3).coeffs == tuple(
        Fraction(c) for c in (3, -1, 1))


def test_lift_boundary_roots_accepted():
    # +-2 sqrt 2 sit exactly on the window edge; the Sturm count handles them
    out = weil_lift(ExactPoly.from_list([-8, 0, 1]), 2)
    assert out.coeffs == tuple(Fraction(c) for c in (4, 0, -4, 0, 1))


def test_lift_rejections():
    with pytest.raises(ValueError):
        weil_lift(ExactPoly.from_list([-9, 0, 1]), 2)      # 3 > 2 sqrt 2
    with pytest.raises(ValueError):
        weil_lift(ExactPoly.from_list([1, -2, 1]), 3)      # (X-1)^2 repeated
    with pytest.raises(ValueError, match="repeated"):
        weil_lift((X**2 - 2) ** 2 * (X - 1), 3)            # gcd X^2 - 2, no rational root
    with pytest.raises(ValueError):
        weil_lift(ExactPoly.from_list([1, 0, 1]), 3)       # no real roots
    with pytest.raises(ValueError):
        weil_lift(ExactPoly.from_list([-2, 2]), 3)         # not monic
    with pytest.raises(ValueError):
        weil_lift(ExactPoly((Fraction(-1, 2), Fraction(1))), 3)
    with pytest.raises(ValueError):
        weil_lift(X, 0)


def _accepted_by_isolation(p, q):
    """The precondition decided by root isolation: d isolating intervals,
    and no squared root above 4q by the Sturm count of G."""
    try:
        if len(isolate_real_roots(p, refine=1e-6)) != p.degree:
            return False
    except NonSquarefreeError:
        return False
    Pe, Po = _even_odd_parts(p)
    G = (Pe * Pe - X * Po * Po) * (-1) ** p.degree
    bound = Fraction(4 * q)
    return G.count_roots(bound, bound + 1 + max(abs(c) for c in G.coeffs)) == 0


@settings(max_examples=150, deadline=None)
@given(st.lists(st.integers(min_value=-7, max_value=7), min_size=1, max_size=6),
       st.sampled_from([None, X**2 + 1, X**2 - 2]), st.booleans(),
       st.integers(min_value=1, max_value=9))
def test_chain_decision_matches_isolation(roots, factor, shift, q):
    p = poly_from_int_roots(roots)
    if factor is not None:
        p = p * factor
    if shift:
        p = p + 1
    try:
        _all_roots_real_in_window(p, q)
        accepted = True
    except ValueError:
        accepted = False
    assert accepted == _accepted_by_isolation(p, q)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=9), st.data())
def test_lift_equals_product_of_quadratics(q, data):
    window = [a for a in range(-6, 7) if a * a <= 4 * q]
    roots = data.draw(st.lists(st.sampled_from(window), min_size=1, unique=True))
    want = ExactPoly((Fraction(1),))
    for a in roots:
        want = want * ExactPoly.from_list([q, -a, 1])
    assert weil_lift(poly_from_int_roots(roots), q) == want


def test_lift_degree_128_gate():
    P_I, _, _ = generate(preset_x2m6(), 128)   # roots in [-sqrt 10, sqrt 10]
    t0 = time.perf_counter()
    out = weil_lift(P_I, 3)
    assert time.perf_counter() - t0 < 10.0
    assert out.degree == 256 and out.is_monic and out.is_integer
    assert pushforward_check(out, P_I, 3)


def test_pushforward_spot_check():
    P_I = ExactPoly.from_list([-5, 0, 1])
    assert pushforward_check(weil_lift(P_I, 2), P_I, 2)
    # wrong q: the same circle polynomial fails against q = 3
    assert not pushforward_check(weil_lift(P_I, 2), P_I, 3)


def test_lift_random_instances():
    rng = np.random.default_rng(7)
    interior = {2: [-2, -1, 1, 2], 3: [-3, -2, -1, 1, 2, 3],
                4: [-3, -2, -1, 1, 2, 3], 5: [-4, -3, -2, -1, 1, 2, 3, 4]}
    for _ in range(100):
        q = int(rng.choice([2, 3, 4, 5]))
        pool = interior[q] + [0]
        d = int(rng.integers(1, len(pool) + 1))
        roots = rng.choice(pool, size=d, replace=False)
        P_I = poly_from_int_roots(int(a) for a in roots)
        out = weil_lift(P_I, q)
        assert out.degree == 2 * d and out.is_monic and out.is_integer
        zs = np.roots([float(c) for c in out.coeffs[::-1]])
        assert np.max(np.abs(np.abs(zs) - math.sqrt(q))) <= 1e-10 * math.sqrt(q)
        assert pushforward_check(out, P_I, q)


# -- the energy transfer behind the capacity formula -------------------------------


def pair_energy(pts):
    d = np.abs(pts[:, None] - pts[None, :])
    np.fill_diagonal(d, 1.0)
    return float(np.sum(np.log(d))) / (len(pts) * len(pts))


def test_energy_doubles_under_trace():
    # sample the equilibrium measure of K = {|x^2 - 2| <= 1} inside [-2, 2],
    # lift each point to the unit circle (z + 1/z = x); the circle cloud's
    # pair energy is half the interval cloud's, which is the log form of
    # cap(lift) = cap(K)^(1/2) at radius 1
    K = make_interval_union([(-math.sqrt(3), -1.0), (1.0, math.sqrt(3))])
    mu = BandDensity(solve_R(K))
    N = 1200
    x = np.array([mu.quantile((i + 0.5) / N) for i in range(N)])
    pe_I = pair_energy(x.astype(complex))
    z = x / 2 + 1j * np.sqrt(1.0 - (x / 2) ** 2)
    pe_C = pair_energy(np.concatenate([z, np.conj(z)]))
    assert abs(pe_C - 0.5 * pe_I) < 3e-4
    # and the interval cloud itself sits near the true energy log cap(K)
    assert abs(pe_I - math.log(math.sqrt(0.5))) < 0.02
