import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from capell.abel import BandDensity, solve_R
from capell.core import ExactPoly, NonSquarefreeError, isolate_real_roots, make_interval_union
from capell import weil
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
        if len(isolate_real_roots(p)) != p.degree:
            return False
    except NonSquarefreeError:
        return False
    Pe, Po = _even_odd_parts(p)
    G = (Pe * Pe - X * Po * Po) * (-1) ** p.degree
    bound = Fraction(4 * q)
    return G.count_roots(bound, bound + 1 + max(abs(c) for c in G.coeffs)) == 0


def _window_decision(p, q):
    try:
        _all_roots_real_in_window(p, q)
        return True
    except ValueError:
        return False


# an int e stands for the factor X^2 - (4q + e): roots exactly on +-2 sqrt(q)
# (rational for a square q), inside it (within 1/8 for q >= 5) or outside
_FACTORS = st.sampled_from([None, X**2 + 1, X**2 - 2, 0, -1, 1])


def _chain_input(roots, factor, repeat, shift, q):
    p = poly_from_int_roots(roots)
    if isinstance(factor, int):
        factor = X**2 - (4 * q + factor)
    if factor is not None:
        p = p * factor
    if repeat:
        p = p * (X - roots[0])
    if shift:
        p = p + 1
    return p


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(min_value=-7, max_value=7), min_size=1, max_size=6),
       _FACTORS, st.booleans(), st.booleans(), st.integers(min_value=1, max_value=9))
def test_chain_decision_matches_isolation(roots, factor, repeat, shift, q):
    p = _chain_input(roots, factor, repeat, shift, q)
    assert _window_decision(p, q) == _accepted_by_isolation(p, q)


class _ChainCalled(Exception):
    pass


def _no_chain(self):
    raise _ChainCalled


_EDGE_ROOTS = st.builds(Fraction, st.integers(-400, 400), st.sampled_from([1, 7, 64]))


@settings(max_examples=200, deadline=None)
@given(st.one_of(st.lists(st.integers(min_value=-7, max_value=7), min_size=1, max_size=6),
                 st.lists(_EDGE_ROOTS, min_size=1, max_size=5)),
       _FACTORS, st.booleans(), st.booleans(), st.integers(min_value=1, max_value=9))
def test_seeded_certificate_accepts_only_what_isolation_accepts(roots, factor, repeat,
                                                                shift, q):
    # with the Sturm chain unavailable only the seeded signs can accept
    p = _chain_input(roots, factor, repeat, shift, q)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ExactPoly, "sturm_chain", _no_chain)
        try:
            seeded = _window_decision(p, q)
        except _ChainCalled:
            seeded = False
    assert not seeded or _accepted_by_isolation(p, q)


def _weil_lift_inputs(count, seed):
    """Degree-16 Robinson outputs of X^2 + aX + b with M = 4, 6 or 8, as the
    weil-lift benchmark draws them: for even M, P_8 = lam^8 C_8(P/lam) from
    P_(k+1) = P P_k - lam^2 P_(k-1), and q just above B^2/4 for B the largest
    |end| of {|P| <= M}."""
    rng = random.Random(seed)
    out = []
    for i in range(count):
        M = (4, 6, 8)[i % 3]
        a = rng.randint(-6, 6)
        b = rng.randint(math.ceil(a * a / 4 - M) - 7, math.ceil(a * a / 4 - M) - 1)
        P = ExactPoly([b, a, 1])
        prev, cur = ExactPoly([2]), P
        for _ in range(7):
            prev, cur = cur, P * cur - (M // 2) ** 2 * prev
        B = max(abs(-a + s * math.sqrt(a * a - 4 * (b - M))) / 2 for s in (-1, 1))
        out.append((cur, math.floor(B * B / 4) + 1 + rng.randint(0, 2)))
    return out


def test_seeded_window_needs_no_chain(monkeypatch):
    monkeypatch.setattr(ExactPoly, "sturm_chain", _no_chain)
    for P_I, q in _weil_lift_inputs(40, 1):
        assert P_I.degree == 16
        out = weil_lift(P_I, q)
        assert out.degree == 32 and pushforward_check(out, P_I, q)


def _count_calls(monkeypatch, owner, name):
    calls = []
    fn = getattr(owner, name)
    monkeypatch.setattr(owner, name, lambda *a: calls.append(name) or fn(*a))
    return calls


def test_own_chain_decides_beyond_the_float_range(monkeypatch):
    # the float roots overflow, so the seeds fail; the count over
    # [-w, w] on p's own chain reaches d and G is never built
    chains = _count_calls(monkeypatch, ExactPoly, "sturm_chain")
    parts = _count_calls(monkeypatch, weil, "_even_odd_parts")
    P_I = poly_from_int_roots([-10**400, 10**399, 10**400])
    q = 10**800
    assert weil._float_roots(P_I) is None
    out = weil_lift(P_I, q)
    assert len(chains) == 1 and not parts
    assert pushforward_check(out, P_I, q)
    with pytest.raises(ValueError, match="only 1 of 3"):
        _all_roots_real_in_window((X - 10**400) * (X**2 + 10**800), q)
    assert len(chains) == 2 and not parts


@pytest.mark.parametrize("q", [2, 4, 5, 7, 9])
def test_window_on_the_squares_decides_at_the_edge(monkeypatch, q):
    # roots exactly on +-2 sqrt(q): the seeds fail, and G accepts where the
    # count over [-w, w] falls short, which is for a non-square q (for a
    # square q, w = 2 sqrt(q) and that count holds both roots); just
    # outside, G rejects
    parts = _count_calls(monkeypatch, weil, "_even_odd_parts")
    assert weil_lift(X**2 - 4 * q, q) == ExactPoly([q * q, 0, -2 * q, 0, 1])
    on_squares = math.isqrt(q) ** 2 != q
    assert len(parts) == on_squares
    with pytest.raises(ValueError, match="outside"):
        weil_lift(X**2 - (4 * q + 1), q)
    assert len(parts) == on_squares + 1


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


def _pushforward_by_fractions(P_C, P_I, q):
    """pushforward_check's decision in Fractions: P_C(x) against x^d P_I(x + q/x)."""
    d = P_I.degree
    return P_C.degree == 2 * d and all(
        P_C(x) == x**d * P_I(Fraction(x * x + q, x)) for x in range(1, 2 * d + 2))


def _compose(P_I, q):
    """X^d P_I(X + q/X) for rational P_I, term by term."""
    d, t, out = P_I.degree, X * X + q, ExactPoly([0])
    for k, c in enumerate(P_I.coeffs):
        term = ExactPoly([c])
        for _ in range(k):
            term = term * t
        for _ in range(d - k):
            term = term * X
        out = out + term
    return out


_RATIONALS = st.builds(Fraction, st.integers(-30, 30), st.sampled_from([1, 1, 2, 3, 7]))


@settings(max_examples=80, deadline=None)
@given(st.lists(_RATIONALS, min_size=1, max_size=7), st.integers(1, 9),
       st.integers(0, 20), st.sampled_from([-1, 1]), st.lists(_RATIONALS, max_size=15))
def test_pushforward_check_matches_the_fraction_form(cs, q, k, delta, other):
    # integer and rational inputs alike: the exact composition passes, the
    # same with one coefficient off by 1 fails, and on an unrelated P_C the
    # integer decision is the Fraction one
    P_I = ExactPoly([*cs, 1 + len(cs)])
    P_C = _compose(P_I, q)
    assert pushforward_check(P_C, P_I, q) and _pushforward_by_fractions(P_C, P_I, q)
    off = list(P_C.coeffs)
    off[k % len(off)] += delta
    off = ExactPoly(off)
    assert not pushforward_check(off, P_I, q) and not _pushforward_by_fractions(off, P_I, q)
    R = ExactPoly(other or [0])
    assert pushforward_check(R, P_I, q) == _pushforward_by_fractions(R, P_I, q)


def test_pushforward_check_rejects_each_coefficient_off_by_one():
    P_I = poly_from_int_roots([-2, -1, 0, 1, 3])
    lift = weil_lift(P_I, 3)
    assert pushforward_check(lift, P_I, 3)
    for k in range(len(lift.num)):
        for delta in (-1, 1):
            off = list(lift.num)
            off[k] += delta
            assert not pushforward_check(ExactPoly(off), P_I, 3)


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
