import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.polynomial import Chebyshev, Polynomial

from capell import pellabel
from capell.abel import abel_capacity, solve_R
from capell.core import CertificationError, ExactPoly, make_interval_union
from capell.pellabel import (
    PellAbelDatum,
    certify_structure,
    construct_pa_polynomial,
    detect_pell_abel,
    rationalize,
)
from capell.robinson import preset_x2m5, preset_x2m6

I22 = make_interval_union([(-2, 2)])
PAIR = make_interval_union([(-math.sqrt(8), -math.sqrt(2)), (math.sqrt(2), math.sqrt(8))])


# -- detection --------------------------------------------------------------------


def test_detect_single_interval():
    d = solve_R(I22)
    assert list(d.omega) == [pytest.approx(1.0)]
    assert detect_pell_abel(d) == (1, [1])


def test_detect_symmetric_pair():
    d = solve_R(PAIR)
    assert detect_pell_abel(d) == (2, [1, 1])


def test_detect_asymmetric_union_is_none():
    # generic band masses are irrational; no denominator up to 64 works
    d = solve_R(make_interval_union([(0, 1), (2, 4)]))
    assert detect_pell_abel(d) is None


def test_detect_rejects_bad_denominator():
    d = solve_R(I22)
    with pytest.raises(ValueError):
        detect_pell_abel(d, max_denominator=0)


# -- synthesis --------------------------------------------------------------------


def test_construct_pair_recovers_x2_minus_5():
    d = solve_R(PAIR)
    pa = construct_pa_polynomial(d, 2)
    assert pa.r == 2 and pa.r_j == (1, 1)
    assert np.allclose(pa.P.coef, (-5.0, 0.0, 1.0), atol=1e-9)
    assert pa.M == pytest.approx(3.0, abs=1e-9)
    # the identity forces Q constant here
    assert pa.Q.degree() == 0
    assert pa.Q.coef[0] == pytest.approx(1.0, abs=1e-9)


def test_construct_degree_five_on_interval():
    pa = construct_pa_polynomial(solve_R(I22), 5)
    assert np.allclose(pa.P.coef, (0.0, 5.0, 0.0, -5.0, 0.0, 1.0), atol=1e-8)
    assert pa.M == pytest.approx(2.0, abs=1e-9)
    assert pa.r_j == (5,)


def test_construct_degree_one_is_identity_map():
    pa = construct_pa_polynomial(solve_R(I22), 1)
    assert np.allclose(pa.P.coef, (0.0, 1.0), atol=1e-10)
    assert pa.M == pytest.approx(2.0, abs=1e-10)


def test_construct_rejects_non_integral_degree():
    d = solve_R(PAIR)
    with pytest.raises(CertificationError):
        construct_pa_polynomial(d, 3)


def _rel(got: Polynomial, want: Polynomial) -> float:
    """Largest coefficient error over the largest coefficient of want."""
    return float(np.max(np.abs(got.coef - want.coef)) / np.max(np.abs(want.coef)))


@pytest.mark.parametrize("r", range(1, 22))
def test_construct_on_the_interval_is_the_chebyshev_pair(r):
    # on [-2, 2]: P = 2 T_r(x/2), Q = U_{r-1}(x/2) = T_r'(x/2)/r, M = 2
    pa = construct_pa_polynomial(solve_R(I22), r)
    half_x = 0.5 ** np.arange(r + 1)
    T = Chebyshev.basis(r).convert(kind=Polynomial)
    assert _rel(pa.P, Polynomial(2 * T.coef * half_x)) <= 1e-12
    assert _rel(pa.Q, Polynomial(T.deriv().coef / r * half_x[:r])) <= 1e-12
    assert pa.M == pytest.approx(2.0, rel=1e-14)


def _pell_union(P: Polynomial, M: float):
    """The bands of {|P| <= M}, P real-rooted with |critical values| > M."""
    ends = np.sort(np.concatenate([(P - M).roots(), (P + M).roots()]).real)
    return make_interval_union(list(zip(ends[::2], ends[1::2])))


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(1.6, 1.7), max_size=3), st.floats(1.2, 1.3),
       st.floats(-3.0, 3.0), st.floats(0.62, 0.68), st.sampled_from([1, 2]))
def test_construct_matches_the_composed_pair(gaps, scale, centre, frac, k):
    # P1 with roots spaced gaps * scale, M1 a fraction of its smallest critical
    # value; the degree k r pair on {|P1| <= M1} is 2 lam^k T_k(P1 / 2 lam),
    # lam = M1 / 2: P1 itself at k = 1, P1^2 - M1^2/2 at k = 2
    offsets = np.concatenate([[0.0], np.cumsum(gaps)])
    P1 = Polynomial.fromroots(centre + scale * (offsets - offsets[-1] / 2))
    crit = np.abs(P1(P1.deriv().roots().real))
    M1 = frac * (crit.min() if len(crit) else 4.0 * scale)
    P, M = (P1, M1) if k == 1 else (P1 * P1 - M1 * M1 / 2, M1 * M1 / 2)
    pa = construct_pa_polynomial(solve_R(_pell_union(P1, M1)), k * P1.degree())
    assert _rel(pa.P, P) <= 1e-10
    assert pa.M == pytest.approx(M, rel=1e-9)
    assert certify_structure(pa)["pass"]


@pytest.mark.parametrize("r", [0, -1])
def test_construct_rejects_nonpositive_degree(r):
    # bad input (ValueError), not a failed certificate at denominator r
    with pytest.raises(ValueError, match="r must be >= 1"):
        construct_pa_polynomial(solve_R(I22), r)


def test_datum_validation():
    pa = construct_pa_polynomial(solve_R(PAIR), 2)
    with pytest.raises(ValueError):
        PellAbelDatum(E=pa.E, P=pa.P, Q=pa.Q, D=pa.D, M=pa.M, r=2, r_j=(1, 2))
    with pytest.raises(ValueError):
        PellAbelDatum(E=pa.E, P=pa.P, Q=pa.Q, D=pa.D, M=-1.0, r=2, r_j=(1, 1))


# -- certification ----------------------------------------------------------------


def test_certify_structure_all_clauses():
    pa = construct_pa_polynomial(solve_R(PAIR), 2)
    rep = certify_structure(pa)
    M, gap = Fraction(pa.M), Fraction(1, 2**20)
    assert (rep["M_prime"], rep["M_double_prime"]) == (M * (1 - gap), M * (1 + gap))
    assert rep["counts"] == [1, 1]
    # |P| reaches M at E's ends, to rounding
    assert abs(rep["peak"] - 1) <= 1e-12
    assert rep["identity_residual"] < 1e-14
    assert rep["pass"]


@pytest.mark.parametrize("E,r", [(PAIR, 2), (I22, 5), (I22, 12), (PAIR, 6)])
def test_identity_residual_matches_the_polynomial_form(E, r):
    # the construct gate and the certificate's diagnostic: the same floats
    # as P^2 - D Q^2 - M^2 by numpy Polynomial arithmetic
    pa = construct_pa_polynomial(solve_R(E), r)
    ref = pa.P * pa.P - pa.D * (pa.Q * pa.Q) - pa.M * pa.M
    got = pellabel._identity_residual(pa.P.coef, pa.Q.coef, pa.D.coef, pa.M * pa.M)
    assert got == float(np.max(np.abs(ref.coef)))
    assert certify_structure(pa)["identity_residual"] == got / pa.M ** 2


def test_certify_structure_degree_five():
    # r_j = [5]: the four touches of the bands of {|P| <= M} open at M', and
    # |P| at them stays below M''
    rep = certify_structure(construct_pa_polynomial(solve_R(I22), 5))
    assert rep["pass"]
    assert rep["counts"] == [5]
    assert abs(rep["peak"] - 1) <= 1e-8


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(-20, 20), min_size=2, max_size=7),
       st.fractions(-3, 3, max_denominator=64), st.fractions(0, 2, max_denominator=64))
def test_abs_bound_holds_on_the_interval(cs, lo, width):
    # the bound is at least |P| at every point of [lo, hi], checked exactly
    # on a grid, and at most the sum of |P|'s Taylor coefficients about the
    # centre, times the half-width's powers
    P, hi = ExactPoly.from_list(cs), lo + width
    bound = pellabel._abs_bound(P, lo, hi)
    assert all(abs(P(lo + width * Fraction(i, 32))) <= bound for i in range(33))
    m, h = (lo + hi) / 2, width / 2
    taylor, f = [], P
    for k in range(P.degree + 1):
        taylor.append(abs(f(m)) / math.factorial(k) * h**k)
        f = ExactPoly([i * c for i, c in enumerate(f.coeffs)][1:])
    assert bound <= sum(taylor)


@pytest.mark.parametrize("excess,passes", [(0.0, True), (1e-5, False), (0.1, False)])
def test_certify_structure_bounds_p_between_the_inner_bands(excess, passes):
    # P = x^2 - c on E = [-2, 2] with r_j = [2] and P(+-2) = M: at c = M the
    # two bands of {|P| <= M} touch at 0, and above it |P(0)| = c overshoots
    # M inside E, though both bands of {|P| <= M'} lie in E with their outer
    # ends on E's
    M = 4 / (2 + excess)
    pa = PellAbelDatum(E=I22, P=Polynomial([M - 4, 0, 1]), Q=Polynomial([0, 1]),
                       D=Polynomial([-4, 0, 1]), M=M, r=2, r_j=(2,))
    rep = certify_structure(pa)
    assert rep["counts"] == [2]
    assert rep["peak"] == pytest.approx(max(1.0, (4 - M) / M), rel=1e-12)
    assert rep["pass"] is passes


# -- rationalization --------------------------------------------------------------


def test_rationalize_pair_is_exact():
    pa = construct_pa_polynomial(solve_R(PAIR), 2)
    pa2 = rationalize(pa, Fraction(5, 2))
    assert pa2.P.coeffs == (Fraction(-5), Fraction(0), Fraction(1))
    assert pa2.M == Fraction(5, 2)
    assert pa2.Q.coeffs == (Fraction(1),)
    assert pa2.r_j == (1, 1)
    # {|x^2 - 5| <= 5/2} = {5/2 <= x^2 <= 15/2}
    lo, hi = math.sqrt(2.5), math.sqrt(7.5)
    (a0, b0), (a1, b1) = pa2.E.bands
    assert (a0, b0) == (pytest.approx(-hi, abs=1e-9), pytest.approx(-lo, abs=1e-9))
    assert (a1, b1) == (pytest.approx(lo, abs=1e-9), pytest.approx(hi, abs=1e-9))


def test_rationalized_capacity_closed_form():
    # cap {|P| <= M'} = (M'/2)^(1/r) for monic P of degree r
    pa = construct_pa_polynomial(solve_R(PAIR), 2)
    cap = abel_capacity(solve_R(rationalize(pa, Fraction(5, 2)).E))
    assert cap == pytest.approx(math.sqrt(5) / 2, rel=1e-8)


def test_rationalized_datum_recertifies():
    pa = construct_pa_polynomial(solve_R(PAIR), 2)
    assert certify_structure(rationalize(pa, Fraction(5, 2)))["pass"]


def test_rationalize_rejects_large_target():
    pa = construct_pa_polynomial(solve_R(PAIR), 2)
    with pytest.raises(ValueError):
        rationalize(pa, Fraction(4))
    with pytest.raises(ValueError):
        rationalize(pa, 0)


def test_rationalize_interval_degree_two():
    # on [-2, 2] with r = 2 the synthesis gives x^2 - 2; any M' < 2 stays exact
    pa = construct_pa_polynomial(solve_R(I22), 2)
    pa2 = rationalize(pa, Fraction(3, 2))
    assert pa2.P.coeffs == (Fraction(-2), Fraction(0), Fraction(1))
    assert pa2.E.n_bands == 2
    assert abel_capacity(solve_R(pa2.E)) == pytest.approx(
        math.sqrt(3.0 / 4.0), rel=1e-8)


# -- the exact datum: E's ends from float seeds ------------------------------------


def _ends_by_mpmath(cs, M):
    """The real roots of P - M and P + M, ascending, to 50 digits."""
    with mpmath.workdps(50):
        M = mpmath.mpf(M.numerator) / M.denominator
        out = []
        for level in (M, -M):
            c = [mpmath.mpf(v) for v in cs[::-1]]
            c[-1] -= level
            rts = mpmath.polyroots(c, maxsteps=200, extraprec=200) if len(c) > 2 else [-c[1]]
            out += [mpmath.re(x) for x in rts]
        return sorted(out)


@st.composite
def _pell_problems(draw):
    """Monic integer P of degree 1-4 with integer roots 1 to 5 apart, plus a
    shift s for cubics (the robinson-cert shapes), and M below |P| at every
    critical point: an integer, or a dyadic rational 10^-d below the least
    critical value (near-touching bands)."""
    r = draw(st.integers(1, 4))
    roots = [draw(st.integers(-6, 6))]
    for _ in range(r - 1):
        roots.append(roots[-1] + draw(st.integers(1, 5)))
    P = Polynomial.fromroots(roots) + (draw(st.integers(-2, 2)) if r == 3 else 0)
    # the shift keeps P real-rooted while its critical values alternate in sign
    crit = P(np.sort(P.deriv().roots().real)) if r > 1 else np.array([40.0])
    assume(np.all(crit * (-1.0) ** np.arange(r - 1, 0, -1) > 0) or r == 1)
    top = float(np.abs(crit).min())
    if draw(st.booleans()) and top > 1.5:
        M = Fraction(draw(st.integers(1, max(1, math.ceil(top) - 1))))
    else:
        M = Fraction(top * (1 - 10.0 ** -draw(st.integers(3, 12))))
    assume(0 < M < top)
    return [int(round(c)) for c in P.coef], M


@settings(max_examples=60, deadline=None)
@given(_pell_problems())
def test_seeded_ends_are_correctly_rounded(problem):
    cs, M = problem
    pa = PellAbelDatum.from_exact(ExactPoly.from_list(cs), M)
    roots = _ends_by_mpmath(cs, M)
    assert pa.E.n_bands == len(cs) - 1
    assert list(pa.E.endpoints) == [float(x) for x in roots]
    # each mpf exactly as a rational: its unsigned mantissa times 2^exp
    exact = [(-1 if x < 0 else 1) * Fraction(int(x.man)) * Fraction(2) ** int(x.exp)
             for x in roots]
    assert pa.x_bound >= max(map(abs, exact))
    assert all(lo <= x <= hi for x, (lo, hi) in zip(exact, pa._cells))
    # seeds half the union's width off put every cell on one side of its
    # root: the Sturm fallback gives the same datum, cells and bound
    width = pa.E.hull[1] - pa.E.hull[0]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pellabel, "_seeds", lambda P, M: [x + width / 2 for x in pa.E.endpoints])
        assert pellabel._certified_ends(pa.D, pellabel._seeds(pa.P, pa.M)) is None
        again = PellAbelDatum.from_exact(ExactPoly.from_list(cs), M)
    assert again == pa
    assert (again._cells, again.x_bound) == (pa._cells, pa.x_bound)


@pytest.mark.parametrize("k", [1, 12, 100, 200, 300])
def test_fallback_ends_at_every_scale(k):
    # x^2 - 3 10^k, M = 10^k: the isolation window of P^2 - M^2 grows like
    # 10^(k/2) (from k = 154 a Cauchy window would leave the float range),
    # and the isolation's stop width must still be exact
    P = ExactPoly.from_list([-3 * 10**k, 0, 1])
    pa = PellAbelDatum.from_exact(P, 10**k)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pellabel, "_seeds", lambda P, M: [])
        again = PellAbelDatum.from_exact(P, 10**k)
    assert again == pa and again._cells == pa._cells
    lo, hi = pa._cells[-1]
    assert lo * lo < 4 * 10**k < hi * hi


def test_in_band_reads_the_end_cells():
    # P = x^2 + 6x, M = 5: P + 5 = (x + 1)(x + 5), so -5 ends band 0 and -1
    # starts band 1 exactly; a point at an end is placed only as a point of E
    pa = PellAbelDatum.from_exact(ExactPoly.from_list([0, 6, 1]), 5)
    assert pa.E.endpoints[1:3] == (-5.0, -1.0)
    assert pa.x_bound == max(abs(pa._cells[0][0]), abs(pa._cells[-1][1]))
    for x, band, in_E, inside in [(-5, 0, True, True), (-5, 0, False, False),
                                   (-5, 1, True, False), (-1, 1, True, True),
                                   (-6, 0, False, True), (-3, 0, False, False),
                                   (-3, 1, False, False), (0, 1, False, True)]:
        assert pa._in_band(band, Fraction(x), in_E=in_E) is inside


def test_seeded_ends_need_no_fallback_on_robinson_problems(monkeypatch):
    # the robinson-cert shapes certify every end from its polished seed
    calls = []
    isolate = pellabel.isolate_real_roots
    monkeypatch.setattr(pellabel, "isolate_real_roots", lambda D: calls.append(D) or isolate(D))
    for cs, M in [([-6, 0, 1], 4), ([-5, 0, 1], 3), ([1, -12, 0, 1], 5),
                  ([58, 32, -31, -2, 1], 5), ([-43, 59, -15, 1], 4), ([-782, 268, -29, 1], 6)]:
        PellAbelDatum.from_exact(ExactPoly.from_list(cs), M)
    assert calls == []


def test_fallback_builds_one_sturm_chain(monkeypatch):
    # x^2 - 5 at M = 5 - 10^-20: bands +-[1e-10, sqrt 10], whose inner ends
    # the seeds miss; isolation counts and narrows the roots on one chain
    chains = []
    sturm_chain = ExactPoly.sturm_chain
    monkeypatch.setattr(ExactPoly, "sturm_chain",
                        lambda self: chains.append(self) or sturm_chain(self))
    pa = PellAbelDatum.from_exact(ExactPoly.from_list([-5, 0, 1]),
                                  Fraction(499999999999999999999, 10**20))
    assert len(chains) == 1
    assert pa.E.endpoints == (-math.sqrt(10), -1e-10, 1e-10, math.sqrt(10))


def test_seeds_decide_with_no_sturm_chain(monkeypatch):
    # 2r disjoint cells, each with a strict sign change of D of degree 2r,
    # prove 2r simple real roots: the presets, and construct, certify and
    # rationalize on unions of the cap-routes shape, build no chain
    def no_chain(self):
        raise AssertionError("a Sturm chain was built")

    monkeypatch.setattr(ExactPoly, "sturm_chain", no_chain)
    assert preset_x2m6().pa.E.n_bands == preset_x2m5().pa.E.n_bands == 2
    for roots, M in [([0.3], 3.2), ([-1.0, 1.05], 0.68), ([-2.1, -0.05, 2.0], 2.15),
                     ([-3.1, -1.05, 1.0, 3.05], 6.45)]:
        pa = construct_pa_polynomial(solve_R(_pell_union(Polynomial.fromroots(roots), M)),
                                     len(roots))
        assert certify_structure(pa)["pass"]
        assert rationalize(pa, Fraction(M * 0.9)).r == len(roots)
    # several roots per band: the narrow gaps that M' opens take a second
    # Newton step on the seeds, not the chain
    for E, r in [(I22, 16), (I22, 21), (PAIR, 14)]:
        assert certify_structure(construct_pa_polynomial(solve_R(E), r))["pass"]


# -- cross-route: solve_R on Pell unions against the closed form ---------------------


def _composed_union(cs, M):
    """{|F| <= M} for F = f_1 o ... o f_m, f_i = x^2 - c_i (f_m applied
    first), and F's critical points, the preimages of 0 under
    f_{i+1} o ... o f_m for i < m and 0 itself."""
    K = [(-M, M)]
    for c in cs:
        K = sorted([(-math.sqrt(b + c), -math.sqrt(a + c)) for a, b in K]
                   + [(math.sqrt(a + c), math.sqrt(b + c)) for a, b in K])
    crit = [0.0]
    for i in range(1, len(cs)):
        level = [0.0]
        for c in cs[i:]:
            level = [s * math.sqrt(c + y) for y in level for s in (-1.0, 1.0)]
        crit += level
    return make_interval_union(K), np.sort(crit)


def _composed_cases():
    # c_i a ratio in [1.3, 1.6] of the current union's max |x|, as in the
    # cap-bands benchmark: 2 to 64 bands
    rng = np.random.default_rng(33)
    out = []
    for m in range(1, 7):
        M = float(rng.uniform(2.5, 6.0))
        cs, top = [], M
        for _ in range(m):
            c = top * float(rng.uniform(1.3, 1.6))
            cs.append(c)
            top = math.sqrt(top + c)
        E, crit = _composed_union(cs, M)
        out.append(pytest.param(E, crit, M, 2**m, id=f"composed-{2**m}"))
    return out


def _exact_cases():
    # the robinson-cert classes: r = 2, 3 and M = 4..7
    out = []
    for cs, M in [([-11, 5, 1], 4), ([-43, 59, -15, 1], 4), ([-12, 0, 1], 5),
                  ([-59, 76, -17, 1], 5), ([-10, 0, 1], 6), ([-782, 268, -29, 1], 6),
                  ([-17, 3, 1], 7), ([30, -11, -4, 1], 7)]:
        E = PellAbelDatum.from_exact(ExactPoly.from_list(cs), M).E
        crit = np.sort(Polynomial(cs).deriv().roots().real)
        out.append(pytest.param(E, crit, M, len(cs) - 1, id=f"P{cs}-M{M}"))
    return out


@pytest.mark.parametrize("E,crit,M,r", _exact_cases() + _composed_cases())
def test_solve_R_matches_the_closed_form_on_pell_unions(E, crit, M, r):
    # E = P^-1([-M, M]) with r bands: every band mass is 1/r, v(E) = log(M/2)/r,
    # and R is P' up to a constant, so the gap roots are P's critical points
    d = solve_R(E)
    assert E.n_bands == r
    assert np.max(np.abs(np.asarray(d.omega) - 1.0 / r)) <= 1e-12
    assert abs(d.vE - math.log(M / 2) / r) <= 1e-12
    gaps = np.asarray(E.endpoints[1:-1]).reshape(-1, 2)
    assert np.all(np.abs(np.asarray(d.gap_roots) - crit) <= 1e-10 * (gaps[:, 1] - gaps[:, 0]))
