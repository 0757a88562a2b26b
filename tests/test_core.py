import json
import math
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.polynomial import Polynomial

from capell.core import (
    CertificationError,
    ExactPoly,
    IntervalUnion,
    NonSquarefreeError,
    _cell,
    _level_roots,
    _root_bound,
    isolate_real_roots,
    make_interval_union,
)
from capell.cli import dump_problem, load_problem
from capell.robinson import preset_x2m5, preset_x2m6

X = ExactPoly.x()


def P(*coeffs):
    return ExactPoly.from_list(list(coeffs))


# -- exact polynomial arithmetic ---------------------------------------------


def test_mul_sub_oracle():
    assert ((X + 1) * (X - 1)).coeffs == P(-1, 0, 1).coeffs
    assert ((X**2 - 2) * (X**2 - 8)).coeffs == P(16, 0, -10, 0, 1).coeffs


def test_divmod_oracle():
    q, r = P(5, 2, 0, 1).divmod(P(1, 0, 1))  # X^3+2X+5 = X(X^2+1) + (X+5)
    assert q.coeffs == X.coeffs
    assert r.coeffs == P(5, 1).coeffs


def test_divmod_reconstructs_random():
    rng = np.random.default_rng(7)
    for _ in range(25):
        a = P(*rng.integers(-9, 10, size=rng.integers(2, 7)))
        b = P(*rng.integers(-9, 10, size=rng.integers(1, 4)))
        if b.is_zero:
            continue
        q, r = a.divmod(b)
        assert (b * q + r).coeffs == a.coeffs
        assert r.is_zero or r.degree < b.degree


def test_eval_matches_horner():
    rng = np.random.default_rng(3)
    for _ in range(20):
        f = P(*rng.integers(-5, 6, size=5))
        x = Fraction(int(rng.integers(-99, 100)), int(rng.integers(1, 20)))
        direct = sum(c * x**k for k, c in enumerate(f.coeffs))
        assert f(x) == direct


def test_from_list_rational_strings():
    f = ExactPoly.from_list(["3/2", "-1", 2])
    assert f.coeffs == (Fraction(3, 2), Fraction(-1), Fraction(2))
    assert not f.is_integer
    assert P(1, 0, 1).is_integer


def test_deriv():
    assert P(1, 2, 3).deriv().coeffs == P(2, 6).coeffs


# -- resultants ---------------------------------------------------------------


def test_resultant_oracles():
    # Res(f, g) for monic f is the product of g over the roots of f
    assert abs(P(-2, 1).resultant(P(-5, 1))) == 3
    assert (X**2 - 2).resultant(X**2 - 3) == 1
    shared = (X - 2) * (X + 5)
    assert shared.resultant((X - 2) * (X - 7)) == 0


def test_resultant_product_law_random():
    rng = np.random.default_rng(11)
    for _ in range(30):
        f = P(*rng.integers(-4, 5, size=3), 1)  # monic cubic
        g = P(*rng.integers(-4, 5, size=rng.integers(2, 4)))
        if g.is_zero:
            continue
        res = float(f.resultant(g))
        roots = np.roots([float(c) for c in f.coeffs[::-1]])
        prod = np.prod([g.to_real()(z) for z in roots]) * float(g.lead) ** 0
        prod = prod * float(f.lead) ** g.degree
        assert abs(res - prod.real) <= 1e-6 * max(1.0, abs(res))


# -- Sturm machinery -----------------------------------------------------------


def test_count_roots():
    f = X**3 - 2 * X  # roots -sqrt2, 0, sqrt2
    assert f.count_roots() == 3
    assert f.count_roots(Fraction(0), Fraction(2)) == 1
    assert f.count_roots(Fraction(-2), Fraction(0)) == 2  # (lo, hi] includes 0


def test_isolate_integer_roots():
    f = P(1)
    for k in range(1, 7):
        f = f * (X - k)
    iso = isolate_real_roots(f)
    assert len(iso) == 6
    for k, (lo, hi) in enumerate(iso, start=1):
        assert lo <= k <= hi
        assert hi - lo <= Fraction(1, 10**6)


def test_isolate_roots_on_bisection_grid():
    # roots landing exactly on dyadic split points must be emitted once,
    # not once as a degenerate interval and again in the left child
    f = P(1)
    for k in (-2, -1, 0, 1, 2, 3):
        f = f * (X - k)
    iso = isolate_real_roots(f)
    assert len(iso) == 6
    assert [(a, b) for a, b in iso] == [(k, k) for k in (-2, -1, 0, 1, 2, 3)]


def test_isolate_rejects_repeated_roots():
    with pytest.raises(CertificationError):
        isolate_real_roots((X - 1) * (X - 1))
    # the Sturm chain ends in gcd(p, p') = X^2 - 2, which has no rational root
    p = (X**2 - 2) ** 2 * (X - 1)
    assert p.sturm_chain()[-1].degree == 2
    with pytest.raises(NonSquarefreeError):
        isolate_real_roots(p)


def test_isolate_float_path():
    # isolation is exact only; a float polynomial is refused, not bisected
    with pytest.raises(TypeError):
        isolate_real_roots(Polynomial([-2.0, 0.0, 1.0]))


@settings(max_examples=150, deadline=None)
@given(st.lists(st.integers(min_value=-40, max_value=40), min_size=1, max_size=8),
       st.lists(st.sampled_from([s * 2**k for s in (1, -1) for k in range(7)]), max_size=3),
       st.booleans())
def test_root_bound_holds_every_root(roots, powers, shift):
    # with or without the shift every root has modulus strictly below 2^m, a
    # power of two at least Fujiwara's bound, so isolation may start from
    # (-2^m, 2^m]; roots at +-2^k come closest.  Exact for the real roots
    roots = roots + powers
    p = P(1)
    for a in roots:
        p = p * (X - a)
    if shift:
        p = p + 1
    bound = _root_bound(p)
    assert bound >= 1 and bound.denominator == 1 and bound.numerator & (bound.numerator - 1) == 0
    if not shift:
        assert max(abs(a) for a in roots) < bound
    assert p.sign_at(bound) and p.sign_at(-bound)
    assert p.count_roots(None, -bound) == p.count_roots(bound) == 0
    zs = np.roots([float(c) for c in p.coeffs[::-1]])
    assert np.all(np.abs(zs) <= float(bound) * (1 + 1e-9))


small_ints = st.integers(min_value=-20, max_value=20)
rationals = st.fractions(min_value=-8, max_value=8, max_denominator=64)


@settings(max_examples=200, deadline=None)
@given(st.lists(rationals, min_size=1, max_size=8),
       st.lists(st.floats(-10, 10), min_size=1, max_size=5))
def test_float_eval_matches_fraction_horner(coeffs, xs):
    # reference: Horner over the Fraction coefficients, where a float x makes
    # every step a float operation; to_real() must give the same bits
    p = ExactPoly(coeffs)

    def horner(x):
        acc = Fraction(0)
        for c in reversed(p.coeffs):
            acc = acc * x + c
        return acc

    ref = [horner(x) for x in xs]
    assert [p(x) for x in xs] == ref
    vals = p(np.array(xs))
    assert vals.dtype == float and vals.tolist() == ref


@settings(max_examples=200, deadline=None)
@given(st.lists(rationals, min_size=1, max_size=8), rationals,
       st.booleans())
def test_sign_at_matches_exact_evaluation(coeffs, x, root_at_x):
    p = ExactPoly(tuple(coeffs))
    if root_at_x:
        p = p * (X - P(x))
    v = p(x)
    assert p.sign_at(x) == (v > 0) - (v < 0)


def _root_at_half_bound(p):
    """p (x - s) for the first s = +-2^j that is half the product's own root
    bound B: a split point of isolation's second level.  Some s exists: any
    |s| >= _root_bound(p) with the sign of c_(d-1) / c_d gives B = 2 |s|."""
    for j in range(64):
        for s in (2**j, -2**j):
            if _root_bound(p * (X - s)) == 2 * abs(s):
                return p * (X - s)
    raise AssertionError(f"no root at half the bound for {p}")


@settings(max_examples=60, deadline=None)
@given(st.lists(small_ints, min_size=1, max_size=5),
       st.sampled_from([None, "first split", "half bound"]))
def test_isolation_intervals_hold_one_root(coeffs, mid_root):
    # a root at the first split point, 0, or at +-B/2 starts refinement from
    # a zero of p
    p = P(*coeffs) if coeffs[-1] else P(*coeffs, 1)
    if mid_root == "first split":
        p = p * X
    elif mid_root == "half bound":
        p = _root_at_half_bound(p)
    assume(p.degree >= 1 and p.sturm_chain()[-1].degree == 0)
    bound = _root_bound(p)
    iso = isolate_real_roots(p)
    assert len(iso) == p.count_roots()
    assert all(b0 <= a1 for (_, b0), (a1, _) in zip(iso, iso[1:]))
    points = {a for a, b in iso if a == b}
    for a, b in iso:
        assert -bound <= a <= b <= bound
        if a == b:
            assert p(a) == 0
            continue
        # roots in [a, b] that are not emitted as a point of their own
        k = p.count_roots(a, b) + (p(a) == 0) - (a in points) - (b in points)
        assert k == 1
        # narrowed to the float the root rounds to: inside that float's cell
        cell_lo, cell_hi = _cell(float((a + b) / 2))
        assert cell_lo <= a and b <= cell_hi


MAX = Fraction(sys.float_info.max)


@pytest.mark.parametrize("root,want", [
    (1 + Fraction(1, 2**53), 1.0),  # the tie between 1 and 1 + 2^-52: even
    (1 + Fraction(1, 2**53) + Fraction(1, 2**80), 1 + 2.0**-52),
    (1 + Fraction(1, 2**53) - Fraction(1, 2**80), 1.0),
    (Fraction(1, 3), 1 / 3),
    (MAX + 2**969, sys.float_info.max),
    (-MAX - 2**969, -sys.float_info.max),
    (MAX + 2**970 - Fraction(1, 3), sys.float_info.max),
    (3 * Fraction(1, 2**1070), 3 * 2.0**-1070),  # subnormal
    (Fraction(1, 3 * 2**1070), 5 * 2.0**-1074),  # 16/3 units of the least subnormal
])
def test_isolation_narrows_to_the_float_the_root_rounds_to(root, want):
    iso = isolate_real_roots(X - P(root))
    assert len(iso) == 1
    a, b = iso[0]
    assert a <= root <= b and float((a + b) / 2) == want == float(root)
    if a != b:
        cell_lo, cell_hi = _cell(want)
        assert cell_lo <= a and b <= cell_hi


@pytest.mark.parametrize("root", [Fraction(2**1100), MAX + 2**970, -MAX - 2**970,
                                  MAX + 2**970 + Fraction(1, 3)])
def test_isolation_past_the_float_range_ends_and_overflows(root):
    iso = isolate_real_roots(X - P(root))
    assert len(iso) == 1
    a, b = iso[0]
    assert a <= root <= b
    with pytest.raises(OverflowError):
        float((a + b) / 2)


_TIE = 1 + Fraction(1, 2**53)
_TIE_UP = 1 + Fraction(3, 2**53)  # rounds up to 1 + 2^-51


@pytest.mark.parametrize("t, r", [
    # splitting reaches (1, 1 + 2^-52] and emits t at its midpoint; the last
    # step's tie point on (t, 1 + 2^-52] is t itself, the tie between 1 and
    # 1 + 2^-52, and r, right of it, is not it
    (_TIE, 1 + Fraction(3, 2**54)),
    # splitting reaches (1 + 2^-52, 1 + 2^-51] and emits t at its midpoint;
    # the last step's tie point on (1 + 2^-52, t] is t itself, and r, left
    # of it, must not be lost
    (_TIE_UP, 1 + Fraction(5, 2**54)),
], ids=["split-left-end", "split-right-end"])
def test_isolation_next_to_a_root_at_a_tie_point(t, r):
    iso = isolate_real_roots((X - P(t)) * (X - P(r)))
    assert len(iso) == 2 and (t, t) in iso
    (a, b), = [ab for ab in iso if ab != (t, t)]
    assert a <= r <= b and float((a + b) / 2) == float(r) == 1 + 2.0**-52


# -- float level roots ------------------------------------------------------------

GOLDEN = Path(__file__).parent / "golden"


def _assert_level_roots_are_np_roots(p, levels):
    # row k against np.roots of p - levels[k], as multisets, bit for bit,
    # where p(0) - levels[k] is not 0 in floats (np.roots deflates a zero root)
    rows = _level_roots(p, levels)
    assert rows.shape == (len(levels), p.degree)
    c = p.to_real().coef[::-1]
    for row, level in zip(rows, levels, strict=True):
        if c[-1] - float(level) != 0:
            want = np.roots(np.r_[c[:-1], c[-1] - float(level)])
            assert np.sort(row.astype(complex)).tobytes() == np.sort(want.astype(complex)).tobytes()


@pytest.mark.parametrize("source", ["x2m6", "x2m5", "cubic_m5_problem.json",
                                    "near_touch_m5_problem.json", "quartic_m5_problem.json"])
def test_level_roots_are_np_roots(source):
    # the levels of robinson's certificate and seeds (M cos t), of the Pell
    # seeds (+-M) and of weil's window seeds (0)
    if source.startswith("x2m"):
        pa = (preset_x2m6 if source == "x2m6" else preset_x2m5)().pa
        p, M = pa.P, pa.M
    else:
        prob = load_problem(str(GOLDEN / source))
        p, M = ExactPoly(prob["coeffs"]), Fraction(prob["M"])
    angles = [math.pi * k / 32 for k in range(33)] + [math.pi * (2 * k + 1) / 64 for k in range(32)]
    _assert_level_roots_are_np_roots(p, [float(M) * math.cos(t) for t in angles] + [M, -M, 0])


@settings(max_examples=100, deadline=None)
@given(st.lists(rationals, min_size=1, max_size=8), st.lists(st.floats(-10, 10), max_size=4))
def test_level_roots_are_np_roots_for_random_monic_p(coeffs, levels):
    p = ExactPoly(coeffs + [1])
    assume(p.coeffs[0] != 0)
    _assert_level_roots_are_np_roots(p, [0.0, *levels])


def test_level_roots_outside_the_float_range():
    assert _level_roots(X**2 - 3 * 10**400, [0]) is None
    assert _level_roots(X**2 - 3, [10**400]) is None
    assert _level_roots(X**2 - 3, [Fraction(10**400), 1.0]) is None


# -- integer representation against a Fraction reference ------------------------


class RefPoly:
    """Dense polynomial with one Fraction per coefficient and the classical
    Sturm chain: the reference the integer-backed ExactPoly must match."""

    def __init__(self, coeffs):
        c = [Fraction(v) for v in coeffs] or [Fraction(0)]
        while len(c) > 1 and c[-1] == 0:
            c.pop()
        self.coeffs = tuple(c)

    @property
    def degree(self):
        return -1 if self.coeffs == (0,) else len(self.coeffs) - 1

    def __add__(self, other):
        n = max(len(self.coeffs), len(other.coeffs))
        a = list(self.coeffs) + [Fraction(0)] * (n - len(self.coeffs))
        b = list(other.coeffs) + [Fraction(0)] * (n - len(other.coeffs))
        return RefPoly([x + y for x, y in zip(a, b)])

    def __neg__(self):
        return RefPoly([-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return RefPoly(out)

    def divmod(self, other):
        num, den = list(self.coeffs), other.coeffs
        dn, dd = len(num) - 1, len(den) - 1
        if dn < dd:
            return RefPoly([0]), self
        q = [Fraction(0)] * (dn - dd + 1)
        for k in range(dn - dd, -1, -1):
            q[k] = num[k + dd] / den[-1]
            for i in range(dd + 1):
                num[k + i] -= q[k] * den[i]
        return RefPoly(q), RefPoly(num[:dd])

    def deriv(self):
        return RefPoly([k * c for k, c in enumerate(self.coeffs)][1:])

    def __call__(self, x):
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def sturm_chain(self):
        chain = [self, self.deriv()]
        while chain[-1].degree > 0:
            _, r = chain[-2].divmod(chain[-1])
            if r.degree < 0:
                break
            chain.append(-r)
        return [p for p in chain if p.degree >= 0]

    def sturm_count(self, lo, hi):
        chain = self.sturm_chain()

        def variations(x):
            signs = [s for s in ((v > 0) - (v < 0) for v in (p(x) for p in chain)) if s]
            return sum(a != b for a, b in zip(signs, signs[1:]))

        return variations(lo) - variations(hi)


wide_rationals = st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**9)


@settings(max_examples=300, deadline=None)
@given(st.lists(wide_rationals, min_size=1, max_size=8),
       st.lists(wide_rationals, min_size=1, max_size=6), wide_rationals, st.booleans())
def test_arithmetic_matches_fraction_reference(a, b, x, root_at_x):
    if root_at_x:
        a = (RefPoly(a) * RefPoly([-x, 1])).coeffs
    pa, pb, ra, rb = ExactPoly(a), ExactPoly(b), RefPoly(a), RefPoly(b)
    # reduced: one positive denominator sharing no factor with all numerators
    assert pa.den > 0 and math.gcd(pa.den, *pa.num) == 1
    assert pa.coeffs == ra.coeffs and pa == ExactPoly(pa.coeffs)
    assert pa.is_integer == all(c.denominator == 1 for c in ra.coeffs)
    assert (pa + pb).coeffs == (ra + rb).coeffs
    assert (pa - pb).coeffs == (ra - rb).coeffs
    assert (pa * pb).coeffs == (ra * rb).coeffs
    assert (pa * x).coeffs == (ra * RefPoly([x])).coeffs
    assert pa.deriv().coeffs == ra.deriv().coeffs
    v = ra(x)
    assert pa(x) == v
    assert pa.sign_at(x) == (v > 0) - (v < 0)
    if rb.degree >= 0:
        q, r = pa.divmod(pb)
        rq, rr = ra.divmod(rb)
        assert (q.coeffs, r.coeffs) == (rq.coeffs, rr.coeffs)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(min_value=-6, max_value=6), unique=True, max_size=4),
       st.lists(small_ints, min_size=1, max_size=6),
       st.one_of(rationals, st.integers(min_value=-6, max_value=6).map(Fraction)),
       st.one_of(rationals, st.integers(min_value=-6, max_value=6).map(Fraction)))
def test_count_roots_matches_fraction_sturm(roots, cofactor, lo, hi):
    # integer roots put window ends on roots; the cofactor adds irrational ones
    p = P(*cofactor) if cofactor[-1] else P(*cofactor, 1)
    for k in roots:
        p = p * (X - k)
    ref = RefPoly(p.coeffs)
    chain, ref_chain = p.sturm_chain(), ref.sturm_chain()
    assume(p.degree >= 1 and ref_chain[-1].degree == 0)  # squarefree
    # each entry is a positive multiple of the classical one
    assert len(chain) == len(ref_chain)
    for e, r in zip(chain, ref_chain):
        s = r.coeffs[-1] / e.lead
        assert s > 0 and tuple(s * c for c in e.coeffs) == r.coeffs
    lo, hi = min(lo, hi), max(lo, hi)
    assert p.count_roots(lo, hi) == ref.sturm_count(lo, hi)
    bound = 1 + sum(abs(c) for c in ref.coeffs) / abs(ref.coeffs[-1])
    assert p.count_roots() == ref.sturm_count(-bound, bound)
    assert p.count_roots(lo) == ref.sturm_count(lo, bound)
    assert p.count_roots(None, hi) == ref.sturm_count(-bound, hi)


def _sylvester_det(f, g):
    """The Sylvester determinant of f and g by Fraction elimination."""
    m, n = f.degree, g.degree
    size = m + n
    rows = [[Fraction(0)] * i + list(reversed(f.coeffs)) + [Fraction(0)] * (size - m - 1 - i)
            for i in range(n)]
    rows += [[Fraction(0)] * i + list(reversed(g.coeffs)) + [Fraction(0)] * (size - n - 1 - i)
             for i in range(m)]
    det = Fraction(1)
    for col in range(size):
        piv = next((r for r in range(col, size) if rows[r][col] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            rows[col], rows[piv] = rows[piv], rows[col]
            det = -det
        det *= rows[col][col]
        for r in range(col + 1, size):
            t = rows[r][col] / rows[col][col]
            rows[r] = [x - t * y for x, y in zip(rows[r], rows[col])]
    return det


nonzero_rationals = rationals.filter(bool)


@settings(max_examples=150, deadline=None)
@given(st.lists(rationals, max_size=8).map(tuple), nonzero_rationals,
       st.lists(rationals, max_size=8).map(tuple), nonzero_rationals,
       st.one_of(st.none(), rationals))
def test_resultant_matches_fraction_elimination(a, lead_a, b, lead_b, shared):
    # degrees 0-8 with rational coefficients, constants among them, against
    # the Sylvester determinant; a shared root gives 0, and swapping the
    # operands multiplies by (-1)^(deg a deg b)
    if shared is not None:  # one degree for the common factor
        a, b = a[1:], b[1:]
    f, g = ExactPoly(a + (lead_a,)), ExactPoly(b + (lead_b,))
    if shared is not None:
        f, g = f * (X - P(shared)), g * (X - P(shared))
    res = f.resultant(g)
    assert isinstance(res, Fraction) and res == _sylvester_det(f, g)
    assert g.resultant(f) == (-1) ** (f.degree * g.degree) * res
    if shared is not None:
        assert res == 0


# -- interval unions -----------------------------------------------------------


def test_union_normalization():
    E = make_interval_union([(2, 3), (0, 1)])
    assert E.bands == ((0.0, 1.0), (2.0, 3.0))
    assert E.gaps == ((1.0, 2.0),)
    assert E.hull == (0.0, 3.0)
    assert E.g == 1
    assert E.total_length == 2.0
    assert E.contains(0.5) and not E.contains(1.5)


def test_union_merges_touching():
    E = make_interval_union([(0, 1), (1, 2)])
    assert E.bands == ((0.0, 2.0),)


def test_union_rejects_degenerate():
    with pytest.raises(ValueError):
        make_interval_union([(1, 1)])
    with pytest.raises(ValueError):
        make_interval_union([])


def test_union_transforms():
    E = make_interval_union([(0, 1), (2, 3)])
    assert E.translated(1).bands == ((1.0, 2.0), (3.0, 4.0))
    assert E.scaled(2).bands == ((0.0, 2.0), (4.0, 6.0))
    assert E.scaled(-1).scaled(-1).bands == E.bands


# -- fraction serialization (problem files and JSON output) ----------------------


@pytest.mark.parametrize("s", ["3/2", "-7", "0", "22/7"])
def test_fraction_round_trip(s, tmp_path):
    prob = tmp_path / "p.json"
    prob.write_text(json.dumps({"M": s}))
    assert load_problem(str(prob)) == {"M": s}
    assert json.loads(dump_problem({"M": Fraction(s)})) == {"M": s}


def test_fraction_from_number(tmp_path):
    prob = tmp_path / "p.json"
    prob.write_text(json.dumps({"M": 5, "M_prime": 0.5}))
    assert load_problem(str(prob)) == {"M": "5", "M_prime": "1/2"}
