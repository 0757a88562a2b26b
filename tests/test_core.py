import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from capell.core import (
    CertificationError,
    DiscreteMeasure,
    ExactPoly,
    IntervalUnion,
    RealPoly,
    isolate_real_roots,
    make_interval_union,
)
from capell.cli import dump_problem, load_problem

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


def test_gcd():
    a = (X - 1) * (X + 1) * (X + 2)
    b = (X + 1) * (X + 3)
    g = a.gcd(b)
    assert g.degree == 1 and g(Fraction(-1)) == 0


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
    iso = isolate_real_roots(f, refine=1e-6)
    assert len(iso) == 6
    assert [(a, b) for a, b in iso] == [(k, k) for k in (-2, -1, 0, 1, 2, 3)]


def test_isolate_root_on_window_edges():
    f = X * (X - 1) * (X - 2)
    iso = isolate_real_roots(f, window=(Fraction(0), Fraction(2)), refine=1e-6)
    assert len(iso) == 3
    assert iso[0] == (0, 0)
    assert iso[-1][0] <= 2 <= iso[-1][1]


def test_isolate_rejects_repeated_roots():
    with pytest.raises(CertificationError):
        isolate_real_roots((X - 1) * (X - 1))


def test_isolate_float_path():
    # isolation is exact only; a float polynomial is refused, not bisected
    with pytest.raises(TypeError):
        isolate_real_roots(RealPoly((-2.0, 0.0, 1.0)))


small_ints = st.integers(min_value=-20, max_value=20)
rationals = st.fractions(min_value=-8, max_value=8, max_denominator=64)


@settings(max_examples=200, deadline=None)
@given(st.lists(rationals, min_size=1, max_size=8), rationals,
       st.booleans())
def test_sign_at_matches_exact_evaluation(coeffs, x, root_at_x):
    p = ExactPoly(tuple(coeffs))
    if root_at_x:
        p = p * (X - P(x))
    v = p(x)
    assert p.sign_at(x) == (v > 0) - (v < 0)


@settings(max_examples=60, deadline=None)
@given(st.lists(small_ints, min_size=1, max_size=5),
       st.integers(min_value=-6, max_value=2), st.integers(min_value=1, max_value=8),
       st.booleans(), st.booleans(), st.sampled_from([1e-3, 1e-6, 1e-12]))
def test_isolation_intervals_hold_one_root(coeffs, lo, width, edge_root, mid_root,
                                           refine):
    # roots on the left window edge and at the first bisection midpoint are
    # the two cases where refinement starts from a zero of p
    lo, hi = Fraction(lo), Fraction(lo + width)
    p = P(*coeffs) if coeffs[-1] else P(*coeffs, 1)
    if edge_root:
        p = p * (X - P(lo))
    if mid_root:
        p = p * (X - P((lo + hi) / 2))
    assume(p.degree >= 1 and p.is_squarefree())
    iso = isolate_real_roots(p, window=(lo, hi), refine=refine)
    assert len(iso) == p.count_roots(lo, hi) + (p(lo) == 0)
    assert all(b0 <= a1 for (_, b0), (a1, _) in zip(iso, iso[1:]))
    points = {a for a, b in iso if a == b}
    scale = float(max(abs(lo), abs(hi)) or 1)
    for a, b in iso:
        assert lo <= a <= b <= hi
        if a == b:
            assert p(a) == 0
            continue
        # roots in [a, b] that are not emitted as a point of their own
        k = p.count_roots(a, b) + (p(a) == 0) - (a in points) - (b in points)
        assert k == 1
        assert float(b - a) <= refine * scale


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
    assert E.reflected().bands == ((-3.0, -2.0), (-1.0, 0.0))
    assert E.scaled(-1).scaled(-1).bands == E.bands


# -- discrete measures ----------------------------------------------------------


def test_discrete_measure_merge_and_energy():
    m = DiscreteMeasure(((2 + 0j, 0.5), (0 + 0j, 0.5)))
    assert m.total_mass == pytest.approx(1.0)
    x, w = m.real_atoms()
    assert list(x) == [0.0, 2.0] and list(w) == [0.5, 0.5]


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
