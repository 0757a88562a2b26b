import math
from fractions import Fraction

import numpy as np
import pytest

from capell.abel import abel_capacity, solve_R
from capell.core import CertificationError, ExactPoly, make_interval_union
from capell.pellabel import (
    PellAbelDatum,
    certify_structure,
    construct_pa_polynomial,
    detect_pell_abel,
    rationalize,
)

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
    assert np.allclose(pa.P.coeffs, (-5.0, 0.0, 1.0), atol=1e-9)
    assert pa.M == pytest.approx(3.0, abs=1e-9)
    # the identity forces Q constant here
    assert pa.Q.degree == 0
    assert pa.Q.coeffs[0] == pytest.approx(1.0, abs=1e-9)


def test_construct_degree_five_on_interval():
    pa = construct_pa_polynomial(solve_R(I22), 5)
    assert np.allclose(pa.P.coeffs, (0.0, 5.0, 0.0, -5.0, 0.0, 1.0), atol=1e-8)
    assert pa.M == pytest.approx(2.0, abs=1e-9)
    assert pa.r_j == (5,)


def test_construct_degree_one_is_identity_map():
    pa = construct_pa_polynomial(solve_R(I22), 1)
    assert np.allclose(pa.P.coeffs, (0.0, 1.0), atol=1e-10)
    assert pa.M == pytest.approx(2.0, abs=1e-10)


def test_construct_rejects_non_integral_degree():
    d = solve_R(PAIR)
    with pytest.raises(CertificationError):
        construct_pa_polynomial(d, 3)


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
    for clause in ("identity", "roots_per_band", "q_roots", "alternation",
                   "containment"):
        assert rep[clause][0], (clause, rep[clause][1])
    assert rep["pass"]


def test_certify_structure_degree_five():
    rep = certify_structure(construct_pa_polynomial(solve_R(I22), 5))
    assert rep["pass"]
    assert rep["roots_per_band"][1]["counts"] == [5]
    assert rep["q_roots"][1]["counts"] == [4]


# -- rationalization --------------------------------------------------------------


def test_rationalize_pair_is_exact():
    pa = construct_pa_polynomial(solve_R(PAIR), 2)
    P_ex, E_prime, pa2 = rationalize(pa, Fraction(5, 2))
    assert P_ex.coeffs == (Fraction(-5), Fraction(0), Fraction(1))
    assert pa2.M == Fraction(5, 2)
    assert pa2.Q.coeffs == (Fraction(1),)
    assert pa2.r_j == (1, 1)
    # {|x^2 - 5| <= 5/2} = {5/2 <= x^2 <= 15/2}
    lo, hi = math.sqrt(2.5), math.sqrt(7.5)
    (a0, b0), (a1, b1) = E_prime.bands
    assert (a0, b0) == (pytest.approx(-hi, abs=1e-9), pytest.approx(-lo, abs=1e-9))
    assert (a1, b1) == (pytest.approx(lo, abs=1e-9), pytest.approx(hi, abs=1e-9))


def test_rationalized_capacity_closed_form():
    # cap {|P| <= M'} = (M'/2)^(1/r) for monic P of degree r
    pa = construct_pa_polynomial(solve_R(PAIR), 2)
    _, E_prime, _ = rationalize(pa, Fraction(5, 2))
    cap = abel_capacity(solve_R(E_prime))
    assert cap == pytest.approx(math.sqrt(5) / 2, rel=1e-8)


def test_rationalized_datum_recertifies():
    pa = construct_pa_polynomial(solve_R(PAIR), 2)
    _, _, pa2 = rationalize(pa, Fraction(5, 2))
    assert certify_structure(pa2)["pass"]


def test_rationalize_rejects_large_target():
    pa = construct_pa_polynomial(solve_R(PAIR), 2)
    with pytest.raises(ValueError):
        rationalize(pa, Fraction(4))
    with pytest.raises(ValueError):
        rationalize(pa, 0)


def test_rationalize_interval_degree_two():
    # on [-2, 2] with r = 2 the synthesis gives x^2 - 2; any M' < 2 stays exact
    pa = construct_pa_polynomial(solve_R(I22), 2)
    P_ex, E_prime, pa2 = rationalize(pa, Fraction(3, 2))
    assert P_ex.coeffs == (Fraction(-2), Fraction(0), Fraction(1))
    assert E_prime.n_bands == 2
    assert abel_capacity(solve_R(E_prime)) == pytest.approx(
        math.sqrt(3.0 / 4.0), rel=1e-8)
