import math
from fractions import Fraction

import numpy as np
import pytest

from capell import robinson
from capell.abel import BandDensity, solve_R
from capell.core import CertificationError, ExactPoly, make_interval_union
from capell.pellabel import PellAbelDatum, construct_pa_polynomial, rationalize
from capell.robinson import (
    certify_integrality,
    compose_Pn,
    convergence_report,
    correction_Cn,
    generate,
    generate_at,
    make_instance,
    preset_x2m5,
    preset_x2m6,
    root_measure_from_certificate,
    _eval_structured,
)

PAIR = make_interval_union([(-math.sqrt(8), -math.sqrt(2)), (math.sqrt(2), math.sqrt(8))])


@pytest.fixture(scope="module")
def i6():
    return preset_x2m6()


@pytest.fixture(scope="module")
def i5():
    return preset_x2m5()


# -- normalized Chebyshev ----------------------------------------------------------


@pytest.fixture(scope="module")
def ix():
    # P = X, M = 4 on E = [-4, 4]: lam = 2 and P_n(x) = 2^n C_n(x / 2), the
    # monic-pair Chebyshev polynomials scaled to E
    return make_instance(PellAbelDatum.from_exact(ExactPoly.from_list([0, 1]), 4))


def test_chebyshev_Tn_closed_forms(ix):
    X = ExactPoly.x()
    assert compose_Pn(ix, 1) == X
    assert compose_Pn(ix, 2) == X * X - 8
    assert compose_Pn(ix, 3).coeffs == (Fraction(0), Fraction(-12), Fraction(0), Fraction(1))


def test_chebyshev_Tn_functional_identity(ix):
    # C_n(t + 1/t) = t^n + t^(-n), so P_n(2(t + 1/t)) = 2^n (t^n + t^(-n)),
    # exact over the rationals
    t = Fraction(2)
    for n in range(1, 9):
        assert compose_Pn(ix, n)(2 * (t + 1 / t)) == 2**n * (t**n + t**-n)


def test_chebyshev_Tn_rejects_negative(ix):
    for n in (0, -1):
        with pytest.raises(ValueError):
            compose_Pn(ix, n)


# -- instances ---------------------------------------------------------------------


def test_preset_constants(i6, i5):
    assert i6.lam == Fraction(2) and i6.ell == 2
    assert i5.lam == Fraction(3, 2) and i5.ell == 4
    # A = 1 + B with B a hair above the outer endpoint of E
    assert float(i6.A) == pytest.approx(1 + math.sqrt(10), abs=1e-6)
    assert float(i5.A) == pytest.approx(1 + math.sqrt(8), abs=1e-6)


def test_preset_bands(i6, i5):
    (a, b), (c, d) = i6.pa.E.bands
    assert (a, b) == (pytest.approx(-math.sqrt(10)), pytest.approx(-math.sqrt(2)))
    assert (c, d) == (pytest.approx(math.sqrt(2)), pytest.approx(math.sqrt(10)))
    assert i5.pa.E.bands[1] == (pytest.approx(math.sqrt(2)), pytest.approx(math.sqrt(8)))


def test_make_instance_rejects_small_M():
    pa = construct_pa_polynomial(solve_R(PAIR), 2)
    _, _, small = rationalize(pa, Fraction(3, 2))
    with pytest.raises(ValueError):
        make_instance(small)


def test_make_instance_rejects_float_datum():
    pa = construct_pa_polynomial(solve_R(PAIR), 2)
    with pytest.raises(ValueError):
        make_instance(pa)


def test_make_instance_from_rationalized_pipeline():
    pa = construct_pa_polynomial(solve_R(PAIR), 2)
    _, _, pa2 = rationalize(pa, Fraction(5, 2))
    inst = make_instance(pa2)
    assert inst.lam == Fraction(5, 4)
    assert inst.ell == 10


# -- composition -------------------------------------------------------------------


def test_compose_Pn_closed_form(i6):
    assert compose_Pn(i6, 1) == i6.pa.P
    P2 = compose_Pn(i6, 2)
    assert P2.coeffs == tuple(Fraction(c) for c in (28, 0, -12, 0, 1))
    with pytest.raises(ValueError):
        compose_Pn(i6, 0)


def test_compose_sup_norm_on_E(i5):
    # |P_n| <= 2 lam^n on E
    for n in (3, 7):
        Pn = compose_Pn(i5, n)
        xs = np.concatenate([np.linspace(u, v, 400) for (u, v) in i5.pa.E.bands])
        vals = np.abs(Pn(xs))
        assert np.max(vals) <= 2.0 * float(i5.lam) ** n * (1 + 1e-9)


@pytest.mark.parametrize("preset", ["i6", "i5"])
def test_ladder_matches_fraction_recurrence(request, preset):
    # P_{k+1} = P P_k - lam^2 P_{k-1} with one Fraction per coefficient
    inst = request.getfixturevalue(preset)
    P = inst.pa.P.coeffs
    lam2 = inst.lam ** 2
    prev, cur = [Fraction(2)], list(P)
    for n in range(1, 129):
        assert compose_Pn(inst, n).coeffs == tuple(cur)
        nxt = [Fraction(0)] * (len(cur) + len(P) - 1)
        for i, a in enumerate(P):
            for j, b in enumerate(cur):
                nxt[i + j] += a * b
        for j, b in enumerate(prev):
            nxt[j] -= lam2 * b
        prev, cur = cur, nxt


def test_integrality_scan(i5, i6):
    # the only nontrivial admissible multiplier below 40 for lam = 3/2 is 32
    assert [n for n in range(2, 40) if certify_integrality(i5, n)] == [32]
    # integer lam admits everything
    assert all(certify_integrality(i6, n) for n in range(2, 12))


# -- integer lam: compositions are already integral --------------------------------


def test_integer_lam_needs_no_correction(i6):
    C, Pp = correction_Cn(i6, 3)
    assert C.degree == -1 and all(c == 0 for c in C.coeffs)
    assert Pp == compose_Pn(i6, 3)
    P_prime, cert, table = generate_at(i6, 5)
    assert table == {}
    assert P_prime == compose_Pn(i6, 5)
    assert cert["correction_terms"] == 0


def test_x2m6_convergence_ladder(i6):
    mu_E = BandDensity(solve_R(i6.pa.E))
    seq = []
    for n in (2, 4, 8, 16):
        P_prime, cert, table = generate_at(i6, n)
        assert all(c.denominator == 1 for c in P_prime.coeffs)
        assert P_prime.coeffs[-1] == 1
        assert P_prime.degree == 2 * n
        assert len(cert["isolating_intervals"]) == 2 * n
        seq.append(root_measure_from_certificate(i6, n, table, cert))
    ks = convergence_report(seq, mu_E)
    # equal weights on 2n roots whose CDF interleaves exactly: KS = 1/(4n)
    for d, n in zip(ks, (2, 4, 8, 16)):
        assert d == pytest.approx(1.0 / (4 * n), rel=1e-6)
    assert all(a > b for a, b in zip(ks, ks[1:]))
    assert ks[-1] < 0.05


def test_root_measure_weights(i6):
    _, cert, table = generate_at(i6, 4)
    xs = root_measure_from_certificate(i6, 4, table, cert)
    assert xs.dtype == float and len(xs) == 8
    assert np.all(np.diff(xs) > 0)
    # the report weighs each of the 8 roots 1/8
    mu_E = BandDensity(solve_R(i6.pa.E))
    F, k = mu_E.cdf(xs), np.arange(9) / 8
    ks = max(np.max(np.abs(F - k[1:])), np.max(np.abs(F - k[:-1])))
    assert convergence_report([xs], mu_E) == [ks]


def _scalar_bisection_roots(inst, n, table, cert):
    """Reference: one interval at a time, one evaluation per step."""
    roots = []
    for a_s, b_s in cert["isolating_intervals"]:
        a, b = float(Fraction(a_s)), float(Fraction(b_s))
        fa = float(_eval_structured(inst, n, table, np.array([a]))[0])
        for _ in range(200):
            m = 0.5 * (a + b)
            fm = float(_eval_structured(inst, n, table, np.array([m]))[0])
            if fa * fm <= 0:
                b = m
            else:
                a, fa = m, fm
            if b - a < 1e-14 * max(1.0, abs(m)):
                break
        roots.append(0.5 * (a + b))
    return roots


@pytest.mark.parametrize("preset,n", [("i6", 16), ("i5", 32)])
def test_root_measure_matches_scalar_bisection(request, preset, n):
    inst = request.getfixturevalue(preset)
    _, cert, table = generate_at(inst, n)
    xs = root_measure_from_certificate(inst, n, table, cert)
    assert xs.tolist() == _scalar_bisection_roots(inst, n, table, cert)


# -- fractional lam: the correction machinery ---------------------------------------


def test_correction_x2m5_at_32(i5):
    C, P_prime = correction_Cn(i5, 32)
    P32 = compose_Pn(i5, 32)
    assert C == P32 - P_prime
    assert any(c != 0 for c in C.coeffs)
    assert all(c.denominator == 1 for c in P_prime.coeffs)
    assert P_prime.degree == 64 and P_prime.coeffs[-1] == 1


def test_correction_coefficients_bounded(i5):
    _, cert, table = generate_at(i5, 32)
    assert table, "correction table must be nonzero for lam = 3/2"
    half = Fraction(1, 2)
    assert all(abs(c) <= half for c in table.values())
    assert max(abs(c) for c in table.values()) == Fraction(3667, 8192)
    # the double constant P_0 = 2 halves its correction coefficient
    for (j, k), c in table.items():
        if k == 0:
            assert abs(c) <= Fraction(1, 4)
    assert cert["correction_sup"] < cert["correction_bound"]
    assert cert["correction_sup"] < cert["amplitude"]


def test_correction_rejects_inadmissible(i5):
    with pytest.raises(CertificationError):
        correction_Cn(i5, 3)    # n <= ell
    with pytest.raises(CertificationError):
        correction_Cn(i5, 6)    # top coefficients not integral
    with pytest.raises(CertificationError):
        generate_at(i5, 6)


def test_certificate_rejects_points_spanning_a_gap(i6, monkeypatch):
    # band 0's root of the level P = 0 swapped for its mirror in band 1:
    # every point stays in E, but band 0's points now span the gap
    # (-sqrt 2, sqrt 2), which the exact span decision refuses
    level_roots = robinson._level_roots

    def straddle(pa, n):
        rts = level_roots(pa, n)
        rts[n // 2, 0] = rts[n // 2, 1]
        return rts

    monkeypatch.setattr(robinson, "_level_roots", straddle)
    with pytest.raises(CertificationError, match="band 0: the points are not increasing "
                                                 "inside band 0"):
        generate_at(i6, 8)


# -- the search front end ----------------------------------------------------------


def test_generate_finds_smallest_admissible(i5):
    P_prime, cert, table = generate(i5, 3)
    assert cert["n"] == 32
    assert cert["degree"] == 64
    assert all(c.denominator == 1 for c in P_prime.coeffs)


def test_generate_respects_degree_cap(i5):
    with pytest.raises(CertificationError):
        generate(i5, 3, max_degree=20)


def test_generate_integer_lam_immediate(i6):
    P_prime, cert, table = generate(i6, 7)
    assert cert["n"] == 4 and cert["degree"] == 8
    assert P_prime == compose_Pn(i6, 4)
