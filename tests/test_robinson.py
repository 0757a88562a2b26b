import json
import math
from decimal import Decimal, localcontext
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

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

GOLDEN = Path(__file__).parent / "golden"
EPS = np.finfo(float).eps
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
    small = rationalize(pa, Fraction(3, 2))
    with pytest.raises(ValueError):
        make_instance(small)


def test_make_instance_rejects_float_datum():
    pa = construct_pa_polynomial(solve_R(PAIR), 2)
    with pytest.raises(ValueError):
        make_instance(pa)


def test_make_instance_from_rationalized_pipeline():
    pa = construct_pa_polynomial(solve_R(PAIR), 2)
    inst = make_instance(rationalize(pa, Fraction(5, 2)))
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


# -- root measures: seeded Newton inside the certified intervals -------------------


def _floats_apart(x):
    """The floats 2 ulps below and above x."""
    lo = hi = x
    for _ in range(2):
        lo, hi = math.nextafter(lo, -math.inf), math.nextafter(hi, math.inf)
    return lo, hi


def _assert_certified_roots(P_prime, xs, cert, window):
    """Every root lies inside its certified isolating interval, and the exact
    sign of P'_n changes between the two ends of window(x)."""
    assert len(xs) == len(cert["isolating_intervals"])
    for x, (a, b) in zip(xs, cert["isolating_intervals"]):
        assert Fraction(a) < x < Fraction(b)
        lo, hi = window(x)
        assert P_prime.sign_at(Fraction(lo)) * P_prime.sign_at(Fraction(hi)) == -1, x


_PI = Decimal("3.141592653589793238462643383279502884197169399375105820974944")


def _x2m6_roots(n):
    """The roots of P_n for P = X^2 - 6, M = 4, ascending, to 40 digits:
    P(x) = 4 cos((k - 1/2) pi / n), so x = +-sqrt(6 + 4 cos((k - 1/2) pi / n))."""
    with localcontext() as ctx:
        ctx.prec = 40
        pos = []
        for k in range(1, n + 1):
            t = (k - Decimal("0.5")) * _PI / n
            cos, term, m = Decimal(0), Decimal(1), 0  # Taylor series of cos t
            while cos + term != cos:
                cos, m = cos + term, m + 2
                term *= -t * t / (m * (m - 1))
            pos.append((6 + 4 * cos).sqrt())
        return sorted([-r for r in pos] + pos)


@pytest.mark.parametrize("n", [16, 32])
def test_root_measure_x2m6_within_two_ulps_of_closed_form(i6, n):
    _, cert, table = generate_at(i6, n)
    xs = root_measure_from_certificate(i6, n, table, cert)
    for x, exact in zip(xs, _x2m6_roots(n), strict=True):
        assert abs(Decimal(x) - exact) <= 2 * Decimal(math.ulp(x)), (x, exact)


def _cubic_m5():
    prob = json.loads((GOLDEN / "cubic_m5_problem.json").read_text())
    inst = make_instance(PellAbelDatum.from_exact(
        ExactPoly.from_list([int(c) for c in prob["coeffs"]]), prob["M"]))
    P_prime, cert, table = generate(inst, prob["degree"])
    return inst, P_prime, cert, table


@pytest.mark.parametrize("case", ["x2m5_n32", "cubic_m5"])
def test_root_measure_certified_to_two_ulps(i5, case):
    # the corrected P'_n, whose roots have no closed form: the exact sign of
    # P'_n changes between the floats 2 ulps either side of every root
    if case == "x2m5_n32":
        inst, (P_prime, cert, table) = i5, generate_at(i5, 32)
    else:
        inst, P_prime, cert, table = _cubic_m5()
    assert table
    xs = root_measure_from_certificate(inst, cert["n"], table, cert)
    _assert_certified_roots(P_prime, xs, cert, _floats_apart)


def _pell_cdf(pa, x: float) -> float:
    """mu_E's CDF on the Pell union E = P^-1([-M, M]) with r bands: the
    pullback of the arcsine law, (j + arccos(-s P(x) / M) / pi) / r on band j
    with s = (-1)^(r-1-j), P increasing on the top band.  1 - y is exact, so
    arccos(y) = 2 asin(sqrt((1 - y) / 2)) loses nothing near the band ends."""
    r = len(pa.E.bands)
    j = max(i for i, (u, _) in enumerate(pa.E.bands) if u <= x)
    y = -(-1) ** (r - 1 - j) * pa.P(Fraction(x)) / Fraction(pa.M)
    return (j + 2.0 * math.asin(math.sqrt(float((1 - y) / 2))) / math.pi) / r


@pytest.mark.parametrize("case", ["x2m6_n32", "x2m5_n32", "cubic_m5", "x2m7_M5_n16",
                                  "x3m6x1_M4_n12"])
def test_cdf_matches_the_pell_union_exactly_at_certified_roots(i5, i6, case):
    if case == "cubic_m5":
        inst, _, cert, table = _cubic_m5()
    else:
        inst, n = {"x2m6_n32": (i6, 32), "x2m5_n32": (i5, 32),
                   "x2m7_M5_n16": (make_instance(PellAbelDatum.from_exact(
                       ExactPoly.from_list([-7, 0, 1]), 5)), 16),
                   "x3m6x1_M4_n12": (make_instance(PellAbelDatum.from_exact(
                       ExactPoly.from_list([1, -6, 0, 1]), 4)), 12)}[case]
        _, cert, table = generate_at(inst, n)
    xs = root_measure_from_certificate(inst, cert["n"], table, cert)
    exact = [_pell_cdf(inst.pa, float(x)) for x in xs]
    # the integral route on E's correctly rounded ends, and the datum's
    # closed form in floats
    got = BandDensity(solve_R(inst.pa.E)).cdf(xs)
    assert np.max(np.abs(got - exact)) <= 1e-12
    assert np.max(np.abs(inst.pa.cdf(xs) - exact)) <= 1e-14


@pytest.mark.parametrize("placement", ["outside", "at_left_ends"])
def test_root_measure_midpoint_fallback(i5, monkeypatch, placement):
    # seeds far outside their intervals start from the midpoints; seeds a
    # hair inside the left ends, where P'_n is flat, take Newton steps out
    # of the bracket, which become midpoints.  Either way Newton reaches
    # the seeded roots, after more evaluations.
    P_prime, cert, table = generate_at(i5, 32)
    seeded = root_measure_from_certificate(i5, 32, table, cert)
    left = np.array([float(Fraction(a)) for a, _ in cert["isolating_intervals"]])
    calls = []
    evaluate = robinson._eval_structured

    def counted(*args, **kwargs):
        calls.append(1)
        return evaluate(*args, **kwargs)

    def seeds(p, levels):
        rows = np.full((len(levels), p.degree), 1e6)
        if placement == "at_left_ends":
            rows[:] = (left + 1e-9).reshape(rows.shape)
        return rows

    monkeypatch.setattr(robinson, "_eval_structured", counted)
    root_measure_from_certificate(i5, 32, table, cert)
    seeded_calls = len(calls)
    monkeypatch.setattr(robinson, "_level_roots", seeds)
    calls.clear()
    xs = root_measure_from_certificate(i5, 32, table, cert)
    assert len(calls) > seeded_calls
    # the last Newton update starts from another iterate: one rounding apart
    assert all(abs(x - y) <= math.ulp(y) for x, y in zip(xs, seeded, strict=True))
    _assert_certified_roots(P_prime, xs, cert, _floats_apart)


def test_eval_structured_derivative():
    # value and derivative of P_n - sum c x^j P_k, over lam^n, against exact evaluation,
    # with the cubic's correction table (terms x^0 P_k) and two made-up
    # terms x^1 P_3 and x^2 P_5
    inst, _, cert, table = _cubic_m5()
    n = cert["n"]
    table = {**table, (1, 3): Fraction(1, 4), (2, 5): Fraction(-3, 8)}
    X = ExactPoly.x()
    P_prime = compose_Pn(inst, n)
    for (j, k), c in table.items():
        term = ExactPoly((2,)) if k == 0 else compose_Pn(inst, k)
        for _ in range(j):
            term = term * X
        P_prime = P_prime - term * c
    dP = P_prime.deriv()
    xs = np.array([float(Fraction(a) + Fraction(b)) / 2 for a, b in cert["isolating_intervals"]])
    # both come divided by lam^n, so the amplitude 2 lam^n becomes 2
    f, d = _eval_structured(inst, n, table, xs)
    scale = inst.lam ** n
    for x, fx, dx in zip(xs, f, d):
        assert fx == pytest.approx(float(P_prime(Fraction(x)) / scale), abs=1e-12 * 2)
        assert dx == pytest.approx(float(dP(Fraction(x)) / scale), rel=1e-10)


def _integer_pell_P(r, a, b, gaps, s):
    """Monic integer P of degree r shaped like the robinson-cert benchmark's
    problems: X^2 + aX + b, or (X - a)(X - x2)(X - x3) + s with gaps of 3
    to 5 between the three roots."""
    if r == 2:
        return [b, a, 1]
    x1, x2 = a, a + gaps[0]
    x3 = x2 + gaps[1]
    return [s - x1 * x2 * x3, x1 * x2 + x1 * x3 + x2 * x3, -(x1 + x2 + x3), 1]


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([2, 3]), st.integers(4, 7), st.integers(-6, 6), st.integers(-20, 10),
       st.tuples(st.integers(3, 5), st.integers(3, 5)), st.integers(-2, 2), st.data())
def test_root_measure_certified_property(r, M, a, b, gaps, s, data):
    cs = _integer_pell_P(r, a, b, gaps, s)
    try:
        inst = make_instance(PellAbelDatum.from_exact(ExactPoly.from_list(cs), M))
    except ValueError:  # P^2 - M^2 without 2r simple real roots
        assume(False)
    admissible = [n for n in range(inst.ell + 1, 17) if certify_integrality(inst, n)]
    assume(admissible)
    n = data.draw(st.sampled_from(admissible))
    try:
        P_prime, cert, table = generate_at(inst, n)
    except CertificationError:
        assume(False)
    xs = root_measure_from_certificate(inst, n, table, cert)
    dP = [k * c for k, c in enumerate(cs)][1:]

    def window(x):
        # 2 ulps at the stop rule's scale max(1, |x|), plus the root shift
        # that the rounding of P's Horner value, below r eps sum |c_k x^k|,
        # can cause
        w = 2 * math.ulp(max(1.0, abs(x))) + r * EPS * sum(
            abs(c * x**k) for k, c in enumerate(cs)) / abs(np.polyval(dP[::-1], x))
        return x - w, x + w

    _assert_certified_roots(P_prime, xs, cert, window)


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

    def straddle(p, levels):
        rts = np.sort(level_roots(p, levels).real, axis=1)
        k = len(levels) // 2  # the level P = 0
        rts[k, 0] = rts[k, 1]
        return rts

    monkeypatch.setattr(robinson, "_level_roots", straddle)
    with pytest.raises(CertificationError, match="band 0: the points are not increasing "
                                                 "inside band 0"):
        generate_at(i6, 8)


def test_certificate_refuses_counts_short_of_the_degree():
    # E with its two bands merged into one: band 0's points still
    # alternate, but they certify 8 roots of the degree 16
    pa = PellAbelDatum.from_exact(ExactPoly.from_list([-6, 0, 1]), 4)
    object.__setattr__(pa, "E", make_interval_union([(pa.E.hull)]))
    with pytest.raises(CertificationError, match="certify 8 roots, not the degree 16"):
        generate_at(make_instance(pa), 8)


@pytest.mark.parametrize("case", ["x2m6_n32", "x2m5_n32", "cubic_m5", "x2p6x_M5_n32"])
def test_certificate_band_checks_by_the_end_cells(case, monkeypatch):
    # the datum's end cells place every point in its band by rational
    # comparisons, with no Sturm count, also where an end of E is an integer
    # (x^2 + 6x + 5 = (x + 1)(x + 5)) and a first point sits on it; cells
    # that place no point in its band refuse the certificate
    if case == "cubic_m5":
        inst, P_prime, cert, table = _cubic_m5()
        n = cert["n"]
    else:
        inst = {"x2m6_n32": preset_x2m6, "x2m5_n32": preset_x2m5,
                "x2p6x_M5_n32": lambda: make_instance(PellAbelDatum.from_exact(
                    ExactPoly.from_list([0, 6, 1]), 5))}[case]()
        n = 32
        P_prime, cert, table = generate_at(inst, n)
    counts = []
    count_roots = ExactPoly.count_roots
    monkeypatch.setattr(ExactPoly, "count_roots",
                        lambda *a, **k: counts.append(1) or count_roots(*a, **k))
    assert robinson._certificate(inst, n, table, P_prime) == cert
    assert counts == []
    object.__setattr__(inst.pa, "_cells", ((Fraction(0), Fraction(0)),) * (2 * inst.pa.r))
    with pytest.raises(CertificationError, match="the points are not increasing inside band"):
        robinson._certificate(inst, n, table, P_prime)


def test_x2m6_csv_is_exact_to_rounding(capsys):
    # even M: P'_n = 2 lam^n T_n(P/M), whose root measure is off mu_E by
    # exactly 1/(2 degree)
    from capell.cli import main
    assert main(["robinson", "--preset", "x2m6", "--degree", "64", "--format", "csv"]) == 0
    rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
    assert [int(d) for _, d, _ in rows] == [4, 8, 16, 32, 64]
    for _, degree, dist in rows:
        assert abs(float(dist) - 1 / (2 * int(degree))) <= 1e-14


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
