import dataclasses
import json
import math
import random
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from numpy.polynomial import Polynomial

import capell.capacity
import capell.cli
from capell.cli import load_problem, main
from capell.abel import solve_R
from capell.core import ExactPoly, make_interval_union
from capell.pellabel import PellAbelDatum, certify_structure, construct_pa_polynomial

GOLDEN = Path(__file__).parent / "golden"
PAIR_BANDS = json.dumps([[-math.sqrt(8), -math.sqrt(2)], [math.sqrt(2), math.sqrt(8)]])


def run_json(capsys, argv):
    rc = main(argv)
    out = capsys.readouterr().out
    assert rc == 0, out
    return json.loads(out)


# -- cap ---------------------------------------------------------------------------


def test_cap_abel_interval(capsys):
    rep = run_json(capsys, ["cap", "--bands", "[[-2,2]]", "--method", "abel"])
    assert rep["method"] == "abel_integral"
    assert rep["value"] == pytest.approx(1.0, abs=1e-8)


def test_cap_closed_form(capsys):
    rep = run_json(capsys, ["cap", "--bands", "[[0,4]]", "--method", "closed_form"])
    assert rep["value"] == pytest.approx(1.0, abs=1e-15)


def test_cap_chebyshev_normalized(capsys):
    rep = run_json(capsys, ["cap", "--bands", "[[-2,2]]", "--method", "chebyshev",
                            "--n", "64"])
    assert abs(rep["value"] - 1.0) < 1e-3
    assert rep["diagnostics"]["n"] == 64
    assert rep["diagnostics"]["t_n_lower"] <= rep["diagnostics"]["t_n"]


# -- eqm / fekete / energy ---------------------------------------------------------


def test_eqm_csv_center_row(capsys):
    rc = main(["eqm", "--bands", "[[-2,2]]", "--samples", "5"])
    lines = capsys.readouterr().out.splitlines()
    assert rc == 0
    assert lines[0].startswith("# {")
    assert lines[1] == "x,density"
    # arcsine density at the center is 1/(2 pi)
    assert "0.0,0.15915494309189535" in lines
    header = json.loads(lines[0][2:])
    assert header["cap"] == pytest.approx(1.0, abs=1e-8)


def test_eqm_json_rows(capsys):
    rep = run_json(capsys, ["eqm", "--bands", "[[0,1]]", "--samples", "3",
                            "--format", "json"])
    assert len(rep["rows"]) == 3
    assert rep["cap"] == pytest.approx(0.25, abs=1e-8)


def test_fekete_points(capsys):
    rep = run_json(capsys, ["fekete", "--bands", "[[-2,2]]", "--n", "4"])
    pts = rep["points"]
    assert len(pts) == 4
    assert pts == sorted(pts)
    assert pts[0] >= -2 - 1e-9 and pts[-1] <= 2 + 1e-9
    assert rep["diameter"] > 0


def test_fekete_optimizes_once(capsys, monkeypatch):
    calls = []
    inner = capell.capacity.fekete_points

    def counted(*args, **kwargs):
        calls.append(args)
        return inner(*args, **kwargs)

    monkeypatch.setattr(capell.capacity, "fekete_points", counted)
    monkeypatch.setattr(capell.cli, "fekete_points", counted)
    run_json(capsys, ["fekete", "--bands", "[[-2,2]]", "--n", "3"])
    assert len(calls) == 1


# Unions of perfbench's cap-routes shape family (CapRoutes.instance drawn
# from random.Random(29), the first four of one band and of two), with
# d_2..d_6 as `cap --method fekete --n 6` printed them when the ascent was
# the linear coordinate ascent alone, before the cut to one start per
# allocation and the Newton steps on the free points.
FEKETE_REFERENCE = [
    ([[-4.291373594326807, 2.4413554743834656]],
     [6.732729068710273, 4.241353538453589, 3.4431317141536657,
      3.044829750241709, 2.803676403839488]),
    ([[-3.5339823870786504, 2.740934701228842]],
     [6.274917088307492, 3.952950062951828, 3.209005710751858,
      2.837787476043308, 2.6130320702043335]),
    ([[-1.4958574980352597, 4.82271845297004]],
     [6.3185759510053, 3.9804534230155473, 3.2313329443631607,
      2.857531892111051, 2.631212710166987]),
    ([[-2.110351242972215, 4.9224731168419815]],
     [7.032824359814196, 4.430401725571671, 3.596601073090164,
      3.1805457520198277, 2.9286435721281388]),
    ([[-2.2438767690403383, -1.5442422306943886], [-0.32998642027051345, 0.36964811807543624]],
     [2.6135248871157746, 1.5182325950117836, 1.3361408321493518,
      1.1024562267753009, 1.0588731407263605]),
    ([[-3.1807853001792052, -2.4362523121424218], [-1.206932330920809, -0.46239934288402573]],
     [2.7183859572951796, 1.586730929617871, 1.390151900645539,
      1.1514474228320588, 1.1054108916054308]),
    ([[-3.5020964758755224, -2.8032725588310314], [-1.5273853467400875, -0.8285614296955963]],
     [2.673535046179926, 1.5452036966972023, 1.3659667846087604,
      1.1228130282931448, 1.0788211277199347]),
    ([[1.5670704905210657, 2.221625549784029], [3.4460603542758332, 4.100615413538796]],
     [2.5335449230177307, 1.460605988319461, 1.2939006160290887,
      1.0617008802420185, 1.0202430857721854]),
]


@pytest.mark.parametrize("bands, d_n", FEKETE_REFERENCE)
def test_cap_fekete_matches_the_coordinate_ascent(capsys, bands, d_n):
    rep = run_json(capsys, ["cap", "--bands", json.dumps(bands), "--method", "fekete",
                            "--n", "6"])
    assert rep["diagnostics"]["n"] == [2, 3, 4, 5, 6]
    for got, want in zip(rep["diagnostics"]["d_n"], d_n, strict=True):
        assert got == pytest.approx(want, rel=1e-13, abs=0)


def test_fekete_no_convergence_exits_4(capsys, monkeypatch):
    # one sweep cannot confirm a random start
    monkeypatch.setattr(capell.capacity, "_FEKETE_SWEEPS", 1)
    assert main(["fekete", "--bands", "[[-2,2]]", "--n", "6"]) == 4
    err = capsys.readouterr().err
    assert err.startswith("quadrature failure: Fekete ascent: no convergence in 1 sweeps")


def test_energy_uniform_and_equilibrium(capsys):
    rep = run_json(capsys, ["energy", "--bands", "[[0,1]]", "--density", "uniform"])
    assert rep["energy"] == pytest.approx(-1.5, abs=1e-6)
    rep = run_json(capsys, ["energy", "--bands", "[[-2,2]]",
                            "--density", "equilibrium"])
    assert rep["energy"] == pytest.approx(0.0, abs=1e-8)


# -- pell --------------------------------------------------------------------------


def test_pell_detect(capsys):
    rep = run_json(capsys, ["pell", "detect", "--bands", PAIR_BANDS])
    assert rep["r"] == 2 and rep["r_j"] == [1, 1]
    assert rep["omega"] == [pytest.approx(0.5, abs=1e-9)] * 2


def test_pell_construct(capsys):
    rep = run_json(capsys, ["pell", "construct", "--bands", PAIR_BANDS, "--r", "2"])
    assert rep["P"] == [pytest.approx(c, abs=1e-8) for c in (-5.0, 0.0, 1.0)]
    assert rep["M"] == pytest.approx(3.0, abs=1e-8)
    assert rep["certificate"]["pass"] is True


def test_pell_rationalize(capsys):
    rep = run_json(capsys, ["pell", "rationalize", "--bands", PAIR_BANDS,
                            "--m-prime", "5/2"])
    assert rep["P"] == ["-5", "0", "1"]
    assert rep["M_prime"] == "5/2"
    assert len(rep["bands"]) == 2


@pytest.mark.parametrize("bands,r", [
    pytest.param("[[-2,2]]", "13", id="interval-r13"),
    pytest.param("[[-2,2]]", "14", id="interval-r14"),
    pytest.param(json.dumps([[-1e-3 * math.sqrt(8), -1e-3 * math.sqrt(2)],
                             [1e-3 * math.sqrt(2), 1e-3 * math.sqrt(8)]]), "2",
                 id="pair-scaled-1e-3"),
])
def test_pell_construct_certifies(capsys, bands, r):
    rep = run_json(capsys, ["pell", "construct", "--bands", bands, "--r", r])
    assert rep["certificate"]["pass"] is True


def _recheck_construct(rep: dict, bands: str) -> bool:
    """Re-decide a `pell construct` certificate from its JSON and the input
    bands alone: P at the exact value of the printed floats, M' and M'' from
    their exact strings.  Sturm counts of P^2 - M'^2 put 2 r_j roots in band
    j of E, none at an end, in a gap or outside the hull; P^2 - M''^2 is
    negative at both ends of each band of E with no root between them."""
    P = ExactPoly([Fraction(c) for c in rep["P"]])
    E = make_interval_union(json.loads(bands))
    ends = [Fraction(x) for x in E.endpoints]
    bands_ = list(zip(ends[::2], ends[1::2]))
    lo, hi = (Fraction(rep["certificate"][k]) for k in ("M_prime", "M_double_prime"))
    D_lo, D_hi = (P * P - ExactPoly([M * M]) for M in (lo, hi))
    chain_lo, chain_hi = D_lo.sturm_chain(), D_hi.sturm_chain()
    if chain_lo[-1].degree > 0 or any(D_lo.sign_at(x) == 0 for x in ends):
        return False
    outer = [(None, ends[0]), (ends[-1], None)] + list(zip(ends[1:-1:2], ends[2::2]))
    return (all(D_lo.count_roots(a, b, chain_lo) == 0 for a, b in outer)
            and [D_lo.count_roots(a, b, chain_lo) for a, b in bands_]
            == [2 * k for k in rep["r_j"]]
            and all(D_hi.sign_at(a) < 0 and D_hi.sign_at(b) < 0
                    and D_hi.count_roots(a, b, chain_hi) == 0 for a, b in bands_))


def _pell_unions(n: int) -> list[tuple[str, str]]:
    """n (bands, r) of one shape, r = 1..4 in turn: {|P| <= M} for P with
    roots 1.6-1.7 times a scale of 1.2-1.3 apart, about a centre in
    [-3, 3], and M 0.62-0.68 of its least critical value."""
    rng, out = random.Random(1), []
    for i in range(n):
        r = 1 + i % 4
        gaps = np.cumsum([0.0] + [rng.uniform(1.6, 1.7) for _ in range(r - 1)])
        scale, centre = rng.uniform(1.2, 1.3), rng.uniform(-3.0, 3.0)
        P = Polynomial.fromroots(centre + scale * (gaps - gaps[-1] / 2))
        crit = np.abs(P(P.deriv().roots().real))
        M = (crit.min() if len(crit) else 4.0 * scale) * rng.uniform(0.62, 0.68)
        ends = np.sort(np.concatenate([(P - M).roots(), (P + M).roots()]).real)
        out.append((json.dumps(np.reshape(ends, (-1, 2)).tolist()), str(r)))
    return out


@pytest.mark.parametrize("bands,r", [
    pytest.param(PAIR_BANDS, "2", id="pair-r2"),
    pytest.param("[[-2,2]]", "5", id="interval-r5"),
    pytest.param("[[-2,2]]", "12", id="interval-r12"),
    pytest.param(PAIR_BANDS, "4", id="pair-r4"),
    pytest.param(PAIR_BANDS, "6", id="pair-r6"),
    # |P'| at the inner ends is small next to a narrow gap
    pytest.param("[[-2,-0.1],[0.1,2]]", "2", id="narrow-gap"),
    pytest.param("[[-2,-0.01],[0.01,2]]", "2", id="narrower-gap"),
] + [pytest.param(b, r, id=f"union-{i}") for i, (b, r) in enumerate(_pell_unions(20))])
def test_pell_construct_certificate_rechecks_from_json(capsys, bands, r):
    rep = run_json(capsys, ["pell", "construct", "--bands", bands, "--r", r])
    assert rep["certificate"]["pass"] is True
    assert rep["certificate"]["counts"] == rep["r_j"]
    assert _recheck_construct(rep, bands)


def test_pell_construct_certificate_rejects_an_off_p(capsys):
    # a constant term nudged by 1e-5 M moves an end of {|P| <= M'} out of E
    rep = run_json(capsys, ["pell", "construct", "--bands", PAIR_BANDS, "--r", "2"])
    rep["P"][0] += 1e-5 * rep["M"]
    assert not _recheck_construct(rep, PAIR_BANDS)
    pa = construct_pa_polynomial(solve_R(make_interval_union(json.loads(PAIR_BANDS))), 2)
    nudged = dataclasses.replace(pa, P=pa.P + 1e-5 * pa.M)
    assert certify_structure(nudged)["pass"] is False
    # x^2 - 2.2 at M = 1.8 on [-2, 2]: both bands of {|P| <= M'} lie in E,
    # with their outer ends on E's, but |P(0)| = 2.2 inside E
    M, gap = Fraction(1.8), Fraction(1, 2**20)
    rep = {"P": [-2.2, 0.0, 1.0], "r_j": [2],
           "certificate": {"M_prime": str(M * (1 - gap)), "M_double_prime": str(M * (1 + gap))}}
    assert not _recheck_construct(rep, "[[-2,2]]")
    # the P printed in E's power basis has an interior extremum 1.05e-6 M
    # below M, so its bands merge at M'
    bands = "[[-0.4273920475626549, 6.344543321162265]]"
    rep = run_json(capsys, ["pell", "construct", "--bands", bands, "--r", "16"])
    assert rep["certificate"]["pass"] is False
    assert not _recheck_construct(rep, bands)


@pytest.mark.parametrize("bands,r", [
    # P^2 - D Q^2 - M^2 in E's power basis cancels past 1e-8 of M^2
    pytest.param("[[-2,2]]", "22", id="interval-r22"),
    pytest.param(json.dumps([[1e3 - math.sqrt(8), 1e3 - math.sqrt(2)],
                             [1e3 + math.sqrt(2), 1e3 + math.sqrt(8)]]), "2",
                 id="pair-centred-at-1e3"),
])
def test_pell_construct_out_of_float_reach_exits_3(capsys, bands, r):
    assert main(["pell", "construct", "--bands", bands, "--r", r]) == 3
    assert capsys.readouterr().err.startswith("certification failure")


@pytest.mark.parametrize("bands,r,rc", [
    # M = 2 cap^r: M^2 underflows to 0 at the first two, not at the third
    pytest.param("[[0,1e-150]]", "2", 4, id="1e-150-r2"),
    pytest.param("[[0,1e-100]]", "4", 4, id="1e-100-r4"),
    pytest.param("[[0,1e-160]]", "1", 0, id="1e-160-r1"),
])
def test_pell_construct_on_tiny_unions_names_the_stage(capsys, bands, r, rc):
    assert main(["pell", "construct", "--bands", bands, "--r", r]) == rc
    err = capsys.readouterr().err
    if rc:
        assert f"Pell synthesis: M^2 = (2 cap(E)^{r})^2 is outside the float range" in err


@pytest.mark.parametrize("argv", [
    pytest.param(["construct", "--r", "0"], id="construct-r-0"),
    pytest.param(["rationalize", "--r", "-1", "--m-prime", "1/2"], id="rationalize-r-neg"),
])
def test_pell_nonpositive_r_exits_2_before_solving(capsys, monkeypatch, argv):
    solves = []
    monkeypatch.setattr(capell.cli, "solve_R", lambda E: solves.append(E))
    assert main(["pell", *argv, "--bands", "[[-2,2]]"]) == 2
    assert "--r must be >= 1" in capsys.readouterr().err
    assert solves == []


def test_pell_rationalize_needs_m_prime(capsys):
    assert main(["pell", "rationalize", "--bands", PAIR_BANDS]) == 2
    assert "error:" in capsys.readouterr().err


# -- robinson ----------------------------------------------------------------------


def test_robinson_preset_json(capsys):
    rep = run_json(capsys, ["robinson", "--preset", "x2m6", "--degree", "16"])
    assert rep["n"] == 8 and rep["degree"] == 16
    assert rep["lam"] == "2" and rep["ell"] == 2
    assert all("/" not in c for c in rep["P_coeffs"])
    assert rep["P_coeffs"][-1] == "1"
    assert len(rep["certificate"]["isolating_intervals"]) == 16
    assert rep["method"] == "chebyshev_composition"


def test_robinson_multiplier_override(capsys):
    rep = run_json(capsys, ["robinson", "--preset", "x2m6", "--n", "4"])
    assert rep["n"] == 4 and rep["degree"] == 8


def test_robinson_csv_convergence(capsys):
    rc = main(["robinson", "--preset", "x2m6", "--degree", "16", "--format", "csv"])
    lines = capsys.readouterr().out.splitlines()
    assert rc == 0
    assert lines[0] == "n,degree,kolmogorov_distance"
    rows = [ln.split(",") for ln in lines[1:]]
    assert [r[0] for r in rows] == ["2", "4", "8"]
    for n_s, deg_s, d_s in rows:
        assert int(deg_s) == 2 * int(n_s)
        assert float(d_s) == pytest.approx(1.0 / (4 * int(n_s)), rel=1e-6)


def test_robinson_csv_final_row_at_n_1(capsys):
    # degree 2 on the two-band preset is n = 1: the final row is the table
    rc = main(["robinson", "--preset", "x2m6", "--degree", "2", "--format", "csv"])
    lines = capsys.readouterr().out.splitlines()
    assert rc == 0
    assert lines[0] == "n,degree,kolmogorov_distance"
    assert len(lines) == 2
    n_s, deg_s, d_s = lines[1].split(",")
    assert (n_s, deg_s) == ("1", "2")
    assert float(d_s) == pytest.approx(0.25, rel=1e-6)


def test_robinson_problem_file(capsys, tmp_path):
    prob = tmp_path / "prob.json"
    prob.write_text(json.dumps({"coeffs": ["-6", "0", "1"], "M": 4, "degree": 16}))
    rep = run_json(capsys, ["robinson", "--problem", str(prob)])
    assert rep["n"] == 8 and rep["lam"] == "2"


@pytest.mark.parametrize("coeffs,M,message", [
    # P^2 - 9 = (x^2 + 2)(x^2 + 8) has no real roots, so {|P| <= 3} is empty
    (["5", "0", "1"], 3, "2 deg P = 4"),
    # the compositions of a non-monic P are not monic
    (["-6", "0", "2"], 5, "monic"),
    # a constant P has no multiplier to check before from_exact refuses it
    (["5"], 3, "degree >= 1"),
    # P^2 - 16 = x^2 (x^2 - 8): the two bands of {|x^2 - 4| <= 4} touch at 0
    (["-4", "0", "1"], 4, "repeated root"),
])
def test_robinson_rejects_bad_pell_polynomial(capsys, tmp_path, coeffs, M, message):
    prob = tmp_path / "prob.json"
    prob.write_text(json.dumps({"coeffs": coeffs, "M": M}))
    assert main(["robinson", "--problem", str(prob)]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("c0,M", [(-3 * 10**400, 10**400), (-12 * 10**307, 10**308)],
                         ids=["coefficients", "levels"])
def test_robinson_outside_the_float_range_exits_4(capsys, tmp_path, c0, M):
    # from_exact accepts x^2 + c0 at M; the certificate's float level roots
    # cannot be taken (c0 or M is not a float, or c0 - M is not), and say so
    prob = tmp_path / "prob.json"
    prob.write_text(json.dumps({"coeffs": [str(c0), "0", "1"], "M": str(M), "degree": 8}))
    for fmt in ("json", "csv"):
        assert main(["robinson", "--problem", str(prob), "--format", fmt]) == 4
        assert "robinson level roots" in capsys.readouterr().err


def test_robinson_rejects_degree_above_cap(capsys):
    # a target degree and an explicit multiplier meet one cap, before any work
    for flag, value in (("--degree", "2000"), ("--n", "1024")):
        t0 = time.perf_counter()
        assert main(["robinson", "--preset", "x2m6", flag, value]) == 2
        assert time.perf_counter() - t0 < 1.0
        assert "max_degree = 512" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["--preset", "x2m6", "--n", "0"],
    ["--preset", "x2m6", "--degree", "0"],
    ["--preset", "x2m6", "--n", "1000"],
    ["--problem", str(GOLDEN / "quartic_m5_problem.json"), "--degree", "2000"],
], ids=["n-0", "degree-0", "n-1000", "problem-degree-2000"])
def test_robinson_bounds_checked_before_building(capsys, monkeypatch, argv):
    # building the instance isolates the roots of P^2 - M^2 exactly
    calls = []
    from_exact = PellAbelDatum.from_exact
    monkeypatch.setattr(PellAbelDatum, "from_exact",
                        classmethod(lambda cls, P, M: calls.append(P) or from_exact(P, M)))
    assert main(["robinson", *argv]) == 2
    assert "error:" in capsys.readouterr().err
    assert calls == []


def _recheck_certificate(rep, P_coeffs, M):
    """Re-decide a robinson JSON certificate from the output alone, in exact
    arithmetic: P'_n monic integer, and in each band increasing rational
    points of E = {P^2 <= M^2}, with no root of P^2 - M^2 strictly between
    the first and the last, where the exact signs of P'_n alternate."""
    coeffs = [int(c) for c in rep["P_coeffs"]]
    d = len(coeffs) - 1
    assert d == rep["degree"] == rep["certificate"]["degree"] and coeffs[-1] == 1
    P = ExactPoly.from_list(P_coeffs)
    D = P * P - ExactPoly((Fraction(M) ** 2,))

    def sign(x):
        # sign of b^d P'(a/b) = sum c_k a^k b^(d-k), by Horner in integers
        a, b = x.numerator, x.denominator
        v, bk = coeffs[-1], 1
        for c in reversed(coeffs[:-1]):
            bk *= b
            v = v * a + c * bk
        return (v > 0) - (v < 0)

    total, last = 0, None
    for band in rep["certificate"]["bands"]:
        xs = [Fraction(s) for s in band["points"]]
        assert all(D.sign_at(x) <= 0 for x in xs)
        assert all(u < v for u, v in zip(xs, xs[1:]))
        assert last is None or last < xs[0]
        # no end of E in (first, last): the points span no gap
        assert D.count_roots(xs[0], xs[-1]) - (D.sign_at(xs[-1]) == 0) == 0
        signs = [sign(x) for x in xs]
        assert signs == band["signs"]
        assert all(s * t == -1 for s, t in zip(signs, signs[1:]))
        assert band["count"] == len(xs) - 1
        total += band["count"]
        last = xs[-1]
    assert total == d


def test_robinson_degree_512_certificate_redecided(capsys):
    rep = run_json(capsys, ["robinson", "--preset", "x2m6", "--degree", "512"])
    assert rep["degree"] == 512
    _recheck_certificate(rep, [-6, 0, 1], 4)


def _problem(name):
    prob = json.loads((GOLDEN / name).read_text())
    return prob["coeffs"], prob["M"]


@pytest.mark.parametrize("golden,P_coeffs,M", [
    ("x2m6_d64.json", [-6, 0, 1], 4),
    ("x2m5_d16.json", [-5, 0, 1], 3),
    ("cubic_m5.json", *_problem("cubic_m5_problem.json")),
    ("quartic_m5.json", *_problem("quartic_m5_problem.json")),
])
def test_robinson_golden_certificate_redecided(golden, P_coeffs, M):
    _recheck_certificate(json.loads((GOLDEN / golden).read_text()), P_coeffs, M)


def test_robinson_degree_512_csv(capsys):
    rc = main(["robinson", "--preset", "x2m6", "--degree", "512", "--format", "csv"])
    lines = capsys.readouterr().out.splitlines()
    assert rc == 0
    n_s, deg_s, d_s = lines[-1].split(",")
    assert (n_s, deg_s) == ("256", "512")
    # 1/(4n) to rounding: the CSV reads E's closed-form CDF
    assert float(d_s) == pytest.approx(1.0 / 1024, abs=1e-13)


@pytest.mark.parametrize("argv", [
    pytest.param(["cap", "--bands", "[[-2,2]]", "--method", "chebyshev", "--n", "0"],
                 id="cap-chebyshev-n"),
    pytest.param(["cap", "--bands", "[[-2,2]]", "--method", "fekete", "--n", "0"],
                 id="cap-fekete-n"),
    pytest.param(["eqm", "--bands", "[[-2,2]]", "--samples", "0"], id="eqm-samples"),
    pytest.param(["fekete", "--bands", "[[-2,2]]", "--n", "0"], id="fekete-n"),
    pytest.param(["pell", "detect", "--bands", "[[-2,2]]", "--max-denominator", "0"],
                 id="pell-max-denominator"),
    pytest.param(["robinson", "--preset", "x2m6", "--n", "0"], id="robinson-n"),
    pytest.param(["robinson", "--preset", "x2m6", "--degree", "0"], id="robinson-degree"),
])
def test_explicit_zero_is_not_a_default(capsys, argv):
    assert main(argv) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    pytest.param([cmd], id=f"{cmd}-no-bands")
    for cmd in ("cap", "eqm", "energy", "fekete", "pell")
] + [
    pytest.param(["weil", "bound", "--q", "3"], id="weil-bound-no-bands"),
    pytest.param(["cap", "--bands", "5"], id="cap-bands-scalar"),
    pytest.param(["eqm", "--bands", "[1, 2]"], id="eqm-bands-flat"),
    pytest.param(["weil", "bound", "--q", "3", "--bands", "5"], id="weil-bound-bands-scalar"),
    pytest.param(["weil", "lift", "--q", "3", "--coeffs", "5"], id="weil-lift-coeffs-scalar"),
    pytest.param(["weil", "lift", "--q", "3", "--coeffs", "[[1]]"], id="weil-lift-coeffs-nested"),
    pytest.param(["pell", "construct", "--bands", "[[-2,2]]", "--r", "0"], id="pell-r-0"),
    pytest.param(["pell", "construct", "--bands", "[[-2,2]]", "--r", "-1"], id="pell-r-neg"),
    pytest.param(["cap", "--bands", "[[0,Infinity]]"], id="cap-bands-infinite"),
    pytest.param(["eqm", "--bands", "[[-Infinity,0],[1,2]]"], id="eqm-bands-infinite"),
    pytest.param(["pell", "rationalize", "--bands", "[[-2,2]]", "--m-prime", "1/0"],
                 id="pell-m-prime-zero-denominator"),
    pytest.param(["weil", "lift", "--q", "3", "--coeffs", '["1/0",1]'],
                 id="weil-lift-coeffs-zero-denominator"),
])
def test_malformed_input_exits_2(capsys, argv):
    assert main(argv) == 2
    assert "error:" in capsys.readouterr().err


def test_malformed_problem_file_exits_2(capsys, tmp_path):
    prob = tmp_path / "bad.json"
    prob.write_text(json.dumps({"bands": 5, "coeffs": 7}))
    assert main(["cap", "--problem", str(prob)]) == 2
    assert "wrong shape" in capsys.readouterr().err


@pytest.mark.parametrize("cmd,problem,key", [
    # an integer key takes what --n and the other type=int flags take
    pytest.param("cap", {"bands": [[-2, 2]], "n": [1]}, "n", id="n-list"),
    pytest.param("eqm", {"bands": [[-2, 2]], "samples": {"a": 1}}, "samples", id="samples-dict"),
    pytest.param("weil", {"bands": [[-3, 3]], "q": 2.5}, "q", id="q-float"),
    pytest.param("cap", {"bands": [[-2, 2]], "n": True}, "n", id="n-bool"),
    pytest.param("robinson", {"coeffs": ["-6", "0", "1"], "M": "1/0"}, "M",
                 id="M-zero-denominator"),
])
def test_malformed_problem_value_exits_2(capsys, tmp_path, cmd, problem, key):
    prob = tmp_path / "bad.json"
    prob.write_text(json.dumps(problem))
    assert main([cmd, "--problem", str(prob)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and f"problem key {key!r}" in err


@pytest.mark.parametrize("cmd,problem,key", [
    pytest.param("eqm", {"bands": [[-2, 2]], "format": "xml"}, "format", id="format-xml"),
    pytest.param("robinson", {"preset": "x2m6", "format": ["json"]}, "format",
                 id="format-list"),
    pytest.param("cap", {"bands": [[-2, 2]], "method": "remez"}, "method", id="method"),
    pytest.param("energy", {"bands": [[-2, 2]], "density": "normal"}, "density",
                 id="density"),
    pytest.param("pell", {"bands": [[-2, -1], [1, 2]], "action": "xml"}, "action",
                 id="pell-action"),
    pytest.param("weil", {"bands": [[-3, 3]], "q": 2, "action": "lower"}, "action",
                 id="weil-action"),
    pytest.param("robinson", {"preset": "x2m7"}, "preset", id="preset"),
])
def test_problem_value_outside_the_flag_choices_exits_2(capsys, tmp_path, monkeypatch,
                                                       cmd, problem, key):
    # checked against the flag's own choices, before any work
    solves = []
    monkeypatch.setattr(capell.cli, "solve_R", lambda E: solves.append(E))
    prob = tmp_path / "bad.json"
    prob.write_text(json.dumps(problem))
    assert main([cmd, "--problem", str(prob)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and f"problem key {key!r}" in err
    assert solves == []


@pytest.mark.parametrize("n", ["1", "65"])
def test_cap_fekete_count_checked_before_work(capsys, n):
    t0 = time.perf_counter()
    rc = main(["cap", "--bands", "[[-2,2]]", "--method", "fekete", "--n", n])
    assert time.perf_counter() - t0 < 1.0
    assert rc == 2
    assert "between 2 and 64" in capsys.readouterr().err


# -- weil --------------------------------------------------------------------------


def test_weil_lift(capsys):
    rep = run_json(capsys, ["weil", "lift", "--q", "2", "--coeffs", "[-5,0,1]"])
    assert rep["lifted"] == ["4", "0", "-1", "0", "1"]
    assert rep["moduli_ok"] is True
    assert rep["pushforward_ok"] is True
    assert rep["max_modulus_error"] <= 1e-10 * math.sqrt(2)


def test_weil_lift_beyond_the_float_range(capsys):
    # q^2 = 10^400 is a coefficient of the lift, outside the float range;
    # the diagnostic comes from the input's roots, which are floats, and the
    # exact checks still decide
    rep = run_json(capsys, ["weil", "lift", "--q", str(10**200), "--coeffs",
                            json.dumps([str(-10**200), "0", "1"])])
    assert rep["lifted"] == [str(10**400), "0", str(10**200), "0", "1"]
    assert rep["max_modulus_error"] <= 1e-15 * 1e100
    assert rep["moduli_ok"] is True and rep["pushforward_ok"] is True


def test_weil_lift_moduli_are_exact(capsys):
    # the degree-16 Robinson output of P = X^2 - 3X - 4, M = 4: np.roots of
    # its lift is off by ~5e-8 in modulus, but every modulus is sqrt(7)
    # exactly, and the diagnostic, from the input's roots, reads float noise
    coeffs = ["512", "24576", "185344", "451584", "296256", "-262656", "-288480",
              "97056", "105825", "-36600", "-16964", "9144", "38", "-840", "220",
              "-24", "1"]
    rep = run_json(capsys, ["weil", "lift", "--q", "7", "--coeffs", json.dumps(coeffs)])
    assert len(rep["lifted"]) == 33 and rep["lifted"][-1] == "1"
    assert rep["max_modulus_error"] <= 1e-14 * math.sqrt(7)
    assert rep["moduli_ok"] is True
    assert rep["pushforward_ok"] is True


def test_weil_bound(capsys):
    w = 2 * math.sqrt(2)
    rep = run_json(capsys, ["weil", "bound", "--q", "2",
                            "--bands", json.dumps([[-w, w]])])
    assert rep["satisfied"] is True
    assert rep["capacity"] == pytest.approx(math.sqrt(2), rel=1e-9)
    assert rep["bound"] == pytest.approx(2 ** 0.25)
    rep = run_json(capsys, ["weil", "bound", "--q", "2", "--bands", "[[2.0,2.5]]"])
    assert rep["satisfied"] is False


def test_weil_bound_beyond_the_float_range(capsys):
    # q = 10^400 has no float, but sqrt(q) and q^(1/4) do; cap [-a, a] = a/2
    rep = run_json(capsys, ["weil", "bound", "--q", str(10**400), "--bands", "[[-1e200,1e200]]"])
    assert rep["bound"] == pytest.approx(1e100, rel=1e-15)
    assert rep["capacity"] == pytest.approx(1e100 * math.sqrt(5e199), rel=1e-9)
    assert rep["satisfied"] is True


def test_weil_bound_past_the_float_range_of_sqrt_q(capsys):
    # sqrt(10^700) has no float, but q^(1/4) = 10^175 does; past
    # q^(1/4) ~ 1.8e308 nothing does, and the input is refused
    rep = run_json(capsys, ["weil", "bound", "--q", str(10**700), "--bands", "[[-1e200,1e200]]"])
    assert rep["bound"] == 1e175
    assert rep["capacity"] == pytest.approx(1e175 * math.sqrt(5e199), rel=1e-12)
    assert rep["satisfied"] is True
    assert main(["weil", "bound", "--q", str(10**1300), "--bands", "[[-1e200,1e200]]"]) == 2
    assert "q = 10^1300.0: q^(1/4) lies outside the float range" in capsys.readouterr().err


# -- plumbing ----------------------------------------------------------------------


def test_exit_codes(capsys):
    assert main(["cap", "--bands", "not json"]) == 2
    capsys.readouterr()
    assert main(["weil", "lift", "--coeffs", "[-5,0,1]"]) == 2  # missing --q
    capsys.readouterr()
    # inadmissible multiplier for the fractional-lam preset
    assert main(["robinson", "--preset", "x2m5", "--n", "6"]) == 3
    err = capsys.readouterr().err
    assert "certification failure" in err


def test_minimax_exit_names_stage_and_tolerance(capsys):
    # t_4 = 2 (1e300/2)^4 overflows and t_64 = 2 (2.5e-6)^64 underflows
    for bands, n in (("[[-1e300,1e300]]", "4"), ("[[0,1e-5]]", "64")):
        assert main(["cap", "--bands", bands, "--method", "chebyshev", "--n", n]) == 4
        err = capsys.readouterr().err
        assert f"minimax norm t_{n} = 10^" in err and "outside the float range" in err


def test_minimax_closes_a_former_stall(capsys):
    # a hull Chebyshev basis stalled here near 1e-11; the bracket now closes
    E = [(-2.3708, -1.4152), (1.7238, 2.0630)]
    rep = run_json(capsys, ["cap", "--bands", json.dumps(E), "--method", "chebyshev",
                            "--n", "14"])["diagnostics"]
    assert 0.0 <= rep["t_n"] - rep["t_n_lower"] <= 1e-12 * rep["t_n"]
    cap = capell.capacity.capacity(make_interval_union(E)).value
    assert rep["t_n"] >= 2.0 * cap**14 * (1 - 1e-9)


def _strict_json(text):
    def reject(name):
        raise ValueError(f"non-standard JSON constant {name}")
    return json.loads(text, parse_constant=reject)


def test_fekete_at_the_float_range_edge(capsys):
    # the pairwise distances of points near +-1e308 overflow unless mapped first
    rc = main(["fekete", "--bands", "[[-1e308,1e308]]", "--n", "5"])
    wide = _strict_json(capsys.readouterr().out)
    assert rc == 0
    unit = run_json(capsys, ["fekete", "--bands", "[[-1,1]]", "--n", "5"])
    assert wide["diameter"] == pytest.approx(1e308 * unit["diameter"], rel=1e-12)

    # d_2 = 2e308 is not a float; d_5 of a slightly smaller union is
    assert main(["cap", "--bands", "[[-1e308,1e308]]", "--method", "fekete", "--n", "5"]) == 4
    assert "Fekete diameter d_2 lies outside the float range" in capsys.readouterr().err
    rc = main(["cap", "--bands", "[[-8e307,8e307]]", "--method", "fekete", "--n", "5"])
    wide = _strict_json(capsys.readouterr().out)
    assert rc == 0
    unit = run_json(capsys, ["cap", "--bands", "[[-1,1]]", "--method", "fekete", "--n", "5"])
    for d, d1 in zip(wide["diagnostics"]["d_n"], unit["diagnostics"]["d_n"]):
        assert d == pytest.approx(8e307 * d1, rel=1e-12)


def test_unknown_problem_key(capsys, tmp_path):
    prob = tmp_path / "bad.json"
    prob.write_text(json.dumps({"bands": [[-2, 2]], "typo_key": 1}))
    assert main(["cap", "--problem", str(prob)]) == 2
    assert "typo_key" in capsys.readouterr().err


def test_problem_round_trip(tmp_path):
    prob = tmp_path / "p.json"
    prob.write_text(json.dumps({
        "bands": [[-2, 2]], "method": "abel_integral", "M": "4",
        "coeffs": [-6, 0, 1],
    }))
    one = load_problem(str(prob))
    prob.write_text(json.dumps(one))
    assert load_problem(str(prob)) == one


def test_flags_beat_problem_file(capsys, tmp_path):
    prob = tmp_path / "p.json"
    prob.write_text(json.dumps({"bands": [[0, 4]], "method": "closed_form"}))
    rep = run_json(capsys, ["cap", "--problem", str(prob)])
    assert rep["value"] == pytest.approx(1.0)
    rep = run_json(capsys, ["cap", "--problem", str(prob), "--bands", "[[0,8]]"])
    assert rep["value"] == pytest.approx(2.0)


def test_output_file(tmp_path, capsys):
    dest = tmp_path / "out.json"
    rc = main(["cap", "--bands", "[[-2,2]]", "--output", str(dest)])
    assert rc == 0
    assert capsys.readouterr().out == ""
    assert json.loads(dest.read_text())["value"] == pytest.approx(1.0, abs=1e-8)


def test_deterministic_output(capsys):
    main(["robinson", "--preset", "x2m6", "--degree", "16"])
    first = capsys.readouterr().out
    main(["robinson", "--preset", "x2m6", "--degree", "16"])
    assert capsys.readouterr().out == first
    main(["cap", "--bands", "[[-2,2]]", "--method", "abel"])
    a = capsys.readouterr().out
    main(["cap", "--bands", "[[-2,2]]", "--method", "abel"])
    assert capsys.readouterr().out == a
