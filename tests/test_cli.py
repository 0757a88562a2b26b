import json
import math
import time
from fractions import Fraction

import pytest

import capell.capacity
import capell.cli
from capell.cli import dump_problem, load_problem, main

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
])
def test_robinson_rejects_bad_pell_polynomial(capsys, tmp_path, coeffs, M, message):
    prob = tmp_path / "prob.json"
    prob.write_text(json.dumps({"coeffs": coeffs, "M": M}))
    assert main(["robinson", "--problem", str(prob)]) == 2
    assert message in capsys.readouterr().err


def test_robinson_rejects_degree_above_cap(capsys):
    # a target degree and an explicit multiplier meet one cap, before any work
    for flag, value in (("--degree", "2000"), ("--n", "1024")):
        t0 = time.perf_counter()
        assert main(["robinson", "--preset", "x2m6", flag, value]) == 2
        assert time.perf_counter() - t0 < 1.0
        assert "max_degree = 512" in capsys.readouterr().err


def test_robinson_degree_512_certificate_redecided(capsys):
    rep = run_json(capsys, ["robinson", "--preset", "x2m6", "--degree", "512"])
    coeffs = [int(c) for c in rep["P_coeffs"]]
    d = len(coeffs) - 1
    assert d == rep["degree"] == 512 and coeffs[-1] == 1

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
        # inside E = {(x^2 - 6)^2 <= 4^2}, increasing, and past the last band
        assert all((x * x - 6) ** 2 <= 16 for x in xs)
        assert all(u < v for u, v in zip(xs, xs[1:]))
        assert last is None or last < xs[0]
        signs = [sign(x) for x in xs]
        assert signs == band["signs"]
        assert all(s * t == -1 for s, t in zip(signs, signs[1:]))
        assert band["count"] == len(xs) - 1
        total += band["count"]
        last = xs[-1]
    assert total == 512


def test_robinson_degree_512_csv(capsys):
    rc = main(["robinson", "--preset", "x2m6", "--degree", "512", "--format", "csv"])
    lines = capsys.readouterr().out.splitlines()
    assert rc == 0
    n_s, deg_s, d_s = lines[-1].split(",")
    assert (n_s, deg_s) == ("256", "512")
    # 1/(4n) up to the equilibrium CDF's quadrature error
    assert float(d_s) == pytest.approx(1.0 / 1024, abs=1e-8)


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
])
def test_malformed_input_exits_2(capsys, argv):
    assert main(argv) == 2
    assert "error:" in capsys.readouterr().err


def test_malformed_problem_file_exits_2(capsys, tmp_path):
    prob = tmp_path / "bad.json"
    prob.write_text(json.dumps({"bands": 5, "coeffs": 7}))
    assert main(["cap", "--problem", str(prob)]) == 2
    assert "wrong shape" in capsys.readouterr().err


@pytest.mark.parametrize("n", ["1", "13"])
def test_cap_fekete_count_checked_before_work(capsys, n):
    t0 = time.perf_counter()
    rc = main(["cap", "--bands", "[[-2,2]]", "--method", "fekete", "--n", n])
    assert time.perf_counter() - t0 < 1.0
    assert rc == 2
    assert "between 2 and 12" in capsys.readouterr().err


# -- weil --------------------------------------------------------------------------


def test_weil_lift(capsys):
    rep = run_json(capsys, ["weil", "lift", "--q", "2", "--coeffs", "[-5,0,1]"])
    assert rep["lifted"] == ["4", "0", "-1", "0", "1"]
    assert rep["moduli_ok"] is True
    assert rep["pushforward_ok"] is True
    assert rep["max_modulus_error"] <= 1e-10 * math.sqrt(2)


def test_weil_lift_moduli_are_exact(capsys):
    # the degree-16 Robinson output of P = X^2 - 3X - 4, M = 4: its lift has
    # float root moduli off by ~5e-8, but every modulus is sqrt(7) exactly
    coeffs = ["512", "24576", "185344", "451584", "296256", "-262656", "-288480",
              "97056", "105825", "-36600", "-16964", "9144", "38", "-840", "220",
              "-24", "1"]
    rep = run_json(capsys, ["weil", "lift", "--q", "7", "--coeffs", json.dumps(coeffs)])
    assert len(rep["lifted"]) == 33 and rep["lifted"][-1] == "1"
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
    # the bracket stalls near 1e-11, above the relative tolerance
    argv = ["cap", "--bands", "[[-2.3708,-1.4152],[1.7238,2.0630]]",
            "--method", "chebyshev", "--n", "14"]
    assert main(argv) == 4
    err = capsys.readouterr().err
    assert "minimax exchange: no convergence in 200 iterations" in err
    assert "relative, tol 1e-12)" in err


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
    prob.write_text(dump_problem(one))
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
