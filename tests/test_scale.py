"""Capacity at every scale: diameters from 1e-300 to the float ends, and
unions far from the origin compared with their gaps.  Robinson's
construction at every scale: x^2 - 3 10^k with M = 10^k up to k = 100.

The integral route solves on E mapped onto [-1, 1], so cap(sE + t) = |s| cap(E)
holds to rounding for any s and t the floats can carry; where E + t is exact
in floats, E + t maps onto the same unit union bit for bit.  Unions the floats
cannot resolve are rejected as bad input.
"""

import contextlib
import json
import math
import os
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import capell.abel
from capell._quad import uniform_density
from capell.abel import solve_R
from capell.capacity import capacity
from capell.cli import main
from capell.core import make_interval_union
from test_acceptance import cantor_union
from test_cli import _recheck_certificate

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


def run_cap(capsys, bands, *extra):
    rc = main(["cap", "--bands", json.dumps(bands), *extra])
    out = capsys.readouterr().out
    assert rc == 0, out
    return json.loads(out)


@contextlib.contextmanager
def band_integrals():
    """Each ``_band_etas`` result, the band integrals eta; the last is the one
    ``solve_R`` accepted.  omega = eta / sum(eta) sums to 1 whatever eta is,
    so the unit mass is checked on eta: sum(eta) = pi."""
    seen, band_etas = [], capell.abel._band_etas
    capell.abel._band_etas = lambda *a: seen.append(band_etas(*a)) or seen[-1]
    try:
        yield seen
    finally:
        capell.abel._band_etas = band_etas


def assert_unit_mass(eta):
    assert abs(float(eta.sum()) / math.pi - 1.0) <= 1e-12


# [0, s] u [2s, 3s] is the symmetric pair [-1.5s, -0.5s] u [0.5s, 1.5s] moved
# by 1.5s; its capacity is 0.5 s sqrt(1.5^2 - 0.5^2) = s / sqrt(2)
SCALE_CASES = [([[0, s], [2 * s, 3 * s]], s / math.sqrt(2))
               for s in (1e-300, 1e-100, 1e-20, 1e20, 1e100, 1e300)]
SCALE_CASES += [([[0, 1e-300]], 0.25e-300), ([[-1e308, 1e308]], 5e307)]


@pytest.mark.parametrize("bands,exact", SCALE_CASES, ids=[str(b) for b, _ in SCALE_CASES])
def test_cap_is_exact_at_every_scale(capsys, bands, exact):
    with band_integrals() as eta:
        rep = run_cap(capsys, bands)
    assert rep["value"] == pytest.approx(exact, rel=1e-12)
    assert_unit_mass(eta[-1])
    assert sum(rep["diagnostics"]["omega"]) == pytest.approx(1.0, abs=1e-12)


def test_cap_of_the_unit_interval_pair_is_exact(capsys):
    assert run_cap(capsys, [[-2, 2]], "--method", "abel")["value"] == 1.0


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.floats(0.2, 1.0), st.floats(0.2, 1.0)), min_size=2, max_size=6),
       st.integers(-300, 300), st.sampled_from([1.0, -1.0]), st.floats(-3.0, 3.0))
def test_capacity_scales_with_the_union(steps, k, sign, shift):
    # bands of length 0.2..1 with gaps of 0.2..1 between them
    bands, x = [], 0.0
    for length, gap in steps:
        bands.append((x, x + length))
        x += length + gap
    s = sign * 10.0 ** k
    moved = make_interval_union([tuple(sorted((s * (a + shift), s * (b + shift))))
                                 for a, b in bands])
    with band_integrals() as eta:
        ref = capacity(make_interval_union(bands))
        assert_unit_mass(eta[-1])
        rep = capacity(moved)
        assert_unit_mass(eta[-1])
    assert rep.value == pytest.approx(abs(s) * ref.value, rel=1e-12)
    assert sum(rep.diagnostics["omega"]) == pytest.approx(1.0, abs=1e-12)
    omega = rep.diagnostics["omega"][::-1] if sign < 0 else rep.diagnostics["omega"]
    assert np.allclose(omega, ref.diagnostics["omega"], rtol=0, atol=1e-10)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.integers(1, 680), st.integers(1, 680)), min_size=2, max_size=6),
       st.integers(0, 40), st.sampled_from([1.0, -1.0]))
def test_capacity_is_invariant_under_dyadic_shifts(steps, j, sign):
    # endpoints on a 2^-10 grid, diameter at most 8: E + t is exact in floats
    bands, x = [], 0.0
    for length, gap in steps:
        bands.append((x, x + length / 1024))
        x += (length + gap) / 1024
    t = sign * 2.0 ** j
    ref = capacity(make_interval_union(bands)).value
    moved = capacity(make_interval_union([(a + t, b + t) for a, b in bands])).value
    assert moved == pytest.approx(ref, rel=1e-12)


# [c, c+1] u [c+1+d, c+2]: each exited 4 while the solve ran in E's own
# coordinates
OFFSET_CASES = [(100, 1e-4), (1000, 1e-4)] + [(c, d) for c in (1e4, 1e6)
                                               for d in (1e-2, 1e-3, 1e-4)]


@pytest.mark.parametrize("c,d", OFFSET_CASES)
def test_union_far_from_the_origin_matches_it_at_the_origin(capsys, c, d):
    at_zero = run_cap(capsys, [[0, 1], [1 + d, 2]])["value"]
    assert run_cap(capsys, [[c, c + 1], [c + 1 + d, c + 2]])["value"] == pytest.approx(
        at_zero, rel=1e-12)


def test_weil_bound_on_trace_bands_far_from_the_origin(capsys):
    rc = main(["weil", "bound", "--q", "1000000", "--bands", "[[1990,1991],[1991.0001,1992]]"])
    out = capsys.readouterr().out
    assert rc == 0, out
    assert json.loads(out)["satisfied"] is False


def _pell_ladder(k: int, c: float = 3.0):
    """P^{-1}([-2, 2]) for P = f o ... o f (k times), f = x^2 - c, c > 2:
    2^k bands, capacity exactly 1, every band mass exactly 2^-k."""
    bands = [(-2.0, 2.0)]
    for _ in range(k):
        right = [(math.sqrt(c + a), math.sqrt(c + b)) for a, b in bands]
        bands = [(-b, -a) for a, b in reversed(right)] + right
    return make_interval_union(bands)


def _ladder_critical_points(k: int, c: float = 3.0) -> np.ndarray:
    """Critical points of P = f o ... o f (k times): P' = prod_m 2 P_m for the
    partial compositions P_m, m < k, so they are the preimages of 0 under
    each P_m."""
    level, out = [0.0], [0.0]
    for _ in range(k - 1):
        level = [s * math.sqrt(c + y) for y in level for s in (-1.0, 1.0)]
        out += level
    return np.sort(out)


@pytest.mark.parametrize("k", range(1, 9))
def test_pell_ladder_has_capacity_one_and_equal_masses(k, monkeypatch):
    rep = capacity(_pell_ladder(k))
    assert rep.value == pytest.approx(1.0, rel=1e-12)
    assert np.allclose(rep.diagnostics["omega"], 2.0 ** -k, rtol=0, atol=1e-12)
    # R is P' up to a constant, so the gap roots are P's critical points
    solves = []
    solve = np.linalg.solve
    monkeypatch.setattr(np.linalg, "solve", lambda *a: solves.append(1) or solve(*a))
    roots = solve_R(_pell_ladder(k)).gap_roots
    assert np.allclose(roots, _ladder_critical_points(k), rtol=0, atol=1e-10)
    # one solve per solve grid: on 32 nodes, and on the 64-node re-check grid
    assert len(solves) <= 2


def test_cantor_level_10_runs_under_450_mb():
    # 1,024 bands: the gap rows go in blocks, so memory grows as O(g n), not
    # O(g^2 n).  Both runs use one BLAS thread, whose solve rounds the same.
    bands = json.dumps(cantor_union(10).bands)
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
           "PYTHONPATH": os.path.dirname(os.path.dirname(capell.abel.__file__))}

    def cap(limit):
        run = (f"import resource, sys; resource.setrlimit(resource.RLIMIT_AS, ({limit},) * 2); "
               "from capell.cli import main; sys.exit(main(sys.argv[1:]))")
        child = subprocess.run([sys.executable, "-c", run, "cap", "--bands", bands],
                               capture_output=True, text=True, env=env, timeout=120)
        assert child.returncode == 0, child.stderr
        return child.stdout

    assert cap(450 << 20) == cap("resource.RLIM_INFINITY")


@pytest.mark.parametrize("delta", [1e-5, 1e-6, 1e-8, 1e-10, 3e-12])
def test_near_touching_bands_keep_unit_mass(capsys, delta):
    with band_integrals() as eta:
        rep = run_cap(capsys, [[0, 1], [1 + delta, 2]])
    assert_unit_mass(eta[-1])
    assert rep["diagnostics"]["omega"] == [x / eta[-1].sum() for x in eta[-1]]
    assert sum(rep["diagnostics"]["omega"]) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("delta", [1e-5, 1e-6, 1e-8, 1e-10, 3e-12])
def test_near_touching_symmetric_pair_matches_closed_form(capsys, delta):
    bands = [[-1, -delta / 2], [delta / 2, 1]]
    closed = run_cap(capsys, bands, "--method", "closed_form")["value"]
    assert run_cap(capsys, bands)["value"] == pytest.approx(closed, rel=1e-12)


@pytest.mark.parametrize("s", [1e-300, 1e-170, 1e200, 1e300])
def test_closed_form_and_integral_agree_on_symmetric_pairs(capsys, s):
    bands = [[-3 * s, -s], [s, 3 * s]]
    closed = run_cap(capsys, bands, "--method", "closed_form")["value"]
    integral = run_cap(capsys, bands)["value"]
    assert closed == pytest.approx(math.sqrt(2) * s, rel=1e-15)
    assert integral == pytest.approx(closed, rel=1e-12)


def test_closed_form_holds_at_the_float_ends(capsys):
    assert run_cap(capsys, [[-1e308, 1e308]], "--method", "closed_form")["value"] == 5e307
    pair = [[-1e308, -1e307], [1e307, 1e308]]
    two = run_cap(capsys, pair, "--method", "closed_form")["value"]
    assert two == pytest.approx(0.5e308 * math.sqrt(0.99), rel=1e-15)
    assert run_cap(capsys, pair)["value"] == pytest.approx(two, rel=1e-12)


@pytest.mark.parametrize("bands", ["[[-1e151,-1e150],[1e150,1e151]]",
                                   "[[-1e308,-1e307],[1e307,1e308]]"])
def test_pell_synthesis_beyond_the_float_range_exits_4(capsys, bands):
    # the datum solves, but P^2 - M^2 with M = 2 cap^2 overflows in floats
    assert main(["pell", "construct", "--bands", bands, "--r", "2"]) == 4
    assert "Pell synthesis" in capsys.readouterr().err


def test_union_at_the_float_ends_keeps_its_gap():
    E = make_interval_union([(-1e308, -1e307), (1e307, 1e308)])
    assert E.bands == ((-1e308, -1e307), (1e307, 1e308))


def test_union_below_the_float_range_exits_2(capsys):
    assert main(["cap", "--bands", "[[0, 5e-324]]"]) == 2
    assert "float range" in capsys.readouterr().err


def _eqm_rows(capsys, bands, samples):
    assert main(["eqm", "--bands", bands, "--samples", str(samples)]) == 0
    return [tuple(map(float, ln.split(","))) for ln in capsys.readouterr().out.splitlines()[2:]]


def _assert_arcsine(rows, b):
    """Each density is 1/(pi sqrt(b^2 - x^2)) to 1e-12 relative, compared
    after scaling by b: the density itself is subnormal at b = 1e308."""
    for x, d in rows:
        exact = 1.0 / (math.pi * math.sqrt(1.0 - (x / b) ** 2))
        assert d * b == pytest.approx(exact, rel=1e-12, abs=0)


def test_eqm_grid_at_the_float_ends(capsys):
    rows = _eqm_rows(capsys, "[[-1e308,1e308]]", 3)
    assert [x for x, _ in rows] == [-5e307, 0.0, 5e307]
    _assert_arcsine(rows, 1e308)


@pytest.mark.parametrize("samples", [5, 9])
def test_eqm_density_near_the_float_ends(capsys, samples):
    # at 9 samples the outer rows sit 0.2e308 from an end, where x - e
    # overflowed while the density was taken in E's own coordinates
    rows = _eqm_rows(capsys, "[[-1e308,1e308]]", samples)
    assert len(rows) == samples
    _assert_arcsine(rows, 1e308)


# log(2e308) - 3/2, and the uniform energy of [[-10,-1],[1,10]] (closed form,
# as in test_quad's README pair) plus log(1e307)
@pytest.mark.parametrize("bands,exact", [("[[-1e308,1e308]]", 708.38935582272602),
                                         ("[[-1e308,-1e307],[1e307,1e308]]", 708.40820757279887)])
def test_uniform_energy_at_the_float_ends(capsys, bands, exact):
    # |E| overflows to inf on both: the band weights are rho_j / sum(rho)
    rc = main(["energy", "--bands", bands, "--density", "uniform"])
    out = capsys.readouterr().out
    assert rc == 0, out
    assert json.loads(out)["energy"] == pytest.approx(exact, rel=1e-12, abs=0)


@settings(max_examples=10, deadline=None)
@given(st.lists(st.tuples(st.floats(0.2, 1.0), st.floats(0.2, 1.0)), min_size=1, max_size=3),
       st.integers(-300, 300), st.floats(-3.0, 3.0))
def test_uniform_energy_scales_with_the_union(steps, k, shift):
    # energy(sE + t) = energy(E) + log s for the uniform density
    bands, x = [], 0.0
    for length, gap in steps:
        bands.append((x, x + length))
        x += length + gap
    ref = uniform_density(make_interval_union(bands)).energy()
    s = 10.0 ** k
    moved = make_interval_union([(s * (a + shift), s * (b + shift)) for a, b in bands])
    assert uniform_density(moved).energy() == pytest.approx(ref + math.log(s), rel=1e-12, abs=1e-12)


def _rounds_to(f: float, N: int) -> bool:
    """Whether the float f > 0 is sqrt(N) correctly rounded.  For a square N
    that is float(sqrt N) (ints round to nearest, ties to even: 2 10^23 is
    such a tie).  Otherwise sqrt N is irrational, and N lies strictly
    between the squares of the midpoints from f to its float neighbours."""
    s = math.isqrt(N)
    if s * s == N:
        return f == float(s)
    lo = (Fraction(f) + Fraction(math.nextafter(f, 0.0))) / 2
    hi = (Fraction(f) + Fraction(math.nextafter(f, math.inf))) / 2
    return lo * lo < N < hi * hi


@pytest.mark.parametrize("k", range(1, 101))
def test_robinson_is_right_at_every_scale(capsys, tmp_path, k):
    # P = x^2 - 3 10^k and M = 10^k: E = +-[sqrt(2 10^k), sqrt(4 10^k)].  M is
    # even, so P'_n = P_n = 2 lam^n T_n(P/M) and its root measure lies
    # exactly 1/(2 degree) from mu_E.  From k = 39, 2 lam^8 is outside the
    # float range.
    P, M = [-3 * 10**k, 0, 1], 10**k
    prob = tmp_path / "prob.json"
    prob.write_text(json.dumps({"coeffs": [str(c) for c in P], "M": M, "degree": 16}))
    assert main(["robinson", "--problem", str(prob), "--format", "csv"]) == 0
    rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
    assert [int(d) for _, d, _ in rows] == [4, 8, 16]
    for _, degree, dist in rows:
        assert abs(float(dist) - 1 / (2 * int(degree))) <= 1e-14
    assert main(["robinson", "--problem", str(prob)]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["degree"] == 16
    _recheck_certificate(rep, P, M)
    (a, b), (c, d) = (band["band"] for band in rep["certificate"]["bands"])
    assert (a, b) == (-d, -c)
    assert _rounds_to(c, 2 * 10**k) and _rounds_to(d, 4 * 10**k)
    amplitude = 2 * Fraction(M, 2) ** 8
    cert = rep["certificate"]
    if amplitude > sys.float_info.max:
        assert cert["amplitude"] is None
    else:
        assert cert["amplitude"] == pytest.approx(float(amplitude), rel=1e-14)
    assert cert["correction_sup"] == 0.0 and cert["correction_terms"] == 0
