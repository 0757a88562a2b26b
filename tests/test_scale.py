"""Capacity at every scale: diameters from 1e-300 to the float ends.

The integral route maps E onto [-1, 1] before it takes the capacity limit,
so cap(sE + t) = |s| cap(E) holds to rounding for any s the floats can
carry.  Unions the floats cannot resolve are rejected as bad input.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from capell.abel import solve_R
from capell.capacity import capacity
from capell.cli import main
from capell.core import make_interval_union

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


def run_cap(capsys, bands, *extra):
    rc = main(["cap", "--bands", json.dumps(bands), *extra])
    out = capsys.readouterr().out
    assert rc == 0, out
    return json.loads(out)


# [0, s] u [2s, 3s] is the symmetric pair [-1.5s, -0.5s] u [0.5s, 1.5s] moved
# by 1.5s; its capacity is 0.5 s sqrt(1.5^2 - 0.5^2) = s / sqrt(2)
SCALE_CASES = [([[0, s], [2 * s, 3 * s]], s / math.sqrt(2))
               for s in (1e-300, 1e-100, 1e-20, 1e20, 1e100, 1e300)]
SCALE_CASES += [([[0, 1e-300]], 0.25e-300), ([[-1e308, 1e308]], 5e307)]


@pytest.mark.parametrize("bands,exact", SCALE_CASES, ids=[str(b) for b, _ in SCALE_CASES])
def test_cap_is_exact_at_every_scale(capsys, bands, exact):
    rep = run_cap(capsys, bands)
    assert rep["value"] == pytest.approx(exact, rel=1e-12)
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
    ref = capacity(make_interval_union(bands))
    s = sign * 10.0 ** k
    moved = make_interval_union([tuple(sorted((s * (a + shift), s * (b + shift))))
                                 for a, b in bands])
    rep = capacity(moved)
    assert rep.value == pytest.approx(abs(s) * ref.value, rel=1e-12)
    assert sum(rep.diagnostics["omega"]) == pytest.approx(1.0, abs=1e-12)
    omega = rep.diagnostics["omega"][::-1] if sign < 0 else rep.diagnostics["omega"]
    assert np.allclose(omega, ref.diagnostics["omega"], rtol=0, atol=1e-10)


def _pell_ladder(k: int, c: float = 3.0):
    """P^{-1}([-2, 2]) for P = f o ... o f (k times), f = x^2 - c, c > 2:
    2^k bands, capacity exactly 1, every band mass exactly 2^-k."""
    bands = [(-2.0, 2.0)]
    for _ in range(k):
        right = [(math.sqrt(c + a), math.sqrt(c + b)) for a, b in bands]
        bands = [(-b, -a) for a, b in reversed(right)] + right
    return make_interval_union(bands)


@pytest.mark.parametrize("k", range(1, 7))
def test_pell_ladder_has_capacity_one_and_equal_masses(k):
    rep = capacity(_pell_ladder(k))
    assert rep.value == pytest.approx(1.0, rel=1e-12)
    assert np.allclose(rep.diagnostics["omega"], 2.0 ** -k, rtol=0, atol=1e-12)


@pytest.mark.parametrize("s", [1e-300, 1e-170, 1e200, 1e300])
def test_closed_form_and_integral_agree_on_symmetric_pairs(capsys, s):
    bands = [[-3 * s, -s], [s, 3 * s]]
    closed = run_cap(capsys, bands, "--method", "closed_form")["value"]
    integral = run_cap(capsys, bands)["value"]
    assert closed == pytest.approx(math.sqrt(2) * s, rel=1e-15)
    assert integral == pytest.approx(closed, rel=1e-12)


def test_closed_form_holds_at_the_float_ends(capsys):
    assert run_cap(capsys, [[-1e308, 1e308]], "--method", "closed_form")["value"] == 5e307
    two = run_cap(capsys, [[-1e308, -1e307], [1e307, 1e308]], "--method", "closed_form")
    assert two["value"] == pytest.approx(0.5e308 * math.sqrt(0.99), rel=1e-15)


def test_union_at_the_float_ends_keeps_its_gap():
    E = make_interval_union([(-1e308, -1e307), (1e307, 1e308)])
    assert E.bands == ((-1e308, -1e307), (1e307, 1e308))


def test_union_below_the_float_range_exits_2(capsys):
    assert main(["cap", "--bands", "[[0, 5e-324]]"]) == 2
    assert "float range" in capsys.readouterr().err


def test_eqm_grid_at_the_float_ends(capsys):
    assert main(["eqm", "--bands", "[[-1e308,1e308]]", "--samples", "3"]) == 0
    rows = [tuple(map(float, ln.split(","))) for ln in capsys.readouterr().out.splitlines()[2:]]
    assert [x for x, _ in rows] == [-5e307, 0.0, 5e307]
    for x, d in rows:
        exact = 1.0 / (math.pi * 1e308 * math.sqrt(1.0 - (x / 1e308) ** 2))
        assert d == pytest.approx(exact, rel=1e-12)
