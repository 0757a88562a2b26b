"""Byte-for-byte regression of the README's CLI commands.

The files under ``tests/golden`` hold outputs written before a refactor of
the code behind them; a change that keeps behaviour must keep every byte.

``robinson`` cases: integer lam (x2m6), half-integer lam with the correction
sweep (x2m5), a three-band problem file with odd M, whose table skips an
inadmissible n and ends off the powers of two, and x^2 - 5 at M just below 5,
whose bands +-[1e-10, sqrt 10] nearly touch, so its ends come from Sturm
isolation; JSON only, a four-band quartic
problem file with odd M and seven correction terms at degree 128.  The other subcommands run on
[-2, 2] and on the README's two-band pair, which exercises the band profiles
and the Pell synthesis.  ``cap`` on the 64-band pullback of [-2, 2] by six
compositions of x^2 - 3 solves the gap conditions and re-checks them on the
fine grid on many gaps.

The comparison is byte-exact.  On a mismatch the message names the first
differing number and its relative change, the figure to state when a golden
file is regenerated on purpose.
"""

import json
import re
from pathlib import Path

import pytest

from capell.cli import main
from test_scale import _pell_ladder

GOLDEN = Path(__file__).parent / "golden"
_NUMBER = re.compile(rb"-?(?:\d+\.?\d*(?:[eE][-+]?\d+)?|Infinity)|NaN")


def _first_difference(got: bytes, want: bytes) -> str:
    """Where got first departs from the golden bytes want, by number."""
    a, b = _NUMBER.findall(got), _NUMBER.findall(want)
    for i, (x, y) in enumerate(zip(a, b)):
        if x != y:
            fx, fy = float(x), float(y)
            rel = abs(fx - fy) / abs(fy) if fy else abs(fx - fy)
            return (f"number {i}: {x.decode()} where the golden file has {y.decode()}, "
                    f"relative change {rel:.2e}")
    if len(a) != len(b):
        return f"{len(a)} numbers where the golden file has {len(b)}"
    return "every number matches; the text between them differs"


def _assert_golden(out: str, name: str) -> None:
    got, want = out.encode(), (GOLDEN / name).read_bytes()
    assert got == want, f"{name}: {_first_difference(got, want)}"

CASES = [
    ("x2m6_d64", ["--preset", "x2m6", "--degree", "64"]),
    ("x2m5_d16", ["--preset", "x2m5", "--degree", "16"]),
    ("cubic_m5", ["--problem", str(GOLDEN / "cubic_m5_problem.json")]),
    ("near_touch_m5", ["--problem", str(GOLDEN / "near_touch_m5_problem.json")]),
]

I22 = "[[-2,2]]"
PAIR = "[[-2.8284271247,-1.4142135624],[1.4142135624,2.8284271247]]"

# (file name, argv); the file name's suffix is the output format
CLI_CASES = [
    ("cap_abel.json", ["cap", "--bands", I22, "--method", "abel"]),
    ("cap_closed_form.json", ["cap", "--bands", I22, "--method", "closed_form"]),
    ("cap_chebyshev_n64.json", ["cap", "--bands", I22, "--method", "chebyshev", "--n", "64"]),
    ("cap_abel_pair.json", ["cap", "--bands", PAIR]),
    ("cap_abel_ladder64.json", ["cap", "--bands", json.dumps(_pell_ladder(6).bands)]),
    ("eqm_s5.csv", ["eqm", "--bands", I22, "--samples", "5"]),
    ("eqm_s5.json", ["eqm", "--bands", I22, "--samples", "5", "--format", "json"]),
    ("eqm_pair_s5.json", ["eqm", "--bands", PAIR, "--samples", "5", "--format", "json"]),
    ("energy_uniform.json", ["energy", "--bands", PAIR, "--density", "uniform"]),
    ("energy_equilibrium.json", ["energy", "--bands", PAIR, "--density", "equilibrium"]),
    ("fekete_n6.json", ["fekete", "--bands", PAIR, "--n", "6"]),
    ("cap_fekete_n6.json", ["cap", "--bands", PAIR, "--method", "fekete", "--n", "6"]),
    ("pell_detect.json", ["pell", "detect", "--bands", PAIR]),
    ("pell_construct_r2.json", ["pell", "construct", "--bands", PAIR, "--r", "2"]),
    ("pell_rationalize.json", ["pell", "rationalize", "--bands", PAIR, "--m-prime", "5/2"]),
    ("weil_lift.json", ["weil", "lift", "--q", "2", "--coeffs", "[-5,0,1]"]),
    ("weil_bound.json", ["weil", "bound", "--q", "2", "--bands", "[[-2.8284271247,2.8284271247]]"]),
    ("quartic_m5.json", ["robinson", "--problem", str(GOLDEN / "quartic_m5_problem.json")]),
]


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("name,args", CASES, ids=[c[0] for c in CASES])
def test_robinson_output_is_byte_identical(capsys, name, args, fmt):
    rc = main(["robinson", *args, "--format", fmt])
    out = capsys.readouterr().out
    assert rc == 0
    _assert_golden(out, f"{name}.{fmt}")


@pytest.mark.parametrize("name,argv", CLI_CASES, ids=[c[0] for c in CLI_CASES])
def test_cli_output_is_byte_identical(capsys, name, argv):
    rc = main(argv)
    out = capsys.readouterr().out
    assert rc == 0
    _assert_golden(out, name)
