"""Byte-for-byte regression of the ``robinson`` CLI.

The files under ``tests/golden`` hold the outputs of the scalar-bisection,
Sturm-refinement implementation.  Bisecting all intervals together and
refining by exact signs make the same decisions and the same floats, so
every output, certificate and Kolmogorov distance must stay identical.
Cases: integer lam (x2m6), half-integer lam with the correction sweep
(x2m5), and a three-band problem file with odd M, whose table skips an
inadmissible n and ends off the powers of two.
"""

from pathlib import Path

import pytest

from capell.cli import main

GOLDEN = Path(__file__).parent / "golden"

CASES = [
    ("x2m6_d64", ["--preset", "x2m6", "--degree", "64"]),
    ("x2m5_d16", ["--preset", "x2m5", "--degree", "16"]),
    ("cubic_m5", ["--problem", str(GOLDEN / "cubic_m5_problem.json")]),
]


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("name,args", CASES, ids=[c[0] for c in CASES])
def test_robinson_output_is_byte_identical(capsys, name, args, fmt):
    rc = main(["robinson", *args, "--format", fmt])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.encode() == (GOLDEN / f"{name}.{fmt}").read_bytes()
