"""Self-tests of the benchmark; run from the root of a source checkout:

    python3 perfbench/selftest.py

They check that one seed gives byte-identical inputs, that the oracles
catch a corrupted output (a flipped certificate sign, a capacity off by
1e-8, a non-integer lifted coefficient), and that tracing wraps every
binding and computes self time correctly.  Prints one PASS/FAIL line per
test; exits 1 if any fails.
"""

from __future__ import annotations

import json
import shutil
import sys
import traceback
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402  (sets the BLAS thread pins before numpy loads)

sys.path.insert(0, str(run.SRC))

from tracing import SPANNED, Tracer, _capell_modules, _resolve, self_times  # noqa: E402
from workloads import WORKLOADS, CheckFailed, Op  # noqa: E402

TMP = run.ROOT / ".perfbench_tmp" / "selftest"


def fresh_dir(name: str) -> Path:
    d = TMP / name
    shutil.rmtree(d, ignore_errors=True)
    d.mkdir(parents=True)
    return d


def snapshot(workload, seed: int, name: str) -> bytes:
    """Every generated argv plus every generated file, with the directory
    name taken out."""
    d = fresh_dir(name)
    stream = run.Stream(workload, seed, d)
    ops = stream.round(0) + stream.round(1)
    parts = [json.dumps([op.kind, op.argv]).replace(str(d), "<dir>").encode() for op in ops]
    for f in sorted(d.iterdir()):
        parts.append(f.name.encode() + b"\0" + f.read_bytes().replace(str(d).encode(), b"<dir>"))
    return b"\n".join(parts)


def test_same_seed_same_inputs():
    for workload in WORKLOADS.values():
        a = snapshot(workload, 7, "a")
        b = snapshot(workload, 7, "b")
        c = snapshot(workload, 8, "c")
        assert a == b, f"{workload.name}: seed 7 gave different inputs"
        assert a != c, f"{workload.name}: seeds 7 and 8 gave the same inputs"


def run_ok(workload, op: Op) -> str:
    rc, _, text, err = run.call(op, fresh_dir("out") / "op.out")
    assert rc == 0, f"{op.argv[:2]} exited {rc}: {err}"
    workload.check(op, text)
    return text


def expect_caught(workload, op: Op, text: str, cause: str) -> None:
    try:
        workload.check(op, text)
    except CheckFailed as exc:
        assert exc.cause == cause, f"caught as {exc.cause}, want {cause}: {exc}"
        return
    raise AssertionError(f"corrupted {op.kind} output passed its oracle")


def test_flipped_certificate_sign_caught():
    w = WORKLOADS["robinson-cert"]
    d = fresh_dir("rob")
    (d / "p.json").write_text(json.dumps({"coeffs": ["-7", "0", "1"], "M": 5, "degree": 16}))
    inst = {"P": [-7, 0, 1], "M": 5, "r": 2, "problem": str(d / "p.json"), "degree": 16}
    op = Op("json", ["robinson", "--problem", str(d / "p.json")], inst)
    out = json.loads(run_ok(w, op))
    out["certificate"]["bands"][0]["signs"][1] *= -1
    expect_caught(w, op, json.dumps(out), "exact")


def test_capacity_off_by_1e8_caught():
    w = WORKLOADS["cap-bands"]
    stream = run.Stream(w, 7, fresh_dir("cap"))
    op = stream.round(0)[0]
    assert op.kind == "cap"
    out = json.loads(run_ok(w, op))
    out["value"] *= 1 + 1e-8
    expect_caught(w, op, json.dumps(out), "oracle")


def test_non_integer_lift_caught():
    w = WORKLOADS["weil-lift"]
    inst = {"P": [-6, 0, 1], "M": 4, "r": 2, "q": 4, "points": ["3/2", "-5/7"],
            "coeffs": ["-4", "0", "1"]}
    op = Op("lift", ["weil", "lift", "--q", "4", "--coeffs", '["-4", "0", "1"]'], inst)
    out = json.loads(run_ok(w, op))
    out["lifted"][1] = str(Fraction(out["lifted"][1]) + Fraction(1, 2))
    expect_caught(w, op, json.dumps(out), "exact")


def test_weil_inputs_are_robinson_outputs():
    import random

    from workloads import _pell_problem, robinson_even

    rng = random.Random(7)
    d = fresh_dir("weil")
    for r, M in ((2, 4), (3, 6)):
        cs = _pell_problem(rng, r, M)
        (d / "p.json").write_text(json.dumps({"coeffs": [str(c) for c in cs], "M": M,
                                              "degree": 16}))
        rc, _, text, err = run.call(Op("json", ["robinson", "--problem", str(d / "p.json")]),
                                    d / "op.out")
        assert rc == 0, err
        got = [int(c) for c in json.loads(text)["P_coeffs"]]
        assert got == robinson_even(cs, M, 16), f"P={cs} M={M}"


def test_tracer_wraps_every_binding():
    import capell.cli

    originals = [_resolve(m, a)[0].__dict__[_resolve(m, a)[1]] for m, a, _ in SPANNED]
    tracer = Tracer()
    tracer.install()
    try:
        for mod in _capell_modules():
            for key, val in vars(mod).items():
                assert not any(val is o for o in originals), f"{mod.__name__}.{key} unwrapped"
        tracer.op = 0
        rc = capell.cli.main(["cap", "--bands", "[[-2,-1],[1,2]]", "--output",
                              str(fresh_dir("trace") / "op.out")])
        assert rc == 0
    finally:
        tracer.uninstall()
    names = [s[0] for s in tracer.spans]
    assert names[0] == "cli.main" and tracer.spans[0][3] == -1, "cli.main is not the root"
    assert all(s[3] >= 0 for s in tracer.spans[1:]), "a span outside cli.main"
    for want in ("capacity.capacity", "abel.solve_R", "abel.abel_capacity"):
        assert want in names, f"no {want} span"
    self_s, calls = self_times(tracer.spans)
    root = tracer.spans[0][2] - tracer.spans[0][1]
    assert abs(sum(self_s.values()) - root) < 1e-9 * max(1.0, root), "self times do not add up"
    solve_R = _resolve("capell.abel", "solve_R")[0].__dict__["solve_R"]
    assert capell.cli.solve_R is solve_R in originals, "uninstall left a wrapper"


def test_self_times():
    spans = [("a", 0.0, 10.0, -1, 0), ("b", 2.0, 5.0, 0, 0), ("c", 3.0, 4.0, 1, 0),
             ("b", 6.0, 7.0, 0, 0)]
    self_s, calls = self_times(spans)
    assert self_s == {"a": 6.0, "b": 3.0, "c": 1.0}, self_s
    assert calls == {"a": 1, "b": 2, "c": 1}


def main() -> int:
    failed = 0
    tests = [v for k, v in globals().items() if k.startswith("test_")]
    try:
        for test in tests:
            try:
                test()
                print(f"PASS {test.__name__}")
            except Exception:
                failed += 1
                print(f"FAIL {test.__name__}\n{traceback.format_exc()}")
    finally:
        shutil.rmtree(TMP, ignore_errors=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
