"""The package's import surface, the names the benchmark traces, and the
functions the golden CLI commands reach."""

import importlib.util
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import capell
import capell.abel
import capell.capacity
import capell.cli
import capell.weil
from test_golden import CASES, CLI_CASES

ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "perfbench" / "tracing.py"


def test_package_exposes_modules():
    assert inspect.ismodule(capell.capacity)
    for name in ("abel", "capacity", "core", "pellabel", "robinson", "weil"):
        assert inspect.ismodule(getattr(capell, name))
    assert capell.__version__


def test_benchmark_traced_names_exist():
    # perfbench wraps these names by attribute lookup; a deletion that drops
    # one must fail here rather than in the benchmark
    spec = importlib.util.spec_from_file_location("capell_bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    tracer = tracing.Tracer()
    try:
        tracer.install()
    finally:
        tracer.uninstall()
    assert callable(capell.abel._cached_density.cache_clear)
    assert callable(capell.weil._band_capacity.cache_clear)


# Every function and method of src/capell that no golden CLI command calls,
# with the reason it stays.
UNREACHED_BY_GOLDEN = {
    "_quad.ThetaDensity.cdf": "perfbench traces it as BandDensity.cdf",
    "_quad.ThetaDensity._mass_above": "read by cdf, which perfbench traces",
    "_quad.ThetaDensity.band_masses": "read by cdf, which perfbench traces",
    "_quad.ThetaDensity._series": "the series cdf reads; perfbench traces cdf",
    "_quad.ThetaDensity._coefficients": "the series cdf reads; perfbench traces cdf",
    "abel.BandDensity._coefficients": "the series cdf reads; perfbench traces cdf",
    "_quad._cosine_series": "the series cdf reads; perfbench traces cdf",
    "abel._cached_density": "perfbench/run.py clears and reads its cache",
    "capacity._alternating_subset": "Remez exchange past its first reference; "
                                    "the cap-routes workload reaches it",
    "core.ExactPoly.__add__": "arithmetic of the exact type",
    "core.ExactPoly.__neg__": "arithmetic of the exact type",
    "core.ExactPoly.__rsub__": "arithmetic of the exact type",
    "core.ExactPoly.__pow__": "arithmetic of the exact type",
    "core.ExactPoly.__eq__": "value semantics of the exact type",
    "core.ExactPoly.__repr__": "value semantics of the exact type",
    "core.ExactPoly.x": "weil lift's window fallback on the squares, covered by "
                        "test_weil::test_window_on_the_squares_decides_at_the_edge",
    "weil._even_odd_parts": "weil lift's window fallback on the squares, covered by "
                            "test_weil::test_window_on_the_squares_decides_at_the_edge",
    "weil._quarter": "weil bound for q past the float range, covered by "
                     "test_cli::test_weil_bound_past_the_float_range_of_sqrt_q",
}

# Runs the argv lists in sys.argv[1] through capell.cli.main in a fresh
# interpreter under a profile hook set before capell is imported, and prints
# the functions and methods defined in src/capell that were never called.
_REACH = r"""
import contextlib, functools, io, json, sys, types

called = set()
sys.setprofile(lambda frame, event, arg: event == "call" and called.add(frame.f_code))
import capell.cli
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert capell.cli.main(argv) == 0, argv
sys.setprofile(None)


def functions(obj):
    obj = getattr(obj, "__func__", obj)
    if isinstance(obj, property):
        return [obj.fget]
    if isinstance(obj, functools.cached_property):
        return [obj.func]
    obj = getattr(obj, "__wrapped__", obj)
    return [obj] if isinstance(obj, types.FunctionType) else []


names = {}
for modname, mod in sorted(sys.modules.items()):
    if not modname.startswith("capell."):
        continue
    for attr, obj in vars(mod).items():
        if getattr(obj, "__module__", None) != modname:
            continue
        members = vars(obj).items() if isinstance(obj, type) else [(None, obj)]
        for member, value in members:
            for f in functions(value):
                if f.__code__.co_filename == mod.__file__:
                    name = ".".join(filter(None, (modname[7:], attr, member)))
                    names.setdefault(f.__code__, name)
print(json.dumps(sorted(n for code, n in names.items() if code not in called)))
"""


def test_golden_commands_reach_every_function_in_src():
    # a function no CLI command runs is dead weight unless a reason keeps it
    argvs = [["robinson", *args, "--format", fmt] for _, args in CASES for fmt in ("json", "csv")]
    argvs += [argv for _, argv in CLI_CASES]
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = subprocess.run([sys.executable, "-c", _REACH, json.dumps(argvs)], env=env,
                         capture_output=True, text=True, check=True).stdout
    unreached = set(json.loads(out))
    assert sorted(unreached - set(UNREACHED_BY_GOLDEN)) == []
    # an exemption for a function that is now reached, or gone, is stale
    assert sorted(set(UNREACHED_BY_GOLDEN) - unreached) == []
