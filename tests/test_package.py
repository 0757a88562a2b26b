"""The package's import surface, and the names the benchmark traces."""

import importlib.util
import inspect
from pathlib import Path

import capell
import capell.abel
import capell.capacity
import capell.cli
import capell.weil

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


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
