"""Command-line front end.

Subcommands mirror the library: cap, eqm, fekete, energy, pell, robinson,
weil.  Outputs are JSON (sorted keys, exact rationals as "p/q" strings) or
CSV for density and convergence tables.  Inputs come from flags or a JSON
problem file; explicit flags win over file entries.  Exit status: 0 ok,
2 bad input, 3 certification failure, 4 quadrature failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any

import numpy as np

from .core import (
    CertificationError,
    ExactPoly,
    IntervalUnion,
    QuadratureError,
    make_interval_union,
)
from .capacity import capacity as _capacity_fn, _diameter_of, fekete_points
from ._quad import uniform_density
from .abel import BandDensity, abel_capacity, equilibrium_density, solve_R
from . import pellabel as _pell
from . import robinson as _robinson
from . import weil as _weil

__all__ = ["RunConfig", "build_config", "run", "main", "load_problem", "dump_problem"]


_PROBLEM_KEYS = {
    "bands", "method", "samples", "n", "r", "M", "M_prime", "q", "coeffs",
    "preset", "degree", "density", "seed", "format", "max_denominator",
    "action",
}


@dataclass
class RunConfig:
    subcommand: str
    action: str | None = None          # pell/weil sub-action
    bands: list | None = None
    method: str | None = None
    samples: int | None = None
    n: int | None = None
    r: int | None = None
    M_prime: str | None = None
    q: int | None = None
    coeffs: list | None = None
    preset: str | None = None
    degree: int | None = None
    density: str | None = None
    seed: int | None = None
    max_denominator: int | None = None
    format: str | None = None
    output: str | None = None
    extras: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def _jsonify(obj: Any) -> Any:
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, ExactPoly):
        return [str(c) for c in obj.coeffs]
    if isinstance(obj, IntervalUnion):
        return [[u, v] for (u, v) in obj.bands]
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return [_jsonify(v) for v in obj.tolist()]
    if isinstance(obj, dict):
        return {str(k): _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    return obj


def _dump_json(payload: dict) -> str:
    return json.dumps(_jsonify(payload), sort_keys=True, indent=2) + "\n"


def load_problem(path: str) -> dict:
    """Read a JSON problem file and normalize it to canonical form."""
    with open(path) as fh:
        raw = json.load(fh)
    if not isinstance(raw, dict):
        raise ValueError("problem file must hold a JSON object")
    unknown = set(raw) - _PROBLEM_KEYS
    if unknown:
        raise ValueError(f"unknown problem keys: {sorted(unknown)}")
    out: dict = {}
    for k, v in raw.items():
        try:
            if k == "bands":
                out[k] = [[float(u), float(v_)] for (u, v_) in v]
            elif k in ("M", "M_prime"):
                out[k] = str(Fraction(str(v)))
            elif k == "coeffs":
                out[k] = [str(Fraction(str(c))) for c in v]
            else:
                out[k] = v
        except TypeError:
            raise ValueError(f"problem key {k!r} has the wrong shape: {v!r}") from None
    return out


def dump_problem(problem: dict) -> str:
    return json.dumps(_jsonify(problem), sort_keys=True, indent=2) + "\n"


def _default(value, default):
    """``value`` unless it was not given; an explicit 0 is kept."""
    return default if value is None else value


def _parse_bands(raw) -> IntervalUnion:
    if raw is None:
        raise ValueError("needs --bands")
    if isinstance(raw, str):
        raw = json.loads(raw)
    try:
        pairs = [(float(u), float(v)) for (u, v) in raw]
    except (TypeError, ValueError):
        raise ValueError(f"--bands must be a JSON list of [a, b] pairs, got {raw!r}") from None
    return make_interval_union(pairs)


def _parse_coeffs(raw) -> ExactPoly:
    if isinstance(raw, list) and raw:
        try:
            return ExactPoly.from_list(raw)
        except (TypeError, ValueError, OverflowError):
            pass
    raise ValueError(f"coeffs must be a nonempty JSON list of rationals, lowest first, got {raw!r}")


def _emit(text: str, output: str | None) -> None:
    if output:
        with open(output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _run_cap(cfg: RunConfig) -> str:
    E = _parse_bands(cfg.bands)
    method = cfg.method or "abel_integral"
    if method == "abel":
        method = "abel_integral"
    report = _capacity_fn(E, method=method, n=cfg.n, seed=_default(cfg.seed, 0))
    return _dump_json(report.to_dict())


def _run_eqm(cfg: RunConfig) -> str:
    E = _parse_bands(cfg.bands)
    samples = _default(cfg.samples, 200)
    if samples < 1:
        raise ValueError(f"--samples must be >= 1, got {samples}")
    datum = solve_R(E)
    mu = BandDensity(datum)
    header = {
        "R": datum.R.coef.tolist(),
        "omega": list(datum.omega),
        "vE": datum.vE,
        "cap": abel_capacity(datum),
        "samples_per_band": samples,
    }
    rows: list[tuple[float, float]] = []
    for (u, v) in E.bands:
        xs = 2.0 * np.linspace(0.5 * u, 0.5 * v, samples + 2)[1:-1]  # v - u may overflow
        qs = mu.density(xs)
        rows.extend((float(x), float(d)) for x, d in zip(xs, qs))
    if (cfg.format or "csv") == "json":
        return _dump_json({**header, "rows": rows})
    lines = ["# " + json.dumps(_jsonify(header), sort_keys=True), "x,density"]
    lines += [f"{x!r},{d!r}" for x, d in rows]
    return "\n".join(lines) + "\n"


def _run_fekete(cfg: RunConfig) -> str:
    E = _parse_bands(cfg.bands)
    n, seed = _default(cfg.n, 8), _default(cfg.seed, 0)
    pts = fekete_points(E, n, seed=seed)
    return _dump_json({
        "n": n,
        "points": [float(x) for x in pts],
        "diameter": _diameter_of(pts),
        "method": "fekete",
    })


def _run_energy(cfg: RunConfig) -> str:
    E = _parse_bands(cfg.bands)
    kind = cfg.density or "equilibrium"
    if kind == "uniform":
        mu = uniform_density(E)
        value = mu.energy()
    elif kind == "equilibrium":
        value = math.log(abel_capacity(solve_R(E)))
    else:
        raise ValueError(f"unknown density {kind!r}")
    return _dump_json({"energy": value, "density": kind, "bands": E})


def _run_pell(cfg: RunConfig) -> str:
    action = cfg.action or "detect"
    max_den = _default(cfg.max_denominator, 64)
    datum = solve_R(_parse_bands(cfg.bands))
    if action == "detect":
        hit = _pell.detect_pell_abel(datum, max_denominator=max_den)
        r, r_j = hit if hit else (None, None)
        return _dump_json({"omega": list(datum.omega), "r": r, "r_j": r_j})
    r = cfg.r
    if r is None:
        hit = _pell.detect_pell_abel(datum, max_denominator=max_den)
        if hit is None:
            raise CertificationError("no rational rotation numbers detected; pass r")
        r = hit[0]
    pa = _pell.construct_pa_polynomial(datum, r)
    if action == "construct":
        return _dump_json({
            "P": pa.P.coef.tolist(),
            "Q": pa.Q.coef.tolist(),
            "M": pa.M,
            "r": pa.r,
            "r_j": list(pa.r_j),
            "certificate": _pell.certify_structure(pa),
        })
    if action == "rationalize":
        if not cfg.M_prime:
            raise ValueError("rationalize needs --m-prime")
        P_ex, E_prime, pa2 = _pell.rationalize(pa, Fraction(cfg.M_prime))
        return _dump_json({
            "P": P_ex,
            "M_prime": Fraction(pa2.M),
            "bands": E_prime,
            "r": pa2.r,
            "r_j": list(pa2.r_j),
        })
    raise ValueError(f"unknown pell action {action!r}")


def _robinson_instance(cfg: RunConfig) -> "_robinson.RobinsonInstance":
    if cfg.preset == "x2m6":
        return _robinson.preset_x2m6()
    if cfg.preset == "x2m5":
        return _robinson.preset_x2m5()
    if cfg.preset:
        raise ValueError(f"unknown preset {cfg.preset!r}")
    if cfg.coeffs and cfg.extras.get("M"):
        P = _parse_coeffs(cfg.coeffs)
        M = Fraction(str(cfg.extras["M"]))
        return _robinson.make_instance(_pell.PellAbelDatum.from_exact(P, M))
    raise ValueError("robinson needs --preset or coeffs + M")


def _run_robinson(cfg: RunConfig) -> str:
    inst = _robinson_instance(cfg)
    if cfg.n is not None:
        _robinson._check_degree(f"multiplier n = {cfg.n}", cfg.n * inst.pa.r)
        P_prime, cert, table = _robinson.generate_at(inst, cfg.n)
    else:
        P_prime, cert, table = _robinson.generate(inst, _default(cfg.degree, 16))
    if (cfg.format or "json") == "csv":
        mu = equilibrium_density(solve_R(inst.pa.E))
        lines = ["n,degree,kolmogorov_distance"]

        def row(n, c_n, t_n):
            m = _robinson.root_measure_from_certificate(inst, n, t_n, c_n)
            d = _robinson.convergence_report([m], mu)[0]
            lines.append(f"{n},{n * inst.pa.r},{d!r}")

        n = 2
        while n < cert["n"]:
            try:
                _, c_n, t_n = _robinson.generate_at(inst, n)
            except CertificationError:
                pass
            else:
                row(n, c_n, t_n)
            n *= 2
        row(cert["n"], cert, table)
        return "\n".join(lines) + "\n"
    return _dump_json({
        "n": cert["n"],
        "degree": cert["degree"],
        "P_coeffs": [str(c) for c in P_prime.coeffs],
        "lam": inst.lam,
        "ell": inst.ell,
        "certificate": cert,
        "method": "chebyshev_composition",
    })


def _run_weil(cfg: RunConfig) -> str:
    action = cfg.action or "bound"
    if cfg.q is None:
        raise ValueError("weil needs --q")
    if action == "lift":
        if cfg.coeffs is None:
            raise ValueError("weil lift needs --coeffs")
        P_I = _parse_coeffs(cfg.coeffs)
        # weil_lift raises unless every root of the lift has modulus sqrt(q)
        # exactly; the float root moduli are a diagnostic only
        lifted = _weil.weil_lift(P_I, cfg.q)
        roots = np.roots([float(c) for c in lifted.coeffs[::-1]])
        err = float(np.max(np.abs(np.abs(roots) - math.sqrt(cfg.q))))
        return _dump_json({
            "q": cfg.q,
            "input": P_I,
            "lifted": lifted,
            "max_modulus_error": err,
            "moduli_ok": True,
            "pushforward_ok": _weil.pushforward_check(lifted, P_I, cfg.q),
        })
    if action == "bound":
        cs = _weil.CircleSet(cfg.q, _parse_bands(cfg.bands))
        cap, bound, ok = _weil.support_capacity_bound(cs)
        return _dump_json({
            "q": cfg.q, "capacity": cap, "bound": bound, "satisfied": ok,
        })
    raise ValueError(f"unknown weil action {action!r}")


_HANDLERS = {
    "cap": _run_cap,
    "eqm": _run_eqm,
    "fekete": _run_fekete,
    "energy": _run_energy,
    "pell": _run_pell,
    "robinson": _run_robinson,
    "weil": _run_weil,
}


def run(cfg: RunConfig) -> int:
    try:
        text = _HANDLERS[cfg.subcommand](cfg)
    except (ValueError, KeyError, json.JSONDecodeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CertificationError as exc:
        print(f"certification failure: {exc}", file=sys.stderr)
        return 3
    except QuadratureError as exc:
        print(f"quadrature failure: {exc}", file=sys.stderr)
        return 4
    _emit(text, cfg.output)
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="capell",
        description="capacities, equilibrium measures, Pell-Abel polynomials",
    )
    sub = p.add_subparsers(dest="subcommand", required=True)

    def common(sp):
        sp.add_argument("--problem", help="JSON problem file with defaults")
        sp.add_argument("--output", help="write here instead of stdout")
        sp.add_argument("--format", choices=["json", "csv"])
        sp.add_argument("--seed", type=int)

    sp = sub.add_parser("cap", help="capacity of a band union")
    common(sp)
    sp.add_argument("--bands", help='JSON band list, e.g. "[[-2,2]]"')
    sp.add_argument("--method", choices=["closed_form", "fekete", "chebyshev",
                                         "abel", "abel_integral"])
    sp.add_argument("--n", type=int, help="points / degree for fekete or chebyshev")

    sp = sub.add_parser("eqm", help="equilibrium density table")
    common(sp)
    sp.add_argument("--bands")
    sp.add_argument("--samples", type=int, help="interior samples per band")

    sp = sub.add_parser("fekete", help="extremal point configurations")
    common(sp)
    sp.add_argument("--bands")
    sp.add_argument("--n", type=int)

    sp = sub.add_parser("energy", help="logarithmic energy of a measure")
    common(sp)
    sp.add_argument("--bands")
    sp.add_argument("--density", choices=["uniform", "equilibrium"])

    sp = sub.add_parser("pell", help="Pell-Abel detection and synthesis")
    common(sp)
    sp.add_argument("action", nargs="?", choices=["detect", "construct", "rationalize"])
    sp.add_argument("--bands")
    sp.add_argument("--r", type=int, help="rotation denominator")
    sp.add_argument("--m-prime", dest="M_prime", help='rational like "5/2"')
    sp.add_argument("--max-denominator", dest="max_denominator", type=int)

    sp = sub.add_parser("robinson", help="integer polynomials with roots in E")
    common(sp)
    sp.add_argument("--preset", choices=["x2m6", "x2m5"])
    sp.add_argument("--degree", type=int, help="target degree")
    sp.add_argument("--n", type=int, help="exact multiplier override")

    sp = sub.add_parser("weil", help="circle lifts and support bounds")
    common(sp)
    sp.add_argument("action", nargs="?", choices=["lift", "bound"])
    sp.add_argument("--bands")
    sp.add_argument("--q", type=int)
    sp.add_argument("--coeffs", help="JSON coefficient list, lowest first")
    return p


def build_config(args: argparse.Namespace) -> RunConfig:
    problem: dict = {}
    if getattr(args, "problem", None):
        problem = load_problem(args.problem)

    def pick(key, cast=None):
        v = getattr(args, key, None)
        if v is None:
            v = problem.get(key)
        if v is not None and cast:
            v = cast(v)
        return v

    coeffs = pick("coeffs")
    if isinstance(coeffs, str):
        coeffs = json.loads(coeffs)
    bands = pick("bands")
    if isinstance(bands, str):
        bands = json.loads(bands)
    extras = {k: problem[k] for k in ("M",) if k in problem}
    return RunConfig(
        subcommand=args.subcommand,
        action=pick("action"),
        bands=bands,
        method=pick("method"),
        samples=pick("samples", int),
        n=pick("n", int),
        r=pick("r", int),
        M_prime=pick("M_prime"),
        q=pick("q", int),
        coeffs=coeffs,
        preset=pick("preset"),
        degree=pick("degree", int),
        density=pick("density"),
        seed=pick("seed", int),
        max_denominator=pick("max_denominator", int),
        format=pick("format"),
        output=getattr(args, "output", None),
        extras=extras,
    )


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = build_config(args)
    except (ValueError, json.JSONDecodeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return run(cfg)


if __name__ == "__main__":
    sys.exit(main())
