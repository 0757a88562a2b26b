"""Seeded workloads for the capell benchmark, and the oracle for each output.

Every workload is built on Pell unions E = F^{-1}([-M, M]) with F monic of
degree r, for which the paper gives exact answers: cap(E) = (M/2)^(1/r),
every band mass is 1/r, t_{nr}(E) = 2 (M/2)^n.  capell only ever sees the
generated argv and problem files; the oracles below know F and M.

A workload makes instances from a seeded ``random.Random`` and turns each
into operations ``Op(kind, argv, ctx)``; ``argv`` is a ``capell`` command
line without ``--output``.  Instances come in rounds of ``ROUND``, one per
class, so every run holds the same mix of classes and kinds.  A run does
one round per ``ROUND_S`` seconds of its time budget; ``ROUND_S`` is about
a round's wall time on a 2-core x86 machine, except where noted.
``check(op, text)`` returns for a correct output and otherwise raises
``CheckFailed`` with a cause:

* ``"exact"``: the output contradicts an exactly decided claim (a
  certificate, an exact lift): the output is wrong;
* ``"oracle"``: a numerical result misses its exact value by more than the
  stated tolerance;
* ``"self_check"``: the program reports that its own check failed.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path


@dataclass
class Op:
    kind: str
    argv: list
    ctx: dict = field(default_factory=dict)


class CheckFailed(Exception):
    def __init__(self, cause: str, detail: str):
        super().__init__(f"{cause}: {detail}")
        self.cause = cause
        self.detail = detail


def _need(ok: bool, cause: str, detail: str) -> None:
    if not ok:
        raise CheckFailed(cause, detail)


def _rel(a: float, b: float) -> float:
    return abs(a - b) / abs(b)


def exact_cap(inst: dict) -> float:
    """cap(E) = (M/2)^(1/r) for the Pell union of an instance."""
    return (inst["M"] / 2.0) ** (1.0 / inst["r"])


# ---------------------------------------------------------------------------
# exact helpers
# ---------------------------------------------------------------------------


def _eval_q(coeffs, x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _sign_int_poly(coeffs: list[int], x: Fraction) -> int:
    """Sign of an integer polynomial at a rational point, by homogenised
    integer Horner: den^d p(num/den) is an integer of the same sign."""
    p, q = x.numerator, x.denominator
    acc, qpow = 0, 1
    for c in reversed(coeffs):
        acc = acc * p + c * qpow
        qpow *= q
    return (acc > 0) - (acc < 0)


def _monic_integer(values, what: str) -> list[int]:
    cs = [Fraction(v) for v in values]
    _need(all(c.denominator == 1 for c in cs), "exact", f"{what}: non-integer coefficient")
    _need(cs[-1] == 1, "exact", f"{what}: not monic")
    return [int(c) for c in cs]


def _real_roots_sorted(coeffs: list[float]) -> list[float]:
    import numpy as np

    rts = np.roots(np.array(coeffs[::-1], dtype=float))
    if np.max(np.abs(rts.imag)) > 1e-9:
        raise ValueError("complex roots")
    return sorted(float(x) for x in rts.real)


def _critical_values(coeffs: list[float]) -> list[float]:
    d = len(coeffs) - 1
    dc = [k * coeffs[k] for k in range(1, d + 1)]
    if len(dc) == 1:
        return []
    return [_eval_f(coeffs, x) for x in _real_roots_sorted(dc)]


def _eval_f(coeffs, x: float) -> float:
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _pell_bands(coeffs: list[float], M: float) -> list[list[float]]:
    """Bands of {|P| <= M} for P with 2r real simple roots of P^2 - M^2."""
    lo = list(coeffs)
    hi = list(coeffs)
    lo[0] += M
    hi[0] -= M
    ends = sorted(_real_roots_sorted(lo) + _real_roots_sorted(hi))
    return [[ends[2 * i], ends[2 * i + 1]] for i in range(len(ends) // 2)]


def _integer_pell_poly(rng: random.Random, r: int, M: int) -> list[int] | None:
    """A monic integer P of degree r with |critical values| > M + 1/2, so
    that {|P| <= M} is r disjoint bands; None when this draw admits none."""
    if r == 2:
        a = rng.randint(-6, 6)
        top = math.ceil(a * a / 4 - M) - 1  # b < a^2/4 - M
        b = rng.randint(top - 6, top)
        cs = [b, a, 1]
    else:
        x1 = rng.randint(-6, 0)
        x2 = x1 + rng.randint(3, 5)
        x3 = x2 + rng.randint(3, 5)
        s = rng.randint(-2, 2)
        cs = [s - x1 * x2 * x3, x1 * x2 + x1 * x3 + x2 * x3, -(x1 + x2 + x3), 1]
    if min(abs(v) for v in _critical_values([float(c) for c in cs])) <= M + 0.5:
        return None
    return cs


# ---------------------------------------------------------------------------
# cap-bands: 64-band pullbacks through six quadratics
# ---------------------------------------------------------------------------


class CapBands:
    """``cap`` and ``eqm`` on E = F^{-1}([-M, M]), F = f_1 o ... o f_6 with
    f_i(x) = x^2 - c_i, so E has 64 bands and cap(E) = (M/2)^(1/64)."""

    name = "cap-bands"
    ROUND = 1
    ROUND_S = 1.1
    SAMPLES = 8
    # c_i / max|K| on each pull-back.  Up to 1.6 solve_R accepts on a
    # 256-node grid; from about 1.65 it doubles to 512 nodes and takes 1.7x
    # as long, and a run mixing the two regimes has an unsteady median.
    C_RATIO = (1.3, 1.6)

    def instance(self, rng: random.Random, i: int, workdir: Path) -> dict:
        M = rng.uniform(2.5, 6.0)
        K = [(-M, M)]
        cs = []
        for _ in range(6):
            c = max(abs(K[0][0]), abs(K[-1][1])) * rng.uniform(*self.C_RATIO)
            cs.append(c)
            K = sorted([(-math.sqrt(b + c), -math.sqrt(a + c)) for a, b in K]
                       + [(math.sqrt(a + c), math.sqrt(b + c)) for a, b in K])
        return {"M": M, "r": 64, "cs": cs, "bands": [list(b) for b in K]}

    def ops(self, inst: dict, i: int) -> list[Op]:
        b = json.dumps(inst["bands"])
        return [Op("cap", ["cap", "--bands", b, "--method", "abel"], inst),
                Op("eqm", ["eqm", "--bands", b, "--samples", str(self.SAMPLES)], inst)]

    def warmup(self, rng: random.Random, workdir: Path) -> list[Op]:
        M = 3.0
        c = 4.5
        bands = [[-math.sqrt(M + c), -math.sqrt(c - M)], [math.sqrt(c - M), math.sqrt(M + c)]]
        b = json.dumps(bands)
        return [Op("cap", ["cap", "--bands", b, "--method", "abel"], {}),
                Op("eqm", ["eqm", "--bands", b, "--samples", "4"], {})]

    @staticmethod
    def _density(inst: dict, x: float) -> float:
        # F = f_1 o ... o f_6: apply f_6 first
        y, dy = x, 1.0
        for c in reversed(inst["cs"]):
            dy *= 2.0 * y
            y = y * y - c
        M = inst["M"]
        return abs(dy) / (64.0 * math.pi * math.sqrt(M * M - y * y))

    def check(self, op: Op, text: str) -> None:
        inst = op.ctx
        cap = exact_cap(inst)
        if op.kind == "cap":
            out = json.loads(text)
            _need(_rel(out["value"], cap) <= 1e-9, "oracle",
                  f"capacity {out['value']!r}, exact {cap!r}")
            omega = out["diagnostics"]["omega"]
        else:
            lines = text.splitlines()
            header = json.loads(lines[0][2:])
            _need(lines[1] == "x,density", "oracle", "eqm table header")
            _need(_rel(header["cap"], cap) <= 1e-9, "oracle",
                  f"capacity {header['cap']!r}, exact {cap!r}")
            omega = header["omega"]
            rows = [tuple(map(float, ln.split(","))) for ln in lines[2:]]
            _need(len(rows) == 64 * self.SAMPLES, "oracle", f"{len(rows)} density rows")
            for x, d in rows:
                exact = self._density(inst, x)
                _need(_rel(d, exact) <= 1e-6, "oracle",
                      f"density at {x!r} is {d!r}, exact {exact!r}")
        _need(len(omega) == 64, "oracle", f"{len(omega)} band masses")
        worst = max(abs(w - 1.0 / 64.0) for w in omega)
        _need(worst <= 1e-9, "oracle", f"band mass off 1/64 by {worst!r}")


# ---------------------------------------------------------------------------
# robinson-cert: certified integer polynomials of degree 64
# ---------------------------------------------------------------------------

# Classes (r, M), one instance each per round, so that every run holds the
# same mix; odd M makes lam = M/2 a half-integer, so those take the
# correction sweep.  The JSON certificate runs on two of them, one of each
# r and parity: with CSV on three quarters of the operations, the median
# and the tail fall among CSV operations, not on the edge of the two kinds.
_ROBINSON_CLASSES = [(2, 4), (3, 4), (2, 5), (3, 5), (2, 6), (3, 6), (2, 7), (3, 7)]
_ROBINSON_JSON = {1, 6}


def _pell_problem(rng: random.Random, r: int, M: int) -> list[int]:
    while True:
        cs = _integer_pell_poly(rng, r, M)
        if cs is not None:
            return cs


class RobinsonCert:
    """``robinson --problem`` at target degree 64: ``--format csv`` for
    every problem and the JSON certificate for a quarter of them."""

    name = "robinson-cert"
    ROUND = len(_ROBINSON_CLASSES)
    ROUND_S = 6.6
    DEGREE = 64

    def instance(self, rng: random.Random, i: int, workdir: Path) -> dict:
        r, M = _ROBINSON_CLASSES[i % self.ROUND]
        cs = _pell_problem(rng, r, M)
        path = workdir / f"robinson-{i}.json"
        path.write_text(json.dumps({"coeffs": [str(c) for c in cs], "M": M,
                                    "degree": self.DEGREE}))
        return {"P": cs, "M": M, "r": r, "problem": str(path), "degree": self.DEGREE}

    def ops(self, inst: dict, i: int) -> list[Op]:
        out = [Op("csv", ["robinson", "--problem", inst["problem"], "--format", "csv"], inst)]
        if i % self.ROUND in _ROBINSON_JSON:
            out.append(Op("json", ["robinson", "--problem", inst["problem"]], inst))
        return out

    def warmup(self, rng: random.Random, workdir: Path) -> list[Op]:
        path = workdir / "robinson-warmup.json"
        path.write_text(json.dumps({"coeffs": ["-7", "0", "1"], "M": 5, "degree": 16}))
        inst = {"P": [-7, 0, 1], "M": 5, "r": 2, "problem": str(path), "degree": 16}
        return [Op("json", ["robinson", "--problem", str(path)], inst),
                Op("csv", ["robinson", "--problem", str(path), "--format", "csv"], inst)]

    def check(self, op: Op, text: str) -> None:
        inst = op.ctx
        if op.kind == "json":
            check_robinson_certificate(json.loads(text), inst["P"], inst["M"], inst["r"],
                                       inst["degree"])
            return
        lines = text.splitlines()
        _need(lines[0] == "n,degree,kolmogorov_distance", "oracle", "csv header")
        n, degree, dist = lines[-1].split(",")
        degree, dist = int(degree), float(dist)
        _need(degree >= inst["degree"] and degree == int(n) * inst["r"], "oracle",
              f"final row at degree {degree}")
        _need(dist <= 1.0 / degree, "oracle",
              f"Kolmogorov distance {dist!r} above 1/{degree}")


def check_robinson_certificate(out: dict, P: list[int], M: int, r: int, target: int) -> None:
    """Re-decide a Robinson certificate from the emitted JSON alone, in
    exact arithmetic: P'_n monic integer, and in every band count+1
    increasing rational points of {P^2 <= M^2} where the exact signs of
    P'_n alternate, with the counts summing to the degree."""
    coeffs = _monic_integer(out["P_coeffs"], "P'_n")
    degree = len(coeffs) - 1
    cert = out["certificate"]
    _need(degree == out["degree"] == cert["degree"] == cert["n"] * r, "exact",
          f"degree {degree} vs declared {out['degree']}")
    _need(degree >= target, "exact", f"degree {degree} below target {target}")
    P_q = [Fraction(c) for c in P]
    M2 = Fraction(M) ** 2
    total = 0
    last = None
    for band in cert["bands"]:
        pts = [Fraction(s) for s in band["points"]]
        _need(len(pts) == band["count"] + 1, "exact", "point count per band")
        _need(all(a < b for a, b in zip(pts, pts[1:])), "exact", "points not increasing")
        _need(last is None or last < pts[0], "exact", "bands overlap")
        last = pts[-1]
        for xi in pts:
            _need(_eval_q(P_q, xi) ** 2 <= M2, "exact", f"point {xi} outside E")
        signs = [_sign_int_poly(coeffs, xi) for xi in pts]
        _need(signs == band["signs"], "exact", "emitted signs differ from exact signs")
        _need(all(a * b == -1 for a, b in zip(signs, signs[1:])), "exact",
              "signs do not alternate")
        total += band["count"]
    _need(total == degree, "exact", f"certified {total} roots of {degree}")


# ---------------------------------------------------------------------------
# weil-lift: circle lifts of degree-16 Robinson outputs
# ---------------------------------------------------------------------------

# Classes (r, M) as for robinson-cert, with even M only; ``weil bound`` on
# half of them, one per M.
_WEIL_CLASSES = [(2, 4), (3, 4), (2, 6), (3, 6), (2, 8), (3, 8)]
_WEIL_BOUND = {0, 3, 4}


def _poly_mul(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def robinson_even(P: list[int], M: int, degree: int) -> list[int]:
    """capell's Robinson output for even M: with lam = M/2 an integer,
    P_n = lam^n C_n(P/lam) is already integral, so the output is P_n for
    the smallest n with n r >= degree, from P_{k+1} = P P_k - lam^2 P_{k-1}."""
    lam2 = (M // 2) ** 2
    n = -(-degree // (len(P) - 1))
    prev, cur = [2], list(P)
    for _ in range(n - 1):
        nxt = _poly_mul(P, cur)
        for k, c in enumerate(prev):
            nxt[k] -= lam2 * c
        prev, cur = cur, nxt
    return cur


class WeilLift:
    """``weil lift`` of degree-16 Robinson outputs of even-M problems, and
    ``weil bound`` on the bands of half of them."""

    name = "weil-lift"
    ROUND = len(_WEIL_CLASSES)
    ROUND_S = 2.0
    DEGREE = 16

    def instance(self, rng: random.Random, i: int, workdir: Path) -> dict:
        r, M = _WEIL_CLASSES[i % self.ROUND]
        cs = _pell_problem(rng, r, M)
        bands = _pell_bands([float(c) for c in cs], float(M))
        B = max(abs(e) for b in bands for e in b)
        q = math.floor(B * B / 4) + 1 + rng.randint(0, 2)
        pts = [Fraction(rng.randint(1, 40), rng.randint(1, 40)) * rng.choice((-1, 1))
               for _ in range(2)]
        return {"P": cs, "M": M, "r": r, "bands": bands, "q": q,
                "coeffs": [str(c) for c in robinson_even(cs, M, self.DEGREE)],
                "points": [str(x) for x in pts]}

    def ops(self, inst: dict, i: int) -> list[Op]:
        q = str(inst["q"])
        out = [Op("lift", ["weil", "lift", "--q", q, "--coeffs",
                           json.dumps(inst["coeffs"])], inst)]
        if i % self.ROUND in _WEIL_BOUND:
            out.append(Op("bound", ["weil", "bound", "--q", q, "--bands",
                                    json.dumps(inst["bands"])], inst))
        return out

    def warmup(self, rng: random.Random, workdir: Path) -> list[Op]:
        inst = {"P": [-6, 0, 1], "M": 4, "r": 2, "coeffs": ["-4", "0", "1"],
                "bands": _pell_bands([-6.0, 0.0, 1.0], 4.0), "q": 3,
                "points": ["1/2", "-3"]}
        return [Op("lift", ["weil", "lift", "--q", "3", "--coeffs", '["-4", "0", "1"]'], inst),
                Op("bound", ["weil", "bound", "--q", "3", "--bands",
                             json.dumps(inst["bands"])], inst)]

    def check(self, op: Op, text: str) -> None:
        inst = op.ctx
        out = json.loads(text)
        q = inst["q"]
        if op.kind == "bound":
            exact = q ** 0.25 * math.sqrt(exact_cap(inst))
            _need(_rel(out["capacity"], exact) <= 1e-9, "oracle",
                  f"circle capacity {out['capacity']!r}, exact {exact!r}")
            _need(_rel(out["bound"], q ** 0.25) <= 1e-12, "oracle", "bound q^(1/4)")
            _need(out["satisfied"] is True, "oracle", "bound not satisfied")
            return
        P = _monic_integer(inst["coeffs"], "input")
        L = _monic_integer(out["lifted"], "lift")
        d = len(P) - 1
        _need(len(L) - 1 == 2 * d, "exact", f"lift degree {len(L) - 1}, want {2 * d}")
        for s in inst["points"]:
            x = Fraction(s)
            lhs = _eval_q(L, x)
            rhs = x**d * _eval_q(P, (x * x + q) / x)
            _need(lhs == rhs, "exact", f"L({x}) != x^d P((x^2+q)/x)")
        _need(out["moduli_ok"] is True and out["pushforward_ok"] is True, "self_check",
              f"moduli_ok={out['moduli_ok']} pushforward_ok={out['pushforward_ok']} "
              f"max_modulus_error={out['max_modulus_error']!r}")


# ---------------------------------------------------------------------------
# cap-routes: Remez, Fekete and pellabel on 1..4 bands
# ---------------------------------------------------------------------------

_CHEB_NS = (16, 24, 32)
_FEKETE_N = 6


class CapRoutes:
    """``pell detect|construct|rationalize`` on r-band Pell unions, r = 1..4
    in turn, with P real-rooted and M below its critical values;
    ``cap --method chebyshev`` at n = 16, 24, 32 on those of two to four
    bands (on one band it is the closed form) and ``cap --method fekete
    --n 6`` on those of one and two bands.  Fekete takes 2-3 s there and
    5-7 s on four bands: run on every union it fills the run and leaves the
    tail percentile on the edge between slow and fast operations."""

    name = "cap-routes"
    ROUND = 4
    # A round takes about 8.5 s, but a run needs four rounds for a steady
    # tail and throughput: Remez exits 4 on some unions and not on others
    # of nearly the same shape, and each exit costs about 2 s.
    ROUND_S = 5.0

    def instance(self, rng: random.Random, i: int, workdir: Path) -> dict:
        r = 1 + i % 4
        # one shape family (root gaps, M against the critical values) at a
        # random scale and centre: every run meets the same regimes of
        # Remez and Fekete, so its median and tail are steady
        gaps = [rng.uniform(1.6, 1.7) for _ in range(r - 1)]
        scale, centre = rng.uniform(1.2, 1.3), rng.uniform(-3.0, 3.0)
        roots = [centre + scale * (sum(gaps[:k]) - 0.5 * sum(gaps)) for k in range(r)]
        coeffs = [1.0]
        for x0 in roots:  # multiply by (x - x0)
            coeffs = [0.0] + coeffs
            for k in range(len(coeffs) - 1):
                coeffs[k] -= x0 * coeffs[k + 1]
        crit = [abs(v) for v in _critical_values(coeffs)]
        M = (min(crit) if crit else 4.0 * scale) * rng.uniform(0.62, 0.68)
        m_prime = Fraction(round(0.9 * M * 1000), 1000)
        return {"coeffs": coeffs, "M": M, "r": r, "m_prime": str(m_prime),
                "bands": _pell_bands(coeffs, M)}

    def ops(self, inst: dict, i: int) -> list[Op]:
        b = json.dumps(inst["bands"])
        r = str(inst["r"])
        out = [Op("detect", ["pell", "detect", "--bands", b], inst),
               Op("construct", ["pell", "construct", "--bands", b, "--r", r], inst),
               Op("rationalize", ["pell", "rationalize", "--bands", b, "--r", r,
                                  "--m-prime", inst["m_prime"]], inst)]
        if inst["r"] >= 2:
            out += [Op("chebyshev", ["cap", "--bands", b, "--method", "chebyshev",
                                     "--n", str(n)], {**inst, "n": n}) for n in _CHEB_NS]
        if inst["r"] <= 2:
            out.append(Op("fekete", ["cap", "--bands", b, "--method", "fekete",
                                     "--n", str(_FEKETE_N)], inst))
        return out

    def warmup(self, rng: random.Random, workdir: Path) -> list[Op]:
        inst = {"coeffs": [-5.0, 0.0, 1.0], "M": 3.0, "r": 2, "m_prime": "5/2",
                "bands": _pell_bands([-5.0, 0.0, 1.0], 3.0)}
        b = json.dumps(inst["bands"])
        return [Op("detect", ["pell", "detect", "--bands", b], inst),
                Op("construct", ["pell", "construct", "--bands", b, "--r", "2"], inst),
                Op("rationalize", ["pell", "rationalize", "--bands", b, "--r", "2",
                                   "--m-prime", "5/2"], inst),
                Op("chebyshev", ["cap", "--bands", b, "--method", "chebyshev", "--n", "8"],
                   {**inst, "n": 8}),
                Op("fekete", ["cap", "--bands", b, "--method", "fekete", "--n", "3"], inst)]

    def check(self, op: Op, text: str) -> None:
        inst = op.ctx
        r = inst["r"]
        out = json.loads(text)
        cap = exact_cap(inst)
        if op.kind == "detect":
            _need(out["r"] == r and out["r_j"] == [1] * r, "oracle",
                  f"detected r={out['r']} r_j={out['r_j']}, want {r} and ones")
        elif op.kind == "construct":
            _need(out["certificate"]["pass"] is True, "self_check",
                  "construct certificate does not pass")
        elif op.kind == "rationalize":
            _need(len(out["P"]) == r + 1 and Fraction(out["P"][-1]) == 1
                  and Fraction(out["M_prime"]) == Fraction(inst["m_prime"])
                  and len(out["bands"]) == r, "oracle", "rationalized datum")
        elif op.kind == "chebyshev":
            n = inst["n"]
            t_n = out["diagnostics"]["t_n"]
            low = 2.0 * cap**n
            _need(t_n >= low * (1 - 1e-12), "oracle", f"t_{n} = {t_n!r} below 2 cap^n = {low!r}")
            if n % r == 0:
                _need(_rel(t_n, low) <= 1e-9, "oracle",
                      f"t_{n} = {t_n!r}, exact 2 (M/2)^(n/r) = {low!r}")
        else:
            ds = out["diagnostics"]["d_n"]
            _need(all(d >= cap * (1 - 1e-12) for d in ds), "oracle",
                  f"Fekete d_n below cap {cap!r}: {ds}")
            _need(all(b <= a * (1 + 1e-12) for a, b in zip(ds, ds[1:])), "oracle",
                  f"Fekete d_n increases: {ds}")


WORKLOADS = {w.name: w for w in (CapBands(), RobinsonCert(), WeilLift(), CapRoutes())}
