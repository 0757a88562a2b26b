"""Monic integer polynomials with all roots simple in a prescribed union.

Starting from an exact Pell datum (P, Q=1, M) with rational M > 2, the
composition P_n = lam^n * C_n(P / lam) with lam = M/2 and C_n the monic-pair
Chebyshev family (C_n(t + 1/t) = t^n + t^-n) oscillates n times through
+-2 lam^n on every band.  Whenever the top block of coefficients of P_n is
integral, the remaining fractional parts can be swept away by a correction
in the graded basis {x^j P_k} whose sup norm on E stays strictly below
2 lam^n — so the corrected polynomial still alternates in sign at the
extremum points of P_n and keeps all n*r roots, now with integer
coefficients.  Certificates here are exact: candidate points are rational,
membership in E is the rational inequality P(x)^2 <= M^2, and signs are
evaluated in exact arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

import numpy as np

from .core import (
    CertificationError,
    ExactPoly,
    IntervalUnion,
    _unit_map,
)
from .abel import BandDensity
from .pellabel import PellAbelDatum

__all__ = [
    "RobinsonInstance",
    "make_instance",
    "preset_x2m6",
    "preset_x2m5",
    "compose_Pn",
    "certify_integrality",
    "correction_Cn",
    "generate",
    "generate_at",
    "root_measure_from_certificate",
    "convergence_report",
]


@dataclass(frozen=True)
class RobinsonInstance:
    """Exact Pell datum plus the correction-budget constants.

    lam = M/2 > 1; A bounds sup over E of 1 + |x| + ... + |x|^(r-1) from
    above (rational, certified from outer root bounds of P^2 - M^2); ell is
    the smallest integer with lam^ell (lam - 1) >= A/2, the number of top
    basis elements the correction must not touch.  ``ladder`` holds the
    compositions P_0, P_1, ... built so far; every use of the instance
    extends and shares it.
    """

    pa: PellAbelDatum
    lam: Fraction
    A: Fraction
    ell: int
    ladder: list[ExactPoly] = field(default_factory=list, init=False, repr=False,
                                    compare=False)


def make_instance(pa: PellAbelDatum) -> RobinsonInstance:
    if pa.x_bound is None:
        raise ValueError("need an exact Pell datum (P, Q = 1, M) from PellAbelDatum.from_exact")
    M = Fraction(pa.M)
    if not M > 2:
        raise ValueError("need M > 2 (capacity > 1)")
    lam = M / 2

    # certified |x| bound on E = {P^2 <= M^2} from the outer isolation bounds
    B = pa.x_bound
    A = sum((B**k for k in range(pa.r)), Fraction(0))

    ell = 0
    while lam**ell * (lam - 1) < A / 2:
        ell += 1
    return RobinsonInstance(pa=pa, lam=lam, A=A, ell=ell)


def preset_x2m6() -> RobinsonInstance:
    """P = X^2 - 6, M = 4: integer lam = 2, so compositions need no
    correction; bands +-[sqrt2, sqrt10], capacity sqrt2."""
    return make_instance(PellAbelDatum.from_exact(ExactPoly.from_list([-6, 0, 1]), 4))


def preset_x2m5() -> RobinsonInstance:
    """P = X^2 - 5, M = 3: lam = 3/2 exercises the correction machinery;
    bands +-[sqrt2, sqrt8], capacity sqrt(3/2)."""
    return make_instance(PellAbelDatum.from_exact(ExactPoly.from_list([-5, 0, 1]), 3))


# ---------------------------------------------------------------------------
# composition
# ---------------------------------------------------------------------------


def _ladder(inst: RobinsonInstance, n: int) -> list[ExactPoly]:
    """The instance's ladder, extended to hold P_0..P_n (maybe more), with
    P_k = lam^k C_k(P/lam): P_0 = 2, P_1 = P, P_{k+1} = P P_k - lam^2 P_{k-1}."""
    P = inst.pa.P
    out = inst.ladder
    if not out:
        out.extend((ExactPoly((2,)), P))
    lam2 = inst.lam * inst.lam
    while len(out) <= n:
        out.append(P * out[-1] - out[-2] * lam2)
    return out


def compose_Pn(inst: RobinsonInstance, n: int) -> ExactPoly:
    """P_n = lam^n C_n(P/lam), exact; monic of degree n*r with sup norm
    2 lam^n on E."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return _ladder(inst, n)[n]


def certify_integrality(inst: RobinsonInstance, n: int, Pn: ExactPoly | None = None) -> bool:
    """True iff the ell*r coefficients of P_n below the leading 1 are
    integers (the correction basis can then reach everything lower)."""
    if Pn is None:
        Pn = compose_Pn(inst, n)
    r, ell, den = inst.pa.r, inst.ell, Pn.den
    deg = Pn.degree
    lo = max(0, deg - ell * r)
    return all(c % den == 0 for c in Pn.num[lo:deg])


def _sweep(inst: RobinsonInstance, n: int, Pn: ExactPoly):
    """Top-down removal of fractional parts in the basis {x^j P_k},
    0 <= j < r, 0 <= k < n - ell.  Returns (c table, corrected P_n).

    The coefficients are integers W over one denominator L; a step raises
    L only by the factor its basis element's denominator needs.
    """
    r, ell = inst.pa.r, inst.ell
    ladder = _ladder(inst, n)
    W, L = list(Pn.num), Pn.den
    table: dict[tuple[int, int], Fraction] = {}
    for d in range(r * (n - ell) - 1, -1, -1):
        # c = W[d]/L - floor(W[d]/L + 1/2) = m/L
        m = W[d] - L * ((2 * W[d] + L) // (2 * L))
        if m == 0:
            continue
        k, j = divmod(d, r)
        if k == 0:
            table[(j, 0)] = Fraction(m, 2 * L)  # P_0 = 2, the one non-monic basis element
            W[j] -= m
            continue
        table[(j, k)] = Fraction(m, L)
        Pk = ladder[k]
        g = math.gcd(m, Pk.den)
        s = Pk.den // g
        if s != 1:
            W = [s * w for w in W]
            L *= s
        m //= g
        W[j:j + len(Pk.num)] = [w - m * pc for w, pc in zip(W[j:j + len(Pk.num)], Pk.num)]
    return table, ExactPoly._from_ints(W, L)


def _correct(inst: RobinsonInstance, n: int, Pn: ExactPoly):
    """(c table, P'_n) from the sweep of P_n; raises CertificationError
    unless n > ell, the top block of P_n is integral and the sweep leaves
    integer coefficients."""
    if n <= inst.ell or not certify_integrality(inst, n, Pn):
        raise CertificationError(
            f"multiplier {n} is not admissible for this instance (need n > ell = "
            f"{inst.ell} and the top {inst.ell * inst.pa.r} coefficients integral)"
        )
    table, P_prime = _sweep(inst, n, Pn)
    bad = [d for d, c in enumerate(P_prime.num) if c % P_prime.den]
    if bad:
        raise CertificationError(f"fractional coefficients remain at degrees {bad}")
    return table, P_prime


def correction_Cn(inst: RobinsonInstance, n: int) -> tuple[ExactPoly, ExactPoly]:
    """The bounded correction C_n and the integer polynomial P_n - C_n.

    Every correction coefficient lies in [-1/2, 1/2), so on E the correction
    is below A lam^(n-ell) / (lam - 1) <= 2 lam^n; the sup is re-measured
    numerically and must come out strictly smaller than 2 lam^n.
    """
    Pn = compose_Pn(inst, n)
    table, P_prime = _correct(inst, n, Pn)
    C_n = Pn - P_prime

    sup_C = _sup_on_bands(inst, table, n)
    threshold = 2.0 * float(inst.lam) ** n
    if table and not sup_C < threshold:
        raise CertificationError(
            f"correction sup {sup_C} reaches the oscillation amplitude {threshold}"
        )
    return C_n, P_prime


def _band_samples(E: IntervalUnion, per_band: int = 512) -> np.ndarray:
    c = np.cos(np.linspace(0.0, np.pi, per_band))
    maps = [_unit_map(u, v) for u, v in E.bands]
    return np.concatenate([mid + half * c for mid, half in maps])


def _eval_structured(inst: RobinsonInstance, n: int,
                     table: dict[tuple[int, int], Fraction],
                     x: np.ndarray, want: str = "P'"):
    """Float evaluation of P_n, C_n or P'_n = P_n - C_n through the scalar
    recurrence p_{k+1} = P(x) p_k - lam^2 p_{k-1}.

    On E the recurrence magnitudes stay of order lam^k, so this is stable
    where a power-basis evaluation of the huge integer coefficients would
    cancel catastrophically.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    P = inst.pa.P
    lam2 = np.full_like(x, float(inst.lam) ** 2)  # array * array skips a scalar cast
    # polyval on P's float coefficients: this runs about 45 times per CSV
    # row, where building a Polynomial on each call costs more
    px = np.polynomial.polynomial.polyval(x, [c / P.den for c in P.num])
    by_k: dict[int, list[tuple[int, float]]] = {}
    for (j, k), c in table.items():
        by_k.setdefault(k, []).append((j, float(c)))
    corr = np.zeros_like(x)
    p_prev = np.full_like(x, 2.0)
    p_cur = px.copy()
    for k in range(0, n + 1):
        pk = p_prev if k == 0 else p_cur
        for j, c in by_k.get(k, ()):  # corrections use k < n - ell only
            corr += c * x**j * pk
        if k >= 1 and k < n:
            p_prev, p_cur = p_cur, px * p_cur - lam2 * p_prev
    Pn = p_cur if n >= 1 else p_prev
    if want == "P_n":
        return Pn
    if want == "C_n":
        return corr
    return Pn - corr


def _sup_on_bands(inst: RobinsonInstance, table, n: int) -> float:
    if not table:
        return 0.0
    xs = _band_samples(inst.pa.E)
    return float(np.max(np.abs(_eval_structured(inst, n, table, xs, want="C_n"))))


# ---------------------------------------------------------------------------
# generation with exact certificates
# ---------------------------------------------------------------------------


def _rationalize_into_E(inst: RobinsonInstance, x: float, direction: int,
                        spacing: float) -> Fraction:
    """A rational point certified inside E = {P^2 <= M^2} near x.

    Interior points round onto a dyadic grid (refining on the rare miss);
    band-edge points walk inward in doubling grid steps, so the total shift
    stays of the order of the rounding error — far below the distance to
    the nearest zero of the composition — and never disturbs the sign.
    """
    D = inst.pa.D  # P^2 - M^2
    den = 1 << 24
    if direction == 0:
        for _ in range(6):
            xi = Fraction(round(x * den), den)
            if D.sign_at(xi) <= 0:
                return xi
            den <<= 8
    else:
        base = round(x * den)
        j = 0
        while j <= 0.25 * spacing * den:
            xi = Fraction(base + direction * j, den)
            if D.sign_at(xi) <= 0:
                return xi
            j = 1 if j == 0 else 2 * j
    raise CertificationError(f"no certified rational point near {x}")


def _certificate(inst: RobinsonInstance, n: int,
                 table: dict[tuple[int, int], Fraction],
                 P_prime: ExactPoly) -> dict:
    """Exact alternating-sign certificate for P'_n.

    Per band: n*r_j + 1 rational points inside E (membership by the exact
    inequality P^2 <= M^2) where the signs of P'_n, evaluated exactly,
    alternate — forcing n*r_j simple roots in the band and n*r in total.
    """
    pa = inst.pa
    E, M, r = pa.E, float(pa.M), pa.r
    coef = pa.P.to_real().coef
    scale = max(abs(e) for e in E.endpoints)
    # extrema of P_n: the levels P(x) = M cos(k pi / n), solved once for
    # all bands (shifting a coefficient copy costs less than Polynomial
    # subtraction, which runs once per level)
    level_roots = []
    for k in range(n * max(pa.r_j) + 1):
        shifted = coef.copy()
        shifted[0] -= M * math.cos(math.pi * k / n)
        level_roots.append(np.roots(shifted[::-1]))
    bands_out = []
    intervals: list[tuple[Fraction, Fraction]] = []
    total = 0
    for j, (u, v) in enumerate(E.bands):
        nj = n * pa.r_j[j]
        spacing = (v - u) / max(nj, 1)
        pts: list[float] = []
        for rts in level_roots[:nj + 1]:
            for z in rts:
                if abs(z.imag) < 1e-8 * scale and u - 1e-9 * scale <= z.real <= v + 1e-9 * scale:
                    pts.append(float(z.real))
        pts = sorted(pts)
        # dedupe: neighboring levels can share no roots, but guard anyway
        dedup = [pts[0]]
        for x in pts[1:]:
            if x - dedup[-1] > 0.25 * spacing / max(n, 1):
                dedup.append(x)
        if len(dedup) != nj + 1:
            raise CertificationError(
                f"band {j}: located {len(dedup)} extremum points, need {nj + 1}"
            )
        xi_list = []
        for i, x in enumerate(dedup):
            direction = 1 if i == 0 else (-1 if i == len(dedup) - 1 else 0)
            xi_list.append(_rationalize_into_E(inst, x, direction, spacing))
        signs = [P_prime.sign_at(xi) for xi in xi_list]
        for a, b in zip(signs[:-1], signs[1:]):
            if a * b != -1:
                raise CertificationError(
                    f"band {j}: exact signs do not alternate ({signs})"
                )
        intervals.extend(zip(xi_list[:-1], xi_list[1:]))
        total += nj
        bands_out.append({
            "band": [u, v],
            "count": nj,
            "points": [str(x) for x in xi_list],
            "signs": signs,
        })
    if total != n * r:
        raise CertificationError(f"certified {total} roots, degree is {n * r}")
    sup_C = _sup_on_bands(inst, table, n)
    lamf = float(inst.lam)
    return {
        "n": n,
        "degree": n * r,
        "bands": bands_out,
        "isolating_intervals": [(str(a), str(b)) for a, b in intervals],
        "correction_sup": sup_C,
        "correction_bound": float(inst.A) * lamf ** (n - inst.ell) / (lamf - 1.0)
        if inst.ell <= n else None,
        "amplitude": 2.0 * lamf**n,
        "correction_terms": len(table),
    }


def generate_at(inst: RobinsonInstance, n: int):
    """(P'_n, certificate, c-table) for a given multiplier n; raises
    CertificationError when n is inadmissible."""
    Pn = compose_Pn(inst, n)
    if Pn.is_integer:
        table, P_prime = {}, Pn
    else:
        table, P_prime = _correct(inst, n, Pn)
    cert = _certificate(inst, n, table, P_prime)
    return P_prime, cert, table


_MAX_DEGREE = 512


def _check_degree(asked: str, degree: int, max_degree: int = _MAX_DEGREE) -> None:
    """Refuse, before any work, a request whose degree is above the cap."""
    if degree > max_degree:
        raise ValueError(
            f"{asked} needs degree {degree} > the cap max_degree = {max_degree}"
        )


def generate(inst: RobinsonInstance, degree_target: int, max_degree: int = _MAX_DEGREE):
    """Smallest admissible multiplier n with n*r >= degree_target; returns
    (P'_n monic integer, certificate, c-table) as ``generate_at(inst, n)``
    does.  A target above ``max_degree`` raises ValueError before any work."""
    M = Fraction(inst.pa.M)
    if not M > 2:
        raise ValueError("need M > 2")
    if degree_target < 1:
        raise ValueError(f"target degree must be >= 1, got {degree_target}")
    r = inst.pa.r
    n = max(1, -(-degree_target // r))
    _check_degree(f"target degree {degree_target}", n * r, max_degree)
    tried = []
    while n * r <= max_degree:
        try:
            return generate_at(inst, n)
        except CertificationError:
            tried.append(n)
            n += 1
    raise CertificationError(
        f"no admissible multiplier with degree <= {max_degree} "
        f"(tried n = {tried[:5]}..{tried[-1] if tried else '-'}); integrality of "
        "the top coefficients requires n divisible by a modulus that grows "
        "with the denominator of lam — raise the degree cap"
    )


# ---------------------------------------------------------------------------
# convergence of root measures
# ---------------------------------------------------------------------------


def root_measure_from_certificate(inst: RobinsonInstance, n: int,
                                  table: dict, cert: dict) -> np.ndarray:
    """The sorted roots of P'_n, by bisection inside the certified isolating
    intervals, evaluated through the stable recurrence.  Their root measure
    gives each root the weight 1/(n r).

    All intervals bisect together, one recurrence evaluation per step on the
    vector of live midpoints.  Each interval takes at most 200 steps and
    stops on its own once b - a < 1e-14 max(1, |m|), m its last midpoint;
    its root is the midpoint of its final interval.
    """
    a = np.array([float(Fraction(s)) for s, _ in cert["isolating_intervals"]])
    b = np.array([float(Fraction(s)) for _, s in cert["isolating_intervals"]])
    fa = _eval_structured(inst, n, table, a)
    live = np.arange(len(a))
    for _ in range(200):
        if not len(live):
            break
        m = 0.5 * (a[live] + b[live])
        fm = _eval_structured(inst, n, table, m)
        left = fa[live] * fm <= 0
        b[live[left]] = m[left]
        right = live[~left]
        a[right], fa[right] = m[~left], fm[~left]
        live = live[b[live] - a[live] >= 1e-14 * np.maximum(1.0, np.abs(m))]
    return np.sort(0.5 * (a + b))


def convergence_report(roots_sequence: Sequence[np.ndarray],
                       mu_E: BandDensity) -> list[float]:
    """Kolmogorov (sup-CDF) distance to mu_E of the root measure of each
    sorted root array, weight 1/N on each of its N roots."""
    out = []
    for x in roots_sequence:
        w = np.full(len(x), 1.0 / len(x))
        cum = np.cumsum(w)
        F = np.asarray(mu_E.cdf(x))
        D = max(float(np.max(np.abs(F - cum))), float(np.max(np.abs(F - (cum - w)))))
        out.append(D)
    return out
