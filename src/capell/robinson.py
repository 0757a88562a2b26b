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
membership in E is the rational inequality P(x)^2 <= M^2, a Sturm count of
P^2 - M^2 keeps each band's points inside that band, and signs are
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
    QuadratureError,
    _level_roots,
    _rounded,
    _unit_map,
)
from .pellabel import PellAbelDatum

__all__ = [
    "RobinsonInstance",
    "make_instance",
    "preset_x2m6",
    "preset_x2m5",
    "compose_Pn",
    "certify_integrality",
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

    # certified |x| bound on E = {P^2 <= M^2}: the outer ends' cells
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


def _band_samples(E: IntervalUnion, per_band: int = 512) -> np.ndarray:
    c = np.cos(np.linspace(0.0, np.pi, per_band))
    maps = [_unit_map(u, v) for u, v in E.bands]
    return np.concatenate([mid + half * c for mid, half in maps])


def _eval_structured(inst: RobinsonInstance, n: int,
                     table: dict[tuple[int, int], Fraction],
                     x: np.ndarray, want: str = "P'"):
    """Float evaluation of C_n, or of P'_n = P_n - C_n and its derivative,
    each divided by lam^n, through the scalar recurrence
    q_{k+1} = (P(x)/lam) q_k - q_{k-1} for q_k = p_k / lam^k and, for P'_n,
    q'_{k+1} = (P'(x)/lam) q_k + (P(x)/lam) q'_k - q'_{k-1}.

    On E every |q_k| <= 2, so nothing overflows however large lam^n is, and
    the recurrence is stable where a power-basis evaluation of the huge
    integer coefficients would cancel catastrophically.  A term c x^j p_k
    of C_n enters as c lam^(k-n) x^j q_k.  Returns the array C_n(x) / lam^n
    for want="C_n", else the pair (P'_n(x) / lam^n, P'_n'(x) / lam^n), whose
    signs and ratio are those of P'_n and P'_n'.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    P = inst.pa.P
    deriv = want != "C_n"
    lam = float(inst.lam)
    # polyval on P's float coefficients: building a Polynomial on each call
    # costs more
    coef = [c / P.den for c in P.num]
    px = np.polynomial.polynomial.polyval(x, coef) / lam
    dpx = (np.polynomial.polynomial.polyval(x, coef[1:] * np.arange(1, len(coef))) / lam
           if deriv else None)
    by_k: dict[int, list[tuple[int, float]]] = {}
    for (j, k), c in table.items():
        by_k.setdefault(k, []).append((j, float(c) * lam ** (k - n)))
    corr, dcorr = np.zeros_like(x), np.zeros_like(x)
    q_prev, dq_prev = np.full_like(x, 2.0), np.zeros_like(x)
    q_cur, dq_cur = px.copy(), dpx
    for k in range(0, n + 1):
        qk, dqk = (q_prev, dq_prev) if k == 0 else (q_cur, dq_cur)
        for j, c in by_k.get(k, ()):  # corrections use k < n - ell only
            xj = x**j
            corr += c * xj * qk
            if deriv:
                dcorr += c * (xj * dqk + j * x**(j - 1) * qk) if j else c * dqk
        if k >= 1 and k < n:
            if deriv:
                dq_prev, dq_cur = dq_cur, dpx * q_cur + px * dq_cur - dq_prev
            q_prev, q_cur = q_cur, px * q_cur - q_prev
    if not deriv:
        return corr
    return (q_cur - corr, dq_cur - dcorr) if n >= 1 else (q_prev - corr, dq_prev - dcorr)


def _sup_on_bands(inst: RobinsonInstance, table, n: int) -> float:
    """sup |C_n| / lam^n over samples of E's bands."""
    if not table:
        return 0.0
    xs = _band_samples(inst.pa.E)
    return float(np.max(np.abs(_eval_structured(inst, n, table, xs, want="C_n"))))


# ---------------------------------------------------------------------------
# generation with exact certificates
# ---------------------------------------------------------------------------


# the dyadic grid on which certificate points are rational
_GRID = 1 << 24


def _rationalize_into_E(inst: RobinsonInstance, x: float, direction: int,
                        spacing: float) -> Fraction:
    """A rational point certified inside E = {P^2 <= M^2} near the band end x.

    From x's grid point the point walks inward (direction 1 from a band's
    left end, -1 from its right) in doubling grid steps, so the total shift
    stays of the order of the rounding error — far below the distance to
    the nearest zero of the composition — and never disturbs the sign.
    """
    D = inst.pa.D  # P^2 - M^2
    base = round(x * _GRID)
    j = 0
    while j <= 0.25 * spacing * _GRID:
        xi = Fraction(base + direction * j, _GRID)
        if D.sign_at(xi) <= 0:
            return xi
        j = 1 if j == 0 else 2 * j
    raise CertificationError(f"no certified rational point near {x}")


def _band_level_roots(pa: PellAbelDatum, angles: list[float]) -> np.ndarray:
    """Row k: the r roots of P - M cos(angles[k]), ascending."""
    rows = _level_roots(pa.P, [_rounded(pa.M) * math.cos(t) for t in angles])
    if rows is None:
        raise QuadratureError("robinson level roots: a coefficient of P - M cos(t) "
                              "lies outside the float range")
    return np.sort(rows.real, axis=1)


def _band_points(inst: RobinsonInstance, j: int, xs: list[float],
                 spacing: float) -> list[Fraction]:
    """Band j's certificate points from its float level roots xs, each
    certified in band j, or CertificationError.

    Every point rounds onto the grid.  A first or last point that the
    datum's end cells do not place inside band j walks inward into E
    (D = P^2 - M^2 <= 0, exactly), where the cells decide its band
    (``PellAbelDatum._in_band``).  The points between them lie in band j
    when all are strictly increasing.
    """
    pa = inst.pa
    pts = [Fraction(round(x * _GRID), _GRID) for x in xs]
    ok = True
    for i, direction in ((0, 1), (-1, -1)):
        if not pa._in_band(j, pts[i]):
            pts[i] = _rationalize_into_E(inst, xs[i], direction, spacing)
            ok = ok and pa._in_band(j, pts[i], in_E=True)
    if not (ok and all(a < b for a, b in zip(pts, pts[1:]))):
        raise CertificationError(f"band {j}: the points are not increasing inside band {j}")
    return pts


def _float_or_none(value) -> float | None:
    """value(), or None when it lies outside the float range."""
    try:
        out = value()
    except OverflowError:
        return None
    return out if math.isfinite(out) else None


def _certificate(inst: RobinsonInstance, n: int,
                 table: dict[tuple[int, int], Fraction],
                 P_prime: ExactPoly) -> dict:
    """Exact alternating-sign certificate for P'_n.

    ``from_exact`` admits only (P, M) with 2r simple real roots of
    D = P^2 - M^2, so P maps each band one-to-one onto [-M, M]: the j-th
    roots of the levels P = M cos(k pi / n), k = 0..n, are the n + 1
    extremum points of P_n on band j.  Each is rounded to a rational
    certified in band j (``_band_points``).  Exact signs of P'_n
    alternating at the points force n simple roots in every band, and the
    counts must add up to the degree n r.  ``points`` and
    ``isolating_intervals`` hold Fractions.  ``amplitude`` (2 lam^n),
    ``correction_bound`` and ``correction_sup`` are floats, null when
    outside the float range.
    """
    pa = inst.pa
    level_roots = _band_level_roots(pa, [math.pi * k / n for k in range(n + 1)])
    bands_out = []
    intervals: list[tuple[Fraction, Fraction]] = []
    for j, (u, v) in enumerate(pa.E.bands):
        xi_list = _band_points(inst, j, np.sort(level_roots[:, j]).tolist(), (v - u) / n)
        signs = [P_prime.sign_at(xi) for xi in xi_list]
        if any(a * b != -1 for a, b in zip(signs, signs[1:])):
            raise CertificationError(f"band {j}: exact signs do not alternate ({signs})")
        intervals.extend(zip(xi_list[:-1], xi_list[1:]))
        bands_out.append({
            "band": [u, v],
            "count": n,
            "points": xi_list,
            "signs": signs,
        })
    if len(intervals) != n * pa.r:
        raise CertificationError(
            f"the bands certify {len(intervals)} roots, not the degree {n * pa.r}")
    sup_C = _sup_on_bands(inst, table, n)
    lamf = float(inst.lam)
    return {
        "n": n,
        "degree": n * pa.r,
        "bands": bands_out,
        "isolating_intervals": intervals,
        "correction_sup": _float_or_none(lambda: sup_C * lamf**n) if table else 0.0,
        "correction_bound": _float_or_none(
            lambda: float(inst.A) * lamf ** (n - inst.ell) / (lamf - 1.0))
        if inst.ell <= n else None,
        "amplitude": _float_or_none(lambda: 2.0 * lamf**n),
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


def _first_multiplier(r: int, degree_target: int, max_degree: int = _MAX_DEGREE) -> int:
    """The smallest n >= 1 with n*r >= degree_target, r = deg P; a target
    below 1, or an n*r above ``max_degree``, raises ValueError."""
    if degree_target < 1:
        raise ValueError(f"target degree must be >= 1, got {degree_target}")
    n = max(1, -(-degree_target // r))
    _check_degree(f"target degree {degree_target}", n * r, max_degree)
    return n


def generate(inst: RobinsonInstance, degree_target: int, max_degree: int = _MAX_DEGREE):
    """Smallest admissible multiplier n with n*r >= degree_target; returns
    (P'_n monic integer, certificate, c-table) as ``generate_at(inst, n)``
    does.  A target above ``max_degree`` raises ValueError before any work."""
    M = Fraction(inst.pa.M)
    if not M > 2:
        raise ValueError("need M > 2")
    r = inst.pa.r
    n = _first_multiplier(r, degree_target, max_degree)
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
    """The sorted roots of P'_n, by Newton's method inside the certified
    isolating intervals, evaluated through the stable recurrence.  Their
    root measure gives each root the weight 1/(n r).

    The seeds are the roots of the uncorrected P_n = 2 lam^n T_n(P/M), the
    level roots of P = M cos((2k + 1) pi / (2n)), k = 0..n-1.  Each root
    keeps its certified interval [a, b] as a bracket, moved to every iterate
    by the sign of P'_n there against the certificate's exact sign at a.  A
    Newton step that leaves the bracket is replaced by the bracket's
    midpoint.  All live roots step together, one recurrence evaluation per
    step; a root stops, at the Newton update, once its step is at most
    1e-14 max(1, |x|), and every root stops after at most 64 steps.
    """
    iv = cert["isolating_intervals"]
    a = np.array([float(x) for x, _ in iv])
    b = np.array([float(x) for _, x in iv])
    sa = np.array([s for band in cert["bands"] for s in band["signs"][:-1]])
    x = np.sort(_band_level_roots(inst.pa, [math.pi * (2 * k + 1) / (2 * n) for k in range(n)]),
                axis=None)
    out = ~((a < x) & (x < b))
    x[out] = 0.5 * (a[out] + b[out])
    live = np.arange(len(x))
    for _ in range(64):
        if not len(live):
            break
        xl = x[live]
        f, d = _eval_structured(inst, n, table, xl)
        on_a, on_b = np.sign(f) == sa[live], np.sign(f) == -sa[live]
        a[live[on_a]], b[live[on_b]] = xl[on_a], xl[on_b]
        step = np.divide(f, d, out=np.full_like(f, np.inf), where=d != 0)
        xn = xl - step
        done = np.abs(step) <= 1e-14 * np.maximum(1.0, np.abs(xl))
        out = ~done & ~((a[live] < xn) & (xn < b[live]))
        xn[out] = 0.5 * (a[live[out]] + b[live[out]])
        x[live] = xn
        live = live[~done]
    return np.sort(x)


def convergence_report(roots_sequence: Sequence[np.ndarray], mu_E) -> list[float]:
    """Kolmogorov (sup-CDF) distance to mu_E of the root measure of each
    sorted root array, weight 1/N on each of its N roots.  mu_E is anything
    with a vectorised ``cdf``: a ``BandDensity``, or the exact Pell datum,
    whose ``cdf`` is the closed form of E's equilibrium measure."""
    out = []
    for x in roots_sequence:
        w = np.full(len(x), 1.0 / len(x))
        cum = np.cumsum(w)
        F = np.asarray(mu_E.cdf(x))
        D = max(float(np.max(np.abs(F - cum))), float(np.max(np.abs(F - (cum - w)))))
        out.append(D)
    return out
