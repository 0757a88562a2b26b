"""Polynomial Pell solutions on interval unions.

A union E supports a polynomial pair with P^2 - D Q^2 = M^2 (D rooted at the
endpoints) exactly when all its band masses omega_j are rational with a
common denominator r; then P is the degree-r minimal polynomial of E scaled
to sup norm M = 2 cap(E)^r, and it has r_j = r omega_j roots in band j.
This module detects the rational mass vector, synthesizes (P, Q, M) from
E's endpoints by Abel's condition at infinity (P is the polynomial part of
Q sqrt(D)), and replaces P by a nearby rational-coefficient P' (with
Q' = 1, M' < M rational) whose sublevel set {|P'| <= M'} is again a union
of r bands inside E — the step that turns analytic data into exact
arithmetic.  One constructor, ``PellAbelDatum.from_exact(P, M)``, decides
that {|P| <= M} is r bands, for the rationalized datum and for the exact
certificate of the synthesized P (``certify_structure``).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np
from numpy.polynomial import Chebyshev, Polynomial
from numpy.polynomial.chebyshev import chebvander

from .core import (
    CertificationError,
    ExactPoly,
    IntervalUnion,
    NonSquarefreeError,
    QuadratureError,
    _cell,
    _level_roots,
    isolate_real_roots,
)
from .abel import AbelDatum, _exp_series, _unit_frame

__all__ = [
    "PellAbelDatum",
    "detect_pell_abel",
    "construct_pa_polynomial",
    "certify_structure",
    "rationalize",
]


@dataclass(frozen=True)
class PellAbelDatum:
    E: IntervalUnion
    P: Polynomial | ExactPoly
    Q: Polynomial | ExactPoly
    D: Polynomial | ExactPoly
    M: float | Fraction
    r: int
    r_j: tuple[int, ...]
    # set by from_exact only (None for a datum built otherwise): the exact
    # cell [lo, hi] around each of E's 2r ends that holds its root of D and
    # no other
    _cells: tuple[tuple[Fraction, Fraction], ...] | None = field(
        default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.r < 1 or any(k < 1 for k in self.r_j):
            raise ValueError("degree data must be positive")
        if sum(self.r_j) != self.r:
            raise ValueError("per-band root counts must sum to the degree")
        if not self.M > 0:
            raise ValueError("M must be positive")

    @classmethod
    def from_exact(cls, P: ExactPoly, M) -> "PellAbelDatum":
        """The exact datum (P, Q = 1, M) on E = {P^2 <= M^2}.

        E has r = deg P bands, one root of P each, exactly when D = P^2 - M^2
        has 2r simple real roots; any other (P, M), and a P that is not monic,
        raises ValueError.  Each of E's 2r ends is the float its root rounds
        to.  The float roots of P - M and P + M are the seeds; each seed's
        cell is the exact midpoints to its float neighbours.  Nonzero,
        opposite exact signs of D at the ends of 2r disjoint cells put a
        root in each, so D, of degree 2r, has 2r simple real roots and no
        Sturm chain is needed.  A seed whose cell fails moves a few floats
        toward the sign change; when that fails too (near-touching bands,
        coefficients outside the float range, a D without 2r real roots)
        ``isolate_real_roots(D)`` builds D's Sturm chain once, counts the
        roots and narrows each to the float it rounds to.  Either way the
        datum keeps the 2r cells: ``x_bound`` and ``_in_band`` read them.
        """
        M = Fraction(M)
        if P.degree < 1 or not P.is_monic:
            raise ValueError("P must be monic of degree >= 1")
        if not M > 0:
            raise ValueError("M must be positive")
        r = P.degree
        D = P * P - ExactPoly((M * M,))
        ends = _certified_ends(D, _seeds(P, M))
        if ends is None:
            try:
                roots = isolate_real_roots(D)
            except NonSquarefreeError:
                raise ValueError(
                    f"P^2 - M^2 has a repeated root: bands of {{|P| <= {M}}} touch"
                ) from None
            if len(roots) != 2 * r:
                raise ValueError(
                    f"P^2 - M^2 has {len(roots)} real roots, need 2 deg P = {2 * r}: "
                    f"{{|P| <= {M}}} is not a union of {r} bands"
                )
            try:
                ends = [float((a + b) / 2) for a, b in roots]
            except OverflowError:
                raise ValueError("an end of E lies outside the float range") from None
            if any(a >= b for a, b in zip(ends, ends[1:])):
                raise ValueError(f"the bands of {{|P| <= {M}}} are not apart in floats")
        bands = tuple((ends[2 * i], ends[2 * i + 1]) for i in range(r))
        datum = cls(E=IntervalUnion(bands), P=P, Q=ExactPoly((1,)),
                    D=D, M=M, r=r, r_j=tuple([1] * r))
        object.__setattr__(datum, "_cells", tuple(_cell(x) for x in ends))
        return datum

    @property
    def x_bound(self) -> Fraction | None:
        """A certified bound on |x| over E: the larger |end| of the two outer
        cells (None for a datum not built by ``from_exact``)."""
        if self._cells is None:
            return None
        return max(abs(self._cells[0][0]), abs(self._cells[-1][1]))

    def _in_band(self, j: int, x: Fraction, in_E: bool = False) -> bool:
        """Whether the rational x lies in band j, by exact comparisons with
        the cells ``from_exact`` certified around the band's ends a_j, b_j.

        x from the top of a_j's cell to the bottom of b_j's lies in the
        band.  A point of E (``in_E``: D(x) <= 0, which the caller has
        checked) lies in band j anywhere from a_j's cell to b_j's: each cell
        holds its end's root alone, and D > 0 on the cell's side away from
        the band.
        """
        (a_lo, a_hi), (b_lo, b_hi) = self._cells[2 * j], self._cells[2 * j + 1]
        return a_lo <= x <= b_hi if in_E else a_hi <= x <= b_lo

    def cdf(self, x):
        """The distribution function of E's equilibrium measure, for a datum
        with one root of P per band (every datum ``from_exact`` builds).

        mu_E is the pullback of the arcsine law on [-M, M] by P, so on band j
        it is (j + theta / pi) / r with theta = arccos(y) =
        2 asin(sqrt((1 - y) / 2)), y = -(-1)^(r-1-j) P(x) / M: the half-angle
        form loses nothing next to the band ends.  It is j / r on the gap
        after band j - 1, 0 below E and 1 above.  P runs in floats.
        """
        if any(k != 1 for k in self.r_j):
            raise ValueError("the closed-form cdf needs one root of P per band")
        x = np.asarray(x, dtype=float)
        k = np.searchsorted(np.asarray(self.E.endpoints), x, side="right")
        j = np.minimum(k // 2, self.r - 1)
        y = np.where((self.r - 1 - j) % 2, 1.0, -1.0) * _as_real(self.P)(x) / float(self.M)
        theta = 2.0 * np.arcsin(np.sqrt(np.clip(0.5 - 0.5 * y, 0.0, 1.0)))
        return np.where(k % 2, (j + theta / math.pi) / self.r, (k // 2) / self.r)


def _seeds(P: ExactPoly, M: Fraction) -> list[float]:
    """Float guesses for E's ends, sorted: the real parts of the roots of
    P - M and P + M (``_level_roots``, coefficients of size |P|, not |P|^2),
    each moved by Newton steps whose residual P(x) -+ M is exact, up to
    three while a step exceeds 1024 ulps (next to a narrow gap P' is small
    against the eigensolve's error).  Empty outside the float range."""
    rows = _level_roots(P, (M, -M))
    if rows is None:
        return []
    dPf, out = P.to_real().deriv(), []
    try:
        for level, rts in zip((M, -M), rows.real.tolist()):
            for x in rts:
                for _ in range(3):
                    d = float(dPf(x))
                    if not (math.isfinite(x) and math.isfinite(d) and d):
                        break
                    step = float(P(Fraction(x)) - level) / d
                    x -= step
                    if abs(step) <= 1024 * math.ulp(x):
                        break
                out.append(x)
    except OverflowError:
        return []
    return sorted(out)


def _certified_ends(D: ExactPoly, seeds: list[float]) -> list[float] | None:
    """The floats that D's 2r roots round to, or None.

    D has degree 2r and a positive leading coefficient, so were its roots
    real and simple its sign would be + just left of every even-indexed
    root and - just left of every odd-indexed one.  Seed i's cell must show
    that change with nonzero exact signs at both ends; a cell with both
    signs on one side moves one float toward the change, up to four times.
    2r disjoint cells each holding a sign change hold 2r roots, so D has no
    other: each is real, simple and strictly inside its cell, where it
    rounds to the cell's float.
    """
    if len(seeds) != D.degree:
        return None
    ends = []
    for i, x in enumerate(seeds):
        left = 1 if i % 2 == 0 else -1
        for _ in range(5):
            if not math.isfinite(x):
                return None
            lo, hi = _cell(x)
            s_lo, s_hi = D.sign_at(lo), D.sign_at(hi)
            if s_lo == left and s_hi == -left:
                break
            if s_lo == s_hi and s_lo:
                x = math.nextafter(x, math.inf if s_lo == left else -math.inf)
            else:
                return None
        else:
            return None
        ends.append(x)
    return ends if all(a < b for a, b in zip(ends, ends[1:])) else None


def detect_pell_abel(datum: AbelDatum, max_denominator: int = 64, tol: float = 1e-9):
    """Smallest r <= max_denominator with every r*omega_j a positive integer
    (within tol), or None."""
    if max_denominator < 1:
        raise ValueError("max_denominator must be >= 1")
    omega = np.asarray(datum.omega)
    for r in range(1, max_denominator + 1):
        v = r * omega
        k = np.round(v)
        if np.all(np.abs(v - k) <= tol) and np.all(k >= 1):
            return r, [int(x) for x in k]
    return None


# ---------------------------------------------------------------------------
# synthesis
# ---------------------------------------------------------------------------


def construct_pa_polynomial(datum: AbelDatum, r: int) -> PellAbelDatum:
    """Synthesize (P, Q, M) of degree r on datum.E from Abel's condition at
    infinity, P - Q sqrt(D) = M^2 / (P + Q sqrt(D)) = O(x^-r).

    On E mapped onto [-1, 1], x = (w + 1/w)/2 takes |w| > 1 onto the outside
    of [-1, 1] and T_n(x) = (w^n + w^-n)/2.  Each x - e_k is
    (w/2)(1 - t_k/w)(1 - 1/(t_k w)) with t_k + 1/t_k = 2 e_k and |t_k| = 1, so
    sqrt(D) = (w/2)^(g+1) exp(-sum_m p_m w^-m / m) with p_m = sum_k T_m(e_k).
    For Q = sum a_i T_i of degree s = r - g - 1 (a_s = 1), the condition says
    that Q sqrt(D) has the same coefficient at w^n and at w^-n for
    n = 1..r-1: one least-squares solve for a, and Q = 1 when every band holds
    one root of P.  P = b_0 + sum b_n T_n is the part of Q sqrt(D) in
    w^0..w^r.  Both are mapped back to E's coordinates and made monic;
    M = 2 cap(E)^r.  The same conditions on the coefficients of x^-1..x^-(r-1)
    form a moment (Pade) system that loses P's digits as r grows (1e-10 at
    r = 12 on [-2, 2]); in w they keep P to rounding.
    """
    if r < 1:
        raise ValueError(f"r must be >= 1, got {r}")
    E = datum.E
    omega = np.asarray(datum.omega)
    r_j = np.round(r * omega).astype(int)
    if np.max(np.abs(r * omega - r_j)) > 1e-6 or np.any(r_j < 1):
        raise CertificationError(
            f"band masses {omega.tolist()} are not integral at denominator {r}"
        )
    # P^2 - M^2 is formed in floats, so M^2 = (2 cap^r)^2 must be one: below
    # the largest float and not underflowing to 0
    too_big = 2.0 * (math.log(2.0) + r * datum.vE) >= math.log(sys.float_info.max)
    if too_big or (M := 2.0 * math.exp(r * datum.vE)) * M == 0.0:
        raise QuadratureError(f"Pell synthesis: M^2 = (2 cap(E)^{r})^2 is outside the float range")

    e, _, _ = _unit_frame(E)
    h = len(e) // 2  # g + 1
    s = r - h
    # 2^h sqrt(D) = sum_m c_m w^(h-m), c_m held at c[2r + m] behind 2r zeros
    c = np.r_[np.zeros(2 * r), _exp_series(chebvander(e, 2 * r - 1).sum(axis=0))]
    # A[i, r - k]: coefficient of w^k, k = r .. 1-r, in T_i(x) 2^h sqrt(D)
    hk = 2 * r + h - np.arange(r, -r, -1)
    i = np.arange(s + 1)[:, None]
    A = 0.5 * (c[hk + i] + c[hk - i])
    B = A[:, r + 1:] - A[:, r - 1:0:-1]  # at w^-n minus at w^n
    a = np.ones(s + 1)
    if s:
        a[:s] = np.linalg.lstsq(B[:s].T, -B[s], rcond=None)[0]
    b = 2.0 * (a @ A[:, r::-1])
    b[0] *= 0.5
    P, Q = (Chebyshev(x, domain=E.hull).convert(kind=Polynomial) for x in (b, a))
    P, Q = Polynomial(P.coef / P.coef[-1]), Polynomial(Q.coef / Q.coef[-1])

    rel = _identity_residual(P.coef, Q.coef, datum.D.coef, M * M) / (M * M)
    if rel > 1e-8:
        raise CertificationError(f"P^2 - D Q^2 - M^2 has relative residual {rel:.2e}")
    miss = float(np.max(np.abs(np.abs(P(np.asarray(E.endpoints))) - M)))
    if miss > 1e-6 * M:
        raise CertificationError(f"|P| misses M by {miss:.2e} at a band end, above 1e-6*M")

    return PellAbelDatum(
        E=E, P=P, Q=Q, D=datum.D, M=M, r=int(r), r_j=tuple(int(x) for x in r_j),
    )


# ---------------------------------------------------------------------------
# certification
# ---------------------------------------------------------------------------


def _as_real(p) -> Polynomial:
    return p.to_real() if isinstance(p, ExactPoly) else p


def _identity_residual(P, Q, D, M2: float) -> float:
    """max |c| over the coefficients c of P^2 - D Q^2 - M2, from the float
    coefficient arrays of P, Q and D, low degree first."""
    resid = np.polynomial.polynomial.polysub(np.convolve(P, P),
                                             np.convolve(D, np.convolve(Q, Q)))
    resid[0] -= M2
    return float(np.max(np.abs(resid)))


# M' and M'' = (1 -+ 2^-20) M in certify_structure: where two bands of E
# touch, at a root of Q, {|P| <= M'} opens a gap about 2^-10 of the band
# wide, so one rule covers r_j = 1 and r_j > 1
_LEVEL_GAP = Fraction(1, 1 << 20)


def _host_bands(bands, E: IntervalUnion) -> list[int | None]:
    """For each band (u, v), the index of the band of E that holds it
    strictly inside, or None.  u and v are the floats that exact ends round
    to, and rounding is monotone, so each float comparison is exact."""
    return [next((j for j, (a, b) in enumerate(E.bands) if a < u and v < b), None)
            for u, v in bands]


def _abs_bound(P: ExactPoly, lo: Fraction, hi: Fraction) -> Fraction:
    """An upper bound on |P| over [lo, hi]: with x = m + h t, m and h the
    centre and half-width, P = sum e_k t^k (integers e_k over den b^deg P),
    the quadratic part of +-P peaks on |t| <= 1 at t = +-1 or its vertex,
    and sum_{k>=3} |e_k|, of order h^3, bounds the rest."""
    b = math.lcm(lo.denominator, hi.denominator)
    n_lo, n_hi = lo.numerator * (b // lo.denominator), hi.numerator * (b // hi.denominator)
    a, c, b = n_lo + n_hi, n_hi - n_lo, 2 * b  # m = a / b, h = c / b
    num = P.num
    e, bk = [num[-1]], 1
    for k in range(len(num) - 2, -1, -1):  # e <- e (a + c t) + num_k b^(deg - k)
        bk *= b
        e = [a * x + c * y for x, y in zip(e + [0], [0] + e)]
        e[0] += num[k] * bk
    e += [0, 0]
    peak = Fraction(0)
    for e0, e1, e2 in ((e[0], e[1], e[2]), (-e[0], -e[1], -e[2])):
        if e2 < 0 and abs(e1) <= -2 * e2:
            peak = max(peak, e0 - Fraction(e1 * e1, 4 * e2))
        else:
            peak = max(peak, Fraction(e0 + e2 + abs(e1)))
    return (peak + sum(map(abs, e[3:]))) / (P.den * b ** (len(num) - 1))


def certify_structure(pa: PellAbelDatum) -> dict:
    """Decide exactly that E lies between {|P| <= M'} and {|P| <= M''},
    M' and M'' = (1 -+ 2^-20) M, with r_j bands of the first strictly
    inside band j of E.

    P and M are taken at the exact values of their floats (a datum from
    ``rationalize`` is exact already).  ``PellAbelDatum.from_exact(P, M')``
    certifies the inner bands, and ``_abs_bound`` bounds |P| on the rest of
    E.  The report holds ``M_prime`` and ``M_double_prime``; ``counts``, the
    inner bands in each band of E (null when from_exact refuses (P, M'));
    ``peak``, that bound over M (null unless counts is r_j); and ``pass``,
    when counts is r_j and the bound is at most M''.
    ``identity_residual``, max |P^2 - D Q^2 - M^2| / M^2 in floats, is a
    diagnostic and decides nothing.
    """
    E = pa.E
    P = pa.P if isinstance(pa.P, ExactPoly) else ExactPoly(pa.P.coef.tolist())
    M = Fraction(pa.M)
    Pf, Qf, Df = (_as_real(p).coef for p in (pa.P, pa.Q, pa.D))
    M2 = float(M) ** 2
    report = {"M_prime": M * (1 - _LEVEL_GAP), "M_double_prime": M * (1 + _LEVEL_GAP),
              "counts": None, "peak": None, "pass": False,
              "identity_residual": _identity_residual(Pf, Qf, Df, M2) / M2}
    try:
        inner = PellAbelDatum.from_exact(P, report["M_prime"])
    except ValueError:
        return report
    hosts = _host_bands(inner.E.bands, E)
    report["counts"] = [hosts.count(j) for j in range(E.n_bands)]
    if report["counts"] == list(pa.r_j):
        # E less the inner bands, whose cells it overlaps (the top of a left
        # end's, the bottom of a right end's): the merged ends pair off
        cuts = [cell[1 - i % 2] for i, cell in enumerate(inner._cells)]
        ends = sorted([Fraction(x) for x in E.endpoints] + cuts)
        peak = max(_abs_bound(P, lo, hi) for lo, hi in zip(ends[::2], ends[1::2]))
        report["peak"] = float(peak / M)
        report["pass"] = peak <= report["M_double_prime"]
    return report


def rationalize(pa: PellAbelDatum, M_prime: Fraction | int | str):
    """Replace P by a nearby dyadic-rational polynomial P' with Q' = 1.

    For 0 < M' < M, any close enough rational perturbation keeps the level
    set {|P'| <= M'} a union of r bands, one simple P'-root each, inside E.
    Coefficients are rounded to denominator 2^k with k doubled until
    ``PellAbelDatum.from_exact(P', M')`` certifies the r bands and each band
    lies strictly inside a band of E.  Returns that datum, with P' its P
    and {|P'| <= M'} its E."""
    M_prime = Fraction(M_prime)
    M = pa.M if isinstance(pa.M, Fraction) else Fraction(pa.M)
    if not 0 < M_prime < M:
        raise ValueError("need 0 < M' < M")
    P = _as_real(pa.P)
    k = 8
    last_err = "no attempt"
    while k <= 64:
        den = 1 << k
        cs = [Fraction(round(c * den), den) for c in P.coef[:-1].tolist()] + [Fraction(1)]
        k *= 2
        try:
            pa_prime = PellAbelDatum.from_exact(ExactPoly(tuple(cs)), M_prime)
        except ValueError as e:
            last_err = str(e)
            continue
        hosts = _host_bands(pa_prime.E.bands, pa.E)
        if None in hosts:
            last_err = f"band {pa_prime.E.bands[hosts.index(None)]} is not interior to E"
            continue
        return pa_prime
    raise CertificationError(
        f"no dyadic rounding up to 2^64 certifies the sublevel structure ({last_err})"
    )
