"""Polynomial Pell solutions on interval unions.

A union E supports a polynomial pair with P^2 - D Q^2 = M^2 (D rooted at the
endpoints) exactly when all its band masses omega_j are rational with a
common denominator r; then P is the degree-r minimal polynomial of E scaled
to sup norm M = 2 cap(E)^r, and it has r_j = r omega_j roots in band j.
This module detects the rational mass vector, synthesizes (P, Q, M) from
E's endpoints by Abel's condition at infinity (P is the polynomial part of
Q sqrt(D)), certifies the structure, and replaces P by a nearby
rational-coefficient P' (with Q' = 1, M' < M rational) whose sublevel set
{|P'| <= M'} is again a union of r bands inside E — the step that turns
analytic data into exact arithmetic.
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
    _refined,
    _unit_map,
    isolate_real_roots,
    make_interval_union,
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
    # certified bound on |x| over E: the outer endpoints of from_exact's
    # isolation of D at refine 1e-9 (None for a datum built otherwise)
    x_bound: Fraction | None = field(default=None, init=False, repr=False,
                                     compare=False)

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
        raises ValueError.  One isolation of D stops at refine 1e-9, where
        ``x_bound`` is read, and bisects on to 1e-14 for the bands of E.
        """
        M = Fraction(M)
        if P.degree < 1 or not P.is_monic:
            raise ValueError("P must be monic of degree >= 1")
        if not M > 0:
            raise ValueError("M must be positive")
        r = P.degree
        D = P * P - ExactPoly((M * M,))
        try:
            outer = isolate_real_roots(D, refine=1e-9)
        except NonSquarefreeError:
            raise ValueError(
                f"P^2 - M^2 has a repeated root: bands of {{|P| <= {M}}} touch"
            ) from None
        if len(outer) != 2 * r:
            raise ValueError(
                f"P^2 - M^2 has {len(outer)} real roots, need 2 deg P = {2 * r}: "
                f"{{|P| <= {M}}} is not a union of {r} bands"
            )
        iso = _refined(D, outer, 1e-14)
        bands = [(float(iso[2 * i][0]), float(iso[2 * i + 1][1])) for i in range(r)]
        datum = cls(E=make_interval_union(bands), P=P, Q=ExactPoly((1,)),
                    D=D, M=M, r=r, r_j=tuple([1] * r))
        object.__setattr__(datum, "x_bound", max(abs(outer[0][0]), abs(outer[-1][1])))
        return datum


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
    # P^2 - M^2 is formed in floats, so M^2 = (2 cap^r)^2 must be one
    if 2.0 * (math.log(2.0) + r * datum.vE) >= math.log(sys.float_info.max):
        raise QuadratureError(f"Pell synthesis: M^2 = (2 cap(E)^{r})^2 is outside the float range")
    M = 2.0 * math.exp(r * datum.vE)

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

    D = datum.D
    resid = P * P - D * (Q * Q) - M * M
    rel = float(np.max(np.abs(resid.coef))) / (M * M)
    if rel > 1e-8:
        raise CertificationError(f"P^2 - D Q^2 - M^2 has relative residual {rel:.2e}")
    miss = float(np.max(np.abs(np.abs(P(np.asarray(E.endpoints))) - M)))
    if miss > 1e-6 * M:
        raise CertificationError(f"|P| misses M by {miss:.2e} at a band end, above 1e-6*M")

    return PellAbelDatum(
        E=E, P=P, Q=Q, D=D, M=M, r=int(r), r_j=tuple(int(x) for x in r_j),
    )


# ---------------------------------------------------------------------------
# certification
# ---------------------------------------------------------------------------


def _as_real(p) -> Polynomial:
    return p.to_real() if isinstance(p, ExactPoly) else p


def _real_roots(p: Polynomial, scale: float) -> np.ndarray:
    rts = np.roots(p.coef[::-1])
    return np.sort(rts.real[np.abs(rts.imag) <= 1e-7 * scale])


def certify_structure(pa: PellAbelDatum) -> dict:
    """Verify the root/alternation/containment structure of a Pell datum.

    Returns a report dict with one entry per clause: (passed, details);
    overall verdict under "pass"."""
    E, M, r = pa.E, float(pa.M), pa.r
    P, Q, D = _as_real(pa.P), _as_real(pa.Q), _as_real(pa.D)
    scale = max(abs(e) for e in E.endpoints)
    report: dict = {}

    # identity P^2 - D Q^2 = M^2
    resid = P * P - D * (Q * Q) - M * M
    rel = float(np.max(np.abs(resid.coef))) / (M * M)
    report["identity"] = (rel < 1e-8, {"relative_residual": rel})

    # per-band root counts of P
    p_roots = _real_roots(P, scale)
    counts = []
    for (u, v) in E.bands:
        counts.append(int(np.sum((p_roots >= u - 1e-9 * scale) & (p_roots <= v + 1e-9 * scale))))
    ok_counts = (
        len(p_roots) == r
        and tuple(counts) == tuple(pa.r_j)
        and np.all(np.diff(p_roots) > 1e-9 * scale)
    )
    report["roots_per_band"] = (bool(ok_counts), {"counts": counts, "expected": list(pa.r_j)})

    # Q: r_j - 1 interior roots per band
    q_roots = _real_roots(Q, scale) if Q.degree() >= 1 else np.empty(0)
    q_counts = []
    for (u, v) in E.bands:
        q_counts.append(int(np.sum((q_roots > u) & (q_roots < v))))
    ok_q = tuple(q_counts) == tuple(k - 1 for k in pa.r_j) and len(q_roots) == sum(
        k - 1 for k in pa.r_j
    )
    report["q_roots"] = (bool(ok_q), {"counts": q_counts,
                                      "expected": [k - 1 for k in pa.r_j]})

    # alternation: P runs through +-M at band ends and at Q's interior roots
    alt_ok, alt_detail = True, []
    for j, (u, v) in enumerate(E.bands):
        pts = [u] + [x for x in q_roots if u < x < v] + [v]
        vals = [float(P(np.array([x]))[0]) for x in pts]
        for a, b in zip(vals[:-1], vals[1:]):
            if not (abs(abs(a) - M) < 1e-6 * M and abs(abs(b) - M) < 1e-6 * M and a * b < 0):
                alt_ok = False
        alt_detail.append([round(x, 12) for x in vals])
    report["alternation"] = (alt_ok, {"band_extreme_values": alt_detail})

    # containment: |P| > M strictly off E, |P| <= M on E
    off_pts = [_unit_map(u, v)[0] for u, v in E.gaps]
    lo, hi = E.hull
    off_pts += [lo - 0.1 * E.diameter, hi + 0.1 * E.diameter]
    off_ok = all(abs(float(P(np.array([x]))[0])) > M for x in off_pts)
    on_pts = np.concatenate(
        [np.linspace(u, v, 17) for (u, v) in E.bands]
    )
    on_vals = np.abs(P(on_pts))
    on_ok = bool(np.all(on_vals <= M * (1 + 1e-6)))
    report["containment"] = (
        bool(off_ok and on_ok),
        {"max_on_E": float(np.max(on_vals)), "M": M},
    )

    report["pass"] = all(v[0] for k, v in report.items() if k != "pass")
    return report


# ---------------------------------------------------------------------------
# rationalization
# ---------------------------------------------------------------------------


def rationalize(pa: PellAbelDatum, M_prime: Fraction | int | str):
    """Replace P by a nearby dyadic-rational polynomial P' with Q' = 1.

    For 0 < M' < M, any close enough rational perturbation keeps the level
    set {|P'| <= M'} a union of r bands, one simple P'-root each, inside E.
    Coefficients are rounded to denominator 2^k with k doubled until
    ``PellAbelDatum.from_exact(P', M')`` certifies the r bands and each band
    lies strictly inside a band of E.  Returns (P', E', datum')."""
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
        # strict containment in the interior of E
        outside = [(u, v) for (u, v) in pa_prime.E.bands
                   if not any(bu < u and v < bv for (bu, bv) in pa.E.bands)]
        if outside:
            last_err = f"band {outside[0]} is not interior to E"
            continue
        return pa_prime.P, pa_prime.E, pa_prime
    raise CertificationError(
        f"no dyadic rounding up to 2^64 certifies the sublevel structure ({last_err})"
    )
