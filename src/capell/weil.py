"""Transfer between a circle of radius sqrt(q) and its trace interval.

The map f(z) = z + z-bar sends the circle |z| = sqrt(q) onto
I = [-2 sqrt(q), 2 sqrt(q)], and a conjugation-invariant compact subset of
the circle onto a compact K inside I.  Capacities transfer by
cap(f^-1 K) = q^(1/4) cap(K)^(1/2), so every capacity question on the
circle reduces to a band computation.  Monic integer polynomials with all
roots real and inside I lift to monic integer polynomials whose roots all
sit on the circle: each root a contributes the quadratic X^2 - a X + q.
The lift is assembled by exact polynomial composition, so integrality never
depends on floating point.  The input's window is decided by exact signs at
points placed from its float roots, with a Sturm chain only when those fail,
so floats choose where to look but never decide.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .core import ExactPoly, IntervalUnion, _horner, _level_roots
from .abel import abel_capacity, solve_R

__all__ = [
    "CircleSet",
    "circle_capacity",
    "weil_lift",
    "pushforward_check",
    "support_capacity_bound",
]


@dataclass(frozen=True)
class CircleSet:
    """A conjugation-invariant compact on |z| = sqrt(q), presented by the
    bands of its image under z -> z + z-bar."""

    q: int
    x_bands: IntervalUnion

    def __post_init__(self):
        if int(self.q) != self.q or self.q < 2:
            raise ValueError("q must be an integer >= 2")
        if self.q > sys.float_info.max:
            # every float band lies inside [-2 sqrt q, 2 sqrt q]; only q^(1/4)
            # must be a float
            _quarter(self.q)
            return
        w = 2.0 * self.radius
        slack = 1e-12 * w
        for (u, v) in self.x_bands.bands:
            if u < -w - slack or v > w + slack:
                raise ValueError(f"band ({u}, {v}) leaves [-2 sqrt q, 2 sqrt q]")

    @property
    def radius(self) -> float:
        """sqrt(q), for q within the float range."""
        return math.sqrt(self.q)


def _quarter(q: int) -> float:
    """q^(1/4) for q past the float range: isqrt(isqrt(q)) is its floor, at
    least 10^77 there; ValueError where q^(1/4) leaves the float range."""
    try:
        return float(math.isqrt(math.isqrt(q)))
    except OverflowError:
        raise ValueError(f"q = 10^{math.log10(q):.1f}: q^(1/4) lies outside the "
                         f"float range") from None


@lru_cache(maxsize=32)
def _band_capacity(E: IntervalUnion) -> float:
    return abel_capacity(solve_R(E))


def circle_capacity(cs: CircleSet) -> float:
    """cap of the circle set: sqrt(r) * sqrt(cap of the trace bands)."""
    sqrt_r = math.sqrt(cs.radius) if cs.q <= sys.float_info.max else _quarter(cs.q)
    return sqrt_r * math.sqrt(_band_capacity(cs.x_bands))


def _even_odd_parts(p: ExactPoly) -> tuple[ExactPoly, ExactPoly]:
    """Pe, Po with p(y) = Pe(y^2) + y Po(y^2)."""
    even = tuple(p.coeffs[0::2]) or (Fraction(0),)
    odd = tuple(p.coeffs[1::2]) or (Fraction(0),)
    return ExactPoly(even), ExactPoly(odd)


@lru_cache(maxsize=1)
def _float_roots(p: ExactPoly):
    """p's roots from ``_level_roots`` at level 0, read-only, or None; the
    window check's seeds and the CLI's max_modulus_error share it."""
    rows = _level_roots(p, (0,))
    if rows is None:
        return None
    rows.setflags(write=False)
    return rows[0]


def _all_roots_real_in_window(p: ExactPoly, q: int) -> None:
    """Raise unless p is squarefree with every root real and of square <= 4q.

    Exact signs at -w, at one point between each pair of consecutive real
    parts of p's float roots and at w = isqrt(4q 2^64)/2^32 decide all
    three at once when they are nonzero and alternate.  Otherwise one Sturm
    chain decides the first two: its last entry is gcd(p, p'), and its
    count over the whole line is the number of distinct real roots.  Its
    count over [-w, w], now with w = isqrt(256 q)/8, puts every root in the
    window when it reaches d.  When it falls short, the window is decided
    on the squares: the roots of G(u) = (-1)^d (Pe(u)^2 - u Po(u)^2) are
    exactly the squared roots of p, and a Sturm count of G over
    (4q, +infinity) is exact even when a root sits on the boundary.
    """
    x = _float_roots(p)
    if x is not None:
        x, w = np.sort(x.real), Fraction(math.isqrt(4 * q << 64), 1 << 32)
        pts = [-w, *(Fraction(float(m)) for m in 0.5 * x[:-1] + 0.5 * x[1:]), w]
        s = p.sign_at(-w)
        if all(a < b for a, b in zip(pts, pts[1:])) and s and all(
                p.sign_at(t) == (s := -s) for t in pts[1:]):
            return
    chain = p.sturm_chain()
    if chain[-1].degree > 0:
        raise ValueError("repeated roots; the lift needs a squarefree input")
    d, w = p.degree, Fraction(math.isqrt(256 * q), 8)
    if p.count_roots(-w, w, chain) + (p.sign_at(-w) == 0) == d:
        return
    real = p.count_roots(chain=chain)
    if real != d:
        raise ValueError(f"only {real} of {d} roots are real")
    Pe, Po = _even_odd_parts(p)
    u = ExactPoly.x()
    G = Pe * Pe - u * Po * Po
    if d % 2:
        G = -G
    if G.count_roots(Fraction(4 * q)) != 0:
        raise ValueError(f"a root lies outside [-2 sqrt({q}), 2 sqrt({q})]")


def weil_lift(P_I: ExactPoly, q: int) -> ExactPoly:
    """Monic integer polynomial prod_i (X^2 - a_i X + q) over the roots a_i
    of P_I, computed as X^d P_I((X^2 + q)/X) without touching the roots.

    Requires P_I monic with integer coefficients, squarefree, all roots real
    with square at most 4q, as ``_all_roots_real_in_window`` decides; then
    every root of the output has modulus exactly sqrt(q).  The composition
    is Horner's rule in t = (X^2 + q)/X, kept polynomial by
    H_k = H_(k-1) (X^2 + q) + a_(d-k) X^k, in integers.
    """
    if int(q) != q or q < 1:
        raise ValueError("q must be a positive integer")
    if not (P_I.is_integer and P_I.is_monic and P_I.degree >= 1):
        raise ValueError("need a monic integer polynomial of positive degree")
    _all_roots_real_in_window(P_I, q)
    a = [int(c) for c in P_I.coeffs]
    d = P_I.degree
    h = [a[d]]
    for k in range(1, d + 1):
        nxt = [q * c for c in h] + [0, 0]
        for i, c in enumerate(h):
            nxt[i + 2] += c
        nxt[k] += a[d - k]
        h = nxt
    return ExactPoly(tuple(h))


def pushforward_check(P_C: ExactPoly, P_I: ExactPoly, q: int) -> bool:
    """True iff P_C(X) = X^d P_I(X + q/X), decided exactly in integers: then
    the roots z of P_C map by z + q/z onto the roots of P_I, each taken twice.
    Both sides have degree 2d, so agreement at x = 1..2d+1 is equality."""
    d = P_I.degree
    return P_C.degree == 2 * d and all(
        _horner(P_C.num, x, 1) * P_I.den == _horner(P_I.num, x * x + q, x) * P_C.den
        for x in range(1, 2 * d + 2))


def support_capacity_bound(cs: CircleSet) -> tuple[float, float, bool]:
    """(capacity, q^(1/4), capacity >= bound) — whether the circle set is
    big enough to support a diffuse limit of root measures.  Equality cases
    are accepted up to a relative 1e-12."""
    cap = circle_capacity(cs)
    bound = float(cs.q) ** 0.25 if cs.q <= sys.float_info.max else _quarter(cs.q)
    return cap, bound, cap >= bound * (1.0 - 1e-12)
