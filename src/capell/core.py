"""Foundation types: interval unions, exact polynomials, root isolation.

Everything downstream builds on two small value types:

* ``IntervalUnion`` -- a finite union of disjoint closed real intervals,
* ``ExactPoly``     -- a dense polynomial over the rationals, coefficients
                       low degree first, held as integer numerators over one
                       denominator.

The exact layer carries every certificate (Sturm isolation, integrality)
and runs on Python ints.  Float polynomials, which carry the numerics, are
``numpy.polynomial.Polynomial``; ``ExactPoly.to_real`` makes one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence, Union

import numpy as np
from numpy.polynomial import Polynomial

__all__ = [
    "QuadratureError",
    "CertificationError",
    "NonSquarefreeError",
    "IntervalUnion",
    "make_interval_union",
    "ExactPoly",
    "isolate_real_roots",
]

Number = Union[int, float, Fraction]


class QuadratureError(RuntimeError):
    """An adaptive integration or solve loop failed to reach its tolerance."""


class CertificationError(RuntimeError):
    """A structural certificate could not be established."""


class NonSquarefreeError(CertificationError):
    """A polynomial required to be squarefree has a repeated factor."""


# ---------------------------------------------------------------------------
# interval unions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IntervalUnion:
    """Disjoint closed intervals a_0 < b_0 < a_1 < ... stored low to high."""

    bands: tuple[tuple[float, float], ...]

    @property
    def n_bands(self) -> int:
        return len(self.bands)

    @property
    def hull(self) -> tuple[float, float]:
        return (self.bands[0][0], self.bands[-1][1])

    @property
    def endpoints(self) -> tuple[float, ...]:
        """All 2 n_bands endpoints in increasing order."""
        out: list[float] = []
        for a, b in self.bands:
            out.extend((a, b))
        return tuple(out)


def _unit_map(lo: float, hi: float) -> tuple[float, float]:
    """(mid, half) with [lo, hi] = mid +- half, formed without overflow."""
    lo, hi = float(lo), float(hi)
    return 0.5 * lo + 0.5 * hi, 0.5 * hi - 0.5 * lo


def make_interval_union(pairs: Iterable[Sequence[Number]]) -> IntervalUnion:
    """Normalize raw (a, b) pairs into a sorted disjoint ``IntervalUnion``.

    Endpoints must be finite.  Overlapping or touching intervals are merged.
    When every endpoint is an int or Fraction the merge decision is exact;
    with float endpoints two bands merge when the gap between them is below
    1e-12 of the overall diameter.  A union whose half-width rounds to 0 in
    floats raises ValueError.
    """
    raw = [tuple(p) for p in pairs]
    if not raw:
        raise ValueError("interval union needs at least one interval")
    for p in raw:
        if len(p) != 2:
            raise ValueError(f"interval must be a pair, got {p!r}")
    exact = all(
        isinstance(v, (int, Fraction)) and not isinstance(v, bool)
        for p in raw
        for v in p
    )
    for a, b in raw:
        if not (a < b):
            raise ValueError(f"degenerate or reversed interval [{a}, {b}]")
        if not (math.isfinite(a) and math.isfinite(b)):
            raise ValueError(f"interval [{a}, {b}] has an infinite endpoint")
    raw.sort(key=lambda p: (p[0], p[1]))
    lo, hi = raw[0][0], max(b for _, b in raw)
    _, half = _unit_map(lo, hi)
    if half == 0.0:
        raise ValueError(f"interval union [{lo}, {hi}] is below the float range: "
                         f"its half-width rounds to 0")
    tol: Number = 0 if exact else 2e-12 * half
    merged: list[list[Number]] = [list(raw[0])]
    for a, b in raw[1:]:
        if a - merged[-1][1] <= tol:
            merged[-1][1] = max(merged[-1][1], b)
        else:
            merged.append([a, b])
    return IntervalUnion(tuple((float(a), float(b)) for a, b in merged))


# ---------------------------------------------------------------------------
# exact polynomials
# ---------------------------------------------------------------------------


def _convolve(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """Integer coefficient lists a * b, one row of the shorter at a time."""
    if len(a) < len(b):
        a, b = b, a
    m = len(a)
    out = [0] * (m + len(b) - 1)
    for i, c in enumerate(b):
        if c == 1:
            out[i:i + m] = [o + x for o, x in zip(out[i:i + m], a)]
        elif c:
            out[i:i + m] = [o + c * x for o, x in zip(out[i:i + m], a)]
    return out


def _pseudo_divmod(a: Sequence[int], b: Sequence[int]) -> tuple[list[int], list[int], int]:
    """(q, r, e) with lc(b)^e a = q b + r and deg r < deg b, in integers.

    b has no trailing zero.  e counts the elimination steps that were not
    skipped for an already-zero top coefficient, so e <= deg a - deg b + 1.
    """
    m = len(b) - 1
    lc = b[-1]
    r = list(a)
    q = [0] * max(len(a) - m, 1)
    e = 0
    for k in range(len(a) - 1 - m, -1, -1):
        t = r.pop()
        if not t:
            continue
        e += 1
        if lc != 1:
            r = [lc * c for c in r]
            q = [lc * c for c in q]
        q[k] += t
        for i in range(m):
            r[k + i] -= t * b[i]
    return q, r[:m] or [0], e


def _horner(num: Sequence[int], a: int, b: int) -> int:
    """sum num[k] a^k b^(d-k), d = len(num) - 1: b^d p(a/b) for p with
    integer coefficients num, by homogenised Horner."""
    acc = num[-1]
    if not b & (b - 1):  # b = 2^s (s = 0 for an integer): b^j is a shift
        s = b.bit_length() - 1
        sj = 0
        for c in num[-2::-1]:
            sj += s
            acc = acc * a + (c << sj)
        return acc
    bk = 1
    for c in num[-2::-1]:
        bk *= b
        acc = acc * a + c * bk
    return acc


class ExactPoly:
    """Dense polynomial over the rationals: coefficient k of x**k is
    ``num[k] / den``, with integer numerators over one positive denominator.

    The pair is kept reduced (no common factor of ``den`` and all of ``num``,
    no trailing zero but the zero polynomial's ``(0,)``), so equal
    polynomials are equal pairs and ``den == 1`` exactly when every
    coefficient is an integer.  Arithmetic runs on Python ints with one
    reduction per result.  The constructor takes rationals (ints,
    ``Fraction``s, or anything ``Fraction`` accepts), low degree first;
    ``coeffs`` gives them back as ``Fraction``s.
    """

    __slots__ = ("num", "den", "_coeffs")

    def __init__(self, coeffs: Iterable[Number | str]):
        fr = [v if isinstance(v, (int, Fraction)) else Fraction(v) for v in coeffs]
        den = math.lcm(*(v.denominator for v in fr))
        self._set([v.numerator * (den // v.denominator) for v in fr], den)

    def _set(self, num: list[int], den: int) -> None:
        n = len(num)
        while n > 1 and not num[n - 1]:
            n -= 1
        if n < len(num):
            num = num[:n]
        if not num or num == [0]:
            num, den = [0], 1
        elif den != 1:
            g = math.gcd(den, *num)
            if g != 1:
                num = [c // g for c in num]
                den //= g
        self.num: tuple[int, ...] = tuple(num)
        self.den: int = den
        self._coeffs = None

    @classmethod
    def _from_ints(cls, num: list[int], den: int = 1) -> "ExactPoly":
        """num / den for integer numerators and den > 0; trims and reduces."""
        p = cls.__new__(cls)
        p._set(num, den)
        return p

    @classmethod
    def from_list(cls, values: Sequence[Number | str]) -> "ExactPoly":
        return cls(values)

    @classmethod
    def x(cls) -> "ExactPoly":
        return cls._from_ints([0, 1])

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        if self._coeffs is None:
            d = self.den
            self._coeffs = tuple(Fraction(c, d) for c in self.num)
        return self._coeffs

    def __eq__(self, other) -> bool:
        if not isinstance(other, ExactPoly):
            return NotImplemented
        return self.den == other.den and self.num == other.num

    def __hash__(self) -> int:
        return hash((self.num, self.den))

    def __repr__(self) -> str:
        return f"ExactPoly({[str(c) for c in self.coeffs]})"

    # -- structure ----------------------------------------------------------

    @property
    def degree(self) -> int:
        return -1 if self.is_zero else len(self.num) - 1

    @property
    def is_zero(self) -> bool:
        return len(self.num) == 1 and self.num[0] == 0

    @property
    def is_monic(self) -> bool:
        return self.num[-1] == self.den

    @property
    def is_integer(self) -> bool:
        return self.den == 1

    # -- evaluation ---------------------------------------------------------

    def __call__(self, x: Number):
        """p(x): exact for an int or Fraction x (homogenised Horner in
        integers, one Fraction at the end); float Horner through
        ``to_real()`` for any other x, such as a float or a numpy array."""
        if isinstance(x, (int, Fraction)):
            a, b = x.numerator, x.denominator
            return Fraction(_horner(self.num, a, b), self.den * b ** (len(self.num) - 1))
        return self.to_real()(x)

    def sign_at(self, x: Number) -> int:
        """Exact sign (-1, 0 or 1) of p(x) for rational x.

        With x = a/b, b > 0, the sign of p(x) is that of
        sum num_k a^k b^(d-k): homogenised Horner in integers, with no
        rational normalisation per step.
        """
        if not isinstance(x, (int, Fraction)):
            x = Fraction(x)
        acc = _horner(self.num, x.numerator, x.denominator)
        return (acc > 0) - (acc < 0)

    # -- arithmetic ---------------------------------------------------------

    def _plus(self, other, sign: int) -> "ExactPoly":
        if not isinstance(other, ExactPoly):
            other = ExactPoly((other,))
        a, b, den = self.num, other.num, self.den
        if other.den != den:
            g = math.gcd(den, other.den)
            fa, fb = other.den // g, den // g
            den *= fa
            a = [c * fa for c in a]
            b = [c * fb for c in b]
        if sign < 0:
            b = [-c for c in b]
        if len(a) < len(b):
            a, b = b, a
        out = [x + y for x, y in zip(a, b)]
        out.extend(a[len(b):])
        return ExactPoly._from_ints(out, den)

    def __add__(self, other) -> "ExactPoly":
        return self._plus(other, 1)

    __radd__ = __add__

    def __sub__(self, other) -> "ExactPoly":
        return self._plus(other, -1)

    def __neg__(self) -> "ExactPoly":
        return ExactPoly._from_ints([-c for c in self.num], self.den)

    def __rsub__(self, other) -> "ExactPoly":
        return (-self)._plus(other, 1)

    def __mul__(self, other) -> "ExactPoly":
        if isinstance(other, ExactPoly):
            return ExactPoly._from_ints(_convolve(self.num, other.num), self.den * other.den)
        if not isinstance(other, (int, Fraction)):
            other = Fraction(other)
        a = other.numerator
        return ExactPoly._from_ints([a * c for c in self.num], self.den * other.denominator)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "ExactPoly":
        if k < 0:
            raise ValueError("negative power")
        out = ExactPoly._from_ints([1])
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def to_real(self) -> Polynomial:
        """The float polynomial with each coefficient correctly rounded."""
        d = self.den
        return Polynomial([c / d for c in self.num])

    # -- Sturm machinery ----------------------------------------------------

    def sturm_chain(self) -> list["ExactPoly"]:
        """p, then positive multiples of p' and of the negated remainders.

        Each remainder is an integer pseudo-remainder with its content
        removed (the primitive PRS of Brown and Traub, J. ACM 18, 1971),
        made a positive multiple of the rational remainder, so every sign,
        and so every Sturm count, is that of the classical chain.  The last
        entry is gcd(p, p') up to a constant, so p is squarefree iff that
        entry is a constant.
        """
        chain = [self]
        a = self.num
        b = [k * a[k] for k in range(1, len(a))]
        while b and any(b):
            g = math.gcd(*b)
            b = [c // g for c in b]
            while not b[-1]:
                b.pop()
            chain.append(ExactPoly._from_ints(b))
            if len(b) == 1:
                break
            _, r, e = _pseudo_divmod(a, b)
            # lc(b)^e a = q b + r: negate r, and undo a negative lc(b)^e
            a, b = b, ([-c for c in r] if b[-1] > 0 or e % 2 == 0 else r)
        return [p for p in chain if not p.is_zero]

    def count_roots(
        self,
        lo: Fraction | None = None,
        hi: Fraction | None = None,
        chain: list["ExactPoly"] | None = None,
    ) -> int:
        """Number of distinct real roots in (lo, hi]; None means -/+ infinity.

        Requires a squarefree polynomial for the count to equal the number of
        roots with multiplicity.
        """
        if chain is None:
            chain = self.sturm_chain()

        def variations(point, side) -> int:
            # side -1/+1 selects the sign at -/+ infinity when point is None
            count = 0
            prev = 0
            for p in chain:
                if point is None:
                    s = 1 if p.num[-1] > 0 else -1
                    if side < 0 and p.degree % 2 == 1:
                        s = -s
                else:
                    s = p.sign_at(point)
                if s:
                    if prev and s != prev:
                        count += 1
                    prev = s
            return count

        return variations(lo, -1) - variations(hi, +1)



# ---------------------------------------------------------------------------
# root isolation
# ---------------------------------------------------------------------------


def _root_bound(p: ExactPoly) -> Fraction:
    """2^m, the least power of two >= 1 with (2^(m-1))^k |c_d| >= |c_(d-k)|
    for every k: at least Fujiwara's bound 2 max_k |c_(d-k)/c_d|^(1/k) on
    the moduli of the roots, decided in integers (times 2^k on both sides).
    Each root has modulus < 2^m: past it the rest is <= (1 - 2^-d) |c_d z^d|."""
    *low, lead = map(abs, p.num)
    m = 0
    for k, c in enumerate(reversed(low), 1):
        while lead << m * k < c << k:
            m += 1
    return Fraction(1 << m)


def _cell(x: float) -> tuple[Fraction, Fraction]:
    """The exact midpoints from x to its float neighbours: every real
    strictly between them rounds to x.  Past +-max the neighbour is
    +-2^1024, so the midpoint there is where rounding overflows."""
    f, top = Fraction(x), Fraction(1 << 1024)
    lo, hi = (Fraction(y) if math.isfinite(y) else top if y > 0 else -top
              for y in (math.nextafter(x, -math.inf), math.nextafter(x, math.inf)))
    return (f + lo) / 2, (f + hi) / 2


def _rounded(x: Fraction) -> float:
    """float(x), or -+inf past the float range."""
    try:
        return float(x)
    except OverflowError:
        return math.inf if x > 0 else -math.inf


def _bisect(p: ExactPoly, dp: ExactPoly, a: Fraction,
            b: Fraction) -> tuple[Fraction, Fraction]:
    """Halve (a, b], which holds one simple root of p and no other, by the
    exact sign of p at the midpoint until both ends round to one float.

    The root lies in (a, mid) iff p(mid) differs in sign from p just right
    of a; when p(a) = 0 (a root emitted at a) that sign is p'(a)'s, and
    ``dp`` is p' or a positive multiple.  Once the ends round to two
    neighbouring floats, the sign at the tie point between them decides
    the last split; if that is b and p(b) = 0 (b may be a root emitted
    already), -p'(b) is p's sign left of b.  A split root ends the search.
    """
    s_a = p.sign_at(a) or dp.sign_at(a)
    fa, fb = _rounded(a), _rounded(b)
    while fa != fb:
        last = math.nextafter(fa, math.inf) == fb
        mid = (_cell(fb)[0] if fa == -math.inf else _cell(fa)[1]) if last else (a + b) / 2
        s_mid = p.sign_at(mid) if mid != a else s_a  # the root is right of a
        if s_mid == 0 and mid == b:  # p's sign just left of b decides
            s_mid = -dp.sign_at(b)
        if s_mid == 0:
            return mid, mid
        if last:
            return (a, mid) if s_mid != s_a else (mid, b)
        if s_mid != s_a:
            b, fb = mid, _rounded(mid)
        else:
            a, fa = mid, _rounded(mid)
    return a, b


def isolate_real_roots(p: ExactPoly):
    """Disjoint isolating intervals for all the real roots of p.

    Certified Sturm bisection of (-B, B], B = ``_root_bound(p)`` (no root
    lies on +-B), until each segment holds one root, then bisection by the
    exact sign of p until each root is narrowed to the float it rounds to.
    p must be squarefree: its Sturm chain ends in gcd(p, p'), and a
    non-constant end raises NonSquarefreeError.  Returns [(Fraction lo,
    Fraction hi), ...], ascending, each holding exactly one root; every real
    strictly between lo and hi rounds to that root's float, which is
    float((lo + hi) / 2) (OverflowError past the float range).  A root hit
    by a split point is returned as (root, root)."""
    if not isinstance(p, ExactPoly):
        raise TypeError(f"isolate_real_roots needs an ExactPoly, got {type(p).__name__}")
    if p.degree < 1:
        return []
    chain = p.sturm_chain()
    if chain[-1].degree > 0:
        raise NonSquarefreeError("polynomial has a repeated root")
    dp = chain[1]
    bound = _root_bound(p)
    out: list[tuple[Fraction, Fraction]] = []
    # (a, b, k): the Sturm count is over (a, b], and k leaves out a root at b
    # already emitted as a point of its own
    segs = [(-bound, bound, p.count_roots(chain=chain))]
    while segs:
        a, b, k = segs.pop()
        if k <= 0:
            continue
        if k == 1:
            out.append(_bisect(p, dp, a, b))
            continue
        mid = (a + b) / 2
        at_mid = p.sign_at(mid) == 0
        if at_mid:
            out.append((mid, mid))
        # one count per split: the right half holds what the left does not
        k_left = p.count_roots(a, mid, chain) - at_mid
        segs.append((a, mid, k_left))
        segs.append((mid, b, k - at_mid - k_left))
    out.sort(key=lambda ab: ab[0])
    return out


def _level_roots(p: ExactPoly, levels: Sequence[Number]) -> np.ndarray | None:
    """Row k: the roots of the monic p - levels[k], unordered, by one batched
    eigvals on the companion matrices np.roots builds: its bits, unless it
    deflates a zero root.  None outside the float range or if eigvals fails."""
    comp = np.tile(np.eye(p.degree, k=-1), (len(levels), 1, 1))
    try:
        with np.errstate(all="ignore"):
            c = p.to_real().coef
            comp[:, 0] = -c[-2::-1]
            comp[:, 0, -1] = [-(c[0] - float(v)) for v in levels]
            roots = np.linalg.eigvals(comp)
    except (OverflowError, np.linalg.LinAlgError):
        return None
    return roots if np.isfinite(roots).all() else None
