"""Foundation types: interval unions, dense polynomials, root isolation, discrete measures.

Everything downstream builds on four small value types:

* ``IntervalUnion``   -- a finite union of disjoint closed real intervals,
* ``RealPoly``        -- a dense float polynomial, coefficients low degree first,
* ``ExactPoly``       -- the same shape over ``fractions.Fraction``,
* ``DiscreteMeasure`` -- finitely many weighted atoms in the complex plane.

The exact layer carries every certificate (Sturm isolation, resultants,
integrality); the float layer carries the numerics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Sequence, Union

import numpy as np

__all__ = [
    "QuadratureError",
    "CertificationError",
    "NonSquarefreeError",
    "IntervalUnion",
    "make_interval_union",
    "RealPoly",
    "ExactPoly",
    "isolate_real_roots",
    "DiscreteMeasure",
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
    def g(self) -> int:
        """Number of gaps between consecutive bands."""
        return len(self.bands) - 1

    @property
    def hull(self) -> tuple[float, float]:
        return (self.bands[0][0], self.bands[-1][1])

    @property
    def diameter(self) -> float:
        return self.bands[-1][1] - self.bands[0][0]

    @property
    def gaps(self) -> tuple[tuple[float, float], ...]:
        return tuple(
            (self.bands[j][1], self.bands[j + 1][0]) for j in range(self.g)
        )

    @property
    def endpoints(self) -> tuple[float, ...]:
        """All 2(g+1) endpoints in increasing order."""
        out: list[float] = []
        for a, b in self.bands:
            out.extend((a, b))
        return tuple(out)

    @property
    def lengths(self) -> tuple[float, ...]:
        return tuple(b - a for a, b in self.bands)

    @property
    def total_length(self) -> float:
        return sum(self.lengths)

    def contains(self, x: float, tol: float = 0.0) -> bool:
        return any(a - tol <= x <= b + tol for a, b in self.bands)

    def translated(self, c: float) -> "IntervalUnion":
        return IntervalUnion(tuple((a + c, b + c) for a, b in self.bands))

    def scaled(self, lam: float) -> "IntervalUnion":
        if lam == 0:
            raise ValueError("scale factor must be nonzero")
        scaled = [(a * lam, b * lam) for a, b in self.bands]
        if lam < 0:
            scaled = [(b, a) for a, b in reversed(scaled)]
        return IntervalUnion(tuple(scaled))

    def reflected(self) -> "IntervalUnion":
        return self.scaled(-1.0)


def make_interval_union(pairs: Iterable[Sequence[Number]]) -> IntervalUnion:
    """Normalize raw (a, b) pairs into a sorted disjoint ``IntervalUnion``.

    Overlapping or touching intervals are merged.  When every endpoint is an
    int or Fraction the merge decision is exact; with float endpoints two
    bands merge when the gap between them is below 1e-12 of the overall
    diameter.
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
    raw.sort(key=lambda p: (p[0], p[1]))
    if exact:
        tol: Number = 0
    else:
        lo = min(float(a) for a, _ in raw)
        hi = max(float(b) for _, b in raw)
        tol = 1e-12 * (hi - lo)
    merged: list[list[Number]] = [list(raw[0])]
    for a, b in raw[1:]:
        if a - merged[-1][1] <= tol:
            merged[-1][1] = max(merged[-1][1], b)
        else:
            merged.append([a, b])
    return IntervalUnion(tuple((float(a), float(b)) for a, b in merged))


# ---------------------------------------------------------------------------
# float polynomials
# ---------------------------------------------------------------------------


def _trim(seq: Sequence, zero) -> tuple:
    out = list(seq)
    while len(out) > 1 and out[-1] == zero:
        out.pop()
    return tuple(out)


@dataclass(frozen=True)
class RealPoly:
    """Dense float polynomial; ``coeffs[k]`` multiplies x**k."""

    coeffs: tuple[float, ...]

    def __post_init__(self):
        c = _trim([float(v) for v in self.coeffs], 0.0)
        object.__setattr__(self, "coeffs", c)

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_roots(cls, roots: Sequence[float]) -> "RealPoly":
        c = np.atleast_1d(np.poly(np.asarray(roots, dtype=float)))[::-1]
        return cls(tuple(c))

    # -- structure ----------------------------------------------------------

    @property
    def degree(self) -> int:
        return -1 if self.is_zero else len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return len(self.coeffs) == 1 and self.coeffs[0] == 0.0

    @property
    def lead(self) -> float:
        return self.coeffs[-1]

    @property
    def is_monic(self) -> bool:
        return self.lead == 1.0

    # -- evaluation ---------------------------------------------------------

    def __call__(self, x):
        return np.polynomial.polynomial.polyval(x, np.asarray(self.coeffs))

    def deriv(self) -> "RealPoly":
        if self.degree <= 0:
            return RealPoly((0.0,))
        return RealPoly(tuple(k * c for k, c in enumerate(self.coeffs) if k > 0))

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other) -> "RealPoly":
        if not isinstance(other, RealPoly):
            other = RealPoly((float(other),))
        n = max(len(self.coeffs), len(other.coeffs))
        a = list(self.coeffs) + [0.0] * (n - len(self.coeffs))
        for k, c in enumerate(other.coeffs):
            a[k] += c
        return RealPoly(tuple(a))

    __radd__ = __add__

    def __neg__(self) -> "RealPoly":
        return RealPoly(tuple(-c for c in self.coeffs))

    def __sub__(self, other) -> "RealPoly":
        if not isinstance(other, RealPoly):
            other = RealPoly((float(other),))
        return self + (-other)

    def __rsub__(self, other) -> "RealPoly":
        return (-self) + other

    def __mul__(self, other) -> "RealPoly":
        if isinstance(other, RealPoly):
            out = np.convolve(np.asarray(self.coeffs), np.asarray(other.coeffs))
            return RealPoly(tuple(out))
        return RealPoly(tuple(float(other) * c for c in self.coeffs))

    __rmul__ = __mul__

    def divmod(self, other: "RealPoly") -> tuple["RealPoly", "RealPoly"]:
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        num = list(self.coeffs)
        den = other.coeffs
        dn, dd = len(num) - 1, len(den) - 1
        if dn < dd:
            return RealPoly((0.0,)), self
        q = [0.0] * (dn - dd + 1)
        for k in range(dn - dd, -1, -1):
            q[k] = num[k + dd] / den[-1]
            for i in range(dd + 1):
                num[k + i] -= q[k] * den[i]
        return RealPoly(tuple(q)), RealPoly(tuple(num[:dd] or [0.0]))

# ---------------------------------------------------------------------------
# exact polynomials
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExactPoly:
    """Dense polynomial over Fraction; ``coeffs[k]`` multiplies x**k."""

    coeffs: tuple[Fraction, ...]

    def __post_init__(self):
        c = _trim([Fraction(v) for v in self.coeffs], Fraction(0))
        object.__setattr__(self, "coeffs", c)

    @classmethod
    def from_list(cls, values: Sequence[Number | str]) -> "ExactPoly":
        return cls(tuple(Fraction(v) for v in values))

    @classmethod
    def x(cls) -> "ExactPoly":
        return cls((Fraction(0), Fraction(1)))

    # -- structure ----------------------------------------------------------

    @property
    def degree(self) -> int:
        return -1 if self.is_zero else len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return len(self.coeffs) == 1 and self.coeffs[0] == 0

    @property
    def lead(self) -> Fraction:
        return self.coeffs[-1]

    @property
    def is_monic(self) -> bool:
        return self.lead == 1

    @property
    def is_integer(self) -> bool:
        return all(c.denominator == 1 for c in self.coeffs)

    # -- evaluation ---------------------------------------------------------

    def __call__(self, x: Number) -> Fraction:
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    @cached_property
    def _integer_coeffs(self) -> tuple[int, ...]:
        """Coefficients times the positive lcm of their denominators."""
        den = math.lcm(*(c.denominator for c in self.coeffs))
        return tuple(c.numerator * (den // c.denominator) for c in self.coeffs)

    def sign_at(self, x: Number) -> int:
        """Exact sign (-1, 0 or 1) of p(x) for rational x.

        With x = a/b, b > 0, and integer coefficients c_k, the sign of p(x)
        is that of sum c_k a^k b^(d-k): homogenised Horner in integers, with
        no rational normalisation per step.
        """
        x = Fraction(x)
        a, b = x.numerator, x.denominator
        cs = self._integer_coeffs
        acc = cs[-1]
        bk = 1
        for c in reversed(cs[:-1]):
            bk *= b
            acc = acc * a + c * bk
        return (acc > 0) - (acc < 0)

    def deriv(self) -> "ExactPoly":
        if self.degree <= 0:
            return ExactPoly((Fraction(0),))
        return ExactPoly(tuple(k * c for k, c in enumerate(self.coeffs) if k > 0))

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other) -> "ExactPoly":
        if not isinstance(other, ExactPoly):
            other = ExactPoly((Fraction(other),))
        n = max(len(self.coeffs), len(other.coeffs))
        a = list(self.coeffs) + [Fraction(0)] * (n - len(self.coeffs))
        for k, c in enumerate(other.coeffs):
            a[k] += c
        return ExactPoly(tuple(a))

    __radd__ = __add__

    def __neg__(self) -> "ExactPoly":
        return ExactPoly(tuple(-c for c in self.coeffs))

    def __sub__(self, other) -> "ExactPoly":
        if not isinstance(other, ExactPoly):
            other = ExactPoly((Fraction(other),))
        return self + (-other)

    def __rsub__(self, other) -> "ExactPoly":
        return (-self) + other

    def __mul__(self, other) -> "ExactPoly":
        if isinstance(other, ExactPoly):
            out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
            for i, a in enumerate(self.coeffs):
                if a:
                    for j, b in enumerate(other.coeffs):
                        if b:
                            out[i + j] += a * b
            return ExactPoly(tuple(out))
        q = Fraction(other)
        return ExactPoly(tuple(q * c for c in self.coeffs))

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "ExactPoly":
        if k < 0:
            raise ValueError("negative power")
        out = ExactPoly((Fraction(1),))
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def divmod(self, other: "ExactPoly") -> tuple["ExactPoly", "ExactPoly"]:
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        num = list(self.coeffs)
        den = other.coeffs
        dn, dd = len(num) - 1, len(den) - 1
        if dn < dd:
            return ExactPoly((Fraction(0),)), self
        q = [Fraction(0)] * (dn - dd + 1)
        for k in range(dn - dd, -1, -1):
            q[k] = num[k + dd] / den[-1]
            if q[k]:
                for i in range(dd + 1):
                    num[k + i] -= q[k] * den[i]
        return ExactPoly(tuple(q)), ExactPoly(tuple(num[:dd] or [Fraction(0)]))

    def gcd(self, other: "ExactPoly") -> "ExactPoly":
        """Monic greatest common divisor."""
        a, b = self, other
        while not b.is_zero:
            _, r = a.divmod(b)
            a, b = b, r
        if a.is_zero:
            return a
        return ExactPoly(tuple(c / a.lead for c in a.coeffs))

    def is_squarefree(self) -> bool:
        if self.degree <= 1:
            return True
        return self.gcd(self.deriv()).degree == 0

    def to_real(self) -> RealPoly:
        return RealPoly(tuple(float(c) for c in self.coeffs))

    # -- Sturm machinery ----------------------------------------------------

    def sturm_chain(self) -> list["ExactPoly"]:
        chain = [self, self.deriv()]
        while not chain[-1].is_zero and chain[-1].degree > 0:
            _, r = chain[-2].divmod(chain[-1])
            if r.is_zero:
                break
            chain.append(-r)
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
            signs = []
            for p in chain:
                if point is None:
                    s = 1 if p.lead > 0 else -1
                    if side < 0 and p.degree % 2 == 1:
                        s = -s
                else:
                    v = p(point)
                    s = 0 if v == 0 else (1 if v > 0 else -1)
                signs.append(s)
            count = 0
            prev = 0
            for s in signs:
                if s == 0:
                    continue
                if prev and s != prev:
                    count += 1
                prev = s
            return count

        return variations(lo, -1) - variations(hi, +1)

    def resultant(self, other: "ExactPoly") -> Fraction:
        """Resultant via fraction-free Gaussian elimination on the Sylvester matrix."""
        m, n = self.degree, other.degree
        if m < 0 or n < 0:
            raise ValueError("resultant of the zero polynomial is undefined")
        if m == 0:
            return self.coeffs[0] ** n
        if n == 0:
            return other.coeffs[0] ** m
        size = m + n
        rows: list[list[Fraction]] = []
        a = list(reversed(self.coeffs))
        b = list(reversed(other.coeffs))
        for i in range(n):
            rows.append([Fraction(0)] * i + a + [Fraction(0)] * (size - m - 1 - i))
        for i in range(m):
            rows.append([Fraction(0)] * i + b + [Fraction(0)] * (size - n - 1 - i))
        det = Fraction(1)
        for col in range(size):
            piv = next((r for r in range(col, size) if rows[r][col] != 0), None)
            if piv is None:
                return Fraction(0)
            if piv != col:
                rows[col], rows[piv] = rows[piv], rows[col]
                det = -det
            det *= rows[col][col]
            inv = 1 / rows[col][col]
            for r in range(col + 1, size):
                f = rows[r][col] * inv
                if f:
                    for c in range(col, size):
                        rows[r][c] -= f * rows[col][c]
        return det


# ---------------------------------------------------------------------------
# root isolation
# ---------------------------------------------------------------------------


def _root_bound(p: ExactPoly) -> Fraction:
    lead = abs(p.lead)
    m = max((abs(c) for c in p.coeffs[:-1]), default=Fraction(0))
    return 1 + m / lead


def _window_bands(window, bound) -> list[tuple[Fraction, Fraction]]:
    if window is None:
        return [(-bound, bound)]
    if isinstance(window, IntervalUnion):
        return [(Fraction(a), Fraction(b)) for a, b in window.bands]
    a, b = window
    return [(Fraction(a), Fraction(b))]


def isolate_real_roots(
    p: ExactPoly,
    window: IntervalUnion | tuple | None = None,
    refine: float = 1e-12,
):
    """Disjoint isolating intervals for the real roots of p.

    Certified Sturm bisection until each segment holds one root, then
    bisection by the exact sign of p (p must be squarefree; checked via gcd
    with the derivative).  Returns [(Fraction lo, Fraction hi), ...] with
    each interval containing exactly one root, refined below ``refine`` times
    the window scale.
    """
    if not isinstance(p, ExactPoly):
        raise TypeError(f"isolate_real_roots needs an ExactPoly, got {type(p).__name__}")
    if p.degree < 1:
        return []
    if not p.is_squarefree():
        raise NonSquarefreeError("polynomial has a repeated root")
    chain = p.sturm_chain()
    dp = chain[1]
    bands = _window_bands(window, _root_bound(p))
    scale = float(max(abs(a) for ab in bands for a in ab) or 1)
    out: list[tuple[Fraction, Fraction]] = []
    for lo, hi in bands:
        # the Sturm count is over (a, b], so a root emitted at a segment's
        # right endpoint is flagged excluded in that segment's count
        segs = [(lo, hi, False)]
        # include a root sitting exactly on the left window edge
        if p.sign_at(lo) == 0:
            out.append((lo, lo))
        while segs:
            a, b, rex = segs.pop()
            k = p.count_roots(a, b, chain) - (1 if rex else 0)
            if k <= 0:
                continue
            mid = (a + b) / 2
            if k == 1:
                # (a, b) holds one simple root and no other, so it lies in
                # (a, mid) iff p(mid) differs in sign from p just right of a;
                # when p(a) = 0 (a root emitted at a) that sign is p'(a)'s
                s_a = p.sign_at(a) or dp.sign_at(a)
                while float(b - a) > refine * scale:
                    mid = (a + b) / 2
                    s_mid = p.sign_at(mid)
                    if s_mid == 0:
                        a = b = mid
                        break
                    if s_mid != s_a:
                        b = mid
                    else:
                        a = mid
                out.append((a, b))
                continue
            at_mid = p.sign_at(mid) == 0
            if at_mid:
                out.append((mid, mid))
            segs.append((a, mid, at_mid))
            segs.append((mid, b, rex))
    out.sort(key=lambda ab: ab[0])
    return out


# ---------------------------------------------------------------------------
# discrete measures
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DiscreteMeasure:
    """Finitely many weighted atoms in the complex plane."""

    atoms: tuple[tuple[complex, float], ...]

    @property
    def total_mass(self) -> float:
        return float(sum(w for _, w in self.atoms))

    def real_atoms(self, tol: float = 1e-9):
        """(locations, weights) of atoms on the real axis, sorted."""
        pts = [(z.real, w) for z, w in self.atoms if abs(z.imag) <= tol]
        pts.sort()
        return (
            np.array([p for p, _ in pts]),
            np.array([w for _, w in pts]),
        )
