"""Logarithmic capacity of real interval unions.

Four routes are implemented and cross-checkable:

* closed forms for intervals, symmetric pairs, circles, and circular arcs;
* the transfinite-diameter oracle: n points maximizing the Vandermonde
  product (small n only), by exact coordinate ascent;
* the Chebyshev route: the monic minimal sup-norm polynomial by a
  generalized Remez exchange over the union, cap ~ t_n^(1/n), where t_n is
  the sup of the returned polynomial on the union and the exchange meets a
  relative tolerance or raises ``QuadratureError`` (CLI exit 4);
* the band-integral route (module ``abel``), reached through ``capacity()``.

Both extremal routes locate the maximum of |p| on a band by one rule: it
lies at a band end or at a real root of p' inside the band.

Also here: transport of densities under monic polynomial preimages and the
logarithmic energy of a density.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial import Polynomial

from .core import (
    IntervalUnion,
    QuadratureError,
    make_interval_union,
)
from ._quad import ThetaDensity, density_from_callable

__all__ = [
    "CapacityReport",
    "capacity_closed_form",
    "fekete_points",
    "fekete_diameter",
    "chebyshev_constant",
    "capacity_preimage",
    "pullback_density",
    "energy",
    "capacity",
]

_METHODS = ("closed_form", "fekete", "chebyshev", "abel_integral")


@dataclass(frozen=True)
class CapacityReport:
    value: float
    method: str
    diagnostics: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.method not in _METHODS:
            raise ValueError(f"unknown method {self.method!r}")
        if not self.value >= 0:
            raise ValueError("capacity must be nonnegative")

    def to_dict(self) -> dict:
        return {
            "value": self.value,
            "method": self.method,
            "diagnostics": self.diagnostics,
        }


def capacity_closed_form(shape) -> float:
    """Exact capacity for a tagged shape.

    Accepted shapes: ("interval", a, b); ("symmetric_pair", a, b) for
    [-b,-a] u [a,b] with 0 < a < b; ("circle", r); ("arc", r, alpha) for a
    circular arc of radius r and opening angle alpha.
    """
    try:
        tag, *params = shape
    except TypeError:
        raise ValueError(f"malformed shape {shape!r}") from None
    if tag == "interval":
        (a, b) = params
        if not a < b:
            raise ValueError("interval needs a < b")
        return (b - a) / 4.0
    if tag == "symmetric_pair":
        (a, b) = params
        if not 0 < a < b:
            raise ValueError("symmetric pair needs 0 < a < b")
        return 0.5 * math.sqrt(b * b - a * a)
    if tag == "circle":
        (r,) = params
        if not r > 0:
            raise ValueError("circle needs r > 0")
        return float(r)
    if tag == "arc":
        (r, alpha) = params
        if not r > 0 or not 0 <= alpha <= 2 * math.pi:
            raise ValueError("arc needs r > 0 and 0 <= alpha <= 2*pi")
        return r * math.sin(alpha / 4.0)
    raise ValueError(f"unknown shape tag {tag!r}")


# ---------------------------------------------------------------------------
# extremal polynomials: |p| peaks on a band at a band end or a critical point
# ---------------------------------------------------------------------------

_FEKETE_RESTARTS = 20
_FEKETE_SWEEPS = 80
_REMEZ_MAXITER = 200
_REMEZ_TOL = 1e-12


def _in_bands(bands: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Mask of the points x lying in one of the rows (lo, hi) of bands."""
    return ((x[:, None] >= bands[:, 0]) & (x[:, None] <= bands[:, 1])).any(axis=1)


def _vander_log(x: np.ndarray) -> float:
    d = np.abs(x[:, None] - x[None, :])
    iu = np.triu_indices(len(x), 1)
    vals = d[iu]
    if np.any(vals == 0.0):
        return -np.inf
    return float(np.sum(np.log(vals)))


def _polish_coordinates(bands: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Cyclic exact coordinate ascent of the Vandermonde product.

    With the other points fixed, point i maximizes |w| for w the monic
    polynomial with the other points as roots; on a band that maximum is at
    a band end or at a root of w'.  A candidate equal to another point
    would make the product zero and is skipped.
    """
    ends = bands.ravel()
    diam = ends[-1] - ends[0]
    y = np.sort(y)
    for _ in range(_FEKETE_SWEEPS):
        moved = 0.0
        for i in range(len(y)):
            others = np.delete(y, i)
            # w has real roots only, so w' does too (Rolle)
            crit = Polynomial.fromroots(others).deriv().roots().real
            cand = np.concatenate([ends, crit[_in_bands(bands, crit)]])
            cand = cand[~np.isin(cand, others)]
            logs = np.log(np.abs(cand[:, None] - others[None, :])).sum(axis=1)
            t = cand[np.argmax(logs)]
            moved = max(moved, abs(t - y[i]))
            y[i] = t
        if moved < 1e-12 * diam:
            break
    return y


def _check_fekete_count(n: int) -> None:
    if not 2 <= n <= 12:
        raise ValueError(f"point count must be between 2 and 12, got {n}")


def fekete_points(E: IntervalUnion, n: int, seed: int = 0) -> np.ndarray:
    """n points of E maximizing the product of pairwise distances.

    Seeded random starts run the exact coordinate ascent: each point in turn
    moves to the best of its candidates, the band ends and the critical
    points inside a band of the polynomial whose roots are the other points.
    The work is done on E mapped affinely onto [-1, 1], so that the result
    follows scaling and translation of E at any magnitude; points at a band
    end come back as that exact end.
    """
    _check_fekete_count(n)
    A, B = (float(v) for v in E.hull)
    mid, half = 0.5 * A + 0.5 * B, 0.5 * B - 0.5 * A
    bands_x = np.asarray(E.bands, dtype=float)
    bands = (bands_x - mid) / half
    rng = np.random.default_rng(seed)
    lengths = bands[:, 1] - bands[:, 0]
    weights = lengths / lengths.sum()

    best_y, best_val = None, -np.inf
    for _ in range(_FEKETE_RESTARTS):
        j = rng.choice(len(bands), size=n, p=weights)
        y = _polish_coordinates(bands, bands[j, 0] + rng.random(n) * lengths[j])
        val = _vander_log(y)
        if val > best_val:
            best_y, best_val = y, val
    exact_ends = dict(zip(bands.ravel().tolist(), bands_x.ravel().tolist()))
    return np.sort([exact_ends.get(t, mid + half * t) for t in best_y.tolist()])


def _diameter_of(x: np.ndarray) -> float:
    """Geometric mean of the pairwise distances of the points x."""
    n = len(x)
    return math.exp(2.0 * _vander_log(x) / (n * (n - 1)))


def fekete_diameter(E: IntervalUnion, n: int, seed: int = 0) -> float:
    """d_n(E): the maximized geometric mean of pairwise distances."""
    return _diameter_of(fekete_points(E, n, seed=seed))


def _cheb_basis(E: IntervalUnion, x: np.ndarray, n: int) -> np.ndarray:
    A, B = E.hull
    u = (2.0 * x - (A + B)) / (B - A)
    return np.polynomial.chebyshev.chebvander(u, n)


def _alternating_subset(xs: np.ndarray, es: np.ndarray, k: int):
    """Thin (xs, es) to an alternating-sign subset of size k keeping the
    largest magnitudes; returns None when impossible."""
    # collapse runs of equal sign to their largest member
    keep_x, keep_e = [], []
    for x, e in zip(xs, es):
        if keep_e and np.sign(e) == np.sign(keep_e[-1]):
            if abs(e) > abs(keep_e[-1]):
                keep_x[-1], keep_e[-1] = x, e
        else:
            keep_x.append(x)
            keep_e.append(e)
    while len(keep_x) > k:
        # drop the weaker of the two ends (preserves alternation)
        if abs(keep_e[0]) <= abs(keep_e[-1]):
            keep_x.pop(0)
            keep_e.pop(0)
        else:
            keep_x.pop()
            keep_e.pop()
    if len(keep_x) < k:
        return None
    return np.array(keep_x)


def chebyshev_constant(E: IntervalUnion, n: int) -> tuple[float, Polynomial]:
    """Monic degree-n polynomial of minimal sup norm on E and that norm.

    Works in the Chebyshev basis of E's hull (the monic constraint pins the
    top basis coefficient), with a multi-point exchange.  Each exchange takes
    its candidates from the band ends and the real roots of the derivative
    inside a band, so the returned norm t_n is the sup of the returned
    polynomial on E, up to rounding.  The exchange stops once the bracket
    |h| <= t_n(E) <= t_n closes to 1e-12 relative to t_n; failing that
    within 200 exchanges raises QuadratureError.
    """
    if n < 1:
        raise ValueError("degree must be >= 1")
    A, B = E.hull
    mid, rad = 0.5 * (A + B), 0.5 * (B - A)
    c_top = rad**n * 2.0 ** (1 - n)  # monic: coefficient of T_n((x-mid)/rad)
    bands = np.asarray(E.bands, dtype=float)
    ends = bands.ravel()

    # initial reference: n+1 points apportioned to bands by length
    lengths = np.array(E.lengths)
    counts = np.maximum(1, np.round(lengths / lengths.sum() * (n + 1)).astype(int))
    while counts.sum() > n + 1:
        counts[np.argmax(counts)] -= 1
    while counts.sum() < n + 1:
        counts[np.argmax(lengths / counts)] += 1
    ref = []
    for (u, v), k in zip(E.bands, counts):
        if k == 1:
            ref.append(0.5 * (u + v))
        else:
            ref.extend(0.5 * (u + v) + 0.5 * (v - u) * np.cos(np.linspace(np.pi, 0, k)))
    ref = np.sort(np.array(ref))

    def solve_on(refpts: np.ndarray):
        M = _cheb_basis(E, refpts, n)
        lhs = np.empty((n + 1, n + 1))
        lhs[:, :n] = M[:, :n]
        lhs[:, n] = (-1.0) ** np.arange(n + 1)
        rhs = -c_top * M[:, n]
        sol = np.linalg.solve(lhs, rhs)
        coef = np.concatenate([sol[:n], [c_top]])
        return coef, sol[n]

    cheb = np.polynomial.chebyshev
    coef, h = solve_on(ref)
    for _ in range(_REMEZ_MAXITER):
        crit = mid + rad * cheb.chebroots(cheb.chebder(coef)).real
        cx = np.sort(np.concatenate([ends, crit[_in_bands(bands, crit)]]))
        ce = _cheb_basis(E, cx, n) @ coef
        norm = float(np.max(np.abs(ce)))
        gap = norm - abs(h)
        if gap <= _REMEZ_TOL * norm:
            break
        new_ref = _alternating_subset(cx, ce, n + 1)
        if new_ref is None:
            raise QuadratureError("minimax exchange lost alternation")
        ref = new_ref
        coef, h = solve_on(ref)
    else:
        raise QuadratureError(
            f"minimax exchange: no convergence in {_REMEZ_MAXITER} iterations "
            f"(bracket {gap / norm:.1e} relative, tol {_REMEZ_TOL:g})")

    # verify equioscillation on the final reference
    signs = np.sign(_cheb_basis(E, ref, n) @ coef)
    if np.any(signs[1:] * signs[:-1] >= 0):
        raise QuadratureError("minimax exchange: final reference does not alternate")

    series = cheb.Chebyshev(coef, domain=[A, B])
    return norm, series.convert(kind=Polynomial)


# ---------------------------------------------------------------------------
# transforms
# ---------------------------------------------------------------------------


def capacity_preimage(capK: float, d: int) -> float:
    """cap of the preimage under a monic degree-d polynomial: cap^(1/d)."""
    if capK < 0 or d < 1:
        raise ValueError("need capK >= 0 and d >= 1")
    return capK ** (1.0 / d)


def _preimage_bands(f: Polynomial, K: IntervalUnion) -> list[tuple[float, float]]:
    cuts: list[float] = []
    scale = max(1.0, max(abs(e) for e in K.endpoints))
    for (u, v) in K.bands:
        for level in (u, v):
            rts = np.roots((f - level).coef[::-1])
            cuts.extend(r.real for r in rts if abs(r.imag) <= 1e-9 * scale)
    dcoef = f.deriv().coef
    if len(dcoef) > 1:
        rts = np.roots(dcoef[::-1])
        cuts.extend(r.real for r in rts if abs(r.imag) <= 1e-9 * scale)
    cuts = sorted(set(float(c) for c in cuts))
    out: list[tuple[float, float]] = []
    for a, b in zip(cuts[:-1], cuts[1:]):
        if b - a <= 1e-13 * scale:
            continue
        if K.contains(float(f(0.5 * (a + b))), tol=1e-9 * scale):
            if out and abs(out[-1][1] - a) <= 1e-12 * scale:
                out[-1] = (out[-1][0], b)
            else:
                out.append((a, b))
    if not out:
        raise ValueError("empty preimage")
    return out


def pullback_density(f: Polynomial, nu, nsamples: int = 4096) -> ThetaDensity:
    """Canonical lift of a density under a monic polynomial.

    The lift of nu along f has pointwise density nu(f(x)) |f'(x)| / deg f on
    f^{-1}(supp nu); its pushforward under f is nu again.
    """
    d = f.degree()
    if d < 1:
        raise ValueError("need a nonconstant polynomial")
    if abs(f.coef[-1] - 1.0) > 1e-12:
        raise ValueError("need a monic polynomial")
    Epre = make_interval_union(_preimage_bands(f, nu.E))
    fp = f.deriv()

    def dens(x: np.ndarray) -> np.ndarray:
        return nu.density(f(x)) * np.abs(fp(x)) / d

    return density_from_callable(Epre, dens, nsamples)


def energy(mu) -> float:
    """I(mu) = double integral of log|x-y| d(mu)d(mu) for a unit-mass density."""
    mass = mu.total_mass
    if abs(mass - 1.0) > 1e-6:
        raise ValueError(f"density must have unit mass (got {mass})")
    return mu.energy()


# ---------------------------------------------------------------------------
# report dispatcher
# ---------------------------------------------------------------------------


def _closed_form_shape(E: IntervalUnion):
    if E.n_bands == 1:
        a, b = E.bands[0]
        return ("interval", a, b)
    if E.n_bands == 2:
        (a0, b0), (a1, b1) = E.bands
        s = max(abs(e) for e in E.endpoints)
        if abs(a0 + b1) <= 1e-12 * s and abs(b0 + a1) <= 1e-12 * s:
            return ("symmetric_pair", a1, b1)
    return None


def capacity(E: IntervalUnion, method: str = "abel_integral", n: int | None = None,
             seed: int = 0) -> CapacityReport:
    """Capacity of an interval union by the chosen route, with diagnostics."""
    if method == "closed_form":
        shape = _closed_form_shape(E)
        if shape is None:
            raise ValueError("no closed form for this union; use another method")
        return CapacityReport(capacity_closed_form(shape), "closed_form",
                              {"shape": list(shape)})
    if method == "fekete":
        n_max = 8 if n is None else n
        _check_fekete_count(n_max)  # before the smaller counts run
        ns = list(range(2, n_max + 1))
        ds = [fekete_diameter(E, k, seed=seed) for k in ns]
        return CapacityReport(ds[-1], "fekete", {"n": ns, "d_n": ds})
    if method == "chebyshev":
        # For a compact subset of the real line the minimax norm satisfies
        # t_n >= 2 cap^n, with equality on intervals, so dividing out the 2
        # removes the persistent 2^(1/n) bias of the raw root.
        deg = 32 if n is None else n
        t_n, _ = chebyshev_constant(E, deg)
        return CapacityReport((t_n / 2.0) ** (1.0 / deg), "chebyshev",
                              {"n": deg, "t_n": t_n,
                               "t_n_root": t_n ** (1.0 / deg)})
    if method == "abel_integral":
        from .abel import solve_R, abel_capacity

        datum = solve_R(E)
        cap = abel_capacity(datum)
        return CapacityReport(cap, "abel_integral",
                              {"vE": datum.vE, "omega": list(datum.omega)})
    raise ValueError(f"unknown method {method!r}")
