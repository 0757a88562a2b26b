"""Logarithmic capacity of real interval unions.

Four routes are implemented and cross-checkable:

* closed forms for intervals, symmetric pairs, circles, and circular arcs;
* the transfinite-diameter oracle (maximize the Vandermonde product of n
  points, small n only);
* the Chebyshev route: monic minimal sup-norm polynomials by a generalized
  Remez exchange over the union, cap ~ t_n^(1/n);
* the band-integral route (module ``abel``), reached through ``capacity()``.

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
# transfinite diameter by direct maximization
# ---------------------------------------------------------------------------


def _project_to_bands(E: IntervalUnion, x: np.ndarray) -> np.ndarray:
    bands = np.asarray(E.bands)
    lo, hi = bands[:, 0], bands[:, 1]
    below = lo[None, :] - x[:, None]
    above = x[:, None] - hi[None, :]
    dist = np.maximum(np.maximum(below, above), 0.0)
    j = np.argmin(dist, axis=1)
    return np.clip(x, lo[j], hi[j])


def _vander_log(x: np.ndarray) -> float:
    d = np.abs(x[:, None] - x[None, :])
    iu = np.triu_indices(len(x), 1)
    vals = d[iu]
    if np.any(vals == 0.0):
        return -np.inf
    return float(np.sum(np.log(vals)))


def _polish_coordinates(E: IntervalUnion, x: np.ndarray, sweeps: int = 80) -> np.ndarray:
    """Cyclic golden-section ascent: each coordinate's objective is concave
    between its neighbors inside a band."""
    n = len(x)
    gr = (math.sqrt(5) - 1) / 2
    diam = E.diameter
    x = np.sort(x.copy())
    for _ in range(sweeps):
        moved = 0.0
        for i in range(n):
            others = np.delete(x, i)

            def f(t: float) -> float:
                v = np.abs(t - others)
                if np.any(v == 0.0):
                    return -np.inf
                return float(np.sum(np.log(v)))

            best_t, best_v = x[i], f(x[i])
            for (u, v) in E.bands:
                cuts = [u] + [p for p in others if u < p < v] + [v]
                for lo, hi in zip(cuts[:-1], cuts[1:]):
                    pad = 1e-13 * diam
                    a = lo + (pad if lo in others else 0.0)
                    b = hi - (pad if hi in others else 0.0)
                    if not a < b:
                        continue
                    c, d = b - gr * (b - a), a + gr * (b - a)
                    fc, fd = f(c), f(d)
                    for _ in range(80):
                        if fc >= fd:
                            b, d, fd = d, c, fc
                            c = b - gr * (b - a)
                            fc = f(c)
                        else:
                            a, c, fc = c, d, fd
                            d = a + gr * (b - a)
                            fd = f(d)
                        if b - a < 1e-13 * diam:
                            break
                    for t in (a, 0.5 * (a + b), b):
                        ft = f(t)
                        if ft > best_v:
                            best_t, best_v = t, ft
            moved = max(moved, abs(best_t - x[i]))
            x[i] = best_t
        if moved < 1e-12 * diam:
            break
    return x


def _check_fekete_count(n: int) -> None:
    if not 2 <= n <= 12:
        raise ValueError(f"point count must be between 2 and 12, got {n}")


def fekete_points(E: IntervalUnion, n: int, seed: int = 0, restarts: int = 20) -> np.ndarray:
    """n points of E maximizing the product of pairwise distances."""
    _check_fekete_count(n)
    rng = np.random.default_rng(seed)
    lengths = np.array(E.lengths)
    weights = lengths / lengths.sum()
    bands = np.asarray(E.bands)

    best_x, best_val = None, -np.inf
    for _ in range(restarts):
        j = rng.choice(len(bands), size=n, p=weights)
        x = bands[j, 0] + rng.random(n) * (bands[j, 1] - bands[j, 0])
        val = _vander_log(x)
        step = 0.05 * E.diameter / n
        for _ in range(300):
            diff = x[:, None] - x[None, :]
            np.fill_diagonal(diff, np.inf)
            g = np.sum(1.0 / diff, axis=1)
            ok = False
            for _ in range(50):
                xn = _project_to_bands(E, x + step * g)
                vn = _vander_log(xn)
                if vn > val:
                    ok = True
                    break
                step *= 0.5
            if not ok:
                break
            x, val = xn, vn
            step *= 1.5
        x = _polish_coordinates(E, x)
        val = _vander_log(x)
        if val > best_val:
            best_x, best_val = x, val
    return np.sort(best_x)


def _diameter_of(x: np.ndarray) -> float:
    """Geometric mean of the pairwise distances of the points x."""
    n = len(x)
    return math.exp(2.0 * _vander_log(x) / (n * (n - 1)))


def fekete_diameter(E: IntervalUnion, n: int, seed: int = 0, restarts: int = 20) -> float:
    """d_n(E): the maximized geometric mean of pairwise distances."""
    return _diameter_of(fekete_points(E, n, seed=seed, restarts=restarts))


# ---------------------------------------------------------------------------
# Chebyshev constant by Remez exchange
# ---------------------------------------------------------------------------


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


def chebyshev_constant(
    E: IntervalUnion,
    n: int,
    maxiter: int = 200,
    tol: float = 1e-12,
) -> tuple[float, Polynomial]:
    """Monic degree-n polynomial of minimal sup norm on E and that norm.

    Works in the Chebyshev basis of E's hull (the monic constraint pins the
    top basis coefficient), with a multi-point exchange over per-band grids
    and parabolic refinement of the located extrema.
    """
    if n < 1:
        raise ValueError("degree must be >= 1")
    A, B = E.hull
    mid, rad = 0.5 * (A + B), 0.5 * (B - A)
    c_top = rad**n * 2.0 ** (1 - n)  # monic: coefficient of T_n((x-mid)/rad)

    grids = []
    for (u, v) in E.bands:
        m = max(64, 8 * n)
        th = np.linspace(np.pi, 0.0, m)
        grids.append(0.5 * (u + v) + 0.5 * (v - u) * np.cos(th))
    grid = np.concatenate(grids)
    Vg = _cheb_basis(E, grid, n)

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

    def eval_poly(coef: np.ndarray, x: np.ndarray) -> np.ndarray:
        return _cheb_basis(E, np.atleast_1d(x), n) @ coef

    coef, h = solve_on(ref)
    norm = None
    for _ in range(maxiter):
        eg = Vg @ coef
        # local extrema per band, refined by two parabolic steps
        cand_x, cand_e = [], []
        pos = 0
        for bg in grids:
            k = len(bg)
            e = eg[pos : pos + k]
            pos += k
            idx = [0, k - 1]
            interior = np.where((np.abs(e[1:-1]) >= np.abs(e[:-2])) & (np.abs(e[1:-1]) >= np.abs(e[2:])))[0] + 1
            idx = sorted(set(idx) | set(interior.tolist()))
            for i in idx:
                x0 = bg[i]
                dx = min(abs(bg[min(i + 1, k - 1)] - x0), abs(x0 - bg[max(i - 1, 0)]), 1e-3 * rad)
                dx = max(dx, 1e-14 * rad)
                lo_b, hi_b = bg[0], bg[-1]
                for _ in range(2):
                    # vertex of the parabola through (x0 +- dx, e); location
                    # is invariant under flipping the sign of e
                    ys = eval_poly(coef, np.array([x0 - dx, x0, x0 + dx]))
                    denom = ys[0] - 2 * ys[1] + ys[2]
                    if denom == 0:
                        break
                    shift = 0.5 * dx * (ys[0] - ys[2]) / denom
                    if not np.isfinite(shift) or abs(shift) > 2 * dx:
                        break
                    x0 = float(np.clip(x0 + shift, lo_b, hi_b))
                    dx *= 0.25
                cand_x.append(x0)
                cand_e.append(float(eval_poly(coef, np.array([x0]))[0]))
        order = np.argsort(cand_x)
        cx = np.array(cand_x)[order]
        ce = np.array(cand_e)[order]
        norm = float(np.max(np.abs(ce)))
        if norm - abs(h) <= tol * max(1.0, norm):
            break
        new_ref = _alternating_subset(cx, ce, n + 1)
        if new_ref is None:
            raise QuadratureError("minimax exchange lost alternation")
        ref = new_ref
        coef, h = solve_on(ref)
    else:
        raise QuadratureError(f"minimax exchange: no convergence in {maxiter} iterations")

    # verify equioscillation on the final reference
    re = eval_poly(coef, ref)
    signs = np.sign(re)
    if np.any(signs[1:] * signs[:-1] >= 0):
        raise QuadratureError("minimax exchange: final reference does not alternate")

    series = np.polynomial.chebyshev.Chebyshev(coef, domain=[A, B])
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
