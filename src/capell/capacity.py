"""Logarithmic capacity of real interval unions.

Four routes are implemented and cross-checkable:

* closed forms for intervals, symmetric pairs, circles, and circular arcs;
* the transfinite-diameter oracle: n points maximizing the Vandermonde
  product (small n only), by exact coordinate ascent;
* the Chebyshev route: a Remez exchange in barycentric form brackets the
  least sup norm t_n(E) of a monic polynomial, cap ~ (t_n/2)^(1/n); the
  bracket meets a relative tolerance or ``QuadratureError`` is raised (CLI
  exit 4);
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
    _unit_map,
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
        return 0.25 * b - 0.25 * a
    if tag == "symmetric_pair":
        (a, b) = params
        if not 0 < a < b:
            raise ValueError("symmetric pair needs 0 < a < b")
        # 0.5 sqrt(b^2 - a^2), with no square formed
        return math.sqrt(0.5 * b - 0.5 * a) * math.sqrt(0.5 * b + 0.5 * a)
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
    return ((x[..., None] >= bands[:, 0]) & (x[..., None] <= bands[:, 1])).any(axis=-1)


def _vander_log(x: np.ndarray) -> float:
    d = np.abs(x[:, None] - x[None, :])
    iu = np.triu_indices(len(x), 1)
    vals = d[iu]
    if np.any(vals == 0.0):
        return -np.inf
    return float(np.sum(np.log(vals)))


def _critical_points(roots: np.ndarray) -> np.ndarray:
    """Row k: the real parts of the roots of w', w monic with roots roots[k],
    bit for bit as Polynomial.fromroots(roots[k]).deriv().roots() (numpy's
    pairwise products and companion matrix), all rows in one eigvals call."""
    coefs = []
    for row in np.stack([-np.sort(roots + 0.0, axis=1), np.ones(roots.shape)], axis=2):
        p = list(row)  # the linear factors (-x, 1)
        while len(p) > 1:
            m, odd = divmod(len(p), 2)
            tmp = [np.convolve(p[i], p[i + m]) for i in range(m)]
            if odd:
                tmp[0] = np.convolve(tmp[0], p[-1])
            p = tmp
        coefs.append(p[0][1:] * np.arange(1.0, len(p[0])))
    c = np.array(coefs)
    d = c.shape[1] - 1
    mat = np.zeros((len(c), d, d))
    mat[:, np.arange(1, d), np.arange(d - 1)] = 1.0
    mat[:, :, -1:] -= (c[:, :-1] / c[:, -1:])[:, :, None]
    return np.sort(np.linalg.eigvals(mat), axis=1).real + 0.0


def _polish_coordinates(bands: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Cyclic exact coordinate ascent of the Vandermonde product, one start
    per row of y, the rows in step; a row stops after a sweep that moves
    none of its points by 1e-12 of the diameter.

    With the other points fixed, point i maximizes |w| for w the monic
    polynomial with the other points as roots: at a band end or at a root of
    w'.  A candidate equal to another point makes the product zero.
    """
    ends = bands.ravel()
    y, live = np.sort(y, axis=1), np.arange(len(y))
    for _ in range(_FEKETE_SWEEPS):
        moved = np.zeros(len(live))
        for i in range(y.shape[1]):
            others = np.delete(y[live], i, axis=1)
            # w has real roots only, so w' does too (Rolle)
            crit = _critical_points(others)
            cand = np.hstack([np.broadcast_to(ends, (len(live), len(ends))),
                              np.where(_in_bands(bands, crit), crit, np.nan)])
            diff = cand[:, :, None] - others[:, None, :]
            with np.errstate(divide="ignore"):
                logs = np.log(np.abs(diff)).sum(axis=2)
            logs[np.isnan(cand) | (diff == 0.0).any(axis=2)] = -np.inf
            t = cand[np.arange(len(live)), np.argmax(logs, axis=1)]
            moved = np.maximum(moved, np.abs(t - y[live, i]))
            y[live, i] = t
        live = live[moved >= 1e-12 * (ends[-1] - ends[0])]
        if not len(live):
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
    mid, half = _unit_map(*E.hull)
    bands = (np.asarray(E.bands, dtype=float) - mid) / half
    rng = np.random.default_rng(seed)
    lengths = bands[:, 1] - bands[:, 0]
    weights = lengths / lengths.sum()

    starts = []
    for _ in range(_FEKETE_RESTARTS):
        j = rng.choice(len(bands), size=n, p=weights)
        starts.append(bands[j, 0] + rng.random(n) * lengths[j])
    y = _polish_coordinates(bands, np.array(starts))
    best_y = y[np.argmax([_vander_log(row) for row in y])]
    exact_ends = dict(zip(bands.ravel().tolist(), np.ravel(E.bands).tolist()))
    return np.sort([exact_ends.get(t, mid + half * t) for t in best_y.tolist()])


def _diameter_of(x: np.ndarray) -> float:
    """Geometric mean of the pairwise distances of the points x, formed on
    their hull mapped onto [-1, 1] so that no difference overflows."""
    n, (mid, half) = len(x), _unit_map(np.min(x), np.max(x))
    d = half * math.exp(2.0 * _vander_log((x - mid) / half) / (n * (n - 1)))
    if d == math.inf:
        raise QuadratureError(f"Fekete diameter d_{n} lies outside the float range")
    return d


def fekete_diameter(E: IntervalUnion, n: int, seed: int = 0) -> float:
    """d_n(E): the maximized geometric mean of pairwise distances."""
    return _diameter_of(fekete_points(E, n, seed=seed))


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


def _bary(ref: np.ndarray, a: np.ndarray, s: np.ndarray, u: np.ndarray) -> np.ndarray:
    """p/|h| at the points u by the second barycentric formula on ref, whose
    weights are s*a; p/|h| = s there."""
    d = u[:, None] - ref[None, :]
    hit = d == 0.0
    c = a / np.where(hit, 1.0, d)
    out = c.sum(axis=1) / (c * s).sum(axis=1)
    rows, cols = np.nonzero(hit)
    out[rows] = s[cols]
    return out


def chebyshev_constant(E: IntervalUnion, n: int) -> tuple[float, float]:
    """The bracket (t_n, |h|) around t_n(E), the least sup norm on E of a
    monic degree-n polynomial, by a Remez exchange on E mapped onto [-1, 1].

    The reference starts as n + 1 greedy Leja points of a Chebyshev grid on
    the bands.  The polynomial p levelled on it (p = +-h there) is held in
    barycentric form: |h| = 1/sum|w_i| from the reference's weights, p/|h|
    by the second barycentric formula.  Candidates are the band ends and the
    real critical points of each band's degree-n Chebyshev series of p/|h|,
    so t_n = |h| max_E |p/h| is the sup of p on E.  Both ends are formed in
    logs; QuadratureError when they are not within 1e-12 relative after 200
    exchanges, or lie outside the float range.
    """
    if n < 1:
        raise ValueError("degree must be >= 1")
    cheb = np.polynomial.chebyshev
    mid, half = _unit_map(*E.hull)
    bands = (np.asarray(E.bands, dtype=float) - mid) / half
    bmid, bhalf = bands.mean(axis=1), 0.5 * (bands[:, 1] - bands[:, 0])
    nodes = np.cos(np.pi * (np.arange(n + 1) + 0.5) / (n + 1))
    to_series = np.linalg.inv(cheb.chebvander(nodes, n))
    grid = (bmid[:, None] + bhalf[:, None] * np.cos(np.pi * np.arange(n + 1) / n)).ravel()
    ref, logd = [grid[0]], np.zeros_like(grid)
    with np.errstate(divide="ignore"):
        for _ in range(n):  # greedy Leja: the next point is farthest from the others
            logd += np.log(np.abs(grid - ref[-1]))
            ref.append(grid[np.argmax(logd)])
    ref, s = np.sort(ref), (-1.0) ** np.arange(n, -1, -1)  # s: sign of w_i, ref sorted
    for _ in range(_REMEZ_MAXITER):
        lw = -np.log(np.abs(ref[:, None] - ref[None, :]) + np.eye(n + 1)).sum(axis=1)
        top = lw.max()
        a = np.exp(lw - top)
        log_h = -top - math.log(a.sum())
        coef = to_series @ _bary(ref, a, s, (bmid + np.outer(nodes, bhalf)).ravel()
                                 ).reshape(n + 1, -1)
        crit = [m + r * t for m, r, c in zip(bmid, bhalf, coef.T)
                for t in cheb.chebroots(cheb.chebder(c)).real if abs(t) <= 1.0]
        cx = np.sort(np.concatenate([bands.ravel(), crit]))
        ce = _bary(ref, a, s, cx)
        norm = max(1.0, float(np.max(np.abs(ce))))  # |p/h| = 1 on the reference
        if norm - 1.0 <= _REMEZ_TOL * norm:
            break
        ref = _alternating_subset(cx, ce, n + 1)
        if ref is None:
            raise QuadratureError("minimax exchange lost alternation")
    else:
        raise QuadratureError(
            f"minimax exchange: no convergence in {_REMEZ_MAXITER} iterations "
            f"(bracket {1.0 - 1.0 / norm:.1e} relative, tol {_REMEZ_TOL:g})")
    log_lo = n * math.log(half) + log_h
    log_t = log_lo + math.log(norm)
    if not math.log(np.finfo(float).tiny) <= log_lo <= log_t < math.log(np.finfo(float).max):
        raise QuadratureError(f"minimax norm t_{n} = 10^{log_t / math.log(10):.1f} "
                              f"lies outside the float range")
    return math.exp(log_t), math.exp(log_lo)


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
        t_n, lower = chebyshev_constant(E, deg)
        return CapacityReport((t_n / 2.0) ** (1.0 / deg), "chebyshev",
                              {"n": deg, "t_n": t_n, "t_n_lower": lower,
                               "t_n_root": t_n ** (1.0 / deg)})
    if method == "abel_integral":
        from .abel import solve_R, abel_capacity

        datum = solve_R(E)
        cap = abel_capacity(datum)
        return CapacityReport(cap, "abel_integral",
                              {"vE": datum.vE, "omega": list(datum.omega)})
    raise ValueError(f"unknown method {method!r}")
