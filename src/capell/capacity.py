"""Logarithmic capacity of real interval unions.

Four routes are implemented and cross-checkable:

* closed forms for intervals, symmetric pairs, circles, and circular arcs;
* the transfinite-diameter oracle: n points maximizing the Vandermonde
  product (n <= 64), by exact coordinate ascent;
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
from functools import lru_cache

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
_FEKETE_NEWTON = 5
_REMEZ_MAXITER = 200
_REMEZ_TOL = 1e-12


def _in_bands(bands: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Mask of the points x lying in one of the rows (lo, hi) of bands."""
    return ((x[..., None] >= bands[:, 0]) & (x[..., None] <= bands[:, 1])).any(axis=-1)


@lru_cache
def _pairs(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The index pairs i < j of n points, read-only (``np.triu_indices``)."""
    iu, ju = np.triu_indices(n, 1)
    iu.flags.writeable = ju.flags.writeable = False
    return iu, ju


def _vander_log(x: np.ndarray):
    """Log of the Vandermonde product of the points x, or of each row of x;
    -inf where two points coincide."""
    iu, ju = _pairs(x.shape[-1])
    with np.errstate(divide="ignore"):
        return np.log(np.abs(x[..., ju] - x[..., iu])).sum(axis=-1)


def _householder_basis(w: np.ndarray) -> np.ndarray:
    """Q for the weights w (see ``_critical_points``), one per row of w."""
    v = np.sqrt(w)
    v = v / np.linalg.norm(v, axis=-1, keepdims=True)
    u = v.copy()
    u[..., 0] += 1.0
    return np.eye(w.shape[-1])[:, 1:] - u[..., :, None] * (v[..., None, 1:] / u[..., None, :1])


@lru_cache
def _unit_basis(m: int) -> np.ndarray:
    """``_householder_basis`` of m unit weights, built once per m, read-only."""
    q = _householder_basis(np.ones(m))
    q.flags.writeable = False
    return q


def _critical_points(y: np.ndarray, w: np.ndarray | None = None) -> np.ndarray:
    """Row k: the m - 1 roots of sum_j w[k, j] / (x - y[k, j]) in ascending
    order, for positive weights (all ones when w is None: the critical points
    of the polynomial with roots y[k]), all rows in one eigvalsh call.

    With v = sqrt(w)/|sqrt(w)|, det [[x - diag(y), v], [v^T, 0]] is
    -prod(x - y_j) sum v_j^2/(x - y_j): the roots are the eigenvalues of
    Q^T diag(y) Q, Q columns 2..m of the Householder reflector taking v to
    -e_1 (u = v + e_1, free of cancellation); for unit weights Q is built
    once per m and shared by all rows.  Backward stable, so a root is off by
    a few eps of max|y|; a repeated point comes back as a root.
    """
    q = _unit_basis(y.shape[-1]) if w is None else _householder_basis(w)
    x = np.linalg.eigvalsh(np.swapaxes(q, -1, -2) @ (y[..., :, None] * q))
    ys = np.sort(y, axis=-1)
    return np.clip(x, ys[..., :-1], ys[..., 1:])  # interlacing, to the last bit


def _newton_interior(bands: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Newton steps on the points of each row of y strictly inside a band,
    the points at a band end held fixed.

    The log Vandermonde product is concave in the free points: its gradient
    is g_i = sum_(j != i) 1/(x_i - x_j), its Hessian -L, with L the Laplacian
    weighted by 1/(x_i - x_j)^2, whose free block is positive definite while
    one point is held.  All rows solve in one call.  A step is scaled down
    to 0.99 of the distance from each moving point to its band end and to
    its neighbours, and a row takes it only if it raises the product.
    """
    n = y.shape[1]
    eye, (iu, ju) = np.eye(n), _pairs(n)
    band = np.searchsorted(bands[:, 0], y, side="right") - 1
    lo, hi = bands[band, 0], bands[band, 1]
    free = (lo < y) & (y < hi)
    free &= ~free.all(axis=1, keepdims=True)  # with none held, L is singular
    for _ in range(_FEKETE_NEWTON):
        with np.errstate(divide="ignore", invalid="ignore"):
            inv = (1.0 - eye) / (y[:, :, None] - y[:, None, :] + eye)
            w = inv * inv
            lap = np.where(free[:, :, None] & free[:, None, :],
                           eye * w.sum(axis=2)[:, :, None] - w, eye)
            try:
                s = np.linalg.solve(lap, np.where(free, inv.sum(axis=2), 0.0)[..., None])[..., 0]
            except np.linalg.LinAlgError:
                break
            close = s[:, :-1] - s[:, 1:]  # the rate at which each gap closes
            room = np.hstack([np.where(s != 0.0, (np.where(s > 0.0, hi, lo) - y) / s, np.inf),
                              np.where(close > 0.0, np.diff(y, axis=1) / close, np.inf)])
            step = y + np.minimum(1.0, 0.99 * room.min(axis=1))[:, None] * s
            # the change of the log product, free of the product's own rounding
            dy = step - y
            up = np.log1p((dy[:, ju] - dy[:, iu]) / (y[:, ju] - y[:, iu])).sum(axis=1) > 0.0
        if not up.any():
            break
        y[up] = step[up]
        free &= up[:, None]
    return y


def _polish_coordinates(bands: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Cyclic exact coordinate ascent of the Vandermonde product from the
    starts in the rows of y; returns the rows kept.

    With the other points fixed, point i maximizes |w| for w the monic
    polynomial with the other points as roots: at a band end or at a root of
    w', which the live rows get from one ``_critical_points`` call, each
    root within a few eps of its true place however the points cluster.  A
    candidate equal to another point makes the product zero.  Point i moves
    to the best candidate unless the log of the ratio of the two products,
    summed from log1p terms, says its own place is as good: the products
    themselves cannot tell points apart closer than about sqrt(eps).  The
    live rows sweep in step.  After a sweep the rows are cut
    to one per allocation (the band of each sorted point), the one with the
    largest product: with the allocation fixed the log product is concave,
    so the starts that share it share its maximum.  The live rows then take
    Newton steps on their points inside a band (``_newton_interior``), which
    converge quadratically where the sweeps converge linearly.  A row stops
    after a sweep that moves none of its points by 1e-12 of the diameter,
    so its points are confirmed coordinate by coordinate; QuadratureError
    when the best row has not stopped after 80 sweeps.  A sweep works on a
    compact copy of the live rows, written back at its end.
    """
    ends, m = bands.ravel(), y.shape[1]
    tol = 1e-12 * (ends[-1] - ends[0])
    idx = np.arange(1, m) - np.tri(m, m - 1, -1, dtype=int)  # row i: all but i
    moved = np.full(len(y), np.inf)
    for _ in range(_FEKETE_SWEEPS):
        live = np.flatnonzero(moved >= tol)
        yl, ml, rows = y[live], np.zeros(len(live)), np.arange(len(live))
        cand = np.empty((len(live), len(ends) + m - 2))
        cand[:, :len(ends)] = ends
        with np.errstate(divide="ignore", invalid="ignore"):
            for i in range(m):
                others = np.ascontiguousarray(yl[:, idx[i]])
                # w has real roots only, so w' does too (Rolle)
                crit = _critical_points(others)
                cand[:, len(ends):] = np.where(_in_bands(bands, crit), crit, np.nan)
                diff = cand[:, :, None] - others[:, None, :]
                logs = np.log(np.abs(diff)).sum(axis=2)
                logs[np.isnan(cand) | (diff == 0.0).any(axis=2)] = -np.inf
                t, x = cand[rows, np.argmax(logs, axis=1)], yl[:, i]
                gain = np.log1p((t - x)[:, None] / (x[:, None] - others)).sum(axis=1)
                t = np.where(gain <= 0.0, x, t)
                ml = np.maximum(ml, np.abs(t - x))
                yl[:, i] = t
        y[live], moved[live] = yl, ml
        y = np.sort(y, axis=1)
        logs, best = _vander_log(y), {}
        alloc = np.searchsorted(bands[:, 0], y, side="right")
        for k, key in enumerate(map(tuple, alloc.tolist())):
            if logs[best.setdefault(key, k)] < logs[k]:
                best[key] = k
        keep = sorted(best.values())
        y, moved = y[keep], moved[keep]
        live = moved >= tol
        if not live.any():
            return y
        y[live] = _newton_interior(bands, y[live])
    top = np.argmax(_vander_log(y))
    if moved[top] >= tol:
        raise QuadratureError(
            f"Fekete ascent: no convergence in {_FEKETE_SWEEPS} sweeps (the best start "
            f"still moves {moved[top] / (ends[-1] - ends[0]):.1e} of the diameter, "
            f"tol 1e-12)")
    return y


def _check_fekete_count(n: int) -> None:
    if not 2 <= n <= 64:
        raise ValueError(f"point count must be between 2 and 64, got {n}")


def fekete_points(E: IntervalUnion, n: int, seed: int = 0) -> np.ndarray:
    """n points of E maximizing the product of pairwise distances.

    20 seeded random starts (one draw u of 20 x 2 x n uniforms: point k of
    start s lies in the band u[s, 0, k] picks with weight its length, at the
    fraction u[s, 1, k] of it) run the exact coordinate ascent: each point in
    turn moves to the best of its candidates, the band ends and the critical
    points inside a band of the polynomial whose roots are the other points.
    Between sweeps the starts are cut to one per allocation of points to
    bands, and Newton steps on the points inside a band speed the ascent up
    (``_polish_coordinates``); the best row is returned once a sweep leaves
    it in place, and QuadratureError is raised when none does in 80 sweeps.
    Rows whose log products lie within 1e-13 of the best, such as the two
    mirror images on a symmetric union, are ties, and the one with the
    lowest point sum is returned.  2 <= n <= 64.  The work is done on E
    mapped affinely onto [-1, 1], so that the result follows scaling and
    translation of E at any magnitude; points at a band end come back as
    that exact end.
    """
    _check_fekete_count(n)
    mid, half = _unit_map(*E.hull)
    bands = (np.asarray(E.bands, dtype=float) - mid) / half
    lengths = bands[:, 1] - bands[:, 0]
    cdf = (lengths / lengths.sum()).cumsum()
    cdf /= cdf[-1]
    u = np.random.default_rng(seed).random((_FEKETE_RESTARTS, 2, n))
    j = cdf.searchsorted(u[:, 0], side="right")
    y = _polish_coordinates(bands, bands[j, 0] + u[:, 1] * lengths[j])
    logs = _vander_log(y)
    tied = np.flatnonzero(logs >= logs.max() - 1e-13)  # such as two mirror images
    best_y = y[tied[np.argmin(y[tied].sum(axis=1))]]
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
    critical points of p inside a band, so t_n = |h| max_E |p/h| is the sup
    of p on E.  p alternates in sign on the sorted reference, so its n roots
    are real, those of the formula's numerator sum a_i/(x - ref_i), a_i > 0;
    by Rolle its critical points are the roots of sum 1/(x - root_k).  Both
    ends are formed in logs; QuadratureError when they are not within 1e-12
    relative after 200 exchanges, or lie outside the float range.
    """
    if n < 1:
        raise ValueError("degree must be >= 1")
    mid, half = _unit_map(*E.hull)
    bands = (np.asarray(E.bands, dtype=float) - mid) / half
    bmid, bhalf = bands.mean(axis=1), 0.5 * (bands[:, 1] - bands[:, 0])
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
        # the roots of p, then its critical points
        crit = _critical_points(_critical_points(ref[None], a[None]))[0]
        cx = np.sort(np.concatenate([bands.ravel(), crit[_in_bands(bands, crit)]]))
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


def pullback_density(f: Polynomial, nu) -> ThetaDensity:
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

    return density_from_callable(Epre, dens)


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
