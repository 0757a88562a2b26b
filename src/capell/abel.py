"""Band equilibrium data for a union of real intervals.

For E with bands E_0..E_g and D the monic polynomial vanishing at the 2g+2
endpoints, there is a unique monic degree-g polynomial R whose integral
against 1/sqrt(D) vanishes over every gap.  R has one simple root per gap;
the equilibrium measure of E has density |R|/(pi sqrt|D|), the band masses
are omega_j = eta_j/pi with eta_j the band integrals of |R|/sqrt|D|, and

    v(E) = lim_{x->oo} ( log x - int_{b_g}^x R/sqrt(D) )

gives the capacity cap(E) = exp(v(E)).  ``solve_R`` maps E onto [-1, 1]
once, x = mid + half x' (``_unit_frame``), and every function below it takes
the endpoints e and gap roots z there.  R/sqrt(D) dx has degree 0 in x, so
only v(E) = v(E') + log half moves, added in ``solve_R`` and in the left-hand
limit of ``abel_capacity``: a union far from 0 or at the float ends solves
like the same union at 0.

The solver parameterizes R by its gap roots z (one per gap), which stays
well conditioned with hundreds of bands.  Every gap and band integral runs
on ``_quad.graded_nodes``, whose theta = mu sinh(u) at each end makes a
band or gap end at distance d cost log(1/d) nodes, not 1/sqrt(d).  Gap i
carries n nodes X_ik, and one kernel, w_ik prod_{j != i} |X_ik - z_j| with
w the node weight over sqrt of D's cofactor, summed in log space and
centred per row, gives the residuals F_i = int R/sqrt(D), their scales W_i
and the Jacobian J = dF/dz, in blocks of gap rows, in O(g n) memory.  The
gap conditions are linear in R: with R = prod(x - y)(1 + sum_l c_l/(x - y_l))
for any y, one per gap, they read J c = F at y.  Solves start from the gap
midpoints on 32 nodes; the residual on 2n nodes re-checks the roots to 1e-10
and is the next solve's, the last once they pass, n = 32 up to 512.  Band
masses double their nodes from 16 to settle, and are divided by their sum.

On band j, x = m_j + rho_j cos(theta) turns |R|/sqrt|D| into a smooth
profile pi q_j(theta).  ``BandDensity`` samples it through
``_band_profile``; the band masses (``_band_etas``) take the same
``_log_weight`` on graded nodes directly.  ``_exp_series`` is the one
Laurent series at infinity, exp(-sum p_m u^m / m): the tail of v(E) takes
it in u = 1/x, the Pell synthesis in ``pellabel`` in u = 1/w,
x = (w + 1/w)/2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial import Polynomial

from .core import IntervalUnion, QuadratureError, _unit_map
from ._quad import ThetaDensity, adaptive_double, gauss_legendre, graded_nodes, log_abs_sum

__all__ = [
    "AbelDatum",
    "BandDensity",
    "solve_R",
    "abel_capacity",
]


def _from_roots(roots) -> Polynomial:
    """The monic polynomial with these roots, multiplied out by ``np.poly``."""
    return Polynomial(np.atleast_1d(np.poly(np.asarray(roots, dtype=float)))[::-1])


def _unit_frame(E: IntervalUnion):
    """E's endpoints mapped onto [-1, 1] by x = mid + half x', and (mid, half)."""
    mid, half = _unit_map(*E.hull)
    return (np.asarray(E.endpoints, dtype=float) - mid) / half, mid, half


@dataclass(frozen=True)
class AbelDatum:
    """Solved band data of E, its gap roots held on E mapped onto [-1, 1].
    It holds only hashable fields, so it can key ``_cached_density``; D, R
    and ``gap_roots`` (in E's own coordinates) are built on demand."""

    E: IntervalUnion
    omega: tuple[float, ...]
    vE: float
    unit_roots: tuple[float, ...] = ()

    @property
    def gap_roots(self) -> tuple[float, ...]:
        _, mid, half = _unit_frame(self.E)
        return tuple(float(mid + half * t) for t in self.unit_roots)

    @property
    def D(self) -> Polynomial:
        """The monic polynomial vanishing at the band endpoints."""
        return _from_roots(self.E.endpoints)

    @property
    def R(self) -> Polynomial:
        """The monic polynomial vanishing at the gap roots."""
        return _from_roots(self.gap_roots)


# ---------------------------------------------------------------------------
# the gap-root solver, on E mapped onto [-1, 1]: endpoints e, gap roots z
# ---------------------------------------------------------------------------

_BLOCK = 1 << 16  # entries per block of rows of a log tensor; a longer row is a block


def _log_weight(x: np.ndarray, e: np.ndarray, own, z=()) -> np.ndarray:
    """log(|R(x)| / sqrt|D(x) / ((x - e_o)(x - e_{o+1}))|) on rows x (m, n)
    of an interval with ends e_o, e_{o+1}, o = own[row]; R has roots z.
    Rows go in ``_BLOCK``-sized blocks."""
    k, out = np.arange(len(e) - 2), np.empty_like(x)
    step = max(1, _BLOCK // (x.shape[1] * (len(e) + len(z))))
    for r in range(0, len(x), step):
        others = e[k + 2 * (k >= np.asarray(own)[r:r + step, None])][:, None, :]
        out[r:r + step] = log_abs_sum(x[r:r + step], z) - 0.5 * log_abs_sum(x[r:r + step], others)
    return out


def _band_profile(e: np.ndarray, z: np.ndarray, j: int):
    """theta -> pi q_j(theta) = |R| / sqrt(|D| / ((x-a_j)(b_j-x))) at
    x = m_j + rho_j cos(theta) on band j, R monic with roots z; it has
    degree 0 in x, so it is the same on E and on E mapped onto [-1, 1]."""
    m, rho = _unit_map(e[2 * j], e[2 * j + 1])
    return lambda theta: np.exp(_log_weight((m + rho * np.cos(theta))[None], e, [2 * j], z)[0])


def _gap_nodes(e: np.ndarray, n: int):
    """``graded_nodes`` X on the gaps and log w, w the node weight over sqrt
    of D's cofactor |D / ((x-b_i)(a_{i+1}-x))|, both (g, n), built for all
    gaps at once.  A gap end's nearest branch point outside is the far end
    of the band beside it.  ``solve_R`` solves on n = 32 and re-checks on
    64."""
    width = e[1::2] - e[::2]
    X, logq = graded_nodes(e[1:-1:2], e[2::2], width[:-1], width[1:], n)
    return X, logq + _log_weight(X, e, np.arange(1, len(e) - 2, 2))


def _residual(z, X, logw, jac=False):
    """F_i = int over gap i of R/sqrt(D), its scale W_i (the same with |R|)
    and, if asked, J = dF/dz, from core[i, k] = w_ik prod_{j != i} |X_ik - z_j|
    over its row maximum, so no product under- or overflows; F_i, W_i and row
    i of J share that factor, which cancels in J c = F and in F/W.  Gap rows
    go in ``_BLOCK``-sized (rows, n, g) blocks, one buffer for the logs and
    then for the reciprocals of J."""
    g, n = X.shape
    core, J = np.empty_like(X), np.empty((g, g)) if jac else None
    dx = X - z[:, None]
    # sign of prod_{j != i} (x - z_j) on gap i: the g - 1 - i roots above
    sig = (-1.0) ** (g - 1 - np.arange(g))
    step = max(1, _BLOCK // (n * g))
    for r in range(0, g, step):
        b = slice(r, r + step)
        L = X[b, :, None] - z
        np.abs(L, out=L)
        np.log(L, out=L)
        lw = L.sum(axis=2) - L.diagonal(r, axis1=0, axis2=2).T + logw[b]
        core[b] = np.exp(lw - lw.max(axis=1, keepdims=True))
        if jac:
            # J[i, l] = -sig_i sum_k dx_ik core_ik / (X_ik - z_l); at l = i
            # this is -sig_i sum_k core_ik
            np.reciprocal(np.subtract(X[b, :, None], z, out=L), out=L)
            J[b] = -sig[b, None] * np.einsum("ik,ikl->il", dx[b] * core[b], L)
    return sig * (dx * core).sum(axis=1), (np.abs(dx) * core).sum(axis=1), J


def _solve_grid(y, F, J, lo, hi):
    """R's gap roots from one solve of J c = F, with F and J the
    ``_residual`` at y on one grid.  R's root in gap i is that of
    (x - y_i)(1 + sum_{l != i} c_l/(x - y_l)) + c_i, by Newton from y_i - c_i
    for all gaps at once, to 1e-14 of the gap plus 1e-15, a few ulps on
    [-1, 1], where rounding stops the steps."""
    c = np.linalg.solve(J, F)
    if not np.all(np.isfinite(c)):
        raise QuadratureError("gap conditions: the linear solve is not finite")
    z, tol = y - c, 1e-14 * (hi - lo) + 1e-15
    for _ in range(8):
        d = z[:, None] - y
        np.fill_diagonal(d, np.inf)
        q = c / d
        s = 1.0 + q.sum(axis=1)
        step = ((z - y) * s + c) / (s - (z - y) * (q / d).sum(axis=1))
        z = z - step
        if not np.max(np.abs(step) - tol) > 0:
            break
    if not np.all((lo < z) & (z < hi)):
        raise QuadratureError("gap conditions: a root of R is not inside its gap")
    return z


def _band_etas(e: np.ndarray, z: np.ndarray, n: int) -> np.ndarray:
    """eta_j = int over band j of |R|/sqrt|D| on n ``graded_nodes`` per band,
    all bands at once.  A band end is graded for the gap beside it: that
    gap's root, always nearer than its far end."""
    lo, hi = e[::2], e[1::2]
    d_lo = np.concatenate(([np.inf], lo[1:] - z))
    d_hi = np.concatenate((z - hi[:-1], [np.inf]))
    x, logq = graded_nodes(lo, hi, d_lo, d_hi, n)
    return np.exp(logq + _log_weight(x, e, np.arange(0, len(e), 2), z)).sum(axis=1)


_TAIL_TERMS = 64


def _exp_series(p: np.ndarray) -> np.ndarray:
    """Coefficients c_0..c_n of exp(-sum_{m=1}^n p_m u^m / m), from p_0..p_n
    (p_0 is not read): k c_k = -sum_{m=1}^k p_m c_{k-m}."""
    c = np.zeros(len(p))
    c[0] = 1.0
    for k in range(1, len(p)):
        c[k] = -(p[1:k + 1] @ c[k - 1::-1]) / k
    return c


def _v_right(e: np.ndarray, z: np.ndarray, tol: float = 5e-11) -> float:
    """v(E') = lim_{x->oo} (log x - int_{b_g}^x R/sqrt(D)) for E' in [-1, 1]
    with endpoints e and R rooted at z.

    The head, b_g to 2, is adaptive Gauss-Legendre in s = sqrt(x - b_g).  For
    |x| > 1, R/sqrt(D) = exp(-sum p_m x^-m / m) / x with
    p_m = sum_j z_j^m - (1/2) sum_k e_k^m, so the tail
    int_2^oo (R/sqrt(D) - 1/x) dx = sum_m c_m 2^-m / m for the coefficients
    c_m of exp(-sum p_m u^m / m), of radius 1: 64 terms leave about 2^-64.
    """
    b_g = float(e[-1])
    S = math.sqrt(2.0 - b_g)
    others = e[:-1]

    def head(n: int) -> float:
        t, w = gauss_legendre(n)
        s = 0.5 * S * (t + 1.0)
        x = b_g + s * s
        return S * float(np.sum(w * np.exp(log_abs_sum(x, z) - 0.5 * log_abs_sum(x, others))))

    v1, _, _ = adaptive_double(head, tol, n0=64, nmax=1 << 13, context="capacity head integral")
    m = np.arange(1, _TAIL_TERMS + 1)
    c = _exp_series(np.vander(z, _TAIL_TERMS + 1, increasing=True).sum(axis=0)
                    - 0.5 * np.vander(e, _TAIL_TERMS + 1, increasing=True).sum(axis=0))
    return math.log(2.0) - v1 - float(np.sum(c[1:] / (m * 2.0 ** m)))


def solve_R(E: IntervalUnion) -> AbelDatum:
    """Solve the gap conditions for R on E mapped onto [-1, 1] and assemble
    the full datum; v(E) = v(E') + log half."""
    e, _, half = _unit_frame(E)
    lo, hi = e[1:-1].reshape(-1, 2).T
    z, n = 0.5 * lo + 0.5 * hi, 32
    if len(z):
        try:
            X, logw = _gap_nodes(e, n)
            F, _, J = _residual(z, X, logw, jac=True)
            while True:
                z = _solve_grid(z, F, J, lo, hi)
                # re-check on the doubled grid, whose residual the next solve takes
                n *= 2
                X, logw = _gap_nodes(e, n)
                F, W, J = _residual(z, X, logw, jac=True)
                if np.max(np.abs(F) / W) < 1e-10:
                    # one more solve on that grid: the re-check's 1e-10 is loose
                    z = _solve_grid(z, F, J, lo, hi)
                    break
                if n == 1024:
                    raise QuadratureError("gap conditions: no stable solution below 1024 nodes")
        except MemoryError:
            raise QuadratureError(f"gap conditions: out of memory at {n} nodes on {len(z)} gaps")

    eta, _, _ = adaptive_double(lambda n: _band_etas(e, z, n), 1e-9, n0=16,
                                nmax=1 << 10, context="band masses")
    if abs(float(eta.sum()) / math.pi - 1.0) > 1e-8:
        raise QuadratureError(f"band masses sum to {eta.sum() / math.pi}, not 1")
    omega = eta / eta.sum()

    return AbelDatum(
        E=E,
        omega=tuple(float(x) for x in omega),
        vE=_v_right(e, z) + math.log(half),
        unit_roots=tuple(float(x) for x in z),
    )


def abel_capacity(datum: AbelDatum) -> float:
    """cap(E) = e^{v(E)}, with the same limit recomputed from the left, on
    E' reflected, as a consistency check."""
    # solve_R stores _v_right of its own roots as vE
    e, _, half = _unit_frame(datum.E)
    v_right = datum.vE
    v_left = _v_right(-e[::-1], -np.asarray(datum.unit_roots)[::-1]) + math.log(half)
    if abs(v_right - v_left) > 1e-7:
        raise QuadratureError(
            f"two-sided capacity limits disagree: {v_right} vs {v_left}"
        )
    return math.exp(0.5 * (v_right + v_left))


# ---------------------------------------------------------------------------
# equilibrium density
# ---------------------------------------------------------------------------


class BandDensity(ThetaDensity):
    """Equilibrium density |R|/(pi sqrt|D|), held per band by its angle
    profile ``_band_profile`` / pi."""

    def __init__(self, datum: AbelDatum):
        self.datum = datum
        self._e, self._mid, self._half = _unit_frame(datum.E)
        self._z = np.asarray(datum.unit_roots)
        profiles = [_band_profile(self._e, self._z, j) for j in range(datum.E.n_bands)]
        super().__init__(datum.E, [lambda theta, q=q: q(theta) / np.pi for q in profiles])

    def _coefficients(self):
        series = super()._coefficients()
        if max(abs(a[0] - w) for a, w in zip(series, self.datum.omega)) > 1e-8:
            raise QuadratureError("band masses do not match the period data")
        return series

    def density(self, x) -> np.ndarray:
        """|R(x)| / (pi sqrt|D(x)|) for x strictly inside the bands, taken at
        x' = (x - mid) / half on E mapped onto [-1, 1] and divided by half."""
        xs = np.atleast_1d(np.asarray(x, dtype=float))
        ends = np.asarray(self.E.endpoints)
        k = np.searchsorted(ends, xs, side="right")
        inside = (k % 2 == 1) & (xs > ends[k - 1])
        xx = (xs[inside] - self._mid) / self._half
        out = np.zeros_like(xs)
        q = np.exp(log_abs_sum(xx, self._z) - 0.5 * log_abs_sum(xx, self._e))
        out[inside] = q / np.pi / self._half
        return out if np.ndim(x) else float(out[0])

    # an entry of BandDensity's own, so a tracer can wrap it on this class
    cdf = ThetaDensity.cdf


@lru_cache(maxsize=16)
def _cached_density(datum: AbelDatum) -> BandDensity:
    return BandDensity(datum)
