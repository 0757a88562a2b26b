"""Band equilibrium data for a union of real intervals.

For E with bands E_0..E_g and D the monic polynomial vanishing at the 2g+2
endpoints, there is a unique monic degree-g polynomial R whose integral
against 1/sqrt(D) vanishes over every gap.  R has one simple root per gap;
the equilibrium measure of E has density |R|/(pi sqrt|D|), the band masses
are omega_j = eta_j/pi with eta_j the band integrals of |R|/sqrt|D|, and

    v(E) = lim_{x->oo} ( log x - int_{b_g}^x R/sqrt(D) )

gives the capacity cap(E) = exp(v(E)).

The solver parameterizes R by its gap roots (one unknown per gap), which
stays well conditioned even with hundreds of bands, where a monomial-basis
linear solve would be hopeless.  All inverse-square-root integrals use the
Chebyshev substitution of ``_quad``; products over many roots/endpoints are
accumulated in log space.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial import Polynomial

from .core import (
    ExactPoly,
    IntervalUnion,
    QuadratureError,
    make_interval_union,
)
from ._quad import EndpointSystem, ThetaDensity, adaptive_double, gauss_legendre, log_abs_sum

__all__ = [
    "AbelDatum",
    "BandDensity",
    "gap_integral",
    "solve_R",
    "abel_capacity",
    "equilibrium_density",
    "equilibrium_potential",
    "resultant_positivity",
]


def _from_roots(roots) -> Polynomial:
    """The monic polynomial with these roots, multiplied out by ``np.poly``."""
    return Polynomial(np.atleast_1d(np.poly(np.asarray(roots, dtype=float)))[::-1])


@dataclass(frozen=True)
class AbelDatum:
    """Solved band data of E.  It holds only hashable fields, so it can key
    ``_cached_density``; D and R are built from their roots on demand."""

    E: IntervalUnion
    eta: tuple[float, ...]
    omega: tuple[float, ...]
    vE: float
    gap_roots: tuple[float, ...] = ()

    def __post_init__(self):
        if len(self.eta) != self.E.n_bands or len(self.omega) != self.E.n_bands:
            raise ValueError("need one eta/omega per band")

    @property
    def D(self) -> Polynomial:
        """The monic polynomial vanishing at the band endpoints."""
        return _from_roots(self.E.endpoints)

    @property
    def R(self) -> Polynomial:
        """The monic polynomial vanishing at the gap roots."""
        return _from_roots(self.gap_roots)


# ---------------------------------------------------------------------------
# the gap-root solver
# ---------------------------------------------------------------------------


class _GapSolver:
    """Newton iteration on the gap roots z (one per gap) of R.

    Residual F_i(z) = int over gap i of prod_j (x - z_j) / sqrt(D);
    the Jacobian entries are the same integrals with one factor removed.
    Everything is evaluated on shared Chebyshev node grids in log space.
    """

    def __init__(self, E: IntervalUnion):
        self.es = EndpointSystem(E)
        self.g = E.g
        self.scale = E.diameter

    def setup(self, n: int):
        # node grids and LOG cofactor weights; exponentials are only taken
        # after combining with the root products, with a per-row shift, so
        # nothing overflows even with hundreds of endpoints
        g = self.g
        X = np.empty((g, n))
        logbw = np.empty((g, n))
        for i in range(g):
            X[i] = self.es.gap_nodes(i, n)
            logbw[i] = -0.5 * self.es.log_cofactor_gap(i, X[i])
        return X, logbw

    @staticmethod
    def _logZ(X: np.ndarray, z: np.ndarray) -> np.ndarray:
        return np.log(np.abs(X[:, :, None] - z[None, None, :]))

    def _sigma(self, i: int) -> float:
        # sign of prod_{j != i} (x - z_j) on gap i: roots above contribute -1
        return -1.0 if (self.g - 1 - i) % 2 else 1.0

    def residuals(self, z, X, logbw, want_jac=False):
        g, n = X.shape
        h = np.pi / n
        logZ = self._logZ(X, z)
        rowT = logZ.sum(axis=2)
        F = np.empty(g)
        W = np.empty(g)
        J = np.empty((g, g)) if want_jac else None
        for i in range(g):
            lw = rowT[i] - logZ[i, :, i] + logbw[i]
            # center each row in log space: a common positive factor scales
            # F_i, W_i and the Jacobian row together, leaving the Newton step
            # and the normalized residual F/W unchanged while avoiding
            # under/overflow however extreme the root and endpoint products
            core = np.exp(lw - float(np.max(lw)))
            dxi = X[i] - z[i]
            sig = self._sigma(i)
            F[i] = h * sig * float(np.sum(dxi * core))
            W[i] = h * float(np.sum(np.abs(dxi) * core))
            if want_jac:
                s_k = np.where(np.arange(g) < i, 1.0, -1.0)
                J[i] = -h * sig * s_k * ((dxi * core) @ np.exp(-logZ[i]))
                J[i, i] = -h * sig * float(np.sum(core))
        return F, W, J

    def jacobi_warmup(self, z, X, logbw, iters=12):
        g, n = X.shape
        for _ in range(iters):
            logZ = self._logZ(X, z)
            rowT = logZ.sum(axis=2)
            znew = z.copy()
            for i in range(g):
                lw = rowT[i] - logZ[i, :, i] + logbw[i]
                Gw = np.exp(lw - float(np.max(lw)))
                znew[i] = float(np.sum(X[i] * Gw) / np.sum(Gw))
            z = znew
        return z

    def newton(self, z, X, logbw, tol=1e-13, iters=40):
        gaps = self.es.E.gaps
        cond = 0.0
        for it in range(iters):
            F, W, J = self.residuals(z, X, logbw, want_jac=True)
            if np.max(np.abs(F) / W) < tol:
                break
            if it == 0:
                cond = float(np.linalg.cond(J))
                if not np.isfinite(cond) or cond > 1e13:
                    raise QuadratureError(
                        f"gap-root system ill conditioned (cond ~ {cond:.2e})"
                    )
            step = np.linalg.solve(J, -F)
            for i, (u, v) in enumerate(gaps):
                pad = 1e-9 * (v - u)
                z[i] = float(np.clip(z[i] + step[i], u + pad, v - pad))
        F, W, _ = self.residuals(z, X, logbw)
        return z, np.max(np.abs(F) / W), cond

    def band_etas(self, z: np.ndarray, n: int) -> np.ndarray:
        nb = self.es.n_bands
        h = np.pi / n
        eta = np.empty(nb)
        for j in range(nb):
            x = self.es.band_nodes(j, n)
            eta[j] = h * float(np.sum(self.es.band_profile(j, x, z)))
        return eta


def _v_right(E: IntervalUnion, z: np.ndarray, tol: float = 5e-11) -> float:
    """log-capacity from the decay of log x - int_{b_g}^x R/sqrt(D)."""
    ends = np.asarray(E.endpoints)
    b_g = float(ends[-1])
    x0 = max(1.0, 2.0 * float(np.max(np.abs(ends))), b_g + 0.6 * E.diameter)

    def rd_log(x: np.ndarray) -> np.ndarray:
        # log of R(x)/sqrt(D(x)) for x > b_g (all factors positive)
        return log_abs_sum(x, z) - 0.5 * log_abs_sum(x, ends)

    S = math.sqrt(x0 - b_g)
    others = ends[:-1]

    def I1(n: int) -> float:
        t, w = gauss_legendre(n)
        s = 0.5 * S * (t + 1.0)
        x = b_g + s * s
        lf = log_abs_sum(x, z) - 0.5 * log_abs_sum(x, others)
        return 0.5 * S * float(np.sum(w * 2.0 * np.exp(lf)))

    def I2(n: int) -> float:
        t, w = gauss_legendre(n)
        u = 0.5 * (t + 1.0)
        x = x0 / u
        f = (np.exp(rd_log(x)) - 1.0 / x) * (x0 / (u * u))
        return 0.5 * float(np.sum(w * f))

    v1, _, _ = adaptive_double(I1, tol, n0=64, nmax=1 << 13, context="capacity head integral")
    v2, _, _ = adaptive_double(I2, tol, n0=64, nmax=1 << 13, context="capacity tail integral")
    return math.log(x0) - v1 - v2


def solve_R(E: IntervalUnion) -> AbelDatum:
    """Solve the gap conditions for R and assemble the full datum."""
    g = E.g
    solver = _GapSolver(E)

    if g == 0:
        z = np.empty(0)
        resid = 0.0
    else:
        z = np.array([0.5 * (u + v) for u, v in E.gaps])
        n = 64
        while True:
            X, logbw = solver.setup(n)
            if n == 64:
                z = solver.jacobi_warmup(z, X, logbw)
            z, resid, _ = solver.newton(z, X, logbw)
            # re-check the solved roots on a finer grid before accepting
            X2, logbw2 = solver.setup(2 * n)
            F2, W2, _ = solver.residuals(z, X2, logbw2)
            if np.max(np.abs(F2) / W2) < 1e-10:
                break
            n *= 2
            if n > 1024:
                raise QuadratureError("gap conditions: no stable solution below 2048 nodes")

    n_eta = 128
    eta = solver.band_etas(z, n_eta)
    eta2 = solver.band_etas(z, 2 * n_eta)
    if np.max(np.abs(eta2 - eta)) > 1e-9 * math.pi:
        eta2 = solver.band_etas(z, 4 * n_eta)
    eta = eta2
    omega = eta / math.pi
    if abs(float(omega.sum()) - 1.0) > 1e-8:
        raise QuadratureError(f"band masses sum to {omega.sum()}, not 1")

    vE = _v_right(E, z)
    return AbelDatum(
        E=E,
        eta=tuple(float(x) for x in eta),
        omega=tuple(float(x) for x in omega),
        vE=float(vE),
        gap_roots=tuple(float(x) for x in z),
    )


def gap_integral(R: Polynomial, D: Polynomial, gap_index: int) -> float:
    """int over the gap_index-th gap (1-based) of R/sqrt(D), D rooted at the
    band endpoints."""
    rts = np.roots(D.coef[::-1])
    if np.max(np.abs(rts.imag)) > 1e-9 * max(1.0, np.max(np.abs(rts))):
        raise ValueError("D must have real roots (the band endpoints)")
    ends = np.sort(rts.real)
    if len(ends) % 2:
        raise ValueError("D must have even degree")
    E = make_interval_union([(ends[2 * j], ends[2 * j + 1]) for j in range(len(ends) // 2)])
    if not 1 <= gap_index <= E.g:
        raise ValueError(f"gap index must be in 1..{E.g}")
    es = EndpointSystem(E)
    i = gap_index - 1

    def one(n: int) -> float:
        x = es.gap_nodes(i, n)
        return np.pi / n * float(np.sum(R(x) * np.exp(-0.5 * es.log_cofactor_gap(i, x))))

    val, _, _ = adaptive_double(one, 1e-11, n0=32, context="gap integral")
    return val


def abel_capacity(datum: AbelDatum) -> float:
    """cap(E) = e^{v(E)}, with the same limit recomputed from the left as a
    consistency check."""
    # solve_R stores _v_right of its own roots as vE
    v_right = datum.vE
    v_left = _v_right(datum.E.reflected(), np.sort(-np.asarray(datum.gap_roots)))
    if abs(v_right - v_left) > 1e-7:
        raise QuadratureError(
            f"two-sided capacity limits disagree: {v_right} vs {v_left}"
        )
    return math.exp(0.5 * (v_right + v_left))


# ---------------------------------------------------------------------------
# equilibrium density, potential
# ---------------------------------------------------------------------------


class BandDensity:
    """Equilibrium density |R|/(pi sqrt|D|) with per-band cumulative tables."""

    def __init__(self, datum: AbelDatum, nsamples: int | None = None):
        self.datum = datum
        E = datum.E
        if nsamples is None:
            nsamples = 4096 if E.n_bands <= 16 else (1024 if E.n_bands <= 64 else 256)
        es = EndpointSystem(E)
        z = np.asarray(datum.gap_roots)

        def make(j: int):
            u, v = E.bands[j]
            m, rho = 0.5 * (u + v), 0.5 * (v - u)
            return lambda theta: es.band_profile(j, m + rho * np.cos(theta), z) / np.pi

        self._theta = ThetaDensity(E, [make(j) for j in range(E.n_bands)], nsamples)
        if np.max(np.abs(self._theta.band_masses - np.asarray(datum.omega))) > 1e-8:
            raise QuadratureError("band masses do not match the period data")
        self._es = es
        self._z = z

    @property
    def E(self) -> IntervalUnion:
        return self.datum.E

    @property
    def band_masses(self) -> np.ndarray:
        return self._theta.band_masses

    @property
    def total_mass(self) -> float:
        return self._theta.total_mass

    def density(self, x) -> np.ndarray:
        """|R(x)| / (pi sqrt|D(x)|) for x strictly inside the bands."""
        xs = np.atleast_1d(np.asarray(x, dtype=float))
        out = np.zeros_like(xs)
        ends = self._es.ends
        for j, (u, v) in enumerate(self.E.bands):
            sel = (xs > u) & (xs < v)
            if not np.any(sel):
                continue
            xx = xs[sel]
            out[sel] = np.exp(log_abs_sum(xx, self._z) - 0.5 * log_abs_sum(xx, ends)) / np.pi
        return out if np.ndim(x) else float(out[0])

    def cdf(self, x):
        return self._theta.cdf(x)

    def quantile(self, p):
        return self._theta.quantile(p)

    def energy(self) -> float:
        return self._theta.energy()

    def potential(self, z) -> float:
        return self._theta.potential(z)

    def integrate(self, fn) -> float:
        return self._theta.integrate(fn)


def equilibrium_density(datum: AbelDatum, nsamples: int | None = None) -> BandDensity:
    return BandDensity(datum, nsamples)


@lru_cache(maxsize=16)
def _cached_density(datum: AbelDatum) -> BandDensity:
    return BandDensity(datum)


def equilibrium_potential(datum: AbelDatum, z) -> float:
    """p(z) = int log|w - z| against the equilibrium density."""
    return _cached_density(datum).potential(z)


# ---------------------------------------------------------------------------
# exact resultant positivity
# ---------------------------------------------------------------------------


def resultant_positivity(P: ExactPoly, Q: ExactPoly):
    """((1/deg P) log|Res(P, Q)|, Res) for integer P (monic) and Q.

    The value is -inf exactly when the resultant vanishes (shared root) and
    is >= 0 otherwise, |Res| being a positive integer.
    """
    if not (P.is_integer and Q.is_integer):
        raise ValueError("integer coefficients required")
    if P.degree < 1 or P.coeffs[-1] != 1:
        raise ValueError("P must be monic and nonconstant")
    if Q.degree < 0:
        raise ValueError("Q must be nonzero")
    res = P.resultant(Q)
    if res == 0:
        return float("-inf"), res
    a = abs(res)
    # big-int logs: never round through float
    val = (math.log(a.numerator) - math.log(a.denominator)) / P.degree
    return float(val), res
