"""Quadrature helpers and angle-space densities on interval unions.

The recurring integral here is  int_u^v f(x) / sqrt((x-u)(v-x)) dx  with f
smooth: substituting x = m + rho*cos(theta) (m midpoint, rho half-width)
turns the weight into d(theta), so n-point Chebyshev nodes

    x_k = m + rho*cos((2k-1)pi/(2n)),    weight pi/n

integrate it with spectral accuracy.  Densities that blow up like an inverse
square root at band edges become smooth profiles q(theta), which is how
``ThetaDensity`` stores them; the 2-D logarithmic energy then has an exact
expansion per band,

    int int q(s) q(t) log|w(s)-w(t)| ds dt
        = m^2 log(rho/2) - 2 sum_{k>=1} a_k^2 / k,

where a_k are cosine coefficients of q, because
log|2 cos s - 2 cos t| = -2 sum_k cos(ks) cos(kt) / k.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

from .core import IntervalUnion, QuadratureError, _unit_map

__all__ = [
    "cheb_nodes",
    "gauss_legendre",
    "adaptive_double",
    "log_abs_sum",
    "EndpointSystem",
    "ThetaDensity",
    "uniform_density",
    "density_from_callable",
]

_GL_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    if n not in _GL_CACHE:
        _GL_CACHE[n] = np.polynomial.legendre.leggauss(n)
    return _GL_CACHE[n]


def cheb_nodes(n: int) -> np.ndarray:
    """cos((2k-1)pi/(2n)), k = 1..n, in (-1, 1)."""
    k = np.arange(1, n + 1)
    return np.cos((2 * k - 1) * np.pi / (2 * n))


def adaptive_double(
    eval_fn: Callable[[int], float],
    tol: float,
    n0: int = 32,
    nmax: int = 1 << 15,
    context: str = "integral",
):
    """Double the node count until two consecutive estimates agree.

    Returns (value, est_error, nodes_used); raises QuadratureError when nmax
    is exhausted without convergence.
    """
    prev = eval_fn(n0)
    n = n0
    while n < nmax:
        n *= 2
        cur = eval_fn(n)
        err = abs(cur - prev)
        if err <= tol * max(1.0, abs(cur)):
            return cur, err, n
        prev = cur
    raise QuadratureError(f"{context}: no convergence below {tol} with {nmax} nodes")


def log_abs_sum(x: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """sum_p log|x - p| for each entry of x (log-space product over pts)."""
    if len(pts) == 0:
        return np.zeros_like(np.asarray(x, dtype=float))
    d = np.abs(x[..., None] - pts)
    return np.sum(np.log(d), axis=-1)


class EndpointSystem:
    """Bookkeeping for integrals against 1/sqrt|D| with D = prod (x - e_i).

    ``ends`` are the sorted band endpoints a_0 < b_0 < ... < b_g.  On any band
    or gap (u, v), both endpoints are roots of D and the cofactor
    |D(x)/((x-u)(v-x))| is smooth and positive there; ``log_cofactor``
    evaluates its log by summing over the remaining roots.
    """

    def __init__(self, E: IntervalUnion):
        self.E = E
        self.ends = np.asarray(E.endpoints, dtype=float)
        self.n_bands = E.n_bands
        self.g = E.g

    def _skip(self, i: int, j: int) -> np.ndarray:
        keep = np.ones(len(self.ends), dtype=bool)
        keep[i] = keep[j] = False
        return self.ends[keep]

    def log_cofactor_band(self, j: int, x: np.ndarray) -> np.ndarray:
        """log of |D(x)| / ((x-a_j)(b_j-x)) on band j."""
        return log_abs_sum(x, self._skip(2 * j, 2 * j + 1))

    def band_profile(self, j: int, x: np.ndarray, z: np.ndarray) -> np.ndarray:
        """|R(x)| / sqrt(|D(x)| / ((x-a_j)(b_j-x))) on band j for the monic R
        with roots z: pi times the angle profile q_j of |R| / (pi sqrt|D|)."""
        return np.exp(log_abs_sum(x, z) - 0.5 * self.log_cofactor_band(j, x))

    def log_cofactor_gap(self, j: int, x: np.ndarray) -> np.ndarray:
        """log of D(x) / ((x-b_j)(a_{j+1}-x)) on gap j."""
        return log_abs_sum(x, self._skip(2 * j + 1, 2 * j + 2))

    def band_nodes(self, j: int, n: int) -> np.ndarray:
        mid, half = _unit_map(*self.E.bands[j])
        return mid + half * cheb_nodes(n)

    def gap_nodes(self, j: int, n: int) -> np.ndarray:
        mid, half = _unit_map(self.E.bands[j][1], self.E.bands[j + 1][0])
        return mid + half * cheb_nodes(n)


# ---------------------------------------------------------------------------
# densities in the angle variable
# ---------------------------------------------------------------------------


class ThetaDensity:
    """Density on an interval union stored per band in the angle variable.

    Band j is parameterized by x = m_j + rho_j cos(theta), theta in [0, pi],
    and carries mass q_j(theta) d(theta).  ``profiles[j]`` maps a theta array
    to q values; profiles should be smooth even when the x-space density has
    inverse-square-root edge blowups.
    """

    def __init__(
        self,
        E: IntervalUnion,
        profiles: Sequence[Callable[[np.ndarray], np.ndarray]],
        nsamples: int = 4096,
    ):
        if len(profiles) != E.n_bands:
            raise ValueError("one profile per band required")
        self.E = E
        self.profiles = list(profiles)
        self.n = int(nsamples)
        self._theta = (np.arange(self.n) + 0.5) * np.pi / self.n
        self._qs = [np.asarray(p(self._theta), dtype=float) for p in self.profiles]
        h = np.pi / self.n
        self._masses = np.array([h * q.sum() for q in self._qs])
        # cumulative mass C_j(theta) on the edge grid k*pi/n, k = 0..n
        self._cum = [np.concatenate(([0.0], h * np.cumsum(q))) for q in self._qs]
        self._cos_cache: dict[int, np.ndarray] = {}

    # -- geometry ------------------------------------------------------------

    def _theta_of(self, j: int, x: float) -> float:
        m, rho = _unit_map(*self.E.bands[j])
        return float(np.arccos(np.clip((x - m) / rho, -1.0, 1.0)))

    # -- masses and distribution ---------------------------------------------

    @property
    def band_masses(self) -> np.ndarray:
        return self._masses.copy()

    @property
    def total_mass(self) -> float:
        return float(self._masses.sum())

    def density(self, x) -> np.ndarray:
        """Pointwise x-space density; 0 off the union, inf at band edges."""
        xs = np.atleast_1d(np.asarray(x, dtype=float))
        out = np.zeros_like(xs)
        for j, (u, v) in enumerate(self.E.bands):
            m, rho = _unit_map(u, v)
            inside = (xs >= u) & (xs <= v)
            if not np.any(inside):
                continue
            th = np.arccos(np.clip((xs[inside] - m) / rho, -1.0, 1.0))
            s = rho * np.sin(th)
            with np.errstate(divide="ignore"):
                out[inside] = self.profiles[j](th) / s
        return out if np.ndim(x) else float(out[0])

    def cdf(self, x) -> np.ndarray:
        xs = np.atleast_1d(np.asarray(x, dtype=float))
        out = np.zeros_like(xs)
        edges = np.linspace(0.0, np.pi, self.n + 1)
        left_mass = np.concatenate(([0.0], np.cumsum(self._masses)))
        for j, (u, v) in enumerate(self.E.bands):
            m, rho = _unit_map(u, v)
            sel = xs >= u
            below = xs >= v
            mid = sel & ~below
            out[below] = np.maximum(out[below], left_mass[j + 1])
            if np.any(mid):
                th = np.arccos(np.clip((xs[mid] - m) / rho, -1.0, 1.0))
                cth = np.interp(th, edges, self._cum[j])
                out[mid] = left_mass[j] + (self._masses[j] - cth)
        return out if np.ndim(x) else float(out[0])

    def quantile(self, p) -> np.ndarray:
        """Inverse CDF; gap plateaus resolve to the left band edge."""
        ps = np.atleast_1d(np.asarray(p, dtype=float))
        xs_all, fs_all = [], []
        offset = 0.0
        for j, (u, v) in enumerate(self.E.bands):
            m, rho = _unit_map(u, v)
            th = np.linspace(np.pi, 0.0, self.n + 1)
            xg = m + rho * np.cos(th)
            fg = offset + (self._masses[j] - np.interp(th, np.linspace(0, np.pi, self.n + 1), self._cum[j]))
            xs_all.append(xg)
            fs_all.append(fg)
            offset += self._masses[j]
        xs_cat = np.concatenate(xs_all)
        fs_cat = np.concatenate(fs_all)
        out = np.interp(ps * self.total_mass, fs_cat, xs_cat)
        return out if np.ndim(p) else float(out[0])

    # -- integrals -----------------------------------------------------------

    def integrate(self, fn: Callable[[np.ndarray], np.ndarray]) -> float:
        """int fn(x) dmu via the stored angle grids."""
        h = np.pi / self.n
        tot = 0.0
        for j in range(self.E.n_bands):
            m, rho = _unit_map(*self.E.bands[j])
            w = m + rho * np.cos(self._theta)
            tot += h * float(np.sum(np.asarray(fn(w)) * self._qs[j]))
        return tot

    def cos_coeffs(self, j: int, kmax: int | None = None) -> np.ndarray:
        """a_k = int_0^pi q_j(theta) cos(k theta) dtheta, k = 0..kmax."""
        if kmax is None:
            kmax = self.n // 2
        cached = self._cos_cache.get(j)
        if cached is not None and len(cached) >= kmax + 1:
            return cached[: kmax + 1]
        h = np.pi / self.n
        out = np.empty(kmax + 1)
        step = 256
        for k0 in range(0, kmax + 1, step):
            ks = np.arange(k0, min(kmax + 1, k0 + step))
            out[k0 : k0 + len(ks)] = np.cos(np.outer(ks, self._theta)) @ self._qs[j]
        out *= h
        self._cos_cache[j] = out
        return out

    def energy(self, cross_nodes: int = 1024) -> float:
        """I = double integral of log|x - y| against the density squared."""
        total = 0.0
        for j in range(self.E.n_bands):
            _, rho = _unit_map(*self.E.bands[j])
            a = self.cos_coeffs(j)
            k = np.arange(1, len(a))
            total += self._masses[j] ** 2 * math.log(rho / 2.0) - 2.0 * float(
                np.sum(a[1:] ** 2 / k)
            )
        nb = self.E.n_bands
        if nb > 1:
            # cross terms have analytic integrands, so Gauss-Legendre in
            # theta converges geometrically
            nc = min(cross_nodes, self.n)
            t01, w01 = gauss_legendre(nc)
            th = (t01 + 1.0) * (np.pi / 2)
            wq = w01 * (np.pi / 2)
            ws, qs = [], []
            for j in range(nb):
                m, rho = _unit_map(*self.E.bands[j])
                ws.append(m + rho * np.cos(th))
                qs.append(np.asarray(self.profiles[j](th), dtype=float) * wq)
            for i in range(nb):
                for j in range(i + 1, nb):
                    kern = np.log(np.abs(ws[i][:, None] - ws[j][None, :]))
                    total += 2.0 * float(qs[i] @ kern @ qs[j])
        return total

    def potential(self, z, tol: float = 1e-11) -> float:
        """p(z) = int log|w - z| dmu(w).

        Real z inside a band uses the exact cosine series for that band's
        log kernel; every other band (and any exterior z) integrates a smooth
        function of theta with adaptive node doubling.
        """
        zc = complex(z)
        total = 0.0
        for j, (u, v) in enumerate(self.E.bands):
            m, rho = _unit_map(u, v)
            if zc.imag == 0.0 and u <= zc.real <= v:
                thz = self._theta_of(j, zc.real)
                a = self.cos_coeffs(j)
                k = np.arange(1, len(a))
                total += self._masses[j] * math.log(rho / 2.0) - 2.0 * float(
                    np.sum(a[1:] / k * np.cos(k * thz))
                )
                continue

            prof = self.profiles[j]

            def one(nn: int, _m=m, _rho=rho, _prof=prof) -> float:
                t01, w01 = gauss_legendre(nn)
                t = (t01 + 1.0) * (np.pi / 2)
                w = _m + _rho * np.cos(t)
                return float(
                    np.pi / 2 * np.sum(w01 * _prof(t) * np.log(np.abs(w - zc)))
                )

            val, _, _ = adaptive_double(one, tol, n0=64, nmax=1 << 13, context="potential")
            total += val
        return total


def uniform_density(E: IntervalUnion, nsamples: int = 4096) -> ThetaDensity:
    """Unit-mass uniform density on the union (dx / total length)."""
    L = E.total_length

    def make(j: int):
        _, rho = _unit_map(*E.bands[j])

        def q(theta: np.ndarray) -> np.ndarray:
            return rho * np.sin(theta) / L

        return q

    return ThetaDensity(E, [make(j) for j in range(E.n_bands)], nsamples)


def density_from_callable(
    E: IntervalUnion,
    fn: Callable[[np.ndarray], np.ndarray],
    nsamples: int = 4096,
) -> ThetaDensity:
    """Wrap a pointwise x-space density fn(x) as a ThetaDensity."""

    def make(j: int):
        m, rho = _unit_map(*E.bands[j])

        def q(theta: np.ndarray) -> np.ndarray:
            w = m + rho * np.cos(theta)
            return np.asarray(fn(w), dtype=float) * rho * np.sin(theta)

        return q

    return ThetaDensity(E, [make(j) for j in range(E.n_bands)], nsamples)
