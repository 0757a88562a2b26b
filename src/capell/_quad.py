"""Quadrature helpers and angle-space densities on interval unions.

The recurring integral here is  int_u^v f(x) / sqrt((x-u)(v-x)) dx  with f
smooth: substituting x = m + rho*cos(theta) (m midpoint, rho half-width)
turns the weight into d(theta), and n nodes uniform in theta integrate it
with spectral accuracy, at a rate set by f's nearest singularity.  A branch
point at distance d beyond an end sits at imaginary theta ~ sqrt(2d/rho),
so ``graded_nodes`` takes theta = mu sinh(u) from each end with
Gauss-Legendre in u.

Densities that blow up like an inverse square root at band edges become
smooth profiles q(theta) d(theta) in that angle, and ``ThetaDensity`` holds
each band by the cosine series of its profile,

    q(theta) = (a_0 + 2 sum_{k>=1} a_k cos(k theta)) / pi,
    a_k = int_0^pi q(theta) cos(k theta) d(theta),

with the series' length read off the decay of the a_k (Trefethen,
Approximation Theory and Approximation Practice, SIAM 2013).  Everything is
read off the series: the band's mass is a_0, the mass of [u, m + rho cos t]
is (a_0 (pi - t) - 2 sum_k a_k sin(k t) / k) / pi, and since
log|2 cos t - zeta - 1/zeta| = log|zeta| - 2 Re sum_k cos(k t) zeta^-k / k
for |zeta| >= 1, the band's potential at any complex z is

    int log|w - z| q dt = a_0 log(rho |zeta| / 2) - 2 Re sum_k a_k zeta^-k / k,
    (zeta + 1/zeta) / 2 = (z - m) / rho,

on the band (|zeta| = 1) and off it alike.  The energy is that potential
integrated against the density.
"""

from __future__ import annotations

import math
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from .core import IntervalUnion, QuadratureError, _unit_map

__all__ = [
    "gauss_legendre",
    "graded_nodes",
    "adaptive_double",
    "log_abs_sum",
    "ThetaDensity",
    "uniform_density",
]

_GL_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    if n not in _GL_CACHE:
        _GL_CACHE[n] = np.polynomial.legendre.leggauss(n)
    return _GL_CACHE[n]


def graded_nodes(lo, hi, d_lo, d_hi, n: int):
    """n nodes on each interval [lo_i, hi_i] for the weight 1/sqrt((x-lo)(hi-x))
    and the logs of their weights, both (len(lo), n): x = mid + half cos(theta),
    and on each half theta = mu sinh(u) from its end (Johnston-Elliott), n/2
    Gauss-Legendre nodes in u, mu = sqrt(2 min(d/half, 1)) for d (d_lo, d_hi)
    the distance from that end to the nearest branch point outside."""
    mid, half = 0.5 * lo + 0.5 * hi, 0.5 * hi - 0.5 * lo
    t, w = gauss_legendre(n // 2)
    mu = np.sqrt(2.0 * np.minimum(np.stack([d_hi, d_lo], axis=-1) / half[:, None], 1.0))[..., None]
    U = np.arcsinh(0.5 * np.pi / mu)
    u = 0.5 * U * (t + 1.0)
    c = np.cos(mu * np.sinh(u)) * np.array([[1.0], [-1.0]])
    x = (mid[:, None, None] + half[:, None, None] * c).reshape(len(lo), n)
    return x, np.log(0.5 * U * w * mu * np.cosh(u)).reshape(len(lo), n)


def adaptive_double(
    eval_fn: Callable[[int], float],
    tol: float,
    n0: int = 32,
    nmax: int = 1 << 15,
    context: str = "integral",
):
    """Double the node count until two consecutive estimates agree, entry
    by entry for an array, relative to max(1, max|estimate|).

    Returns (value, est_error, nodes_used); raises QuadratureError when nmax
    is exhausted without convergence.
    """
    prev = eval_fn(n0)
    n = n0
    while n < nmax:
        n *= 2
        cur = eval_fn(n)
        err = float(np.abs(cur - prev).max())
        if err <= tol * max(1.0, float(np.abs(cur).max())):
            return cur, err, n
        prev = cur
    raise QuadratureError(f"{context}: no convergence below {tol} with {nmax} nodes")


def log_abs_sum(x: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """sum_p log|x - p| for each entry of x (log-space product over pts)."""
    if len(pts) == 0:
        return np.zeros_like(np.asarray(x, dtype=float))
    d = x[..., None] - pts
    np.abs(d, out=d)
    return np.sum(np.log(d, out=d), axis=-1)


# ---------------------------------------------------------------------------
# densities in the angle variable
# ---------------------------------------------------------------------------

_NMAX = 4096  # the most angles a profile is sampled on


def _midpoints(n: int) -> np.ndarray:
    return (np.arange(n) + 0.5) * (np.pi / n)


def _cosine_series(Q: np.ndarray) -> np.ndarray:
    """a_k = (pi/n) sum_i Q[:, i] cos(k theta_i), k < n, for rows Q of samples at
    the n midpoint angles theta_i, in blocks of 64 k's by cos((k0 + k) t) =
    cos(k0 t) cos(k t) - sin(k0 t) sin(k t): no n x n table, no recurrence error."""
    n = Q.shape[1]
    th = _midpoints(n)
    kt = np.outer(np.arange(min(n, 64)), th)
    C, S = np.cos(kt), np.sin(kt)
    A = np.empty_like(Q)
    for k0 in range(0, n, 64):
        A[:, k0:k0 + 64] = (Q * np.cos(k0 * th)) @ C.T - (Q * np.sin(k0 * th)) @ S.T
    return A * (np.pi / n)


def _power_sum(c: np.ndarray, w: np.ndarray) -> np.ndarray:
    """sum_k c_k w^k at each w: Horner's rule on blocks of b coefficients,
    each block one product with the table w^0 .. w^(b-1), b as large as keeps
    that table within 2^16 entries (64 at most)."""
    b = int(np.clip((1 << 16) // max(len(w), 1), 1, 64))
    V = w[:, None] ** np.arange(b)
    y = np.zeros(len(w), dtype=complex)
    for blk in np.concatenate([c, np.zeros(-len(c) % b)]).reshape(-1, b)[::-1]:
        y = y * (V[:, -1] * w) + V @ blk
    return y


def _profile(a: np.ndarray, th: np.ndarray) -> np.ndarray:
    """q(theta) = (a_0 + 2 sum_k a_k cos(k theta)) / pi, from the series a."""
    return (2.0 * _power_sum(a, np.exp(1j * th)).real - a[0]) / np.pi


def _over_k(a: np.ndarray) -> np.ndarray:
    """(0, a_1 / 1, a_2 / 2, ...): the coefficients of the CDF and the potential."""
    return np.concatenate(([0.0], a[1:] / np.arange(1.0, len(a))))


class ThetaDensity:
    """Density on an interval union stored per band in the angle variable.

    Band j is parameterized by x = m_j + rho_j cos(theta), theta in [0, pi],
    and carries mass q_j(theta) d(theta).  ``profiles[j]`` maps a theta array
    to q values; profiles should be smooth even when the x-space density has
    inverse-square-root edge blowups.  On first use of a mass, the CDF, the
    potential or an integral, each profile becomes its cosine series (see the
    module docstring), from q_j on n midpoint angles: n doubles from 64 until
    every |a_k| with k >= n/4 is below 1e-13 a_0, or to 4096.  A profile with
    no singularity near [0, pi] stops at 64 or 128, a close band takes more,
    and a kink at an end, as sin(theta) has, runs to 4096 and is O(n^-2) off.
    """

    def __init__(self, E: IntervalUnion, profiles: Sequence[Callable[[np.ndarray], np.ndarray]]):
        if len(profiles) != E.n_bands:
            raise ValueError("one profile per band required")
        self.E = E
        self.profiles = list(profiles)

    def _coefficients(self) -> list[np.ndarray]:
        """Each band's series a_0, a_1, ..., by the stopping rule above."""
        out, todo, n = {}, list(range(self.E.n_bands)), 64
        while todo:
            th = _midpoints(n)
            A = _cosine_series(np.array([self.profiles[j](th) for j in todo], dtype=float))
            done = (np.abs(A[:, n // 4:]).max(axis=1) <= 1e-13 * A[:, 0]) | (n >= _NMAX)
            out.update((j, a) for j, a, ok in zip(todo, A, done) if ok)
            todo = [j for j, ok in zip(todo, done) if not ok]
            n *= 2
        return [out[j] for j in range(self.E.n_bands)]

    _series = cached_property(lambda self: self._coefficients())  # on first use

    # -- masses and distribution ---------------------------------------------

    @property
    def band_masses(self) -> np.ndarray:
        return np.array([a[0] for a in self._series])

    def _mass_above(self, j: int, th: np.ndarray) -> np.ndarray:
        """Band j's mass at angles above th, i.e. on [u_j, m_j + rho_j cos th]."""
        a = self._series[j]
        s = _power_sum(_over_k(a), np.exp(1j * th)).imag
        return (a[0] * (np.pi - th) - 2.0 * s) / np.pi

    def cdf(self, x) -> np.ndarray:
        xs = np.atleast_1d(np.asarray(x, dtype=float))
        left = np.concatenate(([0.0], np.cumsum(self.band_masses)))
        k = np.searchsorted(self.E.endpoints, xs, side="right")
        out = left[k // 2]
        for j, (u, v) in enumerate(self.E.bands):
            inside = k == 2 * j + 1
            if np.any(inside):
                m, rho = _unit_map(u, v)
                th = np.arccos(np.clip((xs[inside] - m) / rho, -1.0, 1.0))
                out[inside] += self._mass_above(j, th)
        return out if np.ndim(x) else float(out[0])

    # -- integrals -----------------------------------------------------------

    def integrate(self, fn: Callable[[np.ndarray], np.ndarray]) -> float:
        """int fn(x) dmu by the midpoint rule on the n angles of each band's
        series, weighted by its values there; fn is called once, on them all."""
        xs, ws = [], []
        for (u, v), a in zip(self.E.bands, self._series):
            m, rho = _unit_map(u, v)
            th = _midpoints(len(a))
            xs.append(m + rho * np.cos(th))
            ws.append(np.pi / len(th) * _profile(a, th))
        return float(np.asarray(fn(np.concatenate(xs))) @ np.concatenate(ws))

    def potential(self, z) -> np.ndarray:
        """p(z) = int log|w - z| dmu(w) at real or complex z, a scalar or an
        array, by the series formula of the module docstring."""
        zs = np.atleast_1d(np.asarray(z, dtype=complex))
        out = np.zeros(zs.shape)
        for (u, v), a in zip(self.E.bands, self._series):
            m, rho = _unit_map(u, v)
            s = (0.5 * zs - 0.5 * m) / (0.5 * rho)  # (z - m) / rho, formed without overflow
            zeta = s + np.sqrt(s - 1.0) * np.sqrt(s + 1.0)
            out += a[0] * (math.log(0.5 * rho) + np.log(np.abs(zeta)))
            # |a_k / k| <= a_0, so where |1/zeta| <= 1/2 the terms past k = 56
            # add less than 2^-55 a_0
            w, b = 1.0 / zeta, _over_k(a)
            near = np.abs(w) > 0.5
            out[near] -= 2.0 * _power_sum(b, w[near]).real
            out[~near] -= 2.0 * _power_sum(b[:56], w[~near]).real
        return out if np.ndim(z) else float(out[0])

    def energy(self) -> float:
        """I = double integral of log|x - y| against the density squared."""
        value = self.integrate(self.potential)
        if not math.isfinite(value):
            raise QuadratureError(f"energy: the integral of the potential is {value}")
        return value


def uniform_density(E: IntervalUnion) -> ThetaDensity:
    """Unit-mass uniform density dx / |E|.  Band j's profile is
    w_j sin(theta) / 2 with w_j = rho_j / sum(rho), so |E| is never formed and
    cannot overflow.  Its cosine series, a_k = w_j / (1 - k^2) for even k and
    0 for odd k, is written down to 4096 terms: sampled, the kink of
    |sin(theta)| at the band's ends would leave a_0 off by O(n^-2)."""
    rho = np.array([_unit_map(u, v)[1] for u, v in E.bands])
    w = rho / rho.sum()
    mu = ThetaDensity(E, [lambda theta, wj=wj: 0.5 * wj * np.sin(theta) for wj in w])
    k = np.arange(0.0, _NMAX, 2.0)
    a = np.zeros(_NMAX)
    a[::2] = 1.0 / (1.0 - k * k)
    mu._series = [wj * a for wj in w]
    return mu

