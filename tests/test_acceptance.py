"""End-to-end acceptance checks, one per shipped guarantee.

Each test prints a single PASS/FAIL line (run with -s to see them all) and
then asserts, so a red run still shows which guarantee broke and by how much.
"""

import math
import time
from fractions import Fraction

import numpy as np
from numpy.polynomial import Polynomial

from capell.abel import (
    BandDensity,
    abel_capacity,
    resultant_positivity,
    solve_R,
)
from capell.capacity import (
    capacity,
    chebyshev_constant,
    fekete_diameter,
    pullback_density,
)
from capell.core import ExactPoly, make_interval_union
from capell.pellabel import (
    PellAbelDatum,
    certify_structure,
    construct_pa_polynomial,
    rationalize,
)
from capell.robinson import (
    convergence_report,
    correction_Cn,
    generate,
    generate_at,
    make_instance,
    preset_x2m6,
    root_measure_from_certificate,
)
from capell.weil import CircleSet, pushforward_check, support_capacity_bound, weil_lift
from capell._quad import uniform_density

I22 = make_interval_union([(-2, 2)])
PAIR = make_interval_union([(-math.sqrt(8), -math.sqrt(2)), (math.sqrt(2), math.sqrt(8))])
X = ExactPoly.x()


def report(num, label, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} {num:2d}. {label}  [{detail}]")
    assert ok, f"{label}: {detail}"


def cantor_union(level):
    bands = [(0.0, 1.0)]
    for _ in range(level):
        bands = [p for (a, b) in bands
                 for p in ((a, a + (b - a) / 3), (b - (b - a) / 3, b))]
    return make_interval_union(bands)


def test_01_interval_capacity_three_routes():
    t0 = time.perf_counter()
    closed = capacity(I22, method="closed_form").value
    abel = capacity(I22, method="abel_integral").value
    cheb = capacity(I22, method="chebyshev", n=64).value
    dt = time.perf_counter() - t0
    ok = (closed == 1.0
          and abs(abel - 1.0) <= 1e-8
          and abs(cheb - 1.0) <= 1e-3
          and dt < 1.0)
    report(1, "cap([-2,2]) = 1 by closed form / integral / minimax", ok,
           f"closed={closed} abel_err={abel - 1:.1e} cheb_err={cheb - 1:.1e} {dt:.2f}s")


def test_02_symmetric_pair_three_routes():
    t0 = time.perf_counter()
    closed = capacity(PAIR, method="closed_form").value
    abel = capacity(PAIR, method="abel_integral").value
    pa = construct_pa_polynomial(solve_R(PAIR), 2)
    pell = (float(pa.M) / 2.0) ** (1.0 / pa.r)
    dt = time.perf_counter() - t0
    vals = (closed, abel, pell)
    spread = max(vals) - min(vals)
    ok = (abs(closed - 0.5 * math.sqrt(6)) <= 1e-12
          and spread <= 1e-7
          and dt < 1.0)
    report(2, "pair capacity: closed / integral / (M/2)^(1/r) agree", ok,
           f"values={vals} spread={spread:.2e} {dt:.2f}s")


def test_03_cantor_capacity_window():
    t0 = time.perf_counter()
    caps = [abel_capacity(solve_R(cantor_union(lv))) for lv in range(1, 9)]
    dt = time.perf_counter() - t0
    ok = (0.2209 <= caps[-1] <= 0.2230
          and all(a > b for a, b in zip(caps, caps[1:]))
          and dt < 30.0)
    report(3, "Cantor prefixes: level-8 capacity in window, decreasing", ok,
           f"level8={caps[-1]:.6f} decreasing={all(a > b for a, b in zip(caps, caps[1:]))} {dt:.1f}s")


def test_04_uniform_energy_closed_form():
    oks, details = [], []
    for L in (1.0, math.exp(1.5), 6.0):
        t0 = time.perf_counter()
        e = uniform_density(make_interval_union([(0.0, L)])).energy()
        dt = time.perf_counter() - t0
        want = math.log(L) - 1.5
        oks.append(abs(e - want) <= 1e-4 and dt < 5.0)
        details.append(f"L={L:.3f}: err={e - want:.1e} {dt:.1f}s")
    e1 = uniform_density(make_interval_union([(0.0, 1.0)])).energy()
    e6 = uniform_density(make_interval_union([(0.0, 6.0)])).energy()
    oks.append(e1 < 0.0 < e6)
    report(4, "uniform [0,L] energy = log L - 3/2, sign flip at e^1.5",
           all(oks), "; ".join(details))


def test_05_arcsine_density_pointwise():
    mu = BandDensity(solve_R(I22))
    xs = np.linspace(-2.0, 2.0, 52)[1:-1]
    got = mu.density(xs)
    want = 1.0 / (math.pi * np.sqrt(4.0 - xs * xs))
    err = float(np.max(np.abs(got - want)))
    mass_err = abs(float(np.sum(mu.band_masses)) - 1.0)
    ok = err <= 1e-6 and mass_err <= 1e-8
    report(5, "equilibrium density of [-2,2] is the arcsine law", ok,
           f"max_err={err:.2e} mass_err={mass_err:.2e}")


def test_06_pell_synthesis_exact_identity():
    pa = construct_pa_polynomial(solve_R(PAIR), 2)
    close = (max(abs(c - r) for c, r in zip(pa.P.coef, (-5.0, 0.0, 1.0))) <= 1e-9
             and abs(float(pa.M) - 3.0) <= 1e-9
             and pa.Q.degree() == 0 and abs(pa.Q.coef[0] - 1.0) <= 1e-9)
    P = X * X - ExactPoly((Fraction(5),))
    D = (X * X - ExactPoly((Fraction(2),))) * (X * X - ExactPoly((Fraction(8),)))
    identity = (P * P - D) == ExactPoly((Fraction(9),))
    cert = certify_structure(pa)
    ok = close and identity and cert["pass"]
    report(6, "degree-2 synthesis recovers X^2-5, Q=1, M=3; identity exact", ok,
           f"float_close={close} identity={identity} certificate={cert['pass']}")


def test_07_integer_polynomials_converge():
    t0 = time.perf_counter()
    inst = preset_x2m6()
    mu_E = BandDensity(solve_R(inst.pa.E))
    seq, shape_ok = [], True
    ns = (2, 4, 8, 16, 32)
    for n in ns:
        P_prime, cert, table = generate_at(inst, n)
        shape_ok &= all(c.denominator == 1 for c in P_prime.coeffs)
        shape_ok &= P_prime.coeffs[-1] == 1
        shape_ok &= len(cert["isolating_intervals"]) == 2 * n
        seq.append(root_measure_from_certificate(inst, n, table, cert))
    ks = convergence_report(seq, mu_E)
    dt = time.perf_counter() - t0
    ok = (shape_ok
          and all(a > b for a, b in zip(ks, ks[1:]))
          and ks[ns.index(16)] < 0.05
          and dt < 20.0)
    report(7, "X^2-6 family: exact integer P'_n, certified roots, KS falls", ok,
           f"KS={['%.4f' % d for d in ks]} ks(16)={ks[3]:.4f} {dt:.1f}s")


def test_08_correction_machinery_bounds():
    pa = construct_pa_polynomial(solve_R(PAIR), 2)
    P_ex = rationalize(pa, Fraction(5, 2)).P
    exact = P_ex.coeffs == (Fraction(-5), Fraction(0), Fraction(1))
    # the certified exact polynomial with its own Pell constant M = 3
    inst = make_instance(PellAbelDatum.from_exact(P_ex, 3))
    _, cert, table = generate(inst, 3)
    n = cert["n"]
    C, P_prime = correction_Cn(inst, n)
    nonzero = any(c != 0 for c in C.coeffs)
    bounded = all(abs(c) <= Fraction(1, 2) for c in table.values())
    sup_ok = cert["correction_sup"] < cert["amplitude"]
    ok = (exact and inst.lam == Fraction(3, 2) and nonzero and bounded and sup_ok)
    report(8, "lam=3/2 correction: nonzero, |c| <= 1/2, sup below amplitude", ok,
           f"n={n} terms={cert['correction_terms']} "
           f"sup/amp={cert['correction_sup'] / cert['amplitude']:.3f}")


def test_09_circle_lifts_exact():
    lx = weil_lift(X, 2)
    lx1 = weil_lift(X - ExactPoly((Fraction(1),)), 2)
    exact = (lx.coeffs == (Fraction(2), Fraction(0), Fraction(1))
             and lx1.coeffs == (Fraction(2), Fraction(-1), Fraction(1)))
    moduli = []
    for lifted in (lx, lx1):
        zs = np.roots([float(c) for c in lifted.coeffs[::-1]])
        moduli.append(float(np.max(np.abs(np.abs(zs) - math.sqrt(2)))))
    push = (pushforward_check(lx, X, 2)
            and pushforward_check(lx1, X - ExactPoly((Fraction(1),)), 2))
    w = 2 * math.sqrt(2)
    cap, bound, satisfied = support_capacity_bound(
        CircleSet(2, make_interval_union([(-w, w)])))
    bound_ok = (abs(cap - math.sqrt(2)) <= 1e-10
                and abs(bound - 2**0.25) <= 1e-12 and satisfied)
    ok = exact and max(moduli) <= 1e-10 and push and bound_ok
    report(9, "Weil lifts at q=2 exact; moduli sqrt2; support bound holds", ok,
           f"moduli_err={max(moduli):.1e} cap={cap:.12f} bound={bound:.6f}")


def test_10_property_suites():
    # resultant positivity on random integer pairs
    rng = np.random.default_rng(23)
    hits, res_ok = 0, True
    for _ in range(200):
        f = ExactPoly.from_list([int(v) for v in rng.integers(-5, 6, size=4)] + [1])
        g = ExactPoly.from_list([int(v) for v in rng.integers(-5, 6, size=3)] + [1])
        val, res = resultant_positivity(f, g)
        if res != 0:
            hits += 1
            res_ok &= val >= 0.0
    shared_ok = True
    for k in range(-10, 10):
        h = X - ExactPoly((Fraction(k),))
        val, res = resultant_positivity(h * (X - ExactPoly((Fraction(k + 13),))),
                                        h * (X + ExactPoly((Fraction(k + 7),))))
        shared_ok &= val == float("-inf") and res == 0
    # preimage energy halves under a degree-2 monic map
    f2 = Polynomial([-2.0, 0.0, 1.0])
    mu = uniform_density(I22)
    nu = pullback_density(f2, mu)
    halving_err = abs(nu.energy() - mu.energy() / 2.0)
    # extremal-configuration diameters shrink with n
    ds = [fekete_diameter(I22, n) for n in range(2, 9)]
    fekete_ok = all(a >= b - 1e-12 for a, b in zip(ds, ds[1:]))
    ok = (hits >= 150 and res_ok and shared_ok
          and halving_err <= 2e-4 and fekete_ok)
    report(10, "resultants, preimage energy halving, diameter monotonicity", ok,
           f"coprime_hits={hits} halving_err={halving_err:.1e} "
           f"d_n=[{ds[0]:.4f}..{ds[-1]:.4f}]")


def test_11_remez_on_many_bands():
    # 32 bands at degree 256: with a Chebyshev series per band and its
    # companion eigenvalues for the critical points this took over 20 s
    t0 = time.perf_counter()
    t_n, lower = chebyshev_constant(cantor_union(5), 256)
    dt = time.perf_counter() - t0
    err = abs(t_n / 2.739804710052221e-167 - 1.0)
    ok = dt < 2.0 and err <= 1e-12 and 0.0 <= t_n - lower <= 1e-12 * t_n
    report(11, "Remez on 32 Cantor bands at n = 256 under 2 s", ok,
           f"t_n={t_n:.15e} rel_err={err:.1e} {dt:.2f}s")
