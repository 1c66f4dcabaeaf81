#!/usr/bin/env python3
"""Generate frozen reference values for the test suite.

Everything here is computed with mpmath at 50-digit working precision,
using a self-contained series/Wronskian solver that shares no code with
the package under test:

* Frobenius solutions of the four second-order normal forms are built
  from scratch by polynomial arithmetic (multiply the equation by
  z^2 (z-1)^2 or z^2 (z-1)^2 (z-t)^2, Taylor-shift to the expansion
  point, run the one-step-at-a-time coefficient recurrence).
* Connection matrices come from Wronskians of these solutions evaluated
  at z = 1/2.  Internal checks: indicial roots, self-Wronskians
  2*theta0 and -2*theta1, det C = -theta0/theta1, and reduction to the
  pure gamma-function formula when the coupling vanishes.
* The power-series coefficients c_n of log a_infinity are extracted by
  a discrete contour integral (trapezoid rule on a circle of radius 0.06,
  or 0.004 for the wide CHE spec, in the coupling plane) from the
  Wronskian-derived matrices, and cross-checked against the closed
  polygamma forms where those exist.

Output is written to tests/oracles.py.  Do not edit that file by hand;
re-run this script instead.
"""

import sys
import time

from mpmath import mp, mpf, mpc, fabs

mp.dps = 50

H = mpf(1) / 2
Z_EVAL = mpf(1) / 2  # interior point where Wronskians are evaluated


# ----------------------------------------------------------------------
# polynomial helpers (coefficient lists, ascending powers)

def padd(a, b):
    n = max(len(a), len(b))
    out = []
    for i in range(n):
        s = mpf(0)
        if i < len(a):
            s += a[i]
        if i < len(b):
            s += b[i]
        out.append(s)
    return out


def pmul(a, b):
    out = [mpf(0)] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return out


def pscale(a, s):
    return [ai * s for ai in a]


def pshift(a, h):
    """Coefficients of p(h + w) as a polynomial in w (synthetic Horner)."""
    out = [mpf(0)]
    for c in reversed(a):
        out = padd(pmul(out, [h, mpf(1)]), [c])
    return out


# ----------------------------------------------------------------------
# normal forms:  psi'' + P(z) psi = 0, multiplied through by D(z) so that
# D psi'' + Q psi = 0 with D, Q polynomials.

def family_DQ(family, prm):
    th0 = prm["theta0"]
    th1 = prm["theta1"]
    d0 = mpf(1) / 4 - th0 ** 2
    d1 = mpf(1) / 4 - th1 ** 2
    z = [mpf(0), mpf(1)]
    zm1 = [mpf(-1), mpf(1)]
    z2 = pmul(z, z)
    zm12 = pmul(zm1, zm1)
    zzm1 = pmul(z, zm1)
    if family == "HYP":
        thi = prm["theta_inf_hyp"]
        D = pmul(z2, zm12)
        Q = padd(padd(pscale(zm12, d0), pscale(z2, d1)),
                 pscale(zzm1, th0 ** 2 + th1 ** 2 - thi ** 2 - mpf(1) / 4))
        return D, Q
    if family == "RCHE":
        om = prm["omega"]
        lam = prm["lam"]
        D = pmul(z2, zm12)
        Q = padd(padd(pscale(zm12, d0), pscale(z2, d1)),
                 pscale(zzm1, th0 ** 2 + th1 ** 2 - om ** 2 - mpf(1) / 4))
        Q = padd(Q, pscale(pmul(z, zzm1), -lam))
        return D, Q
    if family == "CHE":
        om = prm["omega"]
        lam = prm["lam"]
        ths = prm["theta_star"]
        D = pmul(z2, zm12)
        Q = padd(padd(pscale(zm12, d0), pscale(z2, d1)),
                 pscale(zzm1, th0 ** 2 + th1 ** 2 - om ** 2 - mpf(1) / 4))
        Q = padd(Q, pscale(D, -lam ** 2 / 4))
        Q = padd(Q, pscale(pmul(z, zm12), -lam * ths))
        return D, Q
    if family == "HE":
        om = prm["omega"]
        lam = prm["lam"]
        tht = prm["theta_t"]
        thi = prm["theta_inf"]
        t = 1 / lam
        zmt = [-t, mpf(1)]
        zmt2 = pmul(zmt, zmt)
        dt = mpf(1) / 4 - tht ** 2
        D = pmul(pmul(z2, zm12), zmt2)
        Q = padd(pscale(pmul(zm12, zmt2), d0), pscale(pmul(z2, zmt2), d1))
        Q = padd(Q, pscale(pmul(z2, zm12), dt))
        Q = padd(Q, pscale(pmul(zzm1, zmt2),
                           th0 ** 2 + th1 ** 2 + tht ** 2 - thi ** 2 - H))
        Q = padd(Q, pscale(pmul(zzm1, zmt),
                           (t - 1) * (om ** 2 + tht ** 2 - thi ** 2 - mpf(1) / 4)))
        return D, Q
    raise ValueError(family)


def frobenius_coeffs(D, Q, p0, rho, K):
    """Coefficients c_0..c_K of the local series around z = p0, c_0 = 1."""
    Dw = pshift(D, p0)
    Qw = pshift(Q, p0)
    scale = max(fabs(c) for c in Dw)
    assert fabs(Dw[0]) < scale * mpf(10) ** (-40), "p0 not a double root"
    assert fabs(Dw[1]) < scale * mpf(10) ** (-40), "p0 not a double root"
    E = Dw[2:]
    ind = E[0] * rho * (rho - 1) + Qw[0]
    assert fabs(ind) < scale * mpf(10) ** (-35), f"indicial violated: {ind}"
    deg = max(len(E), len(Qw))
    c = [mpc(1)]
    for n in range(1, K + 1):
        s = mpc(0)
        for j in range(1, min(n, deg - 1) + 1):
            term = mpc(0)
            if j < len(E):
                term += E[j] * (rho + n - j) * (rho + n - j - 1)
            if j < len(Qw):
                term += Qw[j]
            s += term * c[n - j]
        den = E[0] * (rho + n) * (rho + n - 1) + Qw[0]
        c.append(-s / den)
    return c


def eval_solution(point, rho, c, z):
    """(psi, psi') at z for the normalized Frobenius solution."""
    if point == 0:
        w = z
    else:
        w = z - 1
    S = mpc(0)
    dS = mpc(0)
    for k in range(len(c) - 1, 0, -1):
        S = S * w + c[k]
        dS = dS * w + k * c[k]
    S = S * w + c[0]
    if point == 0:
        psi = z ** rho * S
        dpsi = z ** (rho - 1) * (rho * S + z * dS)
    else:
        om = 1 - z
        psi = om ** rho * S
        dpsi = -rho * om ** (rho - 1) * S + om ** rho * dS
    return psi, dpsi


def connection_matrix(family, prm, K):
    """2x2 connection matrix from Wronskians at z = 1/2, with checks."""
    th0 = prm["theta0"]
    th1 = prm["theta1"]
    D, Q = family_DQ(family, prm)
    sol = {}
    for point, th in ((0, th0), (1, th1)):
        for sgn, rho in (("+", H - th), ("-", H + th)):
            c = frobenius_coeffs(D, Q, mpf(point), rho, K)
            sol[(point, sgn)] = eval_solution(point, rho, c, Z_EVAL)

    def W(a, b):
        return a[0] * b[1] - a[1] * b[0]

    w00 = W(sol[(0, "+")], sol[(0, "-")])
    w11 = W(sol[(1, "+")], sol[(1, "-")])
    assert fabs(w00 - 2 * th0) < mpf(10) ** (-38), f"W00 {w00}"
    assert fabs(w11 + 2 * th1) < mpf(10) ** (-38), f"W11 {w11}"
    C = {}
    for e in "+-":
        C[e + "+"] = -W(sol[(0, e)], sol[(1, "-")]) / (2 * th1)
        C[e + "-"] = W(sol[(0, e)], sol[(1, "+")]) / (2 * th1)
    det = C["++"] * C["--"] - C["+-"] * C["-+"]
    assert fabs(det + th0 / th1) < mpf(10) ** (-36), f"det {det}"
    return C


def fcl(th0, th1, x):
    return (mp.gamma(1 - 2 * th0) * mp.gamma(2 * th1)
            / mp.gamma(H + th1 - th0 + x) / mp.gamma(H + th1 - th0 - x))


# ----------------------------------------------------------------------
# closed forms

def c1_rche(th0, th1, om):
    A = H - th0 + th1
    pref = (mpf(1) / 4 - th0 ** 2 + th1 ** 2 - om ** 2) / (4 * om * (mpf(1) / 4 - om ** 2))
    return (-pref * (mp.digamma(A + om) - mp.digamma(A - om))
            + (th0 + th1) / (2 * (mpf(1) / 4 - om ** 2)))


def c2_rche(th0, th1, om):
    A = H - th0 + th1
    q = mpf(1) / 4 - om ** 2
    r = 1 - om ** 2
    num = mpf(1) / 4 - th0 ** 2 + th1 ** 2 - om ** 2
    t1 = -(num ** 2 / (32 * om ** 2 * q ** 2)) * (
        mp.polygamma(1, A + om) + mp.polygamma(1, A - om))
    rat = ((60 * om ** 4 - 35 * om ** 2 + 2) * (th0 ** 2 - th1 ** 2) ** 2
           / (256 * om ** 3 * q ** 3 * r)
           - 3 * (th0 ** 2 + th1 ** 2) / (32 * om * r * q)
           - (1 - 12 * om ** 2) * (th0 ** 2 - th1 ** 2) / (64 * om ** 3 * q ** 2)
           + (2 - 3 * om ** 2) / (64 * om ** 3 * r))
    t2 = rat * (mp.digamma(A + om) - mp.digamma(A - om))
    t3 = ((th0 + th1) / (4 * q ** 2)
          - 3 * (th0 - th1) / (32 * q * r)
          - (25 - 52 * om ** 2) * (th0 - th1) * (th0 + th1) ** 2 / (128 * q ** 3 * r))
    return t1 + t2 + t3


def sigma1_he(th0, th1, tht, thi, om):
    q = mpf(1) / 4 - om ** 2
    return ((q + th0 ** 2 - th1 ** 2) * (q + thi ** 2 - tht ** 2)
            / (4 * om * q))


def f1_he(th0, th1, tht, thi, om):
    A = H + th1 - th0
    q = mpf(1) / 4 - om ** 2
    s1 = sigma1_he(th0, th1, tht, thi, om)
    return (-s1 * (mp.digamma(A + om) - mp.digamma(A - om))
            - (th0 + th1) * (q + thi ** 2 - tht ** 2) / (2 * q))


# ----------------------------------------------------------------------
# running examples

RUN_RCHE = {"theta0": mpf("0.1"), "theta1": mpf("0.2"),
            "omega": mpf("0.3"), "lam": mpf("0.1")}
RUN_CHE = {"theta0": mpf("0.1"), "theta1": mpf("0.2"), "omega": mpf("0.3"),
           "theta_star": mpf("0.25"), "lam": mpf("0.1")}
RUN_HE = {"theta0": mpf("0.11"), "theta1": mpf("0.27"), "theta_t": mpf("0.33"),
          "theta_inf": mpf("0.41"), "omega": mpf("0.37"), "lam": mpf("0.1")}
# A CHE spec whose denominator roots reach past k = 8, so that the depth rule
# of the series routes takes more than its minimum of 64.
WIDE_CHE = {"theta0": mpf("0.1"), "theta1": mpf("0.2"), "omega": mpf("7.7"),
            "theta_star": mpf("0.15"), "lam": mpf("0")}
RUN_HYP = {"theta0": mpf("0.1"), "theta1": mpf("0.2"),
           "theta_inf_hyp": mpf("0.3")}


def he_prefactor(prm):
    return (1 - prm["lam"]) ** (H - prm["theta_t"])


def che_prefactor(prm):
    return mp.exp(prm["lam"] / 2)


def log_a_inf_from_matrix(family, prm, K=600):
    C = connection_matrix(family, prm, K)
    base = fcl(prm["theta0"], prm["theta1"], prm["omega"])
    if family == "RCHE":
        pref = mpc(1)
    elif family == "CHE":
        pref = che_prefactor(prm)
    elif family == "HE":
        pref = he_prefactor(prm)
    else:
        raise ValueError(family)
    return mp.log(C["++"] / (base * pref))


def contour_c_series(family, base_prm, nmax=6, r=mpf("0.06"), M=24):
    vals = []
    for j in range(M):
        lam = r * mp.expjpi(mpf(2 * j) / M)
        prm = dict(base_prm)
        prm["lam"] = lam
        vals.append(log_a_inf_from_matrix(family, prm))
    out = []
    for n in range(1, nmax + 1):
        s = mpc(0)
        for j, f in enumerate(vals):
            s += f * mp.expjpi(mpf(-2 * j * n) / M)
        out.append(s / M / r ** n)
    return out


# ----------------------------------------------------------------------
# formatting

def fmt(x, dps=32):
    x = mpc(x)
    re = mp.nstr(x.real, dps, strip_zeros=False)
    im = mp.nstr(x.imag, dps, strip_zeros=False)
    return f'("{re}", "{im}")'


def fmt_matrix(C):
    lines = ["{"]
    for key in ("++", "+-", "-+", "--"):
        lines.append(f'        "{key}": {fmt(C[key])},')
    lines.append("    }")
    return "\n".join(lines)


def main():
    t0 = time.time()
    out = []
    out.append('"""Frozen reference values for the test suite.')
    out.append("")
    out.append("Generated by tools/make_oracles.py (mpmath, 50-digit working")
    out.append("precision) with a self-contained series/Wronskian solver that is")
    out.append("independent of the package code.  Values are (re, im) decimal")
    out.append('string pairs with 32 significant digits.  Do not edit by hand."""')
    out.append("")
    out.append("")
    out.append("def cplx(pair):")
    out.append('    """Convert a frozen (re, im) string pair to a Python complex."""')
    out.append("    return complex(float(pair[0]), float(pair[1]))")
    out.append("")

    # ---------------- special function spots
    print("special function spots ...", flush=True)
    gamma_spots = [
        ("1+1j", mp.gamma(mpc(1, 1))),
        ("0.5-3j", mp.gamma(mpc(0.5, -3))),
        ("12.3", mp.gamma(mpf("12.3"))),
        ("-4.2+0.7j", mp.gamma(mpc("-4.2", "0.7"))),
        ("-6.3", mp.gamma(mpf("-6.3"))),
        ("3.7+49j", mp.gamma(mpc("3.7", "49"))),
    ]
    out.append("GAMMA_SPOTS = {")
    for key, val in gamma_spots:
        out.append(f'    "{key}": {fmt(val)},')
    out.append("}")
    out.append("")

    eps = mpf(10) ** (-40)
    lg_m55 = mp.loggamma(mpc(mpf("-5.5"), eps))
    lg_m55 = mpc(lg_m55.real, mp.nint(lg_m55.imag / mp.pi) * mp.pi)  # snap
    loggamma_spots = [
        ("10.5", mp.loggamma(mpf("10.5"))),
        ("1+1j", mp.loggamma(mpc(1, 1))),
        ("-3.7+0.4j", mp.loggamma(mpc("-3.7", "0.4"))),
        ("-3.7-0.4j", mp.loggamma(mpc("-3.7", "-0.4"))),
        ("25-40j", mp.loggamma(mpc(25, -40))),
        ("-5.5", lg_m55),
        ("0.25+30j", mp.loggamma(mpc("0.25", "30"))),
    ]
    print("  mpmath loggamma(-5.5) directly:", mp.loggamma(mpf("-5.5")))
    print("  frozen upper-limit value     :", lg_m55)
    out.append("LOG_GAMMA_SPOTS = {")
    for key, val in loggamma_spots:
        out.append(f'    "{key}": {fmt(val)},')
    out.append("}")
    out.append("")

    polygamma_spots = [
        ("0|0.3+0.7j", mp.digamma(mpc("0.3", "0.7"))),
        ("0|2.5", mp.digamma(mpf("2.5"))),
        ("0|-2.3", mp.digamma(mpf("-2.3"))),
        ("1|0.25", mp.polygamma(1, mpf("0.25"))),
        ("2|-1.3+0.2j", mp.polygamma(2, mpc("-1.3", "0.2"))),
        ("3|1.5-2j", mp.polygamma(3, mpc("1.5", "-2"))),
        ("16|2.5", mp.polygamma(16, mpf("2.5"))),
    ]
    out.append("POLYGAMMA_SPOTS = {")
    for key, val in polygamma_spots:
        out.append(f'    "{key}": {fmt(val)},')
    out.append("}")
    out.append("")

    poch_spots = [
        ("0.3+0.2j|7", mp.rf(mpc("0.3", "0.2"), 7)),
        ("-2.5|4", mp.rf(mpf("-2.5"), 4)),
        ("1.1|0", mp.rf(mpf("1.1"), 0)),
    ]
    out.append("POCHHAMMER_SPOTS = {")
    for key, val in poch_spots:
        out.append(f'    "{key}": {fmt(val)},')
    out.append("}")
    out.append("")

    # ---------------- gamma-prefactor function spots
    fcl_spots = [
        ("0.1|0.2|0.3", fcl(mpf("0.1"), mpf("0.2"), mpf("0.3"))),
        ("0.11|0.27|0.37", fcl(mpf("0.11"), mpf("0.27"), mpf("0.37"))),
        ("-0.1|0.2|0.3", fcl(mpf("-0.1"), mpf("0.2"), mpf("0.3"))),
        ("0.1|-0.2|0.3", fcl(mpf("0.1"), mpf("-0.2"), mpf("0.3"))),
    ]
    out.append("FCL_SPOTS = {")
    for key, val in fcl_spots:
        out.append(f'    "{key}": {fmt(val)},')
    out.append("}")
    out.append("")

    # ---------------- connection matrices, running examples
    print("connection matrices (K-doubling check) ...", flush=True)
    matrices = {}
    for name, family, prm in [
        ("HYP", "HYP", RUN_HYP),
        ("RCHE", "RCHE", RUN_RCHE),
        ("CHE", "CHE", RUN_CHE),
        ("HE", "HE", RUN_HE),
    ]:
        C6 = connection_matrix(family, prm, 600)
        C9 = connection_matrix(family, prm, 900)
        dmax = max(fabs(C6[k] - C9[k]) for k in C6)
        print(f"  {name}: max |C(600)-C(900)| = {mp.nstr(dmax, 3)}")
        assert dmax < mpf(10) ** (-40)
        matrices[name] = C9

    # HYP: cross-check against pure gamma formula entrywise
    thi = RUN_HYP["theta_inf_hyp"]
    for e0 in (1, -1):
        for e1 in (1, -1):
            ref = fcl(e0 * RUN_HYP["theta0"], e1 * RUN_HYP["theta1"], thi)
            key = ("+" if e0 > 0 else "-") + ("+" if e1 > 0 else "-")
            diff = fabs(matrices["HYP"][key] - ref)
            assert diff < mpf(10) ** (-40), f"HYP gamma check {key}: {diff}"
    print("  HYP matrix matches gamma-prefactor formula entrywise")

    # RCHE with lam -> 0 must reduce to gamma formula with x = omega
    prm0 = dict(RUN_RCHE)
    prm0["lam"] = mpf(0)
    C0 = connection_matrix("RCHE", prm0, 600)
    for e0 in (1, -1):
        for e1 in (1, -1):
            ref = fcl(e0 * prm0["theta0"], e1 * prm0["theta1"], prm0["omega"])
            key = ("+" if e0 > 0 else "-") + ("+" if e1 > 0 else "-")
            assert fabs(C0[key] - ref) < mpf(10) ** (-40)
    print("  RCHE(lam=0) reduces to gamma-prefactor formula")

    for name, prm in [("HYP", RUN_HYP), ("RCHE", RUN_RCHE),
                      ("CHE", RUN_CHE), ("HE", RUN_HE)]:
        pl = {k: mp.nstr(v, 12) for k, v in prm.items()}
        out.append(f"RUN_{name} = {{")
        for k, v in prm.items():
            out.append(f'    "{k}": "{mp.nstr(v, 12)}",')
        out.append(f'    "matrix": {fmt_matrix(matrices[name])},')
        out.append("}")
        out.append("")

    # ---------------- Frobenius coefficients, RCHE running example
    D, Q = family_DQ("RCHE", RUN_RCHE)
    c0p = frobenius_coeffs(D, Q, mpf(0), H - RUN_RCHE["theta0"], 6)
    c1p = frobenius_coeffs(D, Q, mpf(1), H - RUN_RCHE["theta1"], 6)
    out.append("# leading series coefficients (k = 1..6) of the normalized")
    out.append("# plus-sign solutions of the RCHE running example")
    out.append("FROBENIUS_RCHE_POINT0_PLUS = [")
    for k in range(1, 7):
        out.append(f"    {fmt(c0p[k])},")
    out.append("]")
    out.append("FROBENIUS_RCHE_POINT1_PLUS = [")
    for k in range(1, 7):
        out.append(f"    {fmt(c1p[k])},")
    out.append("]")
    out.append("")

    # ---------------- closed forms
    print("closed forms ...", flush=True)
    v_c1 = c1_rche(RUN_RCHE["theta0"], RUN_RCHE["theta1"], RUN_RCHE["omega"])
    v_c2 = c2_rche(RUN_RCHE["theta0"], RUN_RCHE["theta1"], RUN_RCHE["omega"])
    v_s1 = sigma1_he(RUN_HE["theta0"], RUN_HE["theta1"], RUN_HE["theta_t"],
                     RUN_HE["theta_inf"], RUN_HE["omega"])
    v_f1 = f1_he(RUN_HE["theta0"], RUN_HE["theta1"], RUN_HE["theta_t"],
                 RUN_HE["theta_inf"], RUN_HE["omega"])
    v_c1he = H - RUN_HE["theta_t"] + v_f1
    out.append("CLOSED_FORMS = {")
    out.append(f'    "c1_rche": {fmt(v_c1)},')
    out.append(f'    "c2_rche": {fmt(v_c2)},')
    out.append(f'    "sigma1_he": {fmt(v_s1)},')
    out.append(f'    "f1_he": {fmt(v_f1)},')
    out.append(f'    "c1_he": {fmt(v_c1he)},')
    out.append("}")
    out.append("")

    # ---------------- c_n by contour extraction
    print("contour extraction of c_n (RCHE) ...", flush=True)
    cs_rche = contour_c_series("RCHE", RUN_RCHE)
    print("contour extraction of c_n (CHE) ...", flush=True)
    cs_che = contour_c_series("CHE", RUN_CHE)
    print("contour extraction of c_n (HE) ...", flush=True)
    cs_he = contour_c_series("HE", RUN_HE)

    d1 = fabs(cs_rche[0] - v_c1)
    d2 = fabs(cs_rche[1] - v_c2)
    d3 = fabs(cs_he[0] - v_c1he)
    print(f"  |c1 contour - closed| (RCHE) = {mp.nstr(d1, 3)}")
    print(f"  |c2 contour - closed| (RCHE) = {mp.nstr(d2, 3)}")
    print(f"  |c1 contour - closed| (HE)   = {mp.nstr(d3, 3)}")
    assert d1 < mpf(10) ** (-18)
    assert d2 < mpf(10) ** (-18)
    assert d3 < mpf(10) ** (-18)

    out.append("# coefficients c_1..c_6 of log a_infinity in powers of the coupling,")
    out.append("# for the three running examples (contour extraction)")
    out.append("C_SERIES = {")
    for name, cs in (("RCHE", cs_rche), ("CHE", cs_che), ("HE", cs_he)):
        out.append(f'    "{name}": [')
        for v in cs:
            out.append(f"        {fmt(v)},")
        out.append("    ],")
    out.append("}")
    out.append("")

    # ---------------- c_n of the wide CHE spec, on a smaller circle
    print("contour extraction of c_n (wide CHE) ...", flush=True)
    cs_wide = contour_c_series("CHE", WIDE_CHE, r=mpf("0.004"), M=32)
    out.append("# coefficients c_1..c_6 of log a_infinity for a CHE spec whose")
    out.append("# denominator roots reach past k = 8 (contour extraction, radius 0.004,")
    out.append("# 32 points)")
    out.append("WIDE_CHE = {")
    for key in ("theta0", "theta1", "omega", "theta_star"):
        out.append(f'    "{key}": "{mp.nstr(WIDE_CHE[key], 32)}",')
    out.append("}")
    out.append("C_SERIES_WIDE = [")
    for v in cs_wide:
        out.append(f"    {fmt(v)},")
    out.append("]")
    out.append("")

    # ---------------- composite monodromy exponent for the HE example
    print("monodromy exponent ...", flush=True)
    sigma_rows = []
    th0, th1 = RUN_HE["theta0"], RUN_HE["theta1"]
    for lam_s in ("0.02", "0.04", "0.08", "0.1"):
        prm = dict(RUN_HE)
        prm["lam"] = mpf(lam_s)
        C = connection_matrix("HE", prm, 600)
        a, b = C["++"], C["+-"]
        c, d = C["-+"], C["--"]
        det = a * d - b * c
        cval = (b * c * mp.cospi(2 * (th0 - th1))
                - a * d * mp.cospi(2 * (th0 + th1))) / det
        sigma = mp.acos(cval) / (2 * mp.pi)
        # verify the two product relations exactly at this sigma
        denom = mp.sinpi(2 * th0) * mp.sinpi(2 * th1)
        pp = -(th0 / th1) * mp.cospi(th1 - th0 + sigma) * mp.cospi(th1 - th0 - sigma) / denom
        pm = -(th0 / th1) * mp.cospi(th1 + th0 + sigma) * mp.cospi(th1 + th0 - sigma) / denom
        assert fabs(a * d - pp) < mpf(10) ** (-30), fabs(a * d - pp)
        assert fabs(b * c - pm) < mpf(10) ** (-30), fabs(b * c - pm)
        sigma_rows.append((lam_s, sigma))
        slope = (sigma - RUN_HE["omega"]) / mpf(lam_s)
        print(f"  lam={lam_s}: sigma={mp.nstr(sigma, 20)}  (sigma-omega)/lam={mp.nstr(slope, 10)}")
    print(f"  sigma1 closed form           = {mp.nstr(v_s1, 10)}")
    out.append("# composite monodromy exponent of the HE running example at several")
    out.append("# couplings, from the trace relation applied to the frozen matrices")
    out.append("SIGMA_HE = {")
    for lam_s, sigma in sigma_rows:
        out.append(f'    "{lam_s}": {fmt(sigma)},')
    out.append("}")
    out.append("")

    # ---------------- write file
    text = "\n".join(out)
    with open("tests/oracles.py", "w") as fh:
        fh.write(text + "\n")
    print(f"wrote tests/oracles.py ({len(text)} bytes) in {time.time()-t0:.1f}s")


if __name__ == "__main__":
    main()
