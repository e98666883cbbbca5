"""Coleman integration of cocycle measures along geodesics.

For a base point tau in the quadratic unramified extension K_p (a Teichmuller
lift generating the residue field multiplicatively) and a group element gamma,
the period

    lam(c)(gamma)(P) = (1/2) Tr ( integral of P(x) log((x - gamma tau)/(x - tau))
                                  against the measure of c over P^1(Q_p) )

is evaluated by covering P^1(Q_p) with the balls of the edges pointing away
from the geodesic between the reductions of tau and gamma tau, expanding the
logarithmic kernel as a power series on each ball, and pairing with the
moments of the overconvergent lift.  The log is the Iwasawa branch.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .cocycles import weight_coeff_rows
from .domain import EdgeReducer, FundamentalDomain, gamma_matrix, gamma_vertex
from .lifting import Lift, sigma_series_matrix
from .padics import (
    PadicNumber,
    UnramifiedElement,
    UnramifiedField,
    half_trace,
    iwasawa_log,
    val_int,
)
from .tree import base_vertex, edges_leaving_geodesic


def base_point(p: int, prec: int, variant: int = 0) -> UnramifiedElement:
    """A Teichmuller lift generating the residue field multiplicatively.

    Its reduction to the tree is the standard vertex.  `variant` selects a
    different generator, for checking independence of the choice."""
    K = UnramifiedField(p, prec)
    q = p * p
    found = 0
    for b0 in range(1, p):
        for a0 in range(p):
            # order of a0 + b0 w in F_{p^2}^x
            x = K.element(a0, b0)
            y = x
            order = 1
            while True:
                ra, rb = y.a.residue(1), y.b.residue(1)
                if ra == 1 and rb == 0:
                    break
                y = y * x
                order += 1
            if order == q - 1:
                if found == variant:
                    return K.teichmuller(a0, b0)
                found += 1
    raise RuntimeError("no residue field generator found")


def _mobius(mat, z: UnramifiedElement) -> UnramifiedElement:
    a, b, c, d = mat
    K = z.field
    conv = lambda t: t if isinstance(t, UnramifiedElement) else K.element(Fraction(t))
    return (conv(a) * z + conv(b)) / (conv(c) * z + conv(d))


@dataclass
class CoveringBall:
    matrix: tuple  # integer matrix g with ball = g Z_p
    det_val: int
    reduction: object  # EdgeReduction of the edge g.e0


def covering(dom: FundamentalDomain, reducer: EdgeReducer, x, r: int):
    """Covering of P^1(Q_p) adapted to the geodesic from tau to gamma tau."""
    p = dom.p
    v0 = base_vertex(p)
    balls = []
    for e in edges_leaving_geodesic(v0, gamma_vertex(dom, x, r, v0)):
        m = e.matrix()
        det = m[0] * m[3] - m[1] * m[2]
        dv = val_int(det, p) if det % p == 0 else 0
        balls.append(CoveringBall(m, dv, reducer.reduce_matrix(m, dv)))
    return balls


def log_kernel_series(K: UnramifiedField, ball: CoveringBall,
                      tau1: UnramifiedElement, tau2: UnramifiedElement,
                      n_terms: int):
    """Coefficients (in K) of log((g z - tau2)/(g z - tau1)) as a series in z
    on Z_p: constant log(f2 T2 / (f1 T1)) with f_i = c tau_i - a, then
    sum_n (T1^-n - T2^-n)/n z^n, where T_i = g^{-1} tau_i."""
    a, b, c, d = ball.matrix
    conv = lambda t: K.element(Fraction(t))
    out = []
    T = []
    for tau in (tau1, tau2):
        num = conv(d) * tau - conv(b)
        den = conv(a) - conv(c) * tau
        Ti = num / den
        if not (Ti.valuation() is not None and Ti.valuation() < 0):
            raise ValueError("base point reduces into a covering ball")
        T.append(Ti)
    f1 = conv(a) - conv(c) * tau1
    f2 = conv(a) - conv(c) * tau2
    const = iwasawa_log(f2 * T[1] * (f1 * T[0]).inverse())
    out.append(const)
    i1 = T[0].inverse()
    i2 = T[1].inverse()
    q1, q2 = i1, i2
    for n in range(1, n_terms):
        term = (q1 - q2) * K.element(Fraction(1, n))
        out.append(term)
        q1 = q1 * i1
        q2 = q2 * i2
    return out


def lambda_values(dom: FundamentalDomain, reducer: EdgeReducer, lifts: list[Lift],
                  x, r: int, tau: UnramifiedElement, n_terms: int,
                  target_prec: int, raw: bool = False):
    """lam(c)(gamma) in V_k for the cocycle c of each lift (all lifts share
    their parameters): entry m of each vector is lam(c)(gamma)(x^m).

    The covering, the kernel series, the weight rows and the substitution
    rows of each ball are computed once for all lifts; only the moments and
    the final pairing are per lift.  With raw=True the untraced field
    elements are returned instead; their second coordinate vanishes to
    precision (the integrals lie in Q_p)."""
    p, pr = dom.p, lifts[0].params
    k = pr.k
    K = tau.field
    Xi, _ = gamma_matrix(dom, x, r)
    tau2 = _mobius(Xi, tau)
    totals = [[K.zero() for _ in range(k + 1)] for _ in lifts]
    for ball in covering(dom, reducer, x, r):
        lser = log_kernel_series(K, ball, tau, tau2, n_terms)
        T = sigma_series_matrix(ball.reduction.sigma, k, pr.i_max, p, pr.W,
                                n_rows=n_terms)
        # P |_k g for P = x^m: exact coefficient rows times det^(-k/2)
        W = weight_coeff_rows(ball.matrix, k)
        det = ball.matrix[0] * ball.matrix[3] - ball.matrix[1] * ball.matrix[2]
        dv = ball.det_val
        sgn = 1 if det > 0 else -1
        dfac = K.element(PadicNumber(p, -dv * (k // 2), sgn ** (k // 2),
                                     -dv * (k // 2) + target_prec + abs(dv) * k + 8))
        # series product of (P|_k g)(z) (degree <= k) and the log kernel
        cfs = []
        for m in range(k + 1):
            row = []
            for i in range(n_terms):
                cf = K.zero()
                for u in range(min(k, i) + 1):
                    if W[m][u]:
                        cf = cf + W[m][u] * lser[i - u]
                row.append(cf)
            cfs.append(row)
        for lift, total in zip(lifts, totals):
            momK = [K.element(t) for t in lift.moments(ball.reduction, T)]
            for m in range(k + 1):
                acc = K.zero()
                for cf, mom in zip(cfs[m], momK):
                    acc = acc + cf * mom
                total[m] = total[m] + dfac * acc
    if raw:
        return totals
    return [[half_trace(t) for t in total] for total in totals]
