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

The pairing is integer arithmetic.  On each ball the kernel coefficients
are split into their two Q_p coordinates on (1, w) and held as integers
under one scale p^s; their products with the exact weight rows W[m][u] are
formed once per (gamma, ball) and contracted with the integer moment
residues of every lift (scale p^t, see `lifting`), which are computed once
per distinct ball reduction.  The ball totals are multiplied by det^(-k/2),
summed, and (1/2) Tr is applied only to the k+1 totals at the end.

Precision follows the PadicNumber rules term by term, from the actual
valuations: a product c*m is known to min(v(c) + P(m), v(m) + P(c)), where
a value that vanishes at its precision has that precision as valuation; a
sum is known to the lowest precision among its terms and that of K_p.  Each
entry is then capped at the requested target precision, so no entry claims
more digits than the same sums evaluated in field elements.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import add, mul

from .cocycles import weight_coeff_rows
from .domain import EdgeReduction, FundamentalDomain, gamma_matrix, gamma_vertex
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


def covering(dom: FundamentalDomain, x, r: int):
    """Covering of P^1(Q_p) adapted to the geodesic from tau to gamma tau."""
    p = dom.p
    v0 = base_vertex(p)
    balls = []
    for e in edges_leaving_geodesic(v0, gamma_vertex(dom, x, r, v0)):
        m = e.matrix()
        det = m[0] * m[3] - m[1] * m[2]
        dv = val_int(det, p) if det % p == 0 else 0
        balls.append(CoveringBall(m, dv, dom.reduce_matrix(m, dv)))
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


def _ival(n: int, p: int, cap: int) -> int:
    """min(v_p(n), cap) for an integer n, with v_p(0) infinite."""
    if n == 0:
        return cap
    if p == 2:
        return min((n & -n).bit_length() - 1, cap)
    v = 0
    while v < cap and n % p == 0:
        n //= p
        v += 1
    return min(v, cap)


def _kernel_products(lser, W, k: int, p: int, cap: int):
    """The series products sum_u W[m][u] lser[i-u] in the two Q_p
    coordinates of K_p on (1, w), as integers under one scale p^s making
    every kernel coefficient integral.  Returns s and, per coordinate and m,
    the numerators, valuations and precisions (unscaled) of the products;
    cap is the precision of the field, which bounds every sum."""
    n_terms = len(lser)
    coords = ([c.a for c in lser], [c.b for c in lser])
    s = max(0, -min(c.val for co in coords for c in co))
    vW = [[val_int(w, p) if w else None for w in row] for row in W]
    out = []
    for co in coords:
        num = [c.unit * p ** (c.val + s) for c in co]
        prc = [c.prec for c in co]
        rows = []
        for m in range(k + 1):
            nums, vals, precs = [], [], []
            for i in range(n_terms):
                acc, P = 0, cap
                for u in range(min(k, i) + 1):
                    if W[m][u]:
                        acc += W[m][u] * num[i - u]
                        P = min(P, vW[m][u] + prc[i - u])
                acc %= p ** max(P + s, 0)
                nums.append(acc)
                vals.append(_ival(acc, p, P + s) - s)
                precs.append(P)
            rows.append((nums, vals, precs))
        out.append(rows)
    return s, out


def _ball_moments(lifts: list[Lift], reduction: EdgeReduction, n_terms: int):
    """Per lift, the moments Phi(g)(x^i), i < n_terms, of the ball with this
    reduction: numerators under the lift scale p^t, and unscaled valuations
    and precisions.  Each lift keeps them per (rep, sigma mod p^W, sigma
    precision), so the substitution rows are built once per distinct
    reduction and attempt and then dropped."""
    pr = lifts[0].params
    p, mod = lifts[0].dom.p, lifts[0].dom.p ** pr.W
    key = (reduction.j, tuple(c % mod for c in reduction.sigma),
           reduction.sigma_prec, n_terms)
    todo = [lift for lift in lifts if key not in lift.memo]
    if todo:
        T = sigma_series_matrix(reduction.sigma, pr.k, pr.i_max, p, pr.W,
                                n_rows=n_terms)
        for lift in todo:
            res, precs = lift.moments(reduction, T)
            lift.memo[key] = (res,
                              [_ival(r, p, P) - pr.t for r, P in zip(res, precs)],
                              [P - pr.t for P in precs])
    return [lift.memo[key] for lift in lifts]


def lambda_values(dom: FundamentalDomain, lifts: list[Lift], x, r: int,
                  tau: UnramifiedElement, n_terms: int, target_prec: int,
                  raw: bool = False):
    """lam(c)(gamma) in V_k for the cocycle c of each lift (all lifts share
    their parameters): entry m of each vector is lam(c)(gamma)(x^m).

    The covering, the kernel series and its products with the weight rows
    are computed once per ball, the moments once per distinct ball
    reduction (see `_ball_moments`); the pairing is an integer contraction
    per lift.  With raw=True the untraced field elements are returned
    instead; their second coordinate vanishes to precision (the integrals
    lie in Q_p)."""
    p, pr = dom.p, lifts[0].params
    k, t = pr.k, pr.t
    K = tau.field
    Xi, _ = gamma_matrix(dom, x, r)
    tau2 = _mobius(Xi, tau)
    # per lift, m and coordinate: the balls' (numerator, scale, precision)
    parts = [[([], []) for _ in range(k + 1)] for _ in lifts]
    for ball in covering(dom, x, r):
        lser = log_kernel_series(K, ball, tau, tau2, n_terms)
        W = weight_coeff_rows(ball.matrix, k)
        s, cfs = _kernel_products(lser, W, k, p, K.prec)
        moms = _ball_moments(lifts, ball.reduction, n_terms)
        # P |_k g for P = x^m: the coefficient rows W times
        # det^(-k/2) = sgn * p^-e, a factor known to dprec
        det = ball.matrix[0] * ball.matrix[3] - ball.matrix[1] * ball.matrix[2]
        dv = ball.det_val
        e = dv * (k // 2)
        sgn = (1 if det > 0 else -1) ** (k // 2)
        dprec = -e + target_prec + abs(dv) * k + 8
        Pm = moms[0][2]
        # lift-independent half of the product precisions
        low = [[min(map(add, vals, Pm)) for _, vals, _ in rows] for rows in cfs]
        for (res, vm, _), part in zip(moms, parts):
            for co, rows in enumerate(cfs):
                for m, (nums, _, precs) in enumerate(rows):
                    P = min(K.prec, low[co][m], min(map(add, vm, precs)))
                    S = sum(map(mul, nums, res)) % p ** max(P + s + t, 0)
                    v = _ival(S, p, P + s + t) - s - t
                    part[m][co].append((sgn * S, s + t + e,
                                        min(P - e, v + dprec)))
    out = []
    for part in parts:
        vec = []
        for m in range(k + 1):
            a, b = (_sum_parts(p, terms, K.prec) for terms in part[m])
            if raw:
                vec.append(UnramifiedElement(K, a.with_prec(target_prec),
                                             b.with_prec(target_prec)))
            else:
                vec.append(half_trace(UnramifiedElement(K, a, b))
                           .with_prec(target_prec))
        out.append(vec)
    return out


def _sum_parts(p: int, terms, cap: int) -> PadicNumber:
    """The sum of the balls' numerator * p^-scale, known to the lowest of
    their precisions and cap."""
    E = max(sc for _, sc, _ in terms)
    num = sum(n * p ** (E - sc) for n, sc, _ in terms)
    return PadicNumber(p, -E, num, min(cap, *(P for _, _, P in terms)))
