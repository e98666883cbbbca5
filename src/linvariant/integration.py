"""Coleman integration of cocycle measures along geodesics.

For a base point tau in the quadratic unramified extension K_p (a Teichmuller
lift generating the residue field multiplicatively) and a group element gamma,
the period

    lam(c)(gamma)(P) = (1/2) Tr ( integral of P(x) log((x - gamma tau)/(x - tau))
                                  against the measure of c over P^1(Q_p) )

is evaluated by covering P^1(Q_p) with the balls of the edges pointing away
from the geodesic between the reductions of tau and gamma tau, expanding the
logarithmic kernel as a power series on each ball, and pairing with the
moments of the overconvergent lift.  The log is the Iwasawa branch.  All of
it is integer arithmetic, and every precision follows the rules of `padics`.

Every element of K_p is an integer pair (x0, x1) for x0 + x1 w, reduced
modulo a power of p (see `padics.pair_mul`).  The base point is
x^(p^(2 prec)) modulo p^prec for a residue generator x, which agrees with
its Teichmuller lift to that precision.  Its image gamma tau is held as
p^-e (A + B w) known modulo p^P, with e and P in closed form from the
valuations of a tau + b and c tau + d (see `_mobius`).

Each ball g Z_p is integrated on the directed representative B_j of its
reduction g = p^u (x'/p^r') B_j sigma (`reduce_matrix`).  Row i of the
substitution matrix of the Iwahori sigma is x^i |_k sigma^-1, so
Phi(g)(F) = Phi(B_j)(F |_k sigma^-1), and sigma maps Z_p onto itself, so
h = g sigma^-1 = p^(u-r') iota(x') B_j has h Z_p = g Z_p: the integral of
P K over the ball is Phi(B_j)((P |_k h) K(h z)), the stored moments of B_j
(`Lift.moments`) against the kernel series and weight rows of h, with no
substitution matrix.  h is integral, v(det h) = v(det g), and h is known
modulo p^(S + u - r'), S the splitting's precision: the kernel series caps
its numerators and denominators there, and each ball's total (an integer
under p^(s+t), below) at S + u - r' - s - t.

On each ball the kernel coefficients c_j, in their two Q_p coordinates on
(1, w), are integers under one scale p^s, and the moments mu_i of every lift
are integers under the scale p^t (see `lifting`).  The integral of x^m |_k h
is sum_i q_i mu_i over i < n_terms, q_i = sum_u W[m][u] c[i-u] with the
weight rows W, evaluated as S_m = sum_u W[m][u] X_u, X_u = sum_j c_j mu_(j+u):
k + 1 contractions per lift instead of the (k+1)^2 n_terms products q_i per
ball.  The ball totals are multiplied by det^(-k/2) and summed per
coordinate under one scale (`_sum_parts`); (1/2) Tr of those k+1 pairs of
totals gives lam as residues with one precision per entry (`_halved_trace`).

The kernel series has one closed-form precision.  For the ball's matrix
h = (a, b, c, d) known modulo p^H, write T_i^-1 = p^(v_i) eps_i, where
T_i = h^-1 tau_i, v_i >= 1 and eps_i is a unit pair known modulo p^(R_i),
R_i being the lower relative precision of a - c tau_i and d tau_i - b, each
known to p^H at most.  Then T_i^-n = p^(n v_i) eps_i^n is known to
n v_i + R_i, and coefficient n >= 1, (T_1^-n - T_2^-n)/n, to
min_i(n v_i + R_i) - v_p(n), capped at the precision prec of K_p.  The
p-part of each 1/n goes into the scale p^s; the powers eps_i^n and the
inverses of the unit parts of the n are taken modulo p^(prec + s).  The
constant term is the Iwasawa log of the unit part of
(d tau2 - b)/(d tau1 - b), known to the lower relative precision of the two
factors (`padics.iwasawa_log`).

The pairing's precisions are capped at that of K_p.  The half
min_i v(mu_i) + P(q_i) is exact: min(cap + min_i v(mu_i),
min_u v(W[m][u]) + E_u) with E_u = min_i v(mu_i) + P(c[i-u]).  The half
min_i v(q_i) + P(mu_i) takes v(W[m][u]) + v(c_j) in place of v(q_(j+u)),
which is never larger, and equal unless q_i cancels.  Each entry is then
capped at the requested target precision, so no entry claims more digits
than the same sums evaluated in field elements.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import add, mul

from .cocycles import weight_coeff_rows
from .domain import FundamentalDomain, gamma_vertex
from .lifting import Lift
from .padics import (
    PrecisionError,
    UnramifiedField,
    ilog,
    iwasawa_log,
    pair_mul,
    pair_pow,
    pair_powers,
    pair_unit_inverse,
    scaled_reciprocals,
    val_cap,
    val_int,
)
from .tree import base_vertex, edges_leaving_geodesic, mat_det, mat_mul


def base_point(p: int, prec: int, variant: int = 0):
    """The Teichmuller lift of a generator of the residue field's
    multiplicative group, as the integer coordinates (A, B, 0, prec) of
    `_mobius`: tau = A + B w known modulo p^prec.

    Its reduction to the tree is the standard vertex.  `variant` selects a
    different generator, for checking independence of the choice."""
    K = UnramifiedField(p, prec)
    q = p * p
    found = 0
    for b0 in range(1, p):
        for a0 in range(p):
            # order of a0 + b0 w in F_{p^2}^x
            y, order = (a0, b0), 1
            while y != (1, 0):
                y = pair_mul(y, (a0, b0), K, p)
                order += 1
            if order == q - 1:
                if found == variant:
                    # x^(q^n) agrees with the lift modulo p^(n+1)
                    return (*pair_pow((a0, b0), q**prec, K, p**prec), 0, prec)
                found += 1
    raise RuntimeError("no residue field generator found")


def _mobius(mat, tau, K: UnramifiedField):
    """gamma tau for the integer matrix mat = (a, b, c, d) and the base
    point tau = (A, B, 0, Q) of `base_point`, Q = K.prec, as integers
    (A', B', e, P): gamma tau = p^-e (A' + B' w) known modulo p^P.

    With vn and vd the valuations of a tau + b and c tau + d, both known
    modulo p^Q, the quotient is p^(vn - vd) times a unit pair known to
    Q - max(vn, vd) relative digits, so e = max(0, vd - vn) and
    P = Q - 2 vd + min(vn, vd)."""
    a, b, c, d = mat
    t0, t1, _, Q = tau
    p, mod = K.p, K.p**Q
    num = ((a * t0 + b) % mod, a * t1 % mod)
    den = ((c * t0 + d) % mod, c * t1 % mod)
    vn = min(val_cap(num[0], p, Q), val_cap(num[1], p, Q))
    vd = min(val_cap(den[0], p, Q), val_cap(den[1], p, Q))
    if vd >= Q:
        raise PrecisionError("denominator indistinguishable from zero")
    e = max(0, vd - vn)
    P = Q - 2 * vd + min(vn, vd)
    mod = p ** (P + e)
    qn, qd = p**vn, p**vd
    z = pair_mul((num[0] // qn, num[1] // qn),
                 pair_unit_inverse((den[0] // qd, den[1] // qd), K, mod),
                 K, mod)
    f = p ** (e + vn - vd)
    return z[0] * f % mod, z[1] * f % mod, e, P


@dataclass
class CoveringBall:
    matrix: tuple  # h with ball = h Z_p, integer residues modulo p^prec
    prec: int  # math.inf when h is exact
    det_val: int  # v(det h)
    j: int  # the directed representative B_j that h pulls the ball back to


def ball_matrices(dom: FundamentalDomain, x, r: int):
    """The matrices g, ball = g Z_p, of `covering`, and v(det g)."""
    v0 = base_vertex(dom.p)
    for e in edges_leaving_geodesic(v0, gamma_vertex(dom, x, r, v0)):
        m = e.matrix()
        yield m, val_int(mat_det(m), dom.p)


def covering(dom: FundamentalDomain, x, r: int):
    """Covering of P^1(Q_p) adapted to the geodesic from tau to gamma tau,
    each ball g Z_p as h Z_p, h = p^(u-r') iota(x') B_j for the reduction
    g = p^u (x'/p^r') B_j sigma (see the module docstring)."""
    p, S = dom.p, dom.spl.prec
    balls = []
    for m, dv in ball_matrices(dom, x, r):
        red = dom.reduce_matrix(m, dv)
        # iota(x') B_j = p^-e h modulo p^S, with h = g sigma^-1 integral
        e = red.u_exp - red.r
        h = mat_mul(dom.spl.image(red.x), dom.rep_mats[red.j])
        h = tuple(a % p**S * p ** max(e, 0) // p ** max(-e, 0) for a in h)
        balls.append(CoveringBall(h, S + e, dv, red.j))
    return balls


def _unit_split(x, P, p: int):
    """An integer pair x known modulo p^P as p^v times a unit pair: returns
    v, the unit pair and its precision P - v.  P may be infinite (exact)."""
    v = min(val_cap(x[0], p, P), val_cap(x[1], p, P))
    if v >= P:
        raise PrecisionError("element indistinguishable from zero")
    q = p**v
    return v, (x[0] // q, x[1] // q), P - v


def log_kernel_series(K: UnramifiedField, ball: CoveringBall, z1, z2,
                      n_terms: int):
    """Coefficients of log((h z - tau2)/(h z - tau1)) as a series in z on
    Z_p, for the ball's matrix h, known modulo p^ball.prec, and the base
    points tau_i given by their coordinates z_i (see `_mobius`): constant
    log((d tau2 - b)/(d tau1 - b)), then (T1^-n - T2^-n)/n for n >= 1, where
    T_i = h^-1 tau_i.  Returns (s, (A, B), P): coefficient n is
    p^-s (A[n] + B[n] w) known modulo p^P[n] (see the module docstring)."""
    p, Q, H = K.p, K.prec, ball.prec
    a, b, c, d = ball.matrix
    vc, vd = val_cap(c, p, H), val_cap(d, p, H)
    mod = p**Q
    parts = []
    for za, zb, e, P in (z1, z2):
        pe = p**e
        # p^e (a - c tau) and p^e (d tau - b), known to p^H from h
        vn, num, Rn = _unit_split((a * pe - c * za, -c * zb),
                                  min(P + e + vc, H), p)
        vden, den, Rd = _unit_split((d * za - b * pe, d * zb),
                                    min(P + e + vd, H), p)
        if vn - vden < 1:
            raise ValueError("base point reduces into a covering ball")
        eps = pair_mul(num, pair_unit_inverse(den, K, mod), K, mod)
        parts.append((vn - vden, eps, min(Rn, Rd), den, Rd))
    (v1, eps1, R1, den1, Rd1), (v2, eps2, R2, den2, Rd2) = parts
    # log p = 0, so the constant is the log of the quotient of the units
    s0, const, P0 = iwasawa_log(
        K, pair_mul(den2, pair_unit_inverse(den1, K, mod), K, mod),
        min(Rd1, Rd2))
    s = max(s0, ilog(max(n_terms - 1, 1), p))
    mod = p ** (Q + s)
    A = [const[0] * p ** (s - s0)]
    B = [const[1] * p ** (s - s0)]
    prec = [P0]
    f1 = f2 = 1
    for n, (e1, e2, r) in enumerate(
            zip(pair_powers(eps1, n_terms - 1, K, mod),
                pair_powers(eps2, n_terms - 1, K, mod),
                scaled_reciprocals(n_terms - 1, p, s, mod)), 1):
        # T_i^-n = p^(n v_i) eps_i^n, and r = p^s/n
        f1 = f1 * p**v1 % mod
        f2 = f2 * p**v2 % mod
        A.append((f1 * e1[0] - f2 * e2[0]) * r % mod)
        B.append((f1 * e1[1] - f2 * e2[1]) * r % mod)
        prec.append(min(Q, min(n * v1 + R1, n * v2 + R2) - val_cap(n, p, s)))
    return s, (A, B), prec


def _pairing(series, W, moms, p: int, t: int, cap: int):
    """The pairing on one ball of a `log_kernel_series` (scale p^s) and the
    weight rows W with the moments of each lift from `Lift.moments` (scale
    p^t), reassociated as in the module docstring.  Returns, per lift,
    coordinate on (1, w) and m, the numerator S of the integral of x^m under
    the scale p^(s+t), reduced modulo p^(P+s+t), and its precision P
    (unscaled); cap is the precision of the field, which bounds every sum."""
    s, coords, prc = series
    us = range(len(W))
    # the nonzero weights of each row m, with their valuations
    wts = [[(u, w, val_int(w, p)) for u, w in enumerate(row) if w]
           for row in W]
    # the series half, lift-independent: min_j v(c_j) + P(mu_(j+u))
    Pm = moms[0][2]
    F = [[min(map(add, vc, Pm[u:]), default=math.inf) for u in us]
         for vc in ([val_cap(a, p, P + s) - s for a, P in zip(num, prc)]
                    for num in coords)]
    out = []
    for res, vm, _ in moms:
        # the moment half: cap + min_i v(mu_i), and E_u
        top = cap + min(vm)
        E = [min(map(add, vm[u:], prc), default=math.inf) for u in us]
        per_co = []
        for num, Fc in zip(coords, F):
            X = [sum(map(mul, num, res[u:])) for u in us]
            G = list(map(min, E, Fc))
            per_m = []
            for row in wts:
                P = min(cap, top, *(vw + G[u] for u, _, vw in row))
                per_m.append((sum(w * X[u] for u, w, _ in row)
                              % p ** max(P + s + t, 0), P))
            per_co.append(per_m)
        out.append(per_co)
    return out


def lambda_values(dom: FundamentalDomain, lifts: list[Lift], x, r: int,
                  tau, n_terms: int, target_prec: int):
    """lam(c)(gamma) in V_k for the cocycle c of each lift (all lifts share
    their parameters), as (residues, scale, precisions) in the convention of
    `cocycles.Action` with one precision per entry: entry m is
    lam(c)(gamma)(x^m), the half trace of the coordinate totals of
    `_coordinate_totals`, known to at most target_prec."""
    K = UnramifiedField(dom.p, tau[3])
    E, totals = _coordinate_totals(dom, lifts, x, r, tau, n_terms,
                                   target_prec)
    traced = ([_halved_trace(K, E, a, b, target_prec) for a, b in v] for v in totals)
    return [([t for t, _ in v], E + (K.p == 2), [P for _, P in v]) for v in traced]


def _coordinate_totals(dom: FundamentalDomain, lifts: list[Lift], x, r: int,
                       tau, n_terms: int, target_prec: int):
    """Per lift and m, the two coordinates (a, b) on (1, w) of the untraced
    integral of x^m, for the base point tau of `base_point`; b vanishes to
    precision, as the integrals lie in Q_p.  Returns E and the coordinates,
    each a (residue, precision) pair under the scale p^-E (`_sum_parts`).

    The covering and the kernel series are computed once per ball, the
    moments of the representatives once per lift (`Lift.moments`); the
    pairing is an integer contraction per lift (`_pairing`)."""
    p, pr = dom.p, lifts[0].params
    k, t = pr.k, pr.t
    K = UnramifiedField(p, tau[3])
    cap = K.prec
    gtau = _mobius(dom.spl.image(x), tau, K)
    moms = [lift.moments(n_terms) for lift in lifts]
    # per lift, m and coordinate: the balls' (numerator, scale, precision)
    parts = [[([], []) for _ in range(k + 1)] for _ in lifts]
    for ball in covering(dom, x, r):
        series = log_kernel_series(K, ball, tau, gtau, n_terms)
        s = series[0]
        # the weight rows of h are residues modulo p^ball.prec
        W = weight_coeff_rows(ball.matrix, k, p**ball.prec)
        pairs = _pairing(series, W, [mom[ball.j] for mom in moms], p, t, cap)
        # P |_k h for P = x^m: the coefficient rows W times det^(-k/2) =
        # sgn * p^-e, known to dprec; nrd(x') > 0, so sgn is that of det B_j
        dv = ball.det_val
        e = dv * (k // 2)
        sgn = (1 if mat_det(dom.rep_mats[ball.j]) > 0 else -1) ** (k // 2)
        dprec = -e + target_prec + abs(dv) * k + 8
        for coords, part in zip(pairs, parts):
            for co, rows in enumerate(coords):
                for m, (S, P) in enumerate(rows):
                    P = min(P, ball.prec - s - t)
                    v = val_cap(S, p, P + s + t) - s - t
                    part[m][co].append((sgn * S, s + t + e,
                                        min(P - e, v + dprec)))
    E = max(sc for _, sc, _ in parts[0][0][0])
    return E, [[tuple(_sum_parts(p, terms, cap, E) for terms in coords)
                for coords in part] for part in parts]


def _halved_trace(K: UnramifiedField, E: int, a, b, cap: int):
    """(1/2) Tr(a + b w) = (2a - B b)/2 for w^2 + B w + C = 0, known to at
    most cap, for a and b as (residue, precision) under the scale p^-E; the
    result is one under p^-(E + h), h = 1 at p = 2 and 0 otherwise.  1/2 is
    taken to two digits past the lower precision of a and b, so at p = 2
    the division costs one digit."""
    p, h = K.p, int(K.p == 2)
    (na, Pa), (nb, Pb) = a, b
    # 2a - B b, known to the lower precision of its terms (B = 0 at odd p)
    P = min(Pa, Pb) if K.B else Pa
    tr = (2 * na - K.B * nb) % p ** max(P, 0)
    # times 1/2, of valuation -h
    P = min(P, min(Pa, Pb) + 2 + h + val_cap(tr, p, P) - E, cap + E + h)
    mod = p ** max(P, 0)
    return (tr if h else tr * pow(2, -1, mod)) % mod, P


def _sum_parts(p: int, terms, cap: int, E: int):
    """The sum of the balls' numerator * p^-scale, as (residue, precision)
    under p^-E, known to the lowest of their precisions and cap."""
    P = min(cap, *(P for _, _, P in terms)) + E
    return sum(n * p ** (E - sc) for n, sc, _ in terms) % p ** max(P, 0), P
