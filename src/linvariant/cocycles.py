"""Harmonic cocycles with values in V_k (dual of degree-k polynomials).

A cocycle c assigns to each directed edge a functional on P_k, with
c(reversed e) = -c(e), zero sum over each vertex star (source convention), and
Gamma-equivariance c(gamma e) = gamma . c(e), where the left action on V_k is
(gamma . w)(P) = w(P |_k gamma) and (P |_k g)(x) = det(g)^(-k/2) (cx+d)^k
P((ax+b)/(cx+d)).

The action of gamma = x/p^r (x by its integer coordinates in the order basis,
see `domain`) is one integer matrix, `gamma_action`, built once per (x, r, k)
and domain: the weight rows of iota(x) with the unit part of
det^(-k/2) folded in, under one scale p^e, e = v k/2 for v the valuation of
the determinant.  The residues of iota(x) are known modulo p^P for P the
splitting's precision, so every entry of the action is known only modulo
p^(P - e); a splitting too coarse for the weight shows up as lost digits,
and the basis solve raises PrecisionError instead of losing rank.

A cocycle is stored by its values on the geometric edge representatives of a
fundamental domain, as integer residues with one precision per cocycle (the
normalization makes every value p-integral, so the scale is p^0); the space
is computed as the kernel of the stabilizer-invariance and harmonicity
conditions.  Also provides the two Atkin-Lehner involutions given by
normalizing elements of reduced norms N and p.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from operator import mul
from typing import NamedTuple

from .budget import checkpoint
from .domain import FundamentalDomain, gamma_matrix
from .padics import PadicNumber, PrecisionError, solve_linear, val_int
from .quaternions import enumerate_norm
from .tree import Edge, mat_adj, mat_mul, normalize_edge, star


def weight_coeff_rows(mat, k: int):
    """Rows W[i] = coefficients of (a x + b)^i (c x + d)^(k-i), exact, with
    x^i |_k g = det(g)^(-k/2) * sum_m W[i][m] x^m; the time budget is
    checked after each row."""
    a, b, c, d = mat
    rows = []
    for i in range(k + 1):
        left = [comb(i, s) * a**s * b ** (i - s) for s in range(i + 1)]
        right = [comb(k - i, s) * c**s * d ** (k - i - s)
                 for s in range(k - i + 1)]
        row = [0] * (k + 1)
        for s1, v1 in enumerate(left):
            for s2, v2 in enumerate(right):
                row[s1 + s2] += v1 * v2
        rows.append(row)
        checkpoint()
    return rows


class Action(NamedTuple):
    """The action of a matrix g on V_k: (g . w)(x^i) is
    sum_m rows[i][m] w(x^m) * p^-scale, each entry known modulo
    p^(prec - scale); rows holds residues modulo p^prec."""

    rows: list
    scale: int
    prec: int


def weight_action(p: int, mat, det: int, k: int, prec: int) -> Action:
    """The action on V_k of the integer matrix mat, known modulo p^prec, whose
    true determinant is det (exact; mat may hold residues)."""
    v = val_int(det, p)
    mod = p**prec
    unit = pow(det // p**v, -(k // 2), mod)
    return Action([[w * unit % mod for w in row]
                   for row in weight_coeff_rows(mat, k)], v * (k // 2), prec)


def gamma_action(dom: FundamentalDomain, x, r: int, k: int) -> Action:
    """The action of gamma = x/p^r, memoized on the domain.  Scalars act
    trivially, so iota(x) with exact determinant nrd(x) is used; its residues
    are known modulo p^spl.prec, which bounds every entry."""
    key = (x, r, k)
    if key not in dom.actions:
        Xi, det = gamma_matrix(dom, x, r)
        dom.actions[key] = weight_action(dom.p, Xi, det, k, dom.spl.prec)
    return dom.actions[key]


def act_on(p: int, act: Action, vec, prec: int):
    """act applied to a V_k value vec = (residues, scale, precision), in the
    convention of `Action`.  The value's absolute precision is first capped
    at prec; the action's scale then costs its digits."""
    res, s, P = vec
    P = min(P, act.prec, prec + s)
    mod = p ** max(P, 0)
    return [sum(map(mul, row, res)) % mod for row in act.rows], s + act.scale, P


def as_padics(p: int, vec) -> list[PadicNumber]:
    """The entries of a V_k value (residues, scale, precision)."""
    res, s, P = vec
    return [PadicNumber(p, -s, a, P - s) for a in res]


@dataclass
class HarmonicCocycle:
    """Values on the geometric edge representatives of the domain:
    c(e_j)(x^m) = values[j][m], known modulo p^prec."""

    dom: FundamentalDomain
    k: int
    values: list  # per geometric rep: k+1 integer residues modulo p^prec
    prec: int

    def value(self, e: Edge, prec: int):
        """c(e) for an arbitrary directed edge, as (residues, scale,
        precision) in the convention of `Action`, capped at prec digits
        before the action's scale."""
        j, x, r = self.dom.locate(e)
        base = self.values[j // 2]
        if j % 2:
            base = [-t for t in base]
        vec = (base, 0, min(prec, self.prec))
        if self.dom.is_pm_one(x, r):
            return vec
        return act_on(self.dom.p, gamma_action(self.dom, x, r, self.k), vec, prec)


def harmonic_basis(dom: FundamentalDomain, k: int,
                   prec: int) -> list[HarmonicCocycle]:
    """Basis of the space of Gamma-invariant harmonic cocycles of weight k.

    The kernel is solved once, at the splitting's precision, which bounds
    the digits of every action; a returned cocycle carries what the solve
    leaves of them.  Raises PrecisionError when some cocycle carries fewer
    than `prec` digits.  Each edge stabilizer gives one block of conditions
    per pair x, -x of its nontrivial elements (`one_per_sign`).  The time
    budget is checked after each such block and each star edge."""
    p, n = dom.p, k + 1
    ngeo = len(dom.geo_edges)
    ident = Action([[int(i == m) for m in range(n)] for i in range(n)], 0,
                   dom.spl.prec)
    # each block of k+1 conditions: the sum over its (rep, sign, action)
    # terms of sign * action on the values of the geometric rep
    blocks = []
    for jg, stab in enumerate(dom.edge_stabs):
        for x, r in dom.one_per_sign(stab):
            blocks.append([(jg, 1, gamma_action(dom, x, r, k)),
                           (jg, -1, ident)])
            checkpoint()
    for v in dom.vertices:
        block = []
        for e in star(v):
            j, x, r = dom.locate(e)
            block.append((j // 2, 1 - 2 * (j % 2),
                          ident if dom.is_pm_one(x, r) else gamma_action(dom, x, r, k)))
            checkpoint()
        blocks.append(block)
    rows = []
    for block in blocks:
        acc = [[PadicNumber.zero(p, dom.spl.prec)] * (ngeo * n)
               for _ in range(n)]
        for geo, sign, act in block:
            P = act.prec - act.scale
            for num, row in zip(acc, act.rows):
                for m, a in enumerate(row):
                    num[geo * n + m] += PadicNumber(p, -act.scale, sign * a, P)
        rows += acc
    _, kernel = solve_linear(rows)
    out = []
    for vals in kernel:
        # normalize: first minimal-valuation entry becomes exactly 1
        inv = min((c for c in vals if not c.is_zero()), key=lambda c: c.val).inverse()
        vals = [c * inv for c in vals]
        P = min(c.prec for c in vals)
        res = [c.residue(P) for c in vals]
        out.append(HarmonicCocycle(
            dom, k, [res[j * n: (j + 1) * n] for j in range(ngeo)], P))
    if any(c.prec < prec for c in out):
        raise PrecisionError(
            f"harmonic basis needs a splitting beyond p^{dom.spl.prec}")
    return out


# ----------------------------------------------------------------------
# Atkin-Lehner involutions
# ----------------------------------------------------------------------


def _normalizes_rp(order, x, p: int) -> bool:
    """Whether x normalizes R[1/p]: x b x^-1 = x b conj(x) / nrd(x) has
    p-integral coordinates for every basis element b, that is the prime-to-p
    part of nrd(x) divides every coordinate of x b conj(x)."""
    n = order.nrd(x)
    n //= p ** val_int(n, p)
    xc = order.conj(x)
    return all(t % n == 0 for m in range(4)
               for t in order.mul(order.mul(x, [int(s == m) for s in range(4)]), xc))


def normalizing_element(dom: FundamentalDomain, nrd_target: int, parity_p: bool = False):
    """An element of R of reduced norm nrd_target (times p^(2r) when
    parity_p) normalizing R[1/p], as (integer coordinates, r); used for the
    two involutions."""
    p, order = dom.p, dom.order
    for r in range(0, 3 if parity_p else 1):
        target = nrd_target * p ** (2 * r)
        for c in enumerate_norm(order.gram, 2 * target):  # gram is 2 nrd
            if _normalizes_rp(order, c, p):
                return tuple(c), r
    raise RuntimeError(f"no normalizing element of reduced norm {nrd_target}")


def involution_matrix(dom: FundamentalDomain, k: int, w,
                      basis: list[HarmonicCocycle], prec: int):
    """Matrix M with w . c_i = sum_l M[l][i] c_l, solved on the stacked
    values of the cocycles on the geometric reps, where
    (w . c)(e) = w . c(w^-1 e)."""
    p = dom.p
    Wi = dom.spl.image(w)
    act = gamma_action(dom, w, 0, k)
    rows, rhs = [], [[] for _ in basis]
    for jg, e in enumerate(dom.geo_edges):
        pre = normalize_edge(mat_mul(mat_adj(Wi), e.matrix()), p)
        for c, col in zip(basis, rhs):
            col += as_padics(p, act_on(p, act, c.value(pre, prec), prec))
        for i in range(k + 1):
            rows.append([PadicNumber(p, 0, c.values[jg][i], c.prec) for c in basis])
    cols, _ = solve_linear(rows, rhs)
    return [[cols[i][l] for i in range(len(basis))] for l in range(len(basis))]
