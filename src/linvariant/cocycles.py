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
is the kernel of the stabilizer-invariance and harmonicity conditions, and
the two Atkin-Lehner involutions, given by normalizing elements of reduced
norms N and p, are solved on the values, all as integer rows under one
scale (`padics.solve_linear`).
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import mul
from typing import NamedTuple

from .budget import checkpoint
from .domain import FundamentalDomain, gamma_matrix
from .padics import PrecisionError, solve_linear, val_int
from .quaternions import enumerate_norm
from .tree import Edge, mat_adj, mat_mul, normalize_edge


def weight_coeff_rows(mat, k: int, mod: int):
    """Rows W[i] = coefficients of (a x + b)^i (c x + d)^(k-i) modulo mod,
    with x^i |_k g = det(g)^(-k/2) * sum_m W[i][m] x^m.  Each row is the
    convolution of two powers, each power the one before times a x + b or
    c x + d; the time budget is checked after each power and each row."""
    a, b, c, d = (t % mod for t in mat)

    def powers(u, v):
        """(u x + v)^n modulo mod for n = 0..k."""
        out = [[1]]
        for _ in range(k):
            checkpoint()
            f = out[-1]
            out.append([(u * s + v * t) % mod
                        for s, t in zip([0] + f, f + [0])])
        return out

    left, right = powers(a, b), powers(c, d)
    rows = []
    for f, g in zip(left, reversed(right)):
        row = [0] * (k + 1)
        for s, fs in enumerate(f):
            for m, gt in enumerate(g, s):
                row[m] += fs * gt
        rows.append([t % mod for t in row])
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
    return Action([[w * unit % mod for w in row] for row in
                   weight_coeff_rows(mat, k, mod)], v * (k // 2), prec)


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


def stack_values(p: int, vecs, E: int):
    """V_k values (residues, scale, precision or one per entry) as in
    `Action`, stacked into one (residues, precisions) pair of `solve_linear`
    under the scale p^-E, at least each value's own."""
    res, precs = [], []
    for r, s, P in vecs:
        res += [a * p ** (E - s) for a in r]
        precs += [q + E - s for q in P] if isinstance(P, list) else [P + E - s] * len(r)
    return res, precs


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
    per pair x, -x of its nontrivial elements (`one_per_sign`), each vertex
    one: the sum of its terms sign * action (None for the identity) on a
    rep's values, as integers under the largest scale of any action.  The
    time budget is checked after each stabilizer block and star edge."""
    p, n, ngeo = dom.p, k + 1, len(dom.geo_edges)
    blocks = []
    for jg, stab in enumerate(dom.edge_stabs):
        for x, r in dom.one_per_sign(stab):
            blocks.append([(jg, 1, gamma_action(dom, x, r, k)), (jg, -1, None)])
            checkpoint()
    for v in dom.vertices:
        block = []
        for e in dom.stars[v]:
            j, x, r = dom.locate(e)
            block.append((j // 2, 1 - 2 * (j % 2), None if dom.is_pm_one(x, r)
                          else gamma_action(dom, x, r, k)))
            checkpoint()
        blocks.append(block)
    E = max([a.scale for blk in blocks for _, _, a in blk if a], default=0)
    rows = []
    for block in blocks:
        acc = [[0] * (ngeo * n) for _ in range(n)]
        # a rep's entries are known to the lowest precision of its terms
        P = [dom.spl.prec] * ngeo
        for geo, sign, act in block:
            if act is None:
                for m, num in enumerate(acc):
                    num[geo * n + m] += sign * p**E
                continue
            P[geo] = min(P[geo], act.prec - act.scale)
            f, cols = sign * p ** (E - act.scale), slice(geo * n, geo * n + n)
            for num, row in zip(acc, act.rows):
                num[cols] = [s + f * a for s, a in zip(num[cols], row)]
        rows += [(num, [P[g] + E for g in range(ngeo) for _ in range(n)])
                 for num in acc]
    _, kernel = solve_linear(p, E, rows)
    out = []
    for vals in kernel:
        # the first entry c0 of lowest valuation becomes exactly 1; c / c0 is
        # known to min(P(c) - v0, P0 - 2 v0 + v(c))
        v0, u0, P0 = min((t for t in vals if t[1]), key=lambda t: t[0])
        P = min(min(Pc - v0, P0 - 2 * v0 + v) for v, _, Pc in vals)
        if P < prec:
            raise PrecisionError(
                f"harmonic basis needs a splitting beyond p^{dom.spl.prec}")
        inv = pow(u0, -1, p**P)
        res = [u * inv * p ** (v - v0) % p**P if u else 0 for v, u, _ in vals]
        out.append(HarmonicCocycle(dom, k, [res[j * n:j * n + n] for j in range(ngeo)], P))
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
    two involutions.  Searched once per order: it is recorded in
    `dom.normalizers`, which copies of the domain share."""
    key, p, order = (nrd_target, parity_p), dom.p, dom.order
    if key in dom.normalizers:
        return dom.normalizers[key]
    for r in range(0, 3 if parity_p else 1):
        target = nrd_target * p ** (2 * r)
        for c in enumerate_norm(order.gram, 2 * target):  # gram is 2 nrd
            if _normalizes_rp(order, c, p):
                return dom.normalizers.setdefault(key, (tuple(c), r))
    raise RuntimeError(f"no normalizing element of reduced norm {nrd_target}")


def involution_matrix(dom: FundamentalDomain, k: int, w,
                      basis: list[HarmonicCocycle], prec: int):
    """Matrix M with w . c_i = sum_l M[l][i] c_l, entries (val, unit, prec)
    triples, solved on the stacked values of the cocycles on the geometric
    reps, where (w . c)(e) = w . c(w^-1 e)."""
    p, act, Wi = dom.p, gamma_action(dom, w, 0, k), mat_adj(dom.spl.image(w))
    pres = [normalize_edge(mat_mul(Wi, e.matrix()), p) for e in dom.geo_edges]
    images = [[act_on(p, act, c.value(e, prec), prec) for e in pres]
              for c in basis]
    E = max(s for vecs in images for _, s, _ in vecs)
    rows = [([c.values[j][i] * p**E for c in basis], [c.prec + E for c in basis])
            for j in range(len(pres)) for i in range(k + 1)]
    cols, _ = solve_linear(p, E, rows, [stack_values(p, v, E) for v in images])
    return [list(row) for row in zip(*cols)]
