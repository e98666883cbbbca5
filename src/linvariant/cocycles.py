"""Harmonic cocycles with values in V_k (dual of degree-k polynomials).

A cocycle c assigns to each directed edge a functional on P_k, with
c(reversed e) = -c(e), zero sum over each vertex star (source convention), and
Gamma-equivariance c(gamma e) = gamma . c(e), where the left action on V_k is
(gamma . w)(P) = w(P |_k gamma) and (P |_k g)(x) = det(g)^(-k/2) (cx+d)^k
P((ax+b)/(cx+d)).

A cocycle is stored by its values on the geometric edge representatives of a
fundamental domain; the space is computed as the kernel of the stabilizer-
invariance and harmonicity conditions.  Also provides the two Atkin-Lehner
involutions given by normalizing elements of reduced norms N and p.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .domain import EdgeReducer, FundamentalDomain, _is_pm_one, gamma_matrix
from .padics import PadicNumber, PrecisionError, solve_linear
from .quaternions import Quat, enumerate_norm
from .tree import Edge, frac_val, mat_adj, mat_mul, normalize_edge, star


def weight_coeff_rows(mat, k: int):
    """Rows W[i] = coefficients of (a x + b)^i (c x + d)^(k-i), exact.

    x^i |_k g = det(g)^(-k/2) * sum_m W[i][m] x^m."""
    a, b, c, d = mat
    rows = []
    for i in range(k + 1):
        left = [0] * (i + 1)
        for s in range(i + 1):
            left[s] = comb(i, s) * a**s * b ** (i - s)
        right = [0] * (k - i + 1)
        for s in range(k - i + 1):
            right[s] = comb(k - i, s) * c**s * d ** (k - i - s)
        row = [0] * (k + 1)
        for s1, v1 in enumerate(left):
            for s2, v2 in enumerate(right):
                row[s1 + s2] += v1 * v2
        rows.append(row)
    return rows


def vk_act(p: int, k: int, mat, det_exact: Fraction, omega, prec: int):
    """gamma . omega for omega in V_k (list of k+1 PadicNumber).

    mat: matrix entries (integers, possibly residues); det_exact: the exact
    determinant of the true matrix (its valuation and unit part are used, so
    residue entries are fine as long as det_exact is exact)."""
    det_exact = Fraction(det_exact)
    v = frac_val(det_exact, p)
    unit = det_exact / Fraction(p) ** v
    W = weight_coeff_rows(tuple(int(x) for x in mat), k)
    dfac = (
        PadicNumber.from_fraction(unit, p, prec).inverse() ** (k // 2)
        * PadicNumber(p, -v * (k // 2), 1, -v * (k // 2) + prec)
    )
    out = []
    for i in range(k + 1):
        acc = PadicNumber.zero(p, prec + abs(v) * k)
        for m in range(k + 1):
            if W[i][m]:
                acc = acc + PadicNumber.from_int(W[i][m], p, prec) * omega[m]
        out.append(acc * dfac)
    return out


def act_by_gamma(dom: FundamentalDomain, k: int, x: Quat, r: int, omega, prec: int):
    """Action of gamma = x/p^r through the splitting (scalars act trivially,
    so iota(x) with exact determinant nrd(x) is used)."""
    Xi, det = gamma_matrix(dom, x, r)
    return vk_act(dom.p, k, Xi, det, omega, prec)


@dataclass
class HarmonicCocycle:
    """Values on the geometric edge representatives of the domain."""

    dom: FundamentalDomain
    k: int
    values: list  # per geometric rep: list of k+1 PadicNumber

    def value(self, e: Edge, reducer: EdgeReducer, prec: int):
        """c(e) for an arbitrary directed edge."""
        j, x, r = reducer.locate(e)
        geo, sign = j // 2, (1 if j % 2 == 0 else -1)
        base = self.values[geo]
        if sign < 0:
            base = [-t for t in base]
        if _is_pm_one(x, r):
            return [t.with_prec(min(prec, t.prec)) for t in base]
        return act_by_gamma(self.dom, self.k, x, r, base, prec)


def harmonic_basis(dom: FundamentalDomain, k: int, prec: int) -> list[HarmonicCocycle]:
    """Basis of the space of Gamma-invariant harmonic cocycles of weight k.

    Every value of every returned cocycle carries at least `prec` digits; the
    kernel solve runs at a padded working precision until that holds."""
    pad = 0
    while True:
        out = _harmonic_basis_at(dom, k, prec + pad)
        if not out:
            return out
        got = min(v.prec for c in out for row in c.values for v in row)
        if got >= prec:
            return out
        pad += max(10, prec - got)
        if pad > 40 * (k + 2):
            raise PrecisionError("harmonic basis solve keeps losing precision")


def _harmonic_basis_at(dom: FundamentalDomain, k: int, prec: int) -> list[HarmonicCocycle]:
    p = dom.p
    ngeo = len(dom.geo_edges)
    nun = ngeo * (k + 1)
    reducer = EdgeReducer(dom)
    rows = []

    def zero():
        return PadicNumber.zero(p, prec)

    def one():
        return PadicNumber.one(p, prec)

    basisvecs = [[one() if i == m else zero() for i in range(k + 1)]
                 for m in range(k + 1)]
    # stabilizer invariance
    for jg, stab in enumerate(dom.edge_stabs):
        for x, r in stab:
            if _is_pm_one(x, r):
                continue
            cols = [act_by_gamma(dom, k, x, r, u, prec) for u in basisvecs]
            for i in range(k + 1):
                row = [zero() for _ in range(nun)]
                for m in range(k + 1):
                    row[jg * (k + 1) + m] = cols[m][i] - (one() if m == i else zero())
                rows.append(row)
    # harmonicity at vertex representatives
    for v in dom.vertices:
        blocks = [[zero() for _ in range(nun)] for _ in range(k + 1)]
        for e in star(v):
            j, x, r = reducer.locate(e)
            geo, sign = j // 2, (1 if j % 2 == 0 else -1)
            if _is_pm_one(x, r):
                cols = basisvecs
            else:
                cols = [act_by_gamma(dom, k, x, r, u, prec) for u in basisvecs]
            for i in range(k + 1):
                for m in range(k + 1):
                    blocks[i][geo * (k + 1) + m] = (
                        blocks[i][geo * (k + 1) + m] + sign * cols[m][i]
                    )
        rows.extend(blocks)
    _, kernel = solve_linear(rows)
    out = []
    for vec in kernel:
        vals = [c for c in vec]
        # normalize: first minimal-valuation entry becomes exactly 1
        piv = None
        for c in vals:
            if not c.is_zero() and (piv is None or c.val < piv.val):
                piv = c
        assert piv is not None
        inv = piv.inverse()
        vals = [c * inv for c in vals]
        out.append(
            HarmonicCocycle(
                dom, k, [vals[j * (k + 1): (j + 1) * (k + 1)] for j in range(ngeo)]
            )
        )
    return out


# ----------------------------------------------------------------------
# Atkin-Lehner involutions
# ----------------------------------------------------------------------


def _normalizes_rp(order, x: Quat, p: int) -> bool:
    """Whether x normalizes R[1/p] (conjugation keeps p-integral coords)."""
    xi = x.inverse()
    for b in order.basis:
        co = order.coordinates(x * b * xi)
        for c in co:
            d = c.denominator
            while d % p == 0:
                d //= p
            if d != 1:
                return False
    return True


def normalizing_element(dom: FundamentalDomain, nrd_target: int, parity_p: bool = False):
    """An element of R of reduced norm nrd_target (times p^(2r) when
    parity_p) normalizing R[1/p]; used for the two involutions."""
    p = dom.p
    gram = dom.order.gram()
    for r in range(0, 3 if parity_p else 1):
        target = nrd_target * p ** (2 * r)
        for c in enumerate_norm(gram, Fraction(target)):
            x = dom.order.element(c)
            if _normalizes_rp(dom.order, x, p):
                return x, r
    raise RuntimeError(f"no normalizing element of reduced norm {nrd_target}")


def involution_action(dom: FundamentalDomain, reducer: EdgeReducer, k: int,
                      w: Quat, coc: HarmonicCocycle, prec: int) -> HarmonicCocycle:
    """(w . c)(e) = w . c(w^{-1} e), evaluated on the geometric reps."""
    p = dom.p
    Wi, det_exact = gamma_matrix(dom, w, 0)
    newvals = []
    for e in dom.geo_edges:
        pre = normalize_edge(mat_mul(mat_adj(Wi), e.matrix()), p)
        val = coc.value(pre, reducer, prec)
        newvals.append(vk_act(p, k, Wi, det_exact, val, prec))
    return HarmonicCocycle(dom, k, newvals)


def cocycle_coordinates(basis: list[HarmonicCocycle], target: HarmonicCocycle, prec: int):
    """Coordinates of `target` in the given basis (values-stack solve)."""
    dom = basis[0].dom
    k = basis[0].k
    p = dom.p
    rows = []
    rhs = []
    for jg in range(len(dom.geo_edges)):
        for i in range(k + 1):
            rows.append([b.values[jg][i] for b in basis])
            rhs.append(target.values[jg][i])
    x, _ = solve_linear(rows, rhs)
    return x


def involution_matrix(dom: FundamentalDomain, reducer: EdgeReducer, k: int,
                      w: Quat, basis: list[HarmonicCocycle], prec: int):
    """Matrix M with w . c_i = sum_l M[l][i] c_l."""
    cols = []
    for c in basis:
        wc = involution_action(dom, reducer, k, w, c, prec)
        cols.append(cocycle_coordinates(basis, wc, prec))
    return [[cols[i][l] for i in range(len(basis))] for l in range(len(basis))]
