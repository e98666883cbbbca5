"""Splitting an order at an unramified prime: R (x) Z_p ~ M_2(Z_p).

Strategy: find an order element y whose minimal polynomial splits over Q_p
(discriminant a nonzero square), form the rank-one idempotent
e = (y - lambda_2)/(lambda_1 - lambda_2), and let the algebra act by left
multiplication on the two-dimensional left ideal B e.  Conjugating by a basis
of a stable lattice makes the order land in M_2(Z_p) surjectively mod p.
The images are stored as integer matrices modulo p^prec.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .padics import PadicNumber, PrecisionError, sqrt_mod_ppow, val_int
from .quaternions import Order, Quat


class _SplitFail(Exception):
    pass


def _pn(x, p, prec) -> PadicNumber:
    return PadicNumber.from_fraction(Fraction(x), p, prec)


def _qmul(ab, x, y):
    """Quaternion product for coordinate 4-lists of PadicNumber."""
    a, b = ab
    x0, x1, x2, x3 = x
    y0, y1, y2, y3 = y
    return [
        x0 * y0 + a * (x1 * y1) + b * (x2 * y2) - a * b * (x3 * y3),
        x0 * y1 + x1 * y0 - b * (x2 * y3) + b * (x3 * y2),
        x0 * y2 + x2 * y0 + a * (x1 * y3) - a * (x3 * y1),
        x0 * y3 + x3 * y0 + x1 * y2 - x2 * y1,
    ]


@dataclass
class SplittingMap:
    """An algebra embedding iota with iota(R (x) Z_p) = M_2(Z_p), recorded as
    integer matrices modulo p^prec (row-major 4-tuples) for the order basis."""

    order: Order
    p: int
    prec: int
    images: list[tuple]

    def apply(self, x: Quat) -> tuple:
        """iota(x) for x in R[1/p], as a 4-tuple of Fractions whose entries
        are canonical representatives modulo p^(prec - denominator exponent)."""
        co = self.order.coordinates(x)
        e = 0
        for c in co:
            d = c.denominator
            while d % self.p == 0:
                d //= self.p
                e = max(e, val_int(c.denominator, self.p))
            if d != 1:
                raise ValueError("element is not in R[1/p]")
        mod = self.p**self.prec
        scaled = [int(c * self.p**e) % mod for c in co]
        mat = [0, 0, 0, 0]
        for cm, im in zip(scaled, self.images):
            for t in range(4):
                mat[t] = (mat[t] + cm * im[t]) % mod
        if e == 0:
            return tuple(Fraction(v) for v in mat)
        return tuple(Fraction(v, self.p**e) for v in mat)


def _lattice_basis(vecs, p, prec):
    """Column basis (2x2, PadicNumber) of the Z_p-lattice spanned by the
    given 2-vectors."""
    vecs = [list(v) for v in vecs]
    # first pivot: entry of minimal valuation anywhere
    best = None
    for ci, v in enumerate(vecs):
        for ri in range(2):
            if not v[ri].is_zero():
                key = v[ri].val
                if best is None or key < best[0]:
                    best = (key, ci, ri)
    if best is None:
        raise _SplitFail("degenerate lattice")
    _, ci, ri = best
    c1 = vecs[ci]
    piv = c1[ri].inverse()
    rest = []
    for j, v in enumerate(vecs):
        if j == ci:
            continue
        f = v[ri] * piv
        rest.append([v[0] - f * c1[0], v[1] - f * c1[1]])
    ro = 1 - ri
    best2 = None
    for j, v in enumerate(rest):
        if not v[ro].is_zero():
            if best2 is None or v[ro].val < best2[0]:
                best2 = (v[ro].val, j)
    if best2 is None:
        raise _SplitFail("lattice of rank < 2")
    c2 = rest[best2[1]]
    return [[c1[0], c2[0]], [c1[1], c2[1]]]


def _mat2_mul(A, B):
    return [
        [A[0][0] * B[0][0] + A[0][1] * B[1][0], A[0][0] * B[0][1] + A[0][1] * B[1][1]],
        [A[1][0] * B[0][0] + A[1][1] * B[1][0], A[1][0] * B[0][1] + A[1][1] * B[1][1]],
    ]


def _mat2_inv(A):
    det = A[0][0] * A[1][1] - A[0][1] * A[1][0]
    di = det.inverse()
    return [[A[1][1] * di, -A[0][1] * di], [-A[1][0] * di, A[0][0] * di]]


def _candidates():
    for radius in range(1, 4):
        for c in itertools.product(range(-radius, radius + 1), repeat=4):
            if max(abs(t) for t in c) != radius:
                continue
            if all(t == 0 for t in c[1:]):
                continue
            yield c


def splitting_map(order: Order, p: int, prec: int, variant: int = 0) -> SplittingMap:
    """Construct a splitting of the order at p (p must not divide the
    discriminant).  `variant` selects a different (equally valid) splitting,
    used to check that downstream results do not depend on the choice."""
    P = prec + 12
    alg = order.algebra
    ab = (alg.a, alg.b)
    skip = variant
    for c in _candidates():
        y = order.element(c)
        T = Fraction(y.trd())
        disc = T * T - 4 * Fraction(y.nrd())
        if disc == 0:
            continue
        assert disc.denominator == 1
        d = int(disc)
        v = val_int(d, p)
        if v % 2:
            continue
        u = d // p**v
        if p == 2:
            if u % 8 != 1:
                continue
        else:
            if pow(u % p, (p - 1) // 2, p) != 1:
                continue
        try:
            spl = _build(order, y, T, d, v, p, P, prec, variant)
        except (_SplitFail, PrecisionError):
            continue
        if skip > 0:
            skip -= 1
            continue
        return spl
    raise RuntimeError("no splitting element found")


def _build(order, y, T, disc_int, v, p, P, prec, variant) -> SplittingMap:
    ab = (order.algebra.a, order.algebra.b)
    su = sqrt_mod_ppow(disc_int // p**v, p, 2 * P)
    s = PadicNumber(p, v // 2, su, v // 2 + 2 * P)
    lam2 = (_pn(T, p, 2 * P) - s) * _pn(Fraction(1, 2), p, 2 * P)
    yco = [_pn(x, p, 2 * P) for x in y.co]
    e = [(yco[0] - lam2) / s, yco[1] / s, yco[2] / s, yco[3] / s]
    # pick z2 = g * e among i, j, k (variant rotates the choice)
    gens = [
        [_pn(1 if t == m else 0, p, 2 * P) for t in range(4)] for m in range(1, 4)
    ]
    last_fail = _SplitFail("no independent companion")
    for gi in range(3):
        g = gens[(gi + variant) % 3]
        z1, z2 = e, _qmul(ab, g, e)
        # find the best 2x2 row minor
        best = None
        for r1 in range(4):
            for r2 in range(r1 + 1, 4):
                det2 = z1[r1] * z2[r2] - z1[r2] * z2[r1]
                if not det2.is_zero():
                    if best is None or det2.val < best[0]:
                        best = (det2.val, r1, r2)
        if best is None:
            continue
        _, r1, r2 = best
        try:
            return _finish(order, z1, z2, r1, r2, p, P, prec, variant)
        except (_SplitFail, PrecisionError) as exc:
            last_fail = exc
    raise last_fail


def _finish(order, z1, z2, r1, r2, p, P, prec, variant) -> SplittingMap:
    ab = (order.algebra.a, order.algebra.b)
    det2 = z1[r1] * z2[r2] - z1[r2] * z2[r1]
    di = det2.inverse()

    def in_ideal_coords(t):
        """Solve alpha z1 + beta z2 = t; fail if t is outside the ideal."""
        alpha = (t[r1] * z2[r2] - t[r2] * z2[r1]) * di
        beta = (z1[r1] * t[r2] - z1[r2] * t[r1]) * di
        for r in range(4):
            resid = alpha * z1[r] + beta * z2[r] - t[r]
            if not resid.with_prec(prec).is_zero():
                raise _SplitFail("vector outside the left ideal")
        return alpha, beta

    raw = []
    for b in order.basis:
        bco = [_pn(x, p, 2 * P) for x in b.co]
        a1, a2 = in_ideal_coords(_qmul(ab, bco, z1))
        b1, b2 = in_ideal_coords(_qmul(ab, bco, z2))
        raw.append([[a1, b1], [a2, b2]])
    # stabilize a lattice under the action
    if variant % 2 == 0:
        Tm = [[_pn(1, p, 2 * P), _pn(0, p, 2 * P)], [_pn(0, p, 2 * P), _pn(1, p, 2 * P)]]
    else:
        Tm = [[_pn(1, p, 2 * P), _pn(1, p, 2 * P)], [_pn(1, p, 2 * P), _pn(0, p, 2 * P)]]
    for _ in range(40):
        cols = [[Tm[0][0], Tm[1][0]], [Tm[0][1], Tm[1][1]]]
        vecs = list(cols)
        for M in raw:
            for v0 in cols:
                vecs.append(
                    [M[0][0] * v0[0] + M[0][1] * v0[1], M[1][0] * v0[0] + M[1][1] * v0[1]]
                )
        Tn = _lattice_basis(vecs, p, P)
        od = (Tm[0][0] * Tm[1][1] - Tm[0][1] * Tm[1][0]).valuation()
        nd = (Tn[0][0] * Tn[1][1] - Tn[0][1] * Tn[1][0]).valuation()
        Tm = Tn
        if nd == od:
            break
    else:
        raise _SplitFail("lattice did not stabilize")
    Ti = _mat2_inv(Tm)
    images = []
    for M in raw:
        MM = _mat2_mul(Ti, _mat2_mul(M, Tm))
        ent = []
        for r in range(2):
            for cidx in range(2):
                x = MM[r][cidx]
                if not x.is_zero() and x.val < 0:
                    raise _SplitFail("image not integral")
                ent.append(x.residue(prec))
        images.append(tuple(ent))
    _verify(order, images, p, prec)
    return SplittingMap(order, p, prec, images)


def _verify(order, images, p, prec):
    mod = p**prec
    # unit of the order maps to the identity
    one_co = order.coordinates(order.algebra.one())
    ident = [0, 0, 0, 0]
    for cm, im in zip(one_co, images):
        assert cm.denominator == 1
        for t in range(4):
            ident[t] = (ident[t] + int(cm) * im[t]) % mod
    if tuple(ident) != (1 % mod, 0, 0, 1 % mod):
        raise _SplitFail("unit does not map to the identity")
    # trace / determinant vs reduced trace / norm
    for b, m in zip(order.basis, images):
        tr = (m[0] + m[3]) % mod
        det = (m[0] * m[3] - m[1] * m[2]) % mod
        if tr != int(Fraction(b.trd())) % mod or det != int(Fraction(b.nrd())) % mod:
            raise _SplitFail("trace/norm mismatch")
    # surjective mod p: the four images span M_2(F_p)
    rows = [[im[t] % p for t in range(4)] for im in images]
    if _rank_mod_p(rows, p) != 4:
        raise _SplitFail("images do not span M_2 mod p")
    # multiplicativity spot check (basis products lie in the order)
    x, y = order.basis[1], order.basis[2]
    co = order.coordinates(x * y)
    assert all(c.denominator == 1 for c in co)
    prod = [0, 0, 0, 0]
    for cm, im in zip(co, images):
        for t in range(4):
            prod[t] = (prod[t] + int(cm) * im[t]) % mod
    mx, my = images[1], images[2]
    direct = (
        mx[0] * my[0] + mx[1] * my[2],
        mx[0] * my[1] + mx[1] * my[3],
        mx[2] * my[0] + mx[3] * my[2],
        mx[2] * my[1] + mx[3] * my[3],
    )
    for t in range(4):
        if (direct[t] - prod[t]) % mod != 0:
            raise _SplitFail("multiplicativity failure")


def _rank_mod_p(rows, p):
    A = [list(r) for r in rows]
    n = len(A)
    m = len(A[0])
    rank = 0
    for c in range(m):
        piv = None
        for r in range(rank, n):
            if A[r][c] % p:
                piv = r
                break
        if piv is None:
            continue
        A[rank], A[piv] = A[piv], A[rank]
        inv = pow(A[rank][c], -1, p)
        for r in range(n):
            if r != rank and A[r][c] % p:
                f = A[r][c] * inv % p
                A[r] = [(x - f * y) % p for x, y in zip(A[r], A[rank])]
        rank += 1
    return rank
