"""The PadicNumber splitting: the reference for `splitting.splitting_map`.

`splitting.splitting_map` builds the local splitting on integer residues
modulo p^(2P) under one scale.  This module keeps the construction it
replaced, where the idempotent, the ideal coordinates, the action matrices
and the lattice basis are p-adic numbers with their own precision
(multiplied by the PadicNumber form of `quaternions.qmul`), and the same
candidate loop drives it.  Its `_verify` is the one it had, with a
multiplicativity check on b_1 b_2 alone, so that a candidate the stronger
check of `splitting._verify` rejects would show as different images; the
tests compare the two on their images (or on both finding no splitting).
"""

from __future__ import annotations

from fractions import Fraction

from linvariant.padics import PadicNumber, PrecisionError, sqrt_mod_ppow, val_int
from linvariant.quaternions import det
from linvariant.splitting import SplittingMap, _candidates, _SplitFail
from linvariant.tree import mat_adj, mat_det, mat_mul


def _pn(x, p, prec) -> PadicNumber:
    return PadicNumber.from_fraction(Fraction(x), p, prec)


def qmul(ab, x, y):
    """`quaternions.qmul` on PadicNumber coordinates: the products of
    coordinates are formed before a and b multiply them."""
    a, b = ab
    x0, x1, x2, x3 = x
    y0, y1, y2, y3 = y
    return [
        x0 * y0 + a * (x1 * y1) + b * (x2 * y2) - a * b * (x3 * y3),
        x0 * y1 + x1 * y0 - b * (x2 * y3) + b * (x3 * y2),
        x0 * y2 + x2 * y0 + a * (x1 * y3) - a * (x3 * y1),
        x0 * y3 + x3 * y0 + x1 * y2 - x2 * y1,
    ]


def splitting_map(order, p: int, prec: int, variant: int = 0) -> SplittingMap:
    """`splitting.splitting_map` with the PadicNumber construction."""
    P = prec + 12
    skip = variant
    for c in _candidates():
        T = order.trd(c)
        d = T * T - 4 * order.nrd(c)
        if d == 0:
            continue
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
            spl = _build(order, c, T, d, v, p, P, prec, variant)
        except (_SplitFail, PrecisionError):
            continue
        if skip > 0:
            skip -= 1
            continue
        return spl
    raise RuntimeError("no splitting element found")


def _lattice_basis(mats):
    """A 2x2 matrix whose columns are a basis of the Z_p-lattice spanned
    by the columns of the given 2x2 matrices."""
    vecs = [(m[c], m[c + 2]) for m in mats for c in (0, 1)]
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
    return (c1[0], c2[0], c1[1], c2[1])


def _build(order, c, T, disc_int, v, p, P, prec, variant) -> SplittingMap:
    ab = (order.algebra.a, order.algebra.b)
    su = sqrt_mod_ppow(disc_int // p**v, p, 2 * P)
    s = PadicNumber(p, v // 2, su, v // 2 + 2 * P)
    lam2 = (_pn(T, p, 2 * P) - s) * _pn(Fraction(1, 2), p, 2 * P)
    yco = [_pn(Fraction(x, order.den), p, 2 * P) for x in order.element(c)]
    e = [(yco[0] - lam2) / s, yco[1] / s, yco[2] / s, yco[3] / s]
    # pick z2 = g * e among i, j, k (variant rotates the choice)
    gens = [
        [_pn(1 if t == m else 0, p, 2 * P) for t in range(4)] for m in range(1, 4)
    ]
    last_fail = _SplitFail("no independent companion")
    for gi in range(3):
        g = gens[(gi + variant) % 3]
        z1, z2 = e, qmul(ab, g, e)
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
    for row in order.rows:
        bco = [_pn(Fraction(x, order.den), p, 2 * P) for x in row]
        a1, a2 = in_ideal_coords(qmul(ab, bco, z1))
        b1, b2 = in_ideal_coords(qmul(ab, bco, z2))
        raw.append((a1, b1, a2, b2))
    # stabilize a lattice under the action
    Tm = tuple(_pn(x, p, 2 * P)
               for x in ((1, 0, 0, 1) if variant % 2 == 0 else (1, 1, 1, 0)))
    for _ in range(40):
        Tn = _lattice_basis([Tm] + [mat_mul(M, Tm) for M in raw])
        od = mat_det(Tm).valuation()
        nd = mat_det(Tn).valuation()
        Tm = Tn
        if nd == od:
            break
    else:
        raise _SplitFail("lattice did not stabilize")
    di = mat_det(Tm).inverse()
    Ti = tuple(x * di for x in mat_adj(Tm))
    images = []
    for M in raw:
        ent = []
        for x in mat_mul(Ti, mat_mul(M, Tm)):
            if not x.is_zero() and x.val < 0:
                raise _SplitFail("image not integral")
            ent.append(x.residue(prec))
        images.append(tuple(ent))
    spl = SplittingMap(order, p, prec, images)
    _verify(spl)
    return spl


def _verify(spl: SplittingMap):
    order, p, mod = spl.order, spl.p, spl.p**spl.prec
    # unit of the order maps to the identity
    if spl.image(order.one) != (1 % mod, 0, 0, 1 % mod):
        raise _SplitFail("unit does not map to the identity")
    # trace / determinant vs reduced trace / norm of the basis elements
    for b, m in enumerate(spl.images):
        e = [int(t == b) for t in range(4)]
        if ((m[0] + m[3] - order.trd(e)) % mod
                or (mat_det(m) - order.nrd(e)) % mod):
            raise _SplitFail("trace/norm mismatch")
    # surjective mod p: the four images span M_2(F_p)
    if det([list(im) for im in spl.images]) % p == 0:
        raise _SplitFail("images do not span M_2 mod p")
    # multiplicativity spot check (basis products lie in the order)
    direct = mat_mul(spl.images[1], spl.images[2])
    if any((a - b) % mod for a, b in zip(direct, spl.image(order.table[1][2]))):
        raise _SplitFail("multiplicativity failure")
