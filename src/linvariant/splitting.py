"""Splitting an order at an unramified prime: R (x) Z_p ~ M_2(Z_p).

Strategy: find an order element y whose minimal polynomial splits over Q_p
(discriminant a nonzero square s^2), form the rank-one idempotent
e = (y - lambda_2)/s, and let the algebra act by left multiplication on the
left ideal B e, in the basis z1 = e, z2 = g e for g one of i, j, k.
Conjugating by a basis of a stable lattice makes the order land in M_2(Z_p)
surjectively mod p.  y is searched among small integer coordinates in the
order basis, by the order's integer trace and norm.

Everything runs on integers modulo p^(2P) under one scale per quantity.
The action does not depend on the scale of e, so e enters as the integer
vector E = 2 s den e = (2 x_0 - den T + den s, 2 x_1, 2 x_2, 2 x_3), with
y = x / den on (1, i, j, k) and T its trace.  The coordinates in the ideal
are Cramer numerators over a row minor D of (z1, z2) times the inverse of
the unit part of den D, under the scale p^-delta.  The lattice basis L is
an integer matrix up to a scalar, which changes neither the lattice steps
nor adj(L) M L / det(L).  Digits are lost only where a p-power divides: in D,
at each lattice pivot, in the ideal residual (which must vanish to
p^(prec + delta + v(den) + v(2 s den)) in the scale of E) and in the images
(which must be divisible by p^(delta + v(det L))).  Where the digits do not
cover a loss, PrecisionError is raised and the candidate loop moves on.
The images are stored as integer matrices modulo p^prec.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .padics import PrecisionError, sqrt_mod_ppow, val_int
from .quaternions import Order, det, qmul
from .tree import mat_adj, mat_det, mat_mul


class _SplitFail(Exception):
    pass


@dataclass
class SplittingMap:
    """An algebra embedding iota with iota(R (x) Z_p) = M_2(Z_p), recorded as
    integer matrices modulo p^prec (row-major 4-tuples) for the order basis.
    Elements of R are integer coordinate vectors in that basis."""

    order: Order
    p: int
    prec: int
    images: list[tuple]
    memo: dict = field(default_factory=dict, compare=False, repr=False)

    def image(self, c) -> tuple:
        """iota(sum_m c_m b_m) modulo p^prec for integer coordinates c,
        computed once per coordinate tuple."""
        if (c := tuple(c)) not in self.memo:
            mod = self.p**self.prec
            self.memo[c] = tuple(sum(cm * im[t] for cm, im in zip(c, self.images))
                                 % mod for t in range(4))
        return self.memo[c]


def _lattice_basis(mats, p, K):
    """(B, m): the columns of p^m B are a basis of the Z_p-lattice spanned
    by the columns of the given 2x2 matrices, whose entries are p-adic
    integers known modulo p^K; m is their least valuation, and B is known
    modulo p^(K - m)."""
    mod = p**K
    vecs = [(m[c] % mod, m[c + 2] % mod) for m in mats for c in (0, 1)]
    # first pivot: entry of minimal valuation anywhere
    best = min(((val_int(y, p), ci, ri) for ci, v in enumerate(vecs)
                for ri, y in enumerate(v) if y), default=None)
    if best is None:
        raise _SplitFail("degenerate lattice")
    m, ci, ri = best
    c1, ro, pm = vecs[ci], 1 - ri, p**m
    piv = pow(c1[ri] // pm, -1, mod)
    # the second column: of the v - (v[ri] / c1[ri]) c1, whose entry in
    # row ri vanishes, the first with an entry of least valuation in row ro
    rest = [(v[ro] - v[ri] // pm * piv * c1[ro]) % mod
            for j, v in enumerate(vecs) if j != ci]
    x = min((y for y in rest if y), key=lambda y: val_int(y, p), default=0)
    if not x:
        raise _SplitFail("lattice of rank < 2")
    c2 = (0, x) if ri == 0 else (x, 0)
    return (c1[0] // pm, c2[0] // pm, c1[1] // pm, c2[1] // pm), m


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


def _build(order, c, T, disc_int, v, p, P, prec, variant) -> SplittingMap:
    ab, den = (order.algebra.a, order.algebra.b), order.den
    # s is known modulo p^(v/2 + 2P), so E modulo p^KE, and the minors of
    # (z1, z2) modulo p^KD, KD - KE the least valuation in E
    KE = 2 * P + v // 2 + val_int(den, p)
    s = p**(v // 2) * sqrt_mod_ppow(disc_int // p**v, p, 2 * P)
    x = order.element(c)
    E = [(2 * x[0] - den * (T - s)) % p**KE, 2 * x[1], 2 * x[2], 2 * x[3]]
    KD = KE + min(val_int(y, p) for y in E if y)
    last_fail = _SplitFail("no independent companion")
    for gi in range(3):
        # z2 = g e for g among i, j, k (variant rotates the choice), and
        # the row minor of (z1, z2) of least valuation
        Z2 = qmul(ab, [int(t == (gi + variant) % 3 + 1) for t in range(4)], E)
        minors = ((r1, r2, (E[r1] * Z2[r2] - E[r2] * Z2[r1]) % p**KD)
                  for r1, r2 in itertools.combinations(range(4), 2))
        best = min(((val_int(D, p), r1, r2, D) for r1, r2, D in minors if D),
                   default=None)
        if best is None:
            continue
        try:
            return _finish(order, E, Z2, best, KE, KD, v, p, prec, variant)
        except (_SplitFail, PrecisionError) as exc:
            last_fail = exc
    raise last_fail


def _finish(order, Z1, Z2, best, KE, KD, v, p, prec, variant) -> SplittingMap:
    ab, den = (order.algebra.a, order.algebra.b), order.den
    vD, r1, r2, D = best
    mod, vden = p**KD, val_int(den, p)
    # den b z1 and den b z2 for each basis element b, and by Cramer's rule
    # den D times the coordinates (a1, b1, a2, b2) of b in (z1, z2)
    ts = [(qmul(ab, row, Z1), qmul(ab, row, Z2)) for row in order.rows]
    num = [tuple(y % mod for y in
                 [t[r1] * Z2[r2] - t[r2] * Z2[r1] for t in tt]
                 + [Z1[r1] * t[r2] - Z1[r2] * t[r1] for t in tt]) for tt in ts]
    # the raw matrices are the integer matrices num / p^r0 times the inverse
    # of the unit part of den D, under the scale p^-delta, known modulo p^K
    r0 = min((val_int(y, p) for M in num for y in M if y), default=KD)
    K = min(KD - r0, KD - vD)
    ui = pow(den * D // p**(vden + vD), -1, p**K)
    raw = [tuple(y // p**r0 * ui % p**K for y in M) for M in num]
    delta = vden + vD - r0
    # the residual of each row's coordinates, in the scale of E times
    # den p^delta, vanishes to p^need when b z lies in the ideal; it is
    # checked to the digits it is known to
    need = prec + delta + vden + val_int(2 * den, p) + v // 2
    pn, pd = p**min(need, K + KD - KE, KE), p**delta
    for tt, M in zip(ts, raw):
        if any((den * (al * Z1[r] + be * Z2[r]) - pd * t[r]) % pn
               for t, al, be in zip(tt, M[:2], M[2:]) for r in range(4)):
            raise _SplitFail("vector outside the left ideal")
    # stabilize a lattice under the action: Tm is a basis up to a scalar,
    # known modulo p^K, and t the valuation of its determinant
    Tm, t = ((1, 0, 0, 1) if variant % 2 == 0 else (1, 1, 1, 0)), 0
    for _ in range(40):
        # the columns of Tm and of the M Tm under one scale
        Tn, m = _lattice_basis([tuple(pd * y for y in Tm)]
                               + [mat_mul(M, Tm) for M in raw], p, K)
        K -= m
        dn = mat_det(Tn) % p**K
        if not dn:
            raise PrecisionError("lattice determinant indistinguishable from zero")
        od, t, Tm = t, val_int(dn, p), Tn
        if t + 2 * m == od + 2 * delta:
            break
    else:
        raise _SplitFail("lattice did not stabilize")
    # iota(b) = adj(Tm) M Tm / (p^delta det(Tm))
    if delta + t + prec > K:
        raise PrecisionError("images need more digits")
    ps, out = p**(delta + t), p**prec
    prods = [[y % p**K for y in mat_mul(mat_adj(Tm), mat_mul(M, Tm))]
             for M in raw]
    if any(y % ps for im in prods for y in im):
        raise _SplitFail("image not integral")
    di = pow(mat_det(Tm) // p**t, -1, out)
    spl = SplittingMap(order, p, prec,
                       [tuple(y // ps * di % out for y in im) for im in prods])
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
    # multiplicativity on every product of basis elements (which lie in
    # the order)
    for x, row in zip(spl.images, order.table):
        for y, xy in zip(spl.images, row):
            if any((a - b) % mod for a, b in zip(mat_mul(x, y), spl.image(xy))):
                raise _SplitFail("multiplicativity failure")
