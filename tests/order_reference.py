"""Orders in Fraction arithmetic: the reference for `linvariant.quaternions`.

`linvariant.quaternions` holds an order as integer rows over one
denominator and tests closure on its integer multiplication table.  This
module keeps the construction it replaced, where an element is a 4-tuple of
Fractions on (1, i, j, k), a lattice basis comes from a rational Hermite
form, and an order is saturated by testing every product of basis elements
for membership; the tests compare the two.  The Eichler order takes its
congruence conditions from `splitting.splitting_map`, which the two
constructions share.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from linvariant import quaternions
from linvariant.quaternions import congruence_kernel, hermite_rows, primefactors
from linvariant.splitting import splitting_map


@dataclass(frozen=True)
class Quat:
    """x0 + x1 i + x2 j + x3 k in (a, b / Q)."""

    ab: tuple
    co: tuple  # 4 Fractions

    @staticmethod
    def of(ab, coords) -> "Quat":
        return Quat(ab, tuple(Fraction(c) for c in coords))

    def scale(self, s) -> "Quat":
        return Quat(self.ab, tuple(Fraction(s) * x for x in self.co))

    def __mul__(self, other):
        a, b = self.ab
        x0, x1, x2, x3 = self.co
        y0, y1, y2, y3 = other.co
        return Quat(self.ab, (
            x0 * y0 + a * x1 * y1 + b * x2 * y2 - a * b * x3 * y3,
            x0 * y1 + x1 * y0 - b * x2 * y3 + b * x3 * y2,
            x0 * y2 + x2 * y0 + a * x1 * y3 - a * x3 * y1,
            x0 * y3 + x3 * y0 + x1 * y2 - x2 * y1,
        ))

    def trd(self) -> Fraction:
        return 2 * self.co[0]

    def nrd(self) -> Fraction:
        a, b = self.ab
        x0, x1, x2, x3 = self.co
        return x0 * x0 - a * x1 * x1 - b * x2 * x2 + a * b * x3 * x3


def hnf_basis(generators):
    """Basis (as rows) of the lattice spanned by rational row vectors, via
    the Hermite normal form of the generators scaled to integers."""
    den = lcm(*(x.denominator for g in generators for x in g))
    H = hermite_rows([[x.numerator * (den // x.denominator) for x in g]
                      for g in generators])
    return [[Fraction(x, den) for x in row] for row in H]


def _det(M):
    if len(M) == 1:
        return M[0][0]
    return sum((-1) ** j * M[0][j] * _det([row[:j] + row[j + 1:] for row in M[1:]])
               for j in range(len(M)) if M[0][j])


@dataclass
class Order:
    """A lattice with a basis of Quats."""

    ab: tuple
    basis: list

    def element(self, coords) -> Quat:
        return Quat(self.ab, tuple(sum(Fraction(c) * b.co[i]
                                       for c, b in zip(coords, self.basis))
                                   for i in range(4)))

    def contains(self, x: Quat) -> bool:
        """Whether x has integer coordinates in the basis, by Cramer's rule."""
        M = [list(b.co) for b in self.basis]
        det = _det(M)
        return all((_det(M[:j] + [list(x.co)] + M[j + 1:]) / det).denominator == 1
                   for j in range(4))

    def reduced_discriminant(self) -> int:
        a, b = self.ab
        rd = abs(4 * a * b * _det([list(q.co) for q in self.basis]))
        assert rd.denominator == 1
        return int(rd)

    def integer_order(self, alg, level=1) -> quaternions.Order:
        """The same lattice as a `quaternions.Order`."""
        den = lcm(*(c.denominator for b in self.basis for c in b.co))
        return quaternions.Order(alg, [[int(c * den) for c in b.co]
                                       for b in self.basis], den, level)


def maximal_order(alg) -> Order:
    """A maximal order, by saturating Z<1,i,j,k> one prime at a time."""
    ab = (alg.a, alg.b)
    order = Order(ab, [Quat.of(ab, [int(i == j) for j in range(4)])
                       for i in range(4)])
    while True:
        rd = order.reduced_discriminant()
        if rd == alg.disc:
            return order
        order = _enlarge_at(order, primefactors(rd // alg.disc)[0])


def _enlarge_at(order: Order, q: int) -> Order:
    one = Quat.of(order.ab, (1, 0, 0, 0))
    for c in itertools.product(range(q), repeat=4):
        if not any(c):
            continue
        x = order.element(c).scale(Fraction(1, q))
        if x.trd().denominator != 1 or x.nrd().denominator != 1:
            continue
        rows = [list(b.co) for b in order.basis] + [list(x.co)]
        cand = Order(order.ab, [Quat(order.ab, tuple(r)) for r in hnf_basis(rows)])
        if cand.reduced_discriminant() == order.reduced_discriminant():
            continue
        if cand.contains(one) and all(cand.contains(bi * bj) for bi in cand.basis
                                      for bj in cand.basis):
            return cand
    raise RuntimeError(f"saturation stuck at prime {q}")


def eichler_order(alg, maxorder: Order, level: int) -> Order:
    """The Eichler order of the given level inside maxorder: for each prime
    power q^e exactly dividing it, the elements whose splitting at q is upper
    triangular modulo q^e."""
    assert gcd(level, alg.disc) == 1
    rows = [list(b.co) for b in maxorder.basis]
    for q, e in quaternions.factorint(level).items():
        current = Order(maxorder.ab, [Quat(maxorder.ab, tuple(r)) for r in rows])
        spl = splitting_map(current.integer_order(alg), q, e + 6)
        K = congruence_kernel([[int(spl.images[m][2]) for m in range(4)]], q**e)
        rows = hnf_basis([[sum(K[t][m] * rows[m][s] for m in range(4))
                           for s in range(4)] for t in range(4)])
    out = Order(maxorder.ab, [Quat(maxorder.ab, tuple(r)) for r in rows])
    assert out.reduced_discriminant() == alg.disc * level
    return out
