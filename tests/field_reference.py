"""K_p in field elements: the independent reference for the integer pairs.

`linvariant` computes in the quadratic unramified extension K_p = Q_p(w)
only on integer pairs modulo p^N (`padics.pair_mul` and its neighbours).
This module keeps the element type they replaced, with every coordinate a
`PadicNumber` whose precision follows the PadicNumber rules, together with
the Teichmuller base point, the Mobius image and the half trace built from
it.  The tests compare the integer code against these.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from linvariant.padics import PadicNumber, PrecisionError, UnramifiedField


class Field(UnramifiedField):
    """UnramifiedField with constructors of field elements."""

    def element(self, a, b=0) -> "UnramifiedElement":
        conv = lambda x: (
            x if isinstance(x, PadicNumber) else PadicNumber.from_fraction(x, self.p, self.prec)
        )
        return UnramifiedElement(self, conv(a), conv(b))

    def zero(self) -> "UnramifiedElement":
        return self.element(0, 0)

    def one(self) -> "UnramifiedElement":
        return self.element(1, 0)

    def teichmuller(self, a0: int, b0: int) -> "UnramifiedElement":
        """Teichmuller lift of the residue a0 + b0*w (must be a unit)."""
        x = self.element(a0, b0)
        if x.valuation() != 0:
            raise ValueError("Teichmuller lift requires a unit residue")
        q = self.p**2
        for _ in range(self.prec + 1):
            x = x**q
        return x


@dataclass(frozen=True)
class UnramifiedElement:
    """a + b*w in the quadratic unramified extension of Q_p."""

    field: Field
    a: PadicNumber
    b: PadicNumber

    def _co(self, other) -> "UnramifiedElement":
        if isinstance(other, UnramifiedElement):
            return other
        if isinstance(other, (int, Fraction, PadicNumber)):
            return self.field.element(other, 0)
        return NotImplemented

    def __add__(self, other):
        o = self._co(other)
        return UnramifiedElement(self.field, self.a + o.a, self.b + o.b)

    __radd__ = __add__

    def __neg__(self):
        return UnramifiedElement(self.field, -self.a, -self.b)

    def __sub__(self, other):
        return self + (-self._co(other))

    def __rsub__(self, other):
        return (-self) + self._co(other)

    def __mul__(self, other):
        o = self._co(other)
        B, C = self.field.B, self.field.C
        # (a1+b1 w)(a2+b2 w), w^2 = -B w - C
        cross = self.b * o.b
        a = self.a * o.a - C * cross
        b = self.a * o.b + self.b * o.a - B * cross
        return UnramifiedElement(self.field, a, b)

    __rmul__ = __mul__

    def conj(self) -> "UnramifiedElement":
        """Galois conjugate: w -> -B - w."""
        return UnramifiedElement(self.field, self.a - self.field.B * self.b, -self.b)

    def norm(self) -> PadicNumber:
        n = self * self.conj()
        return n.a

    def trace(self) -> PadicNumber:
        return self.a + self.a - self.field.B * self.b

    def inverse(self) -> "UnramifiedElement":
        n = self.norm().inverse()
        c = self.conj()
        return UnramifiedElement(self.field, c.a * n, c.b * n)

    def __truediv__(self, other):
        return self * self._co(other).inverse()

    def __rtruediv__(self, other):
        return self._co(other) * self.inverse()

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        result = self.field.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def is_zero(self) -> bool:
        return self.a.is_zero() and self.b.is_zero()

    def valuation(self) -> int:
        """min of coordinate valuations (valid since {1,w} is an integral basis)."""
        if self.is_zero():
            raise PrecisionError("element indistinguishable from zero")
        if self.a.is_zero():
            return self.b.valuation()
        if self.b.is_zero():
            return self.a.valuation()
        return min(self.a.valuation(), self.b.valuation())

    def prec(self) -> int:
        return min(self.a.prec, self.b.prec)

    def __repr__(self):
        return f"({self.a}) + ({self.b})*w"


def half_trace(x: UnramifiedElement) -> PadicNumber:
    """(1/2) Tr_{K_p/Q_p}; at p=2 the division by 2 costs one digit of precision."""
    return x.trace() * PadicNumber.from_fraction(Fraction(1, 2), x.field.p, x.prec() + 2)


def base_point(p: int, prec: int, variant: int = 0) -> UnramifiedElement:
    """A Teichmuller lift generating the residue field multiplicatively,
    found by multiplying field elements; `variant` selects a different
    generator."""
    K = Field(p, prec)
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


def mobius(mat, z: UnramifiedElement) -> UnramifiedElement:
    """(a z + b)/(c z + d) for the integer matrix mat = (a, b, c, d), its
    entries taken as elements of the field of z."""
    a, b, c, d = mat
    K = z.field
    conv = lambda t: K.element(Fraction(t))
    return (conv(a) * z + conv(b)) / (conv(c) * z + conv(d))


def coords(z: UnramifiedElement):
    """z = p^-e (A + B w) known modulo p^P, as the integers (A, B, e, P)."""
    a, b = z.a, z.b
    e = max(0, -a.val, -b.val)
    return (a.unit * a.p ** (a.val + e), b.unit * b.p ** (b.val + e), e,
            min(a.prec, b.prec))
