"""Tree normal forms in Fraction arithmetic: the reference for `linvariant.tree`.

`linvariant.tree` computes vertex and edge normal forms on integers, after
scaling a matrix with Fraction entries to integers.  This module keeps the
rational versions they replaced, which run every column operation and every
canonical residue in `Fraction`; the tests compare the two.
"""

from __future__ import annotations

from fractions import Fraction

from linvariant.padics import val_int
from linvariant.tree import Edge, Vertex


def frac_val(x, p: int):
    """p-adic valuation of a rational number; None for 0."""
    x = Fraction(x)
    if x == 0:
        return None
    v = val_int(x.numerator, p) if x.numerator % p == 0 else 0
    if x.denominator % p == 0:
        v -= val_int(x.denominator, p)
    return v


def canonical_mod(x, p: int, n: int):
    """Canonical representative of x modulo p^n Z_p, as a Fraction in Z[1/p].

    The representative is 0 when v(x) >= n, else p^v * (unit mod p^(n-v))."""
    x = Fraction(x)
    v = frac_val(x, p)
    if v is None or v >= n:
        return Fraction(0)
    num, den = x.numerator, x.denominator
    if v >= 0:
        num //= p**v
    else:
        den //= p ** (-v)
    u = num * pow(den, -1, p ** (n - v)) % p ** (n - v)
    return Fraction(u * p**v) if v >= 0 else Fraction(u, p ** (-v))


def edge_matrix(e: Edge):
    """A matrix g (integer entries, p-free content) with g.e0 = e."""
    p = e.p
    if e.kind == "ball":
        m = (Fraction(p) ** e.n, e.center, Fraction(0), Fraction(1))
    else:
        m = (e.center, Fraction(p) ** (e.n - 1), Fraction(1), Fraction(0))
    vals = [frac_val(x, p) for x in m if x != 0]
    s = Fraction(p) ** -min(vals)
    out = tuple(x * s for x in m)
    assert all(x.denominator == 1 for x in out)
    return tuple(int(x) for x in out)


def normalize_vertex(m, p: int) -> Vertex:
    """Normal form of the lattice class spanned by the columns of m."""
    a, b, c, d = (Fraction(x) for x in m)
    det = a * d - b * c
    if det == 0:
        raise ValueError("singular matrix")
    # column operations: make the bottom row (0, z) with v(z) minimal
    vc, vd = frac_val(c, p), frac_val(d, p)
    if vd is None or (vc is not None and vc < vd):
        a, b = b, a
        c, d = d, c
    if c != 0:
        t = c / d
        a, c = a - t * b, Fraction(0)
    # now m = [[a, b], [0, d]]
    A = frac_val(a, p)
    C = frac_val(d, p)
    b = b * Fraction(p) ** C / d  # scale col2 to p^C
    # col1 scaling to p^A does not change b
    vb = frac_val(b, p)
    mm = min(A, C) if vb is None else min(A, C, vb)
    aexp, cexp = A - mm, C - mm
    bb = canonical_mod(b / Fraction(p) ** mm, p, aexp)
    assert bb.denominator == 1
    return Vertex(p, aexp, int(bb), cexp)


def normalize_edge(m, p: int) -> Edge:
    """The edge m.e0, i.e. the ball/complement m(Z_p) in P^1(Q_p)."""
    a, b, c, d = (Fraction(x) for x in m)
    det = a * d - b * c
    if det == 0:
        raise ValueError("singular matrix")
    vdet = frac_val(det, p)
    vc, vd = frac_val(c, p), frac_val(d, p)
    if vd is not None and (vc is None or vd < vc):
        n = vdet - 2 * vd
        return Edge(p, "ball", canonical_mod(b / d, p, n), n)
    n = vdet + 1 - 2 * vc
    return Edge(p, "compl", canonical_mod(a / c, p, n), n)
