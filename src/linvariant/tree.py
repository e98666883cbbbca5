"""The Bruhat-Tits tree of GL_2(Q_p).

Vertices are homothety classes of Z_p-lattices in Q_p^2, represented by
upper-triangular normal forms [[p^a, b], [0, p^c]] with 0 <= b < p^a and
min(a, c, v_p(b)) = 0.  Directed edges correspond bijectively to compact open
subsets of P^1(Q_p) that are balls or complements of balls: the base edge e0
(the identity matrix) corresponds to Z_p, and reversing an edge takes the
complementary set.  A matrix g in GL_2(Q_p) gives the edge g.e0 whose set is
g(Z_p) under the Mobius action.

All matrices are 4-tuples (a, b, c, d) of integers or Fractions, row-major.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .padics import val_int


Mat = tuple  # (a, b, c, d)


def mat_mul(m1: Mat, m2: Mat) -> Mat:
    a, b, c, d = m1
    e, f, g, h = m2
    return (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)


def mat_det(m: Mat):
    return m[0] * m[3] - m[1] * m[2]


def mat_adj(m: Mat) -> Mat:
    a, b, c, d = m
    return (d, -b, -c, a)


def frac_val(x, p: int):
    """p-adic valuation of a rational number; None for 0."""
    x = Fraction(x)
    if x == 0:
        return None
    v = val_int(x.numerator, p) if x.numerator % p == 0 else 0
    if x.denominator % p == 0:
        v -= val_int(x.denominator, p)
    return v


def _canonical_mod(x, p: int, n: int):
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


@dataclass(frozen=True, slots=True)
class Vertex:
    """Lattice class with normal form [[p^a, b], [0, p^c]], b integer."""

    p: int
    a: int
    b: int
    c: int

    def matrix(self) -> Mat:
        return (self.p**self.a, self.b, 0, self.p**self.c)

    def dist_to_base(self) -> int:
        return self.a + self.c


@dataclass(frozen=True, slots=True)
class Edge:
    """Directed edge, canonically identified with its subset of P^1(Q_p).

    kind 'ball': the set center + p^n Z_p; kind 'compl': its complement.
    center is the canonical representative modulo p^n (a Fraction in Z[1/p]).
    """

    p: int
    kind: str  # 'ball' | 'compl'
    center: Fraction
    n: int

    def matrix(self) -> Mat:
        """A matrix g (integer entries, p-free content) with g.e0 = self."""
        p = self.p
        if self.kind == "ball":
            m = (Fraction(p) ** self.n, self.center, Fraction(0), Fraction(1))
        else:
            m = (self.center, Fraction(p) ** (self.n - 1), Fraction(1), Fraction(0))
        vals = [frac_val(x, p) for x in m if x != 0]
        e = -min(vals)
        s = Fraction(p) ** e
        out = tuple(x * s for x in m)
        assert all(x.denominator == 1 for x in out)
        return tuple(int(x) for x in out)

    def opposite(self) -> "Edge":
        return Edge(self.p, "compl" if self.kind == "ball" else "ball", self.center, self.n)

    def source(self) -> Vertex:
        g0 = (0, 1, self.p, 0)
        return normalize_vertex(mat_mul(self.matrix(), g0), self.p)

    def target(self) -> Vertex:
        return normalize_vertex(self.matrix(), self.p)


def base_vertex(p: int) -> Vertex:
    return Vertex(p, 0, 0, 0)


def normalize_vertex(m: Mat, p: int) -> Vertex:
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
    bb = _canonical_mod(b / Fraction(p) ** mm, p, aexp)
    assert bb.denominator == 1
    return Vertex(p, aexp, int(bb), cexp)


def normalize_edge(m: Mat, p: int) -> Edge:
    """The edge m.e0, i.e. the ball/complement m(Z_p) in P^1(Q_p)."""
    a, b, c, d = (Fraction(x) for x in m)
    det = a * d - b * c
    if det == 0:
        raise ValueError("singular matrix")
    vdet = frac_val(det, p)
    vc, vd = frac_val(c, p), frac_val(d, p)
    if vd is not None and (vc is None or vd < vc):
        n = vdet - 2 * vd
        center = _canonical_mod(b / d, p, n)
        return Edge(p, "ball", center, n)
    n = vdet + 1 - 2 * vc
    center = _canonical_mod(a / c, p, n)
    return Edge(p, "compl", center, n)


def distance(v: Vertex, w: Vertex) -> int:
    if v == w:
        return 0
    m = mat_mul(mat_adj(v.matrix()), w.matrix())
    nf = normalize_vertex(m, v.p)
    return nf.a + nf.c


def neighbors(v: Vertex) -> list[Vertex]:
    """The p+1 adjacent vertices."""
    p = v.p
    out = [normalize_vertex(mat_mul(v.matrix(), (1, 0, 0, p)), p)]
    for j in range(p):
        out.append(normalize_vertex(mat_mul(v.matrix(), (p, j, 0, 1)), p))
    return out


def edge_between(v: Vertex, w: Vertex) -> Edge:
    """The directed edge with source v and target w (must be adjacent)."""
    p = v.p
    d = normalize_vertex(mat_mul(mat_adj(w.matrix()), v.matrix()), p)
    if d.a + d.c != 1:
        raise ValueError("vertices are not adjacent")
    if d.a == 0:
        h = (1, 0, 0, 1)
    else:
        h = (d.b, 1, 1, 0)
    return normalize_edge(mat_mul(w.matrix(), h), p)


def geodesic(v: Vertex, w: Vertex) -> list[Vertex]:
    """Vertices of the geodesic from v to w, inclusive."""
    path = [v]
    cur = v
    dcur = distance(v, w)
    while cur != w:
        for u in neighbors(cur):
            if distance(u, w) == dcur - 1:
                path.append(u)
                cur = u
                dcur -= 1
                break
        else:
            raise RuntimeError("no descent step found (tree invariant broken)")
    return path


def star(v: Vertex) -> list[Edge]:
    """The p+1 directed edges with source v."""
    return [edge_between(v, u) for u in neighbors(v)]


def edges_leaving_geodesic(v: Vertex, w: Vertex) -> list[Edge]:
    """Directed edges with source on the geodesic [v, w] pointing away from it.

    Their balls partition P^1(Q_p): p+1 edges when v == w, else
    2p + (n-1)(p-1) where n is the distance."""
    path = geodesic(v, w)
    onpath = set(path)
    out = []
    for i, x in enumerate(path):
        excluded = set()
        if i > 0:
            excluded.add(path[i - 1])
        if i + 1 < len(path):
            excluded.add(path[i + 1])
        for u in neighbors(x):
            if u not in excluded:
                if u in onpath:
                    raise RuntimeError("geodesic is not simple")
                out.append(edge_between(x, u))
    return out
