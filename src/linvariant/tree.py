"""The Bruhat-Tits tree of GL_2(Q_p).

Vertices are homothety classes of Z_p-lattices in Q_p^2, represented by
upper-triangular normal forms [[p^a, b], [0, p^c]] with 0 <= b < p^a and
min(a, c, v_p(b)) = 0.  Directed edges correspond bijectively to compact open
subsets of P^1(Q_p) that are balls or complements of balls: the base edge e0
(the identity matrix) corresponds to Z_p, and reversing an edge takes the
complementary set.  A matrix g in GL_2(Q_p) gives the edge g.e0 whose set is
g(Z_p) under the Mobius action.

All matrices are 4-tuples (a, b, c, d), row-major.  The normal forms are
integer arithmetic; a matrix with Fraction entries is first scaled to
integers (see `_integral`; a matrix of ints passes on exact type tests).
Only the center of an edge, its canonical key, is a Fraction.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

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


def _integral(m: Mat) -> Mat:
    """m with integer entries: a matrix with Fraction entries is scaled by
    the lcm of their denominators, a scalar, which changes neither its
    vertex nor its edge.  Ints pass on an exact type test, much cheaper
    than isinstance against Fraction, an ABCMeta class."""
    if all(type(x) is int for x in m):
        return m
    s = lcm(*(Fraction(x).denominator for x in m))
    return tuple(int(x * s) for x in m)


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
        """A matrix g (integer entries, p-free content) with g.e0 = self:
        [[p^n, center], [0, 1]] for a ball, [[center, p^(n-1)], [1, 0]] for
        a complement, times p^e for the least e that makes it integral."""
        p, z = self.p, self.center
        m = self.n if self.kind == "ball" else self.n - 1
        vz = -val_int(z.denominator, p) if z.denominator > 1 else (
            val_int(z.numerator, p) if z else 0)
        e = -min(m, 0, vz)
        s, zs = p**e, z.numerator * p**e // z.denominator
        if self.kind == "ball":
            return (p ** (m + e), zs, 0, s)
        return (zs, p ** (m + e), s, 0)

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
    a, b, c, d = _integral(m)
    det = a * d - b * c
    if det == 0:
        raise ValueError("singular matrix")
    # column operations: make the bottom row (0, p^C u), u a unit, with C
    # minimal; the top left entry is then det/d, of valuation v(det) - C
    if d == 0 or (c != 0 and val_int(c, p) < val_int(d, p)):
        b, d = a, c
    C = val_int(d, p)
    A = val_int(det, p) - C
    # scaling the second column by 1/u leaves top right entry b/u
    mm = min(A, C) if b == 0 else min(A, C, val_int(b, p))
    aexp = A - mm
    q = p**aexp
    bb = b // p**mm * pow(d // p**C, -1, q) % q
    return Vertex(p, aexp, bb, C - mm)


def _center(num: int, den: int, p: int, n: int) -> Fraction:
    """The canonical representative of num/den modulo p^n Z_p, den = p^e u
    with u a unit and v(num) >= 0: 0 when v(num/den) >= n, else
    p^v (unit mod p^(n-v)) for v = v(num/den)."""
    e = val_int(den, p)
    if n + e <= 0:
        return Fraction(0)
    q = p ** (n + e)
    if e == 0:
        return Fraction(num * pow(den, -1, q) % q)
    return Fraction(num * pow(den // p**e, -1, q) % q, p**e)


def normalize_edge(m: Mat, p: int) -> Edge:
    """The edge m.e0, i.e. the ball/complement m(Z_p) in P^1(Q_p)."""
    a, b, c, d = _integral(m)
    det = a * d - b * c
    if det == 0:
        raise ValueError("singular matrix")
    vdet = val_int(det, p)
    vd = val_int(d, p) if d else None
    if vd is not None and (c == 0 or vd < val_int(c, p)):
        n = vdet - 2 * vd
        return Edge(p, "ball", _center(b, d, p, n), n)
    n = vdet + 1 - 2 * val_int(c, p)
    return Edge(p, "compl", _center(a, c, p, n), n)


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
