"""Tests for the Bruhat-Tits tree: normal forms, edges-as-balls, geodesics."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from linvariant import tree
from linvariant.tree import (
    Edge,
    Vertex,
    base_vertex,
    distance,
    edge_between,
    edges_leaving_geodesic,
    geodesic,
    mat_adj,
    mat_det,
    mat_mul,
    neighbors,
    normalize_edge,
    normalize_vertex,
    star,
)


def base_edge(p):
    """The edge of the ball Z_p, pointing to the standard vertex."""
    return Edge(p, "ball", Fraction(0), 0)


def ball_contains(e: Edge, x) -> bool:
    """Whether the rational point x of P^1(Q_p) lies in the set of e.

    x is a Fraction, or the string 'inf' for the point at infinity."""
    p = e.p
    if x == "inf":
        inside = False  # infinity is never in a ball of finite radius
    else:
        v = tree.frac_val(Fraction(x) - e.center, p)
        inside = v is None or v >= e.n
    return inside if e.kind == "ball" else not inside


def _witness(m, target, p):
    """(u_exp, sigma) with m * p^u_exp * sigma = target; asserts that sigma
    is integral with unit determinant."""
    det_m = mat_det(m)
    diff = tree.frac_val(mat_det(target), p) - tree.frac_val(det_m, p)
    assert diff % 2 == 0
    u_exp = diff // 2
    inv = tuple(Fraction(x) / det_m for x in mat_adj(m))
    sigma = tuple(x / Fraction(p) ** u_exp for x in mat_mul(inv, target))
    assert all(x == 0 or tree.frac_val(x, p) >= 0 for x in sigma)
    assert tree.frac_val(mat_det(sigma), p) == 0
    return u_exp, sigma


def vertex_witness(m, v):
    """Oracle for normalize_vertex: (u_exp, sigma) with
    m * p^u_exp * sigma = v.matrix() and sigma in GL_2(Z_p)."""
    return _witness(m, v.matrix(), v.p)


def edge_witness(m, e):
    """Oracle for normalize_edge: (u_exp, sigma) with
    m * p^u_exp * sigma = e.matrix() and sigma in the Iwahori subgroup
    (integral, unit determinant, lower-left entry in pZ_p)."""
    u_exp, sigma = _witness(m, e.matrix(), e.p)
    assert sigma[2] == 0 or tree.frac_val(sigma[2], e.p) >= 1
    return u_exp, sigma


def random_glq(rng, p, size=30):
    """A random matrix in GL_2(Q_p) with entries num/p^e."""
    while True:
        m = tuple(
            Fraction(rng.randrange(-size, size + 1), p ** rng.randrange(0, 3))
            for _ in range(4)
        )
        if mat_det(m) != 0:
            return m


class TestVertexNormalForm:
    def test_base(self):
        assert normalize_vertex((1, 0, 0, 1), 3) == base_vertex(3)

    def test_homothety_invariance(self):
        v = normalize_vertex((9, 2, 0, 3), 3)
        w = normalize_vertex((27, 6, 0, 9), 3)
        assert v == w

    def test_right_gl2zp_invariance(self):
        rng = random.Random(1)
        p = 3
        for _ in range(50):
            m = random_glq(rng, p)
            # right multiply by a random element of GL_2(Z_p)
            while True:
                u = tuple(rng.randrange(-20, 21) for _ in range(4))
                d = mat_det(u)
                if d != 0 and d % p != 0:
                    break
            assert normalize_vertex(m, p) == normalize_vertex(mat_mul(m, u), p)

    def test_canonical_constraints(self):
        rng = random.Random(2)
        for p in (2, 3, 5):
            for _ in range(30):
                v = normalize_vertex(random_glq(rng, p), p)
                assert 0 <= v.b < p**v.a
                assert min(v.a, v.c, 99 if v.b == 0 else tree.frac_val(v.b, p)) == 0

    def test_witness(self):
        rng = random.Random(3)
        p = 3
        for _ in range(20):
            m = random_glq(rng, p)
            v = normalize_vertex(m, p)
            u_exp, sigma = vertex_witness(m, v)  # asserts internally
            prod = mat_mul(m, sigma)
            scale = Fraction(p) ** u_exp
            assert tuple(x * scale for x in prod) == tuple(
                Fraction(x) for x in v.matrix()
            )

    def test_neighbor_count_and_distance(self):
        for p in (2, 3, 5):
            v0 = base_vertex(p)
            nb = neighbors(v0)
            assert len(set(nb)) == p + 1
            for u in nb:
                assert distance(v0, u) == 1
                assert distance(u, v0) == 1


class TestEdgeNormalForm:
    def test_base_edge_is_unit_ball(self):
        e = normalize_edge((1, 0, 0, 1), 3)
        assert e == Edge(3, "ball", Fraction(0), 0)

    def test_opposite_of_base(self):
        e = normalize_edge((0, 1, 3, 0), 3)  # base edge times [[0,1],[p,0]]
        assert e == base_edge(3).opposite()
        assert e.kind == "compl"

    def test_opposite_involution(self):
        rng = random.Random(4)
        for _ in range(20):
            m = random_glq(rng, 3)
            e = normalize_edge(m, 3)
            assert e.opposite().opposite() == e

    def test_opposite_via_matrix(self):
        # reversing an edge = right multiplication by [[0,1],[p,0]]
        rng = random.Random(5)
        p = 5
        for _ in range(20):
            m = random_glq(rng, p)
            e = normalize_edge(m, p)
            rev = normalize_edge(mat_mul(m, (0, 1, p, 0)), p)
            assert rev == e.opposite()

    def test_right_iwahori_invariance(self):
        rng = random.Random(6)
        p = 3
        for _ in range(50):
            m = random_glq(rng, p)
            while True:
                u = tuple(rng.randrange(-20, 21) for _ in range(4))
                if mat_det(u) % p != 0 and u[2] % p == 0:
                    break
            assert normalize_edge(m, p) == normalize_edge(mat_mul(m, u), p)

    def test_matrix_roundtrip(self):
        rng = random.Random(7)
        for p in (2, 3):
            for _ in range(25):
                e = normalize_edge(random_glq(rng, p), p)
                assert normalize_edge(e.matrix(), p) == e

    def test_edge_witness(self):
        rng = random.Random(8)
        p = 3
        for _ in range(20):
            m = random_glq(rng, p)
            e = normalize_edge(m, p)
            u_exp, sigma = edge_witness(m, e)  # asserts Iwahori pattern
            prod = mat_mul(m, sigma)
            scale = Fraction(p) ** u_exp
            assert tuple(x * scale for x in prod) == tuple(
                Fraction(x) for x in e.matrix()
            )

    def test_source_target_of_base(self):
        e = base_edge(3)
        assert e.target() == base_vertex(3)
        assert e.source() == Vertex(3, 0, 0, 1)

    def test_source_target_flip(self):
        rng = random.Random(9)
        for _ in range(20):
            e = normalize_edge(random_glq(rng, 3), 3)
            assert e.opposite().source() == e.target()
            assert e.opposite().target() == e.source()
            assert distance(e.source(), e.target()) == 1

    def test_ball_membership_matches_mobius_image(self):
        # e = g.e0 must be the set g(Z_p)
        rng = random.Random(10)
        p = 3
        for _ in range(20):
            m = random_glq(rng, p)
            e = normalize_edge(m, p)
            a, b, c, d = m
            for _ in range(20):
                den_x = rng.randrange(1, 40)
                while den_x % p == 0:
                    den_x += 1
                x = Fraction(rng.randrange(-40, 41), den_x)  # a point of Z_p
                num, den = a * x + b, c * x + d
                img = "inf" if den == 0 else num / den
                assert ball_contains(e, img)


class TestGeodesics:
    def test_geodesic_endpoints_and_length(self):
        p = 3
        v = base_vertex(p)
        w = normalize_vertex((27, 5, 0, 1), p)
        path = geodesic(v, w)
        assert path[0] == v and path[-1] == w
        assert len(path) == distance(v, w) + 1
        for a, b in zip(path, path[1:]):
            assert distance(a, b) == 1

    def test_star_counts(self):
        for p in (2, 3):
            s = star(base_vertex(p))
            assert len(s) == p + 1
            assert len({e for e in s}) == p + 1
            for e in s:
                assert e.source() == base_vertex(p)

    def test_star_balls_partition(self):
        # the p+1 balls of the star edges partition P^1(Q_p)
        rng = random.Random(11)
        p = 3
        s = star(base_vertex(p))
        pts = ["inf"] + [
            Fraction(rng.randrange(-50, 51), p ** rng.randrange(0, 4)) for _ in range(60)
        ]
        for x in pts:
            assert sum(ball_contains(e, x) for e in s) == 1

    @pytest.mark.parametrize("p,n", [(2, 0), (2, 3), (3, 0), (3, 2), (5, 4)])
    def test_leaving_edges_count(self, p, n):
        v = base_vertex(p)
        w = normalize_vertex((p**n, 1 if n else 0, 0, 1), p)
        assert distance(v, w) == n
        edges = edges_leaving_geodesic(v, w)
        expect = p + 1 if n == 0 else 2 * p + (n - 1) * (p - 1)
        assert len(edges) == expect

    def test_leaving_edges_partition(self):
        rng = random.Random(12)
        p = 3
        v = base_vertex(p)
        w = normalize_vertex((27, 14, 0, 1), p)
        edges = edges_leaving_geodesic(v, w)
        pts = ["inf"] + [
            Fraction(rng.randrange(-200, 201), p ** rng.randrange(0, 5))
            for _ in range(80)
        ]
        for x in pts:
            assert sum(ball_contains(e, x) for e in edges) == 1

    def test_edge_between_inverse_of_source_target(self):
        rng = random.Random(13)
        p = 3
        for _ in range(15):
            e = normalize_edge(random_glq(rng, p), p)
            assert edge_between(e.source(), e.target()) == e


@given(st.integers(-200, 200), st.integers(-200, 200), st.integers(0, 4))
@settings(max_examples=60, deadline=None)
def test_translation_preserves_distance(x, y, e):
    p = 3
    g = (1, Fraction(x, p**e), 0, 1)
    if x == 0 and y == 0:
        return
    v = normalize_vertex((9, y, 0, 1), p)
    w = normalize_vertex((3, x % 3, 0, 3), p)
    gv = normalize_vertex(mat_mul(g, v.matrix()), p)
    gw = normalize_vertex(mat_mul(g, w.matrix()), p)
    assert distance(gv, gw) == distance(v, w)
