"""Fundamental domain, edge reduction and U_p coset structure."""

import random
from fractions import Fraction

import pytest

from linvariant.domain import EdgeReducer, build_up_table
from linvariant.tree import (
    mat_adj,
    mat_mul,
    normalize_edge,
)


def _connected(dom):
    """The quotient graph (domain vertices, geometric edges + pairings)."""
    n = len(dom.vertices)
    idx = {v: i for i, v in enumerate(dom.vertices)}
    adj = {i: set() for i in range(n)}

    def add(v, w):
        if v in idx and w in idx:
            adj[idx[v]].add(idx[w])
            adj[idx[w]].add(idx[v])

    outside = {}
    for pr in dom.pairings:
        outside[pr.vertex] = dom.vertices[pr.target_index]

    for e in dom.geo_edges:
        s, t = e.source(), e.target()
        add(outside.get(s, s), outside.get(t, t))
    seen = {0}
    stack = [0]
    while stack:
        i = stack.pop()
        for j in adj[i]:
            if j not in seen:
                seen.add(j)
                stack.append(j)
    return len(seen) == n


class TestDomainShapes:
    def test_32_shape(self, ctx32):
        dom = ctx32.dom
        assert len(dom.vertices) == 2
        assert len(dom.geo_edges) == 1
        # unit group orders divide 24 (definite algebra of discriminant 2)
        assert all(24 % len(s) == 0 for s in dom.vertex_stabs)
        assert all(24 % len(s) == 0 for s in dom.edge_stabs)

    def test_23_finite_connected(self, ctx23):
        dom = ctx23.dom
        assert 0 < len(dom.vertices) < 50
        assert _connected(dom)

    def test_25_finite_connected(self, ctx25):
        assert _connected(ctx25.dom)

    def test_27_finite_connected(self, ctx27):
        assert _connected(ctx27.dom)

    def test_stabilizers_stabilize(self, ctx23):
        """Every stored stabilizer element fixes its edge/vertex."""
        from linvariant.integration import gamma_matrix
        from linvariant.tree import normalize_vertex

        dom = ctx23.dom
        for e, stab in zip(dom.geo_edges, dom.edge_stabs):
            for x, r in stab:
                Xi, _ = gamma_matrix(dom, x, r)
                m = mat_mul(tuple(Fraction(t) for t in Xi), e.matrix())
                assert normalize_edge(m, dom.p) == e

    def test_pairing_elements_have_unit_norm_scale(self, ctx23):
        dom = ctx23.dom
        for pr in dom.pairings:
            assert pr.x.nrd() == Fraction(dom.p) ** (2 * pr.r)


class TestEdgeReducer:
    def test_reps_locate_to_themselves(self, ctx23):
        red = ctx23.reducer
        for j, e in enumerate(red.reps):
            jj, x, r = red.locate(e)
            assert jj == j

    def test_reduce_matrix_roundtrip(self, ctx23):
        """reduce_matrix(g) produces (j, x, r) with iota(x/p^r).B_j ~ g.e0."""
        dom, red = ctx23.dom, ctx23.reducer
        rng = random.Random(7)
        gens = dom.generators()
        for _ in range(10):
            x, r = gens[rng.randrange(len(gens))]
            from linvariant.integration import gamma_matrix

            Xi, detf = gamma_matrix(dom, x, r)
            from linvariant.tree import frac_val

            dv = frac_val(detf, dom.p)
            out = red.reduce_matrix(Xi, dv)
            # witness: iota(out.x / p^out.r) carries rep j back to the edge
            Xw = dom.spl.apply(out.x)
            den = max(t.denominator for t in Xw)
            Xint = tuple(int(t * den) for t in Xw)
            lhs = normalize_edge(
                mat_mul(tuple(Fraction(t) for t in Xint),
                        red.rep_mats[out.j]), dom.p)
            assert lhs == normalize_edge(Xi, dom.p)

    def test_up_table_entries_iwahori(self, ctx23):
        dom, red = ctx23.dom, ctx23.reducer
        table = build_up_table(dom, red)
        assert len(table) == len(red.reps)
        for row in table:
            assert len(row) == dom.p
            for ent in row:
                # sigma is Iwahori: lower-left divisible by p, unit diagonal
                assert ent.sigma[2] % dom.p == 0
                assert ent.sigma[0] % dom.p != 0
                assert ent.sigma[3] % dom.p != 0

    def test_locate_cache_hit(self, ctx23):
        """Repeated location of the same edge does no new search, also from
        another reducer of the same domain."""
        red = ctx23.reducer
        e = red.reps[0]
        found = red.locate(e)
        n0 = len(ctx23.dom.located)
        other = EdgeReducer(ctx23.dom)
        other.eq.search = None  # any search would fail
        assert other.locate(e) == found
        assert red.locate(e) == found
        assert len(ctx23.dom.located) == n0
