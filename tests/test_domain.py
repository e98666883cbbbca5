"""Fundamental domain, edge reduction and U_p coset structure."""

import importlib
import os
import random
from dataclasses import replace
from fractions import Fraction
from itertools import product
from math import prod

import pytest
from sympy import factorint

import linvariant
from linvariant.budget import Budget, BudgetExceeded
from linvariant.cocycles import harmonic_basis
from linvariant.domain import (FundamentalDomain, _edge_dist, build_up_table,
                               gamma_matrix, gamma_vertex)
from linvariant.padics import val_int
from linvariant.pipeline import build_context
from linvariant.quaternions import Order
from linvariant.tree import (
    base_vertex,
    mat_adj,
    mat_mul,
    neighbors,
    normalize_edge,
    star,
)

from domain_reference import compute_fundamental_domain as reference_domain

BENCHMARK = os.path.join(os.path.dirname(__file__), "..", "benchmark")


def _spy_searches(monkeypatch):
    """The (kind, all_solutions) of every `FundamentalDomain.search` call
    from now on, in a list that grows as they run."""
    search, calls = FundamentalDomain.search, []

    def spy(self, m1, m2, kind, rmax, all_solutions=False):
        calls.append((kind, all_solutions))
        return search(self, m1, m2, kind, rmax, all_solutions)

    monkeypatch.setattr(FundamentalDomain, "search", spy)
    return calls


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
        dom = ctx23.dom
        for e, stab in zip(dom.geo_edges, dom.edge_stabs):
            for x, r in stab:
                Xi, _ = gamma_matrix(dom, x, r)
                assert normalize_edge(mat_mul(Xi, e.matrix()), dom.p) == e
        for v, stab in zip(dom.vertices, dom.vertex_stabs):
            for x, r in stab:
                assert gamma_vertex(dom, x, r, v) == v

    def test_pairing_elements_have_unit_norm_scale(self, ctx23):
        """nrd(x) = p^(2r) for every pairing, in the integer Gram form and
        on (1, i, j, k) in the algebra, and gamma_matrix reports it as the
        determinant."""
        dom = ctx23.dom
        a, b = dom.order.algebra.a, dom.order.algebra.b
        for pr in dom.pairings:
            assert dom.order.nrd(pr.x) == dom.p ** (2 * pr.r)
            v0, v1, v2, v3 = dom.order.element(pr.x)
            assert v0**2 - a * v1**2 - b * v2**2 + a * b * v3**2 \
                == dom.order.den**2 * dom.p ** (2 * pr.r)
            assert gamma_matrix(dom, pr.x, pr.r)[1] == dom.p ** (2 * pr.r)
            assert gamma_vertex(dom, pr.x, pr.r, pr.vertex) \
                == dom.vertices[pr.target_index]

    def test_central_elements(self, ctx23):
        """is_pm_one holds exactly for the scalar stabilizer elements, and
        every stabilizer holds +-1."""
        dom = ctx23.dom
        for stab in dom.edge_stabs + dom.vertex_stabs:
            scalar = [dom.order.element(x)[1:] == [0, 0, 0] for x, r in stab]
            assert [dom.is_pm_one(x, r) for x, r in stab] == scalar
            assert sum(scalar) == 2


    @pytest.mark.parametrize("ctx_name, count", [
        ("ctx23", 9), ("ctx25", 4), ("ctx27", 3), ("ctx32", 20)])
    def test_generators_one_per_sign(self, request, ctx_name, count):
        """generators() is the pairings, then one element of each class
        x, -x of the nontrivial vertex-stabilizer elements: no two are equal
        up to sign as group elements x/p^r, none is +-1, and every stabilizer
        element it drops is a kept one up to sign (its negative, or a second
        copy from the stabilizer of the other vertex of an edge)."""
        dom = request.getfixturevalue(ctx_name).dom
        p = dom.p

        def same_up_to_sign(g, h):
            (x, r), (y, s) = g, h
            gx, hy = [c * p**s for c in x], [c * p**r for c in y]
            return gx == hy or gx == [-c for c in hy]

        gens = dom.generators()
        assert len(gens) == count
        for i, g in enumerate(gens):
            assert not dom.is_pm_one(*g)
            assert not any(same_up_to_sign(g, h) for h in gens[:i])
        n_pair = len(dom.pairings)
        assert gens[:n_pair] == [(pr.x, pr.r) for pr in dom.pairings]
        kept = gens[n_pair:]
        stab_elts = [g for stab in dom.vertex_stabs for g in stab
                     if not dom.is_pm_one(*g)]
        assert all(g in stab_elts for g in kept)
        dropped = [g for g in stab_elts if g not in kept]
        assert dropped
        for g in dropped:
            assert any(same_up_to_sign(g, h) for h in kept)


# every level the tests build a domain for, the `dims-survey` levels among
# them, (2, 105) and Eichler levels N^+ = 2, 3, 4, 5, 7, 9, 25
MASS_LEVELS = [
    (2, 3, 1), (2, 5, 1), (2, 7, 1), (2, 11, 1), (2, 13, 1), (2, 19, 1),
    (3, 2, 1), (3, 5, 1), (3, 13, 1), (5, 2, 1), (5, 3, 1), (5, 7, 1),
    (5, 19, 1), (7, 2, 1), (7, 3, 1), (11, 2, 1), (13, 2, 1), (2, 31, 1),
    (2, 41, 1), (2, 43, 1), (2, 105, 1), (5, 42, 1), (7, 30, 1), (5, 3, 2),
    (5, 19, 2), (5, 2, 3), (3, 5, 4), (3, 2, 5), (3, 2, 7), (5, 2, 9),
    (3, 2, 25)]


@pytest.mark.parametrize("p, nminus, nplus", MASS_LEVELS)
def test_stabilizers_satisfy_the_mass_formula(p, nminus, nplus):
    """Eichler's mass formula, with mass = (1/12) prod_{q | N^-} (q - 1)
    prod_{q^e || N^+} q^(e-1) (q + 1): the vertex orbits of Gamma are the
    classes of two Eichler orders of level N^+, each of that mass, and the
    edge orbits those of one of level p N^+, of mass (p + 1) mass; every
    stabilizer holds +-1, which acts trivially."""
    dom = build_context(p, nminus, nplus, 40).dom
    mass = Fraction(prod(q - 1 for q in factorint(nminus)), 12) * prod(
        q ** (e - 1) * (q + 1) for q, e in factorint(nplus).items())
    assert sum(Fraction(2, len(s)) for s in dom.vertex_stabs) == 2 * mass
    assert sum(Fraction(2, len(s)) for s in dom.edge_stabs) == (p + 1) * mass


def _up_to_sign(dom, x, r):
    """x/p^r with x divided by p while r > 0 and every coordinate is
    divisible, and its sign fixed: a key of the class of +-x/p^r."""
    while r > 0 and all(c % dom.p == 0 for c in x):
        x, r = tuple(c // dom.p for c in x), r - 1
    return max(x, tuple(-c for c in x)), r


@pytest.mark.parametrize("p, nminus, nplus", MASS_LEVELS)
def test_derivations_are_exact_products_in_one_stabilizer(p, nminus, nplus):
    """Each derived generator is +-gens[i] gens[j], exactly, for two
    generators of one vertex stabilizer that holds it, and the table has
    no cycle: every derived entry can be evaluated from integrated ones."""
    dom = build_context(p, nminus, nplus, 40).dom
    gens, table = dom.generators(), dom.derivations
    assert len(table) == len(gens)
    assert table[:len(dom.pairings)] == [None] * len(dom.pairings)
    stabs = [{_up_to_sign(dom, *g) for g in stab} for stab in dom.vertex_stabs]
    known = {n for n, entry in enumerate(table) if entry is None}
    for n, entry in enumerate(table):
        if entry is None:
            continue
        i, j = entry
        (x, r), (y, s) = gens[i], gens[j]
        assert _up_to_sign(dom, dom.order.mul(x, y), r + s) \
            == _up_to_sign(dom, *gens[n])
        assert any({_up_to_sign(dom, *gens[m]) for m in (i, j, n)} <= stab
                   for stab in stabs)
    while len(known) < len(gens):
        new = {n for n, entry in enumerate(table)
               if n not in known and set(entry) <= known}
        assert new, "the derivation table has a cycle"
        known |= new


@pytest.mark.parametrize("p, nminus, nplus", MASS_LEVELS)
def test_integrated_elements_generate_every_stabilizer(p, nminus, nplus):
    """The integrated stabilizer elements generate every vertex stabilizer
    modulo +-1: closing them under products of two elements of a common
    stabilizer reaches every element of every stabilizer."""
    dom = build_context(p, nminus, nplus, 40).dom
    gens = dom.generators()
    stabs = [{_up_to_sign(dom, *g) for g in stab if not dom.is_pm_one(*g)}
             for stab in dom.vertex_stabs]
    reached = {_up_to_sign(dom, *g)
               for g, entry in zip(gens, dom.derivations) if entry is None}
    grown = True
    while grown:
        grown = False
        for stab in stabs:
            inside = reached & stab
            for (x, r), (y, s) in product(inside, repeat=2):
                z = _up_to_sign(dom, dom.order.mul(x, y), r + s)
                if z in stab and z not in reached:
                    reached.add(z)
                    grown = True
    assert all(stab <= reached for stab in stabs)


def test_a_copy_shares_the_derivations(monkeypatch):
    """The derivation table depends only on the order and the stabilizers,
    so a copy of the domain, as `pipeline.resplit` makes one per attempt,
    reads it without a single `Order.mul`."""
    dom = build_context(2, 3, 1, 40).dom
    table = list(dom.derivations)
    mul, calls = Order.mul, []

    def spy(self, x, y):
        calls.append((x, y))
        return mul(self, x, y)

    monkeypatch.setattr(Order, "mul", spy)
    assert replace(dom).derivations == table
    assert not calls


@pytest.mark.parametrize("ctx_name, integrated", [
    ("ctx23", 3), ("ctx25", 2), ("ctx27", 3), ("ctx32", 3)])
def test_integrated_generator_counts(request, ctx_name, integrated):
    """(2,3) integrates 3 of its 9 generators: the pairing-free domain has
    two stabilizers of order 12, each S_3 modulo +-1, sharing one element of
    order 2 (one more generates the second); (2,5) 2 of 4, one per cyclic
    stabilizer; (2,7) all 3, one pairing and two stabilizers of order 4;
    (3,2) 3 of 20."""
    dom = request.getfixturevalue(ctx_name).dom
    assert dom.derivations.count(None) == integrated


class TestEdgeReducer:
    """Reduction of arbitrary edges to the domain's directed reps."""

    def test_reps_locate_to_themselves(self, ctx23):
        dom = ctx23.dom
        for j, e in enumerate(dom.directed_reps()):
            jj, x, r = dom.locate(e)
            assert jj == j

    def test_reduce_matrix_roundtrip(self, ctx23):
        """reduce_matrix(g) produces (j, x, r) with iota(x/p^r).B_j ~ g.e0."""
        dom = ctx23.dom
        rng = random.Random(7)
        gens = dom.generators()
        for _ in range(10):
            x, r = gens[rng.randrange(len(gens))]
            Xi, det = gamma_matrix(dom, x, r)
            out = dom.reduce_matrix(Xi, val_int(det, dom.p))
            # witness: iota(out.x / p^out.r) carries rep j back to the edge
            lhs = normalize_edge(
                mat_mul(dom.spl.image(out.x), dom.rep_mats[out.j]), dom.p)
            assert lhs == normalize_edge(Xi, dom.p)

    def test_up_table_entries_iwahori(self, ctx23):
        dom = ctx23.dom
        table = build_up_table(dom)
        assert len(table) == len(dom.directed_reps())
        for row in table:
            assert len(row) == dom.p
            for ent in row:
                # sigma is Iwahori: lower-left divisible by p, unit diagonal
                assert ent.sigma[2] % dom.p == 0
                assert ent.sigma[0] % dom.p != 0
                assert ent.sigma[3] % dom.p != 0

    def test_locate_cache_hit(self, ctx23, monkeypatch):
        """Repeated location of the same edge does no new search."""
        dom = ctx23.dom
        e = dom.directed_reps()[0]
        found = dom.locate(e)
        n0 = len(dom.located)
        monkeypatch.setattr(dom, "search", None)  # a search would fail
        assert dom.locate(e) == found
        assert len(dom.located) == n0

    def test_locate_replays_the_uncached_search(self):
        """For two `dims-survey` spaces, (2, 13) at weight 8 and (13, 2) at
        weight 2 built at 40/25 digits, every edge located by the domain
        search, the basis, the U_p table and the stars of the vertices
        within distance 2 (for p = 13, 1) of the base gives the same
        (j, x, r) as a search that rebuilds each representative's distance
        on every call, as locate did before it cached them."""
        for p, nminus, w, depth in [(2, 13, 8, 2), (13, 2, 2, 1)]:
            dom = build_context(p, nminus, 1, 40).dom
            harmonic_basis(dom, w - 2, 25)
            build_up_table(dom)
            ring = [base_vertex(p)]
            for _ in range(depth):
                ring = [u for v in ring for u in neighbors(v)]
                for v in ring:
                    for e in star(v):
                        dom.locate(e)
            assert len(dom.located) > 3 * len(dom.rep_mats)
            assert dom.rep_mats == [f.matrix() for f in dom.directed_reps()]
            assert dom.rep_dists == [_edge_dist(f)
                                     for f in dom.directed_reps()]
            for e, found in dom.located.items():
                d_e = _edge_dist(e)
                for j, f in enumerate(dom.directed_reps()):
                    res = dom.search(f.matrix(), e.matrix(), "edge",
                                     d_e + _edge_dist(f) + 1)
                    if res is not None:
                        break
                assert found == (j, *res)

    def test_locate_checks_the_budget(self, ctx23):
        """Locating an edge not yet located searches, and the search stops
        once the active budget has run out."""
        dom = ctx23.dom
        e = next(f for f in (normalize_edge((2**6, a, 0, 1), 2)
                             for a in range(1, 64, 2))
                 if f not in dom.located)
        with Budget(seconds=0.0, start=0.0).active():
            with pytest.raises(BudgetExceeded):
                dom.locate(e)
        assert e not in dom.located
        assert dom.locate(e)[0] in range(len(dom.directed_reps()))


@pytest.mark.parametrize("p, nminus", [(2, 13), (3, 2), (13, 2)])
class TestOneClassifier:
    """`locate` is the domain's only edge classifier: the domain search
    keeps what it finds, and the basis searches only what it did not."""

    def test_domain_search_locates_every_star_edge(self, p, nminus):
        """Right after the domain is built, every star edge of every vertex
        representative is a directed representative or already located."""
        dom = build_context(p, nminus, 1, 40).dom
        reps = set(dom.directed_reps())
        edges = [e for v in dom.vertices for e in star(v)]
        assert all(e in reps or e in dom.located for e in edges)
        assert any(e in dom.located for e in edges)

    def test_basis_searches_only_representatives(self, p, nminus,
                                                 monkeypatch):
        """On a fresh domain the weight-4 basis makes no search: the domain
        search has located every star edge of every vertex representative,
        the geometric representatives among them."""
        dom = build_context(p, nminus, 1, 40).dom
        search, targets = dom.search, []

        def spy(m1, m2, *args):
            targets.append(m2)
            return search(m1, m2, *args)

        monkeypatch.setattr(dom, "search", spy)
        harmonic_basis(dom, 2, 25)
        assert not targets


# (p, N^-, N^+, split variant): the `dims-survey` levels with both
# splittings, (2, 5) and (2, 7), an Eichler level, and two levels with many
# pairings
REFERENCE_LEVELS = [
    (p, nminus, 1, variant)
    for p, nminus in [(2, 3), (2, 13), (2, 19), (3, 2), (3, 13), (5, 3),
                      (5, 7), (7, 3), (11, 2), (13, 2)]
    for variant in (0, 1)] + [
    (2, 5, 1, 0), (2, 7, 1, 0), (5, 3, 2, 0), (3, 2, 5, 1), (2, 61, 1, 0),
    (5, 31, 1, 0)]


@pytest.mark.parametrize("p, nminus, nplus, variant", REFERENCE_LEVELS)
def test_domain_equals_the_linear_scan_reference(p, nminus, nplus, variant):
    """The domain whose star edges are located by exact products and whose
    searches stop at their proven bounds equals the one whose `locate`
    searches every representative in turn to the old bounds: the same
    vertices, edges, pairings, stabilizers and representatives, and the
    same location of every edge both located, every star edge of every
    vertex representative among them."""
    dom = build_context(p, nminus, nplus, 40, variant=variant).dom
    ref = reference_domain(dom.order, dom.spl)
    for name in ["vertices", "geo_edges", "pairings", "vertex_stabs",
                 "edge_stabs", "rep_mats", "rep_dists"]:
        assert getattr(dom, name) == getattr(ref, name), name
    edges = [e for v in dom.vertices for e in star(v)]
    assert all(ref.locate(e) is not None for e in edges)
    common = dom.located.keys() & ref.located.keys()
    assert common >= set(edges)
    assert all(dom.located[e] == ref.located[e] for e in common)


@pytest.mark.parametrize("p, nminus, nplus, variant", REFERENCE_LEVELS)
def test_vertex_searches_stop_at_the_proven_bound(p, nminus, nplus, variant):
    """gamma = x/p^r moves the base vertex by exactly 2r, so a vertex
    search to r <= (d(u) + d(w)) // 2 finds what one to d(u) + d(w) + 1
    does: every vertex stabilizer, every pairing element, and every miss
    of the pairing search (a new vertex against each vertex before it, a
    paired one against each vertex before its target)."""
    dom = build_context(p, nminus, nplus, 40, variant=variant).dom

    def old(u, w, all_solutions=False):
        return dom.search(u.matrix(), w.matrix(), "vertex",
                          u.dist_to_base() + w.dist_to_base() + 1,
                          all_solutions)

    for i, (v, stab) in enumerate(zip(dom.vertices, dom.vertex_stabs)):
        assert old(v, v, all_solutions=True) == stab
        assert all(old(v, w) is None for w in dom.vertices[:i])
    for pr in dom.pairings:
        assert old(pr.vertex, dom.vertices[pr.target_index]) == (pr.x, pr.r)
        assert all(old(pr.vertex, w) is None
                   for w in dom.vertices[:pr.target_index])


def test_domain_search_runs_no_edge_search_that_misses(monkeypatch):
    """Building the context of (2, 61) runs no edge search that misses,
    nor any other edge or edge-stabilizer search: its star edges are
    located by exact products (while `locate` searched every
    representative in turn, 435 edge searches missed) and each edge
    stabilizer is read off a vertex stabilizer, whose first element
    locates the new representative."""
    calls = _spy_searches(monkeypatch)
    dom = build_context(2, 61, 1, 60).dom
    assert calls
    assert not [kind for kind, _ in calls if kind == "edge"]
    assert len(dom.located) > len(dom.geo_edges)
    for e, stab in zip(dom.geo_edges, dom.edge_stabs):
        assert dom.located[e][1:] == stab[0]


def test_dims_survey_searches_only_vertex_stabilizers_and_pairings(
        monkeypatch):
    """Building every space of the benchmark's `dims-survey` workload, as
    its seed-0 round does (the domain at 40 digits, then the basis), runs
    no edge search and exactly one vertex-stabilizer search per vertex
    representative; every other search is a pairing search."""
    monkeypatch.syspath_prepend(BENCHMARK)
    workloads = importlib.import_module("workloads")
    calls = _spy_searches(monkeypatch)
    for space in workloads.dims_survey(0, linvariant):
        calls.clear()
        dom = build_context(space.p, space.nminus, 1,
                            workloads.DIMS_SPLIT_PREC,
                            variant=space.split_variant).dom
        harmonic_basis(dom, space.weight - 2, workloads.DIMS_BASIS_PREC)
        assert calls.count(("vertex", True)) == len(dom.vertices)
        assert {kind for kind, _ in calls} == {"vertex"}
