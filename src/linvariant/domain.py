"""Fundamental domain of Gamma = R[1/p]^x_1 acting on the Bruhat-Tits tree.

Gamma is the group of reduced-norm-1 units of R[1/p], acting through the
splitting iota at p.  Equivalence of two vertices/edges under Gamma reduces to
finding x in R with nrd(x) = p^(2r) satisfying congruence conditions that cut
out a finite-index sublattice of R; candidates are found by integer
Fincke-Pohst enumeration on that sublattice, whose basis is a Hermite form
and whose Gram matrix is the order's integer trace form (twice the reduced
norm) restricted to it.
The search runs on integers, and a group element gamma = x/p^r is carried
as (c, r) for x = sum_m c_m b_m, c the integer coordinates of x in the order
basis: its matrix is one integer combination of the splitting images and
its reduced norm and trace those of the order (`Order.nrd`, `Order.trd`).

The domain is computed by breadth-first search from the base vertex, recording
vertex orbit representatives, geometric edge representatives, boundary pairing
elements and edge/vertex stabilizers.  One cached classifier,
`FundamentalDomain.locate`, classifies every edge against the directed
representatives found so far: the breadth-first search takes an edge as a
new representative only when nothing matches, and every match it finds is
kept for the harmonic basis and the U_p table (`reduce_matrix`).

Let f = (a -> b) be a directed representative, v the vertex representative
of a's orbit and g the element carrying a to v (g = 1 when a = v).  An edge
e = (v -> u) is equivalent to f exactly when u lies in the Stab(v)-orbit of
g.b, so the domain records f for each (v, u) of that orbit (`star_reps`),
and `locate` searches an edge out of a vertex representative only against
the representative recorded for it.  That search finds the match: for
primitive x, iota(x) has elementary divisors (1, p^2r), so gamma = x/p^r
moves the base vertex by exactly 2r, and gamma.f = e bounds r by the
distances of e and f to the base plus one.  An edge out of any other vertex
is searched against every representative in turn.  The searches
(`FundamentalDomain.search`) read the domain's own order and splitting, so
a copy of the domain under another splitting searches with that one.  Every
search checks the active time budget once per exponent r, and the
breadth-first search once per star edge (see `budget`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from .budget import checkpoint
from .padics import val_int
from .quaternions import Order, congruence_kernel, enumerate_norm
from .splitting import SplittingMap
from .tree import (
    Edge,
    Vertex,
    base_vertex,
    mat_adj,
    mat_det,
    mat_mul,
    normalize_edge,
    normalize_vertex,
    star,
)


def _edge_dist(e: Edge) -> int:
    return min(e.source().dist_to_base(), e.target().dist_to_base())


@dataclass
class Pairing:
    """gamma.(outside vertex) = representative: iota(x/p^r) carries `vertex`
    to vertices[target_index]."""

    vertex: Vertex
    target_index: int
    x: tuple  # integer coordinates in the order basis
    r: int


@dataclass
class EdgeReduction:
    """g = p^u_exp * (x/p^r) * B_j * sigma with sigma Iwahori mod p^sigma_prec."""

    j: int  # index into directed_reps()
    x: tuple
    r: int
    sigma: tuple  # 4 ints
    sigma_prec: int
    u_exp: int


@dataclass
class FundamentalDomain:
    p: int
    order: Order
    spl: SplittingMap
    vertices: list[Vertex] = field(default_factory=list)
    geo_edges: list[Edge] = field(default_factory=list)
    pairings: list[Pairing] = field(default_factory=list)
    edge_stabs: list[list] = field(default_factory=list)  # per geometric edge
    vertex_stabs: list[list] = field(default_factory=list)
    # the matrix and the distance to the base of each directed
    # representative, extended with geo_edges as the search adds them
    rep_mats: list = field(default_factory=list, compare=False, repr=False)
    rep_dists: list = field(default_factory=list, compare=False, repr=False)
    # (v, u) -> j for a vertex representative v and a neighbour u with the
    # edge v -> u equivalent to directed_reps()[j]
    star_reps: dict = field(default_factory=dict, compare=False, repr=False)
    # edge -> (j, x, r) with iota(x/p^r) . directed_reps()[j] = edge, filled
    # by the domain search and locate; exact, so a copy of the domain
    # under a more precise splitting that agrees with this one shares it
    located: dict = field(default_factory=dict, compare=False, repr=False)
    # (x, r, k) -> cocycles.gamma_action; it depends on the splitting, so a
    # copy of the domain under another splitting starts without it
    actions: dict = field(default_factory=dict, init=False, compare=False,
                          repr=False)

    # cached on first use, once the domain is complete
    @cached_property
    def rep_detvals(self) -> list[int]:
        return [val_int(mat_det(m), self.p) for m in self.rep_mats]

    def _forms(self, m1, m2):
        """Rows of linear forms c -> entries of adj(m2) * iota(sum c b) * m1."""
        adj2, mod = mat_adj(m2), self.p**self.spl.prec
        rows = [[0] * 4 for _ in range(4)]  # entry t, coefficient of c_m
        for midx, im in enumerate(self.spl.images):
            z = mat_mul(mat_mul(adj2, im), m1)
            for t in range(4):
                rows[t][midx] = z[t] % mod
        return rows

    def search(self, m1, m2, kind: str, rmax: int, all_solutions: bool = False):
        """Find x in R, nrd = p^(2r), r <= rmax, with iota(x/p^r).(m1-object)
        equal to the m2-object (vertex class or directed edge); x is given by
        its integer coordinates, a tuple.

        Returns a single (x, r) or None; with all_solutions=True, the list of
        all (x, r) with x primitive (no two give the same x/p^r)."""
        p = self.p
        v1 = val_int(mat_det(m1), p)
        v2 = val_int(mat_det(m2), p)
        forms = self._forms(m1, m2)
        found = []
        for r in range(rmax + 1):
            checkpoint()
            V = v1 + v2 + 2 * r
            if V % 2:
                continue
            s = V // 2
            if s < 0:
                continue
            if kind == "edge":
                modulus = p ** (s + 1)
                assert s + 1 + 4 <= self.spl.prec
                rows = [
                    [p * forms[0][m] % modulus for m in range(4)],
                    [p * forms[1][m] % modulus for m in range(4)],
                    [forms[2][m] % modulus for m in range(4)],
                    [p * forms[3][m] % modulus for m in range(4)],
                ]
            else:
                modulus = p**s
                assert s + 4 <= self.spl.prec
                rows = [[forms[t][m] % modulus for m in range(4)] for t in range(4)]
            K = congruence_kernel(rows, modulus)
            KG = [[sum(a * b for a, b in zip(ki, col))
                   for col in zip(*self.order.gram)] for ki in K]
            GK = [[sum(a * b for a, b in zip(kgi, kj)) for kj in K] for kgi in KG]
            target = 2 * p ** (2 * r)  # the Gram form is 2 nrd
            for cvec in enumerate_norm(GK, target):
                c = tuple(sum(kj[m] * cj for kj, cj in zip(K, cvec))
                          for m in range(4))
                if r > 0 and all(ci % p == 0 for ci in c):
                    continue  # imprimitive: already seen at smaller r
                assert self.order.nrd(c) == p ** (2 * r)
                if all_solutions:
                    found.append((c, r))
                else:
                    return (c, r)
        return found if all_solutions else None

    def stabilizer(self, obj, kind: str, dist: int):
        """All gamma in Gamma fixing the vertex or directed edge obj at
        distance dist from the base vertex (includes +-1)."""
        return self.search(obj.matrix(), obj.matrix(), kind, 2 * dist + 1,
                           all_solutions=True)

    def directed_reps(self) -> list[Edge]:
        return [f for e in self.geo_edges for f in (e, e.opposite())]

    def one_per_sign(self, elements):
        """The elements x/p^r other than +-1, the first of each pair x, -x in
        list order: -1 acts trivially on V_k (k even) and on the tree, so x
        and -x give the same lambda, psi, coboundary and invariance rows."""
        kept, seen = [], set()
        for x, r in elements:
            if (x, r) not in seen and not self.is_pm_one(x, r):
                kept.append((x, r))
                seen.update({(x, r), (tuple(-c for c in x), r)})
        return kept

    def generators(self):
        """Pairing elements plus the nontrivial vertex-stabilizer elements,
        one of each pair x, -x (`one_per_sign`) over all stabilizers."""
        return [(pr.x, pr.r) for pr in self.pairings] + self.one_per_sign(
            g for stab in self.vertex_stabs for g in stab)

    # cached on first use, by loperator.l_matrix
    @cached_property
    def derivations(self) -> list:
        """Aligned with `generators()`: None for an element whose lambda is
        integrated, or (i, j) with gens[n] = +-gens[i] gens[j] for two
        generators of a vertex stabilizer holding gens[n], so that
        lambda(gens[n]) = lambda(gens[i]) + gens[i].lambda(gens[j]) (-1 fixes
        the base point and acts trivially).

        The pairing elements are integrated.  In each stabilizer, every
        product of two reached elements of the stabilizer is reached, until
        none is new; then the first element in list order not yet reached
        is integrated, and so on until all are reached (an element shared
        with an earlier stabilizer was reached there).  Each ordered pair is
        multiplied once, exactly (`Order.mul`, divided by p while r > 0 and
        every coordinate is divisible).  Each (i, j) was reached before n,
        though not always earlier in the list."""
        gens, p = self.generators(), self.p
        where = {}
        for n, (x, r) in enumerate(gens):
            where[x, r] = where[tuple(-c for c in x), r] = n
        table, reached = [None] * len(gens), set(range(len(self.pairings)))
        for stab in self.vertex_stabs:
            members = sorted({where[g] for g in stab if g in where})
            todo, closed = [n for n in members if n in reached], []
            while True:
                while todo:
                    a = todo.pop()
                    closed.append(a)
                    for i, j in [pair for b in closed
                                 for pair in ((a, b), (b, a))]:
                        (x, r), (y, s) = gens[i], gens[j]
                        z, t = self.order.mul(x, y), r + s
                        while t > 0 and all(c % p == 0 for c in z):
                            z, t = tuple(c // p for c in z), t - 1
                        m = where.get((z, t))
                        if m is not None and m not in reached:
                            table[m] = (i, j)
                            reached.add(m)
                            todo.append(m)
                rest = [n for n in members if n not in reached]
                if not rest:
                    break
                reached.add(rest[0])
                todo.append(rest[0])
        return table

    def is_pm_one(self, x, r: int) -> bool:
        """Whether gamma = x/p^r, of reduced norm 1, is the central +-1: in a
        definite algebra trd(gamma)^2 <= 4 nrd(gamma), with equality only
        for scalars."""
        return abs(self.order.trd(x)) == 2 * self.p**r

    def locate(self, e: Edge):
        """(j, x, r) with iota(x/p^r) . directed_reps()[j] = e, cached by
        canonical edge in `located`; None when e is equivalent to no
        representative yet, which on a complete domain does not happen.

        No two representatives are equivalent, and the search against the
        one equivalent to e finds it (see the module docstring).  An edge
        out of a vertex representative is searched only against the
        representative `star_reps` records for it, if any; any other edge
        against every one."""
        if e not in self.located:
            m, d_e = e.matrix(), _edge_dist(e)
            reps = range(len(self.rep_mats))
            if (v := e.source()) in self.vertices:
                j = self.star_reps.get((v, e.target()))
                reps = [] if j is None else [j]
            for j in reps:
                res = self.search(self.rep_mats[j], m, "edge",
                                  d_e + self.rep_dists[j] + 1)
                if res is not None:
                    self.located[e] = (j, *res)
                    break
        return self.located.get(e)

    def reduce_matrix(self, g, det_val: int) -> EdgeReduction:
        """Full reduction of the edge g.e0 for an integer matrix g; g may have
        residue entries as long as det_val is the exact valuation of its true
        determinant."""
        p = self.p
        j, x, r = self.locate(normalize_edge(g, p))
        Bj = self.rep_mats[j]
        vB = self.rep_detvals[j]
        # sigma = adj(B_j) adj(X) g / (det(B_j) p^(r+u)) for X = iota(x),
        # nrd(x) = p^(2r), det(B_j) = +-p^vB; the divisor's exponent
        # (det_val + vB)/2 + r is >= 0, as g and B_j are integral
        raw = mat_mul(mat_adj(Bj), mat_mul(mat_adj(self.spl.image(x)), g))
        assert (det_val - vB) % 2 == 0
        u_exp = (det_val - vB) // 2
        detB_unit = 1 if Bj[0] * Bj[3] - Bj[1] * Bj[2] > 0 else -1
        divisor_exp = vB + r + u_exp
        dv = p**divisor_exp
        assert all(t % dv == 0 for t in raw), \
            "sigma is not p-integral at claimed scale"
        sigma_prec = self.spl.prec - divisor_exp
        sigma = tuple(detB_unit * (t // dv) % p**sigma_prec for t in raw)
        assert sigma[2] % p == 0, "reduction witness is not Iwahori"
        assert sigma[0] % p != 0
        return EdgeReduction(j, x, r, sigma, sigma_prec, u_exp)


def gamma_matrix(dom: FundamentalDomain, x, r: int):
    """The integer residue matrix iota(x) of gamma = x/p^r, modulo
    p^spl.prec, together with its exact determinant nrd(x)."""
    return dom.spl.image(x), dom.order.nrd(x)


def gamma_vertex(dom: FundamentalDomain, x, r: int, v: Vertex) -> Vertex:
    """gamma = x/p^r applied to the vertex v."""
    return normalize_vertex(mat_mul(dom.spl.image(x), v.matrix()), dom.p)


# The most vertex orbits a domain may have.  Every vertex stabilizer holds
# +-1, so a level of Eichler mass m has at least 2m of them, and
# `pipeline.validate` rejects a level with 2m past this bound; the search
# can still pass it when stabilizers are larger than +-1.
MAX_VERTICES = 200


class DomainTooLarge(RuntimeError):
    """The search found more than MAX_VERTICES vertex orbits."""


def compute_fundamental_domain(order: Order,
                               spl: SplittingMap) -> FundamentalDomain:
    """The domain by breadth-first search from the base vertex: a star edge
    that `locate` matches to no representative so far becomes one, located
    by the first element of its stabilizer (see the module docstring)."""
    p = spl.p
    dom = FundamentalDomain(p, order, spl)
    dom.vertices.append(base_vertex(p))
    dom.vertex_stabs.append(dom.stabilizer(dom.vertices[0], "vertex", 0))
    for i, v in enumerate(dom.vertices):  # the list is the queue
        for e in star(v):
            checkpoint()
            if dom.locate(e) is not None:
                continue
            j, d, u = len(dom.rep_mats), _edge_dist(e), e.target()
            stab = dom.stabilizer(e, "edge", d)
            # closed under negation (contains the central -1), so of even order
            assert len(stab) >= 2 and len(stab) % 2 == 0
            dom.edge_stabs.append(stab)
            dom.located[e] = (j, *stab[0])
            dom.geo_edges.append(e)
            dom.rep_mats += [e.matrix(), e.opposite().matrix()]
            dom.rep_dists += [d] * 2
            for iw, w in enumerate(dom.vertices):
                g = dom.search(u.matrix(), w.matrix(), "vertex",
                               u.dist_to_base() + w.dist_to_base() + 1)
                if g is not None:
                    dom.pairings.append(Pairing(u, iw, *g))
                    t = gamma_vertex(dom, *g, v)
                    break
            else:
                iw, t = len(dom.vertices), v
                dom.vertices.append(u)
                if len(dom.vertices) > MAX_VERTICES:
                    raise DomainTooLarge(
                        f"the fundamental domain has more than {MAX_VERTICES} "
                        "vertex orbits")
                dom.vertex_stabs.append(
                    dom.stabilizer(u, "vertex", u.dist_to_base()))
            for a, b, k in [(i, u, j), (iw, t, j + 1)]:
                w = dom.vertices[a]
                for x, r in dom.vertex_stabs[a]:
                    dom.star_reps[w, gamma_vertex(dom, x, r, b)] = k
    return dom


# ----------------------------------------------------------------------
# U_p coset table
# ----------------------------------------------------------------------


def build_up_table(dom: FundamentalDomain) -> list[list[EdgeReduction]]:
    """table[j][l] reduces B_j * [[p, l], [0, 1]] to a directed representative;
    these are the cosets appearing in the U_p sum."""
    p = dom.p
    return [[dom.reduce_matrix(mat_mul(Bj, (p, l, 0, 1)), vB + 1)
             for l in range(p)]
            for Bj, vB in zip(dom.rep_mats, dom.rep_detvals)]
