"""Fundamental domain of Gamma = R[1/p]^x_1 acting on the Bruhat-Tits tree.

Gamma is the group of reduced-norm-1 units of R[1/p], acting through the
splitting iota at p.  Equivalence of two vertices under Gamma reduces to
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

Only vertex stabilizers and pairings need a lattice search, and only while
the domain is built.  The searches stop at proven bounds.  For primitive x,
iota(x) has elementary divisors (1, p^2r), so gamma = x/p^r moves the base
vertex by exactly 2r; if gamma carries a vertex at distance d(u) from the
base to one at distance d(w), then 2r <= d(u) + d(w).  A vertex stabilizer
is searched to r <= d and a pairing to r <= (d(u) + d(w)) // 2.

`FundamentalDomain.search` returns, among the elements x/p^r carrying one
vertex to the other, the one with the smallest r and, among those, the
smallest (c_3, c_2, c_1, c_0) in lexicographic order (`search_order`):
`congruence_kernel` gives a lower-triangular basis with a positive
diagonal, so the order in which `enumerate_norm` visits kernel coordinates
is this order on c.  Its lists of all solutions are sorted the same way.

Let f = (a -> b) be a directed representative, v the vertex representative
of a's orbit and g the element carrying a to v (g = 1 when a = v).  An edge
e = (v -> u) is equivalent to f exactly when u lies in the Stab(v)-orbit of
g.b, so the domain records, for each (v, u) of that orbit (`star_reps`),
f and one element gamma_0 = s g (s in Stab(v)) with gamma_0.f = e, and for
each f the element carrying b to a vertex representative (`rep_targets`).
The stabilizer of a new representative (v -> u) is the part of Stab(v)
that fixes u, in `search_order`.

A vertex representative is carried to itself by 1 and any other vertex a
to one along the geodesic from the base vertex (`walk`): if h carries the
current vertex c to vertices[iw], the next one n gives the edge
h.(c -> n) = gamma_0.f_j out of vertices[iw], and k gamma_0^-1 h carries n
to vertices[iw'] for the record (iw', k) of the target of f_j, with
(x/p^r)^-1 = conj(x)/p^r.  If h.a = vertices[iw] and h.e = gamma_0.f_j for
e = (a -> b), the elements carrying f_j to e are the coset
h^-1 gamma_0 Stab(f_j), whichever h and gamma_0 were taken, and `locate`
returns its least element under `search_order`, formed by exact products
(`compose`): what a search would return.  Every search checks the active
time budget once per exponent r, the breadth-first search once per star
edge and the walk once per step (see `budget`).
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
    geodesic,
    mat_adj,
    mat_det,
    mat_mul,
    normalize_edge,
    normalize_vertex,
    star,
)


def search_order(g):
    """The key under which `FundamentalDomain.search` finds g = (x, r)
    first: r, then the coordinates of x from the last to the first."""
    x, r = g
    return r, x[::-1]


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
    # per directed representative, extended with geo_edges as the search
    # adds them: its matrix, and (iw, k) with k . target = vertices[iw]
    rep_mats: list = field(default_factory=list, compare=False, repr=False)
    rep_targets: list = field(default_factory=list, compare=False, repr=False)
    # (v, u) -> (j, gamma_0) for a vertex representative v and a neighbour
    # u with gamma_0 . directed_reps()[j] = (v -> u)
    star_reps: dict = field(default_factory=dict, compare=False, repr=False)
    # edge -> (j, x, r) with iota(x/p^r) . directed_reps()[j] = edge, filled
    # by locate; star(v) per vertex representative;
    # `cocycles.normalizing_element` per (norm, parity).  Exact, so a copy of
    # the domain under a splitting that agrees with this one shares them
    located: dict = field(default_factory=dict, compare=False, repr=False)
    stars: dict = field(default_factory=dict, compare=False, repr=False)
    normalizers: dict = field(default_factory=dict, compare=False, repr=False)
    # (x, r, k) -> cocycles.gamma_action; it depends on the splitting, so a
    # copy of the domain under another splitting starts without it
    actions: dict = field(default_factory=dict, init=False, compare=False,
                          repr=False)
    # `derivations`, filled on first use; it depends only on the order and
    # the stabilizers, so a copy of the domain shares it
    derivation_table: list = field(default_factory=list, compare=False,
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

    def search(self, m1, m2, rmax: int, all_solutions: bool = False):
        """Find x in R, nrd = p^(2r), r <= rmax, with iota(x/p^r) carrying
        the vertex of m1 to that of m2; x is given by its integer
        coordinates, a tuple.  Only `compute_fundamental_domain` searches.

        Returns the first (x, r) in `search_order` or None; with
        all_solutions=True, the list in that order of all (x, r) with x
        primitive (no two give the same x/p^r)."""
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
            modulus = p**s
            assert s + 4 <= self.spl.prec
            rows = [[forms[t][m] % modulus for m in range(4)] for t in range(4)]
            K = congruence_kernel(rows, modulus)
            KG = [[sum(a * b for a, b in zip(ki, col))
                   for col in zip(*self.order.gram)] for ki in K]
            GK = [[sum(a * b for a, b in zip(kgi, kj)) for kj in K] for kgi in KG]
            for cvec in enumerate_norm(GK, 2 * p ** (2 * r)):  # 2 nrd
                c = tuple(sum(kj[m] * cj for kj, cj in zip(K, cvec))
                          for m in range(4))
                if r > 0 and all(ci % p == 0 for ci in c):
                    continue  # imprimitive: already seen at smaller r
                assert self.order.nrd(c) == p ** (2 * r)
                if not all_solutions:
                    return (c, r)
                found.append((c, r))
        return found if all_solutions else None

    def vertex_stabilizer(self, v: Vertex):
        """All gamma in Gamma fixing the vertex v (includes +-1), in
        `search_order`: r <= d(v) (see the module docstring)."""
        m = v.matrix()
        return self.search(m, m, v.dist_to_base(), all_solutions=True)

    def compose(self, g, h):
        """The product g h of g = x/p^r and h = y/p^s as the search gives
        it: x y over p^(r+s), divided by p while the exponent is positive
        and every coordinate is divisible.  A factor +-1 only sets the
        sign."""
        (x, r), (y, s) = g, h
        if self.is_pm_one(y, s):
            return (x if self.order.trd(y) > 0 else tuple(-c for c in x)), r
        if self.is_pm_one(x, r):
            return (y if self.order.trd(x) > 0 else tuple(-c for c in y)), s
        p, z, t = self.p, self.order.mul(x, y), r + s
        while t > 0 and all(c % p == 0 for c in z):
            z, t = tuple(c // p for c in z), t - 1
        return z, t

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

    # filled on first use, by loperator.l_matrix
    @property
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
        multiplied once, exactly (`compose`).  Each (i, j) was reached
        before n, though not always earlier in the list."""
        if self.derivation_table:
            return self.derivation_table
        gens, where = self.generators(), {}
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
                        m = where.get(self.compose(gens[i], gens[j]))
                        if m is not None and m not in reached:
                            table[m] = (i, j)
                            reached.add(m)
                            todo.append(m)
                rest = [n for n in members if n not in reached]
                if not rest:
                    break
                reached.add(rest[0])
                todo.append(rest[0])
        self.derivation_table[:] = table
        return self.derivation_table

    def is_pm_one(self, x, r: int) -> bool:
        """Whether gamma = x/p^r, of reduced norm 1, is the central +-1: in a
        definite algebra trd(gamma)^2 <= 4 nrd(gamma), with equality only
        for scalars."""
        return abs(self.order.trd(x)) == 2 * self.p**r

    def _star_record(self, iw: int, h, n: Vertex):
        """The `star_reps` record of h.(c -> n) for h.c = vertices[iw], or
        None; residues decide h.n while 2r + d(n) + d(h.n) + 2 <= 2 prec."""
        b = n if self.is_pm_one(*h) else gamma_vertex(self, *h, n)
        assert 2 * (h[1] + 1) + n.dist_to_base() + b.dist_to_base() \
            <= 2 * self.spl.prec
        return self.star_reps.get((self.vertices[iw], b))

    def walk(self, a: Vertex):
        """(iw, h) with h . a = vertices[iw]: (i, 1) for a = vertices[i],
        else h carried along the geodesic from the base vertex to a (see the
        module docstring)."""
        if a in self.vertices:
            return self.vertices.index(a), (self.order.one, 0)
        iw, h = 0, (self.order.one, 0)
        for n in geodesic(self.vertices[0], a)[1:]:
            checkpoint()
            j, (x, r) = self._star_record(iw, h, n)
            iw, k = self.rep_targets[j]
            h = self.compose(k, self.compose((self.order.conj(x), r), h))
        return iw, h

    def locate(self, e: Edge):
        """(j, x, r) with iota(x/p^r) . directed_reps()[j] = e, cached by
        canonical edge in `located`; None when e is equivalent to no
        representative yet, which on a complete domain does not happen.

        No two representatives are equivalent.  x/p^r is the least element
        of the coset that `walk` gives, by exact products (see the module
        docstring)."""
        if e not in self.located:
            iw, h = self.walk(e.source())
            if (rec := self._star_record(iw, h, e.target())) is not None:
                j, g = rec
                g = self.compose((self.order.conj(h[0]), h[1]), g)
                self.located[e] = (j, *min(
                    (self.compose(g, t) for t in self.edge_stabs[j // 2]),
                    key=search_order))
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
    p, one = spl.p, (order.one, 0)
    dom = FundamentalDomain(p, order, spl)
    dom.vertices.append(base_vertex(p))
    dom.vertex_stabs.append(dom.vertex_stabilizer(dom.vertices[0]))
    for i, v in enumerate(dom.vertices):  # the list is the queue
        for e in dom.stars.setdefault(v, star(v)):
            checkpoint()
            if dom.locate(e) is not None:
                continue
            j, u = len(dom.rep_mats), e.target()
            images = [(s, gamma_vertex(dom, *s, u))
                      for s in dom.vertex_stabs[i]]
            stab = [s for s, b in images if b == u]  # Stab(e) in Stab(v)
            # closed under negation (contains the central -1), so of even order
            assert len(stab) >= 2 and len(stab) % 2 == 0
            dom.edge_stabs.append(stab)
            dom.located[e] = (j, *stab[0])
            dom.geo_edges.append(e)
            dom.rep_mats += [e.matrix(), e.opposite().matrix()]
            for iw, w in enumerate(dom.vertices):
                g = dom.search(u.matrix(), w.matrix(),
                               (u.dist_to_base() + w.dist_to_base()) // 2)
                if g is not None:
                    dom.pairings.append(Pairing(u, iw, *g))
                    break
            else:
                iw, g = len(dom.vertices), one
                dom.vertices.append(u)
                if len(dom.vertices) > MAX_VERTICES:
                    raise DomainTooLarge(
                        f"the fundamental domain has more than {MAX_VERTICES} "
                        "vertex orbits")
                dom.vertex_stabs.append(dom.vertex_stabilizer(u))
            dom.rep_targets += [(iw, g), (i, one)]
            # s . e and s g . e.opposite() for s in the stabilizers of the
            # vertex representatives v and w = g.u
            for s, b in images:
                dom.star_reps[v, b] = (j, s)
            t = gamma_vertex(dom, *g, v)
            for s in dom.vertex_stabs[iw]:
                dom.star_reps[dom.vertices[iw], gamma_vertex(dom, *s, t)] = (
                    j + 1, dom.compose(s, g))
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
