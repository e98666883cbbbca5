"""The linear-scan domain search: the reference for
`domain.compute_fundamental_domain` and `FundamentalDomain.locate`.

`compute_fundamental_domain` locates the star edges of a vertex
representative by exact products with the stabilizers it holds, reads
each edge stabilizer off a vertex stabilizer, and stops every search at
its proven bound; `locate` walks the source of any other edge to a vertex
representative and forms its result by exact products as well.  This
module keeps a version that does none of that: its `locate` runs an edge
search against every directed representative in turn until one hits,
every stabilizer is a search of its own, and every search runs to the
distances of the two objects to the base plus one, which holds twice the
proven exponent.  The tests compare the two domains.
"""

from __future__ import annotations

from linvariant.budget import checkpoint
from linvariant.domain import (
    MAX_VERTICES,
    DomainTooLarge,
    FundamentalDomain,
    Pairing,
)
from linvariant.padics import val_int
from linvariant.quaternions import Order, congruence_kernel, enumerate_norm
from linvariant.splitting import SplittingMap
from linvariant.tree import Edge, base_vertex, mat_det, star


def edge_dist(e: Edge) -> int:
    """The distance of the nearer end of e to the base vertex."""
    return min(e.source().dist_to_base(), e.target().dist_to_base())


def edge_search(dom: FundamentalDomain, m1, m2, rmax: int,
                all_solutions: bool = False):
    """`FundamentalDomain.search` for directed edges: x in R, nrd = p^(2r),
    r <= rmax, with iota(x/p^r) carrying the edge m1.e0 to m2.e0.  The
    congruences are those of the vertex search with p times the entries
    outside the lower left, modulo one more power of p (the Iwahori
    order).  Returns the first (x, r) in `search_order` or None; with
    all_solutions=True, the list in that order of all (x, r) with x
    primitive."""
    p = dom.p
    v1 = val_int(mat_det(m1), p)
    v2 = val_int(mat_det(m2), p)
    forms = dom._forms(m1, m2)
    found = []
    for r in range(rmax + 1):
        checkpoint()
        V = v1 + v2 + 2 * r
        if V % 2 or V < 0:
            continue
        s = V // 2
        modulus = p ** (s + 1)
        assert s + 1 + 4 <= dom.spl.prec
        rows = [[(f if t == 2 else p * f) % modulus for f in forms[t]]
                for t in range(4)]
        K = congruence_kernel(rows, modulus)
        KG = [[sum(a * b for a, b in zip(ki, col))
               for col in zip(*dom.order.gram)] for ki in K]
        GK = [[sum(a * b for a, b in zip(kgi, kj)) for kj in K] for kgi in KG]
        for cvec in enumerate_norm(GK, 2 * p ** (2 * r)):
            c = tuple(sum(kj[m] * cj for kj, cj in zip(K, cvec))
                      for m in range(4))
            if r > 0 and all(ci % p == 0 for ci in c):
                continue  # imprimitive: already seen at smaller r
            assert dom.order.nrd(c) == p ** (2 * r)
            if not all_solutions:
                return (c, r)
            found.append((c, r))
    return found if all_solutions else None


def scan_locate(dom: FundamentalDomain, e: Edge):
    """(j, x, r) with iota(x/p^r) . directed_reps()[j] = e for the first
    such representative j of dom, searched to r <= d_e + d_j + 1 for the
    distances d of `edge_dist`; None when there is none."""
    m, d_e = e.matrix(), edge_dist(e)
    for j, f in enumerate(dom.directed_reps()):
        res = edge_search(dom, f.matrix(), m, d_e + edge_dist(f) + 1)
        if res is not None:
            return (j, *res)
    return None


class ScanDomain(FundamentalDomain):
    """A domain whose `locate` is the linear scan."""

    def locate(self, e: Edge):
        """`scan_locate`, cached by canonical edge in `located`; None when
        e is equivalent to no representative yet, which on a complete
        domain does not happen."""
        if e not in self.located and (res := scan_locate(self, e)):
            self.located[e] = res
        return self.located.get(e)


def compute_fundamental_domain(order: Order,
                               spl: SplittingMap) -> ScanDomain:
    """The domain by breadth-first search from the base vertex: a star edge
    that `locate` matches to no representative so far becomes one."""
    p = spl.p
    dom = ScanDomain(p, order, spl)
    v0 = base_vertex(p)
    dom.vertices.append(v0)
    queue = [v0]
    while queue:
        v = queue.pop(0)
        for e in star(v):
            if dom.locate(e) is not None:
                continue
            dom.geo_edges.append(e)
            dom.rep_mats += [e.matrix(), e.opposite().matrix()]
            u = e.target()
            for i, w in enumerate(dom.vertices):
                g = dom.search(u.matrix(), w.matrix(),
                               u.dist_to_base() + w.dist_to_base() + 1)
                if g is not None:
                    dom.pairings.append(Pairing(u, i, *g))
                    break
            else:
                dom.vertices.append(u)
                queue.append(u)
                if len(dom.vertices) > MAX_VERTICES:
                    raise DomainTooLarge(
                        f"the fundamental domain has more than {MAX_VERTICES} "
                        "vertex orbits")
    for e in dom.geo_edges:
        stab = edge_search(dom, e.matrix(), e.matrix(),
                           2 * edge_dist(e) + 1, all_solutions=True)
        # closed under negation (contains the central -1), so of even order
        assert len(stab) >= 2 and len(stab) % 2 == 0
        dom.edge_stabs.append(stab)
    for v in dom.vertices:
        dom.vertex_stabs.append(dom.search(
            v.matrix(), v.matrix(), 2 * v.dist_to_base() + 1,
            all_solutions=True))
    return dom
