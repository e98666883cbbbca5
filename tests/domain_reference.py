"""The linear-scan domain search: the reference for
`domain.compute_fundamental_domain`.

`compute_fundamental_domain` locates the star edges of a vertex
representative by exact products with the stabilizers it holds, reads
each edge stabilizer off a vertex stabilizer, and stops every search at
its proven bound.  This module keeps a version that does none of that:
its `locate` searches every directed representative in turn until one
hits, every stabilizer is a search of its own, and every search runs to
the distances of the two objects to the base plus one, which holds
twice the proven exponent.  The tests compare the two domains.
"""

from __future__ import annotations

from linvariant.domain import (
    MAX_VERTICES,
    DomainTooLarge,
    FundamentalDomain,
    Pairing,
    _edge_dist,
)
from linvariant.quaternions import Order
from linvariant.splitting import SplittingMap
from linvariant.tree import Edge, base_vertex, star


class ScanDomain(FundamentalDomain):
    """A domain whose `locate` is the linear scan."""

    def locate(self, e: Edge):
        """(j, x, r) with iota(x/p^r) . directed_reps()[j] = e for the
        first such representative j, cached by canonical edge in `located`;
        None when e is equivalent to no representative yet, which on a
        complete domain does not happen."""
        if e not in self.located:
            m, d_e = e.matrix(), _edge_dist(e)
            for j, (B, d) in enumerate(zip(self.rep_mats, self.rep_dists)):
                res = self.search(B, m, "edge", d_e + d + 1)
                if res is not None:
                    self.located[e] = (j, *res)
                    break
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
            dom.rep_dists += [_edge_dist(e)] * 2
            u = e.target()
            for i, w in enumerate(dom.vertices):
                g = dom.search(u.matrix(), w.matrix(), "vertex",
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
        stab = dom.search(e.matrix(), e.matrix(), "edge",
                          2 * _edge_dist(e) + 1, all_solutions=True)
        # closed under negation (contains the central -1), so of even order
        assert len(stab) >= 2 and len(stab) % 2 == 0
        dom.edge_stabs.append(stab)
    for v in dom.vertices:
        dom.vertex_stabs.append(dom.search(
            v.matrix(), v.matrix(), "vertex", 2 * v.dist_to_base() + 1,
            all_solutions=True))
    return dom
