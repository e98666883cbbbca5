"""The linear-scan domain search: the reference for
`domain.compute_fundamental_domain`.

`compute_fundamental_domain` classifies the star edges of a vertex
representative through that vertex's stabilizer and runs a lattice search
only against the one directed representative that matches.  This module
keeps the version it replaced, whose `locate` searches every directed
representative in turn until one hits; the tests compare the two domains.
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
        stab = dom.stabilizer(e, "edge", _edge_dist(e))
        # closed under negation (contains the central -1), so of even order
        assert len(stab) >= 2 and len(stab) % 2 == 0
        dom.edge_stabs.append(stab)
    for v in dom.vertices:
        dom.vertex_stabs.append(dom.stabilizer(v, "vertex", v.dist_to_base()))
    return dom
