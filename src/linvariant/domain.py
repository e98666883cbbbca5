"""Fundamental domain of Gamma = R[1/p]^x_1 acting on the Bruhat-Tits tree.

Gamma is the group of reduced-norm-1 units of R[1/p], acting through the
splitting iotauat p.  Equivalence of two vertices/edges under Gamma reduces to
finding x in R with nrd(x) = p^(2r) satisfying congruence conditions that cut
out a finite-index sublattice of R; candidates are found by exact
Fincke-Pohst enumeration on that sublattice.

The domain is computed by breadth-first search from the base vertex, recording
vertex orbit representatives, geometric edge representatives, boundary pairing
elements and edge/vertex stabilizers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .quaternions import Order, Quat, congruence_kernel, enumerate_norm
from .splitting import SplittingMap
from .tree import (
    Edge,
    Vertex,
    base_vertex,
    frac_val,
    mat_adj,
    mat_mul,
    normalize_edge,
    normalize_vertex,
    star,
)


def _det_val_exact(m, p):
    a, b, c, d = (Fraction(x) for x in m)
    return frac_val(a * d - b * c, p)


class EquivalenceFinder:
    """Searches for Gamma-elements carrying one vertex/edge to another."""

    def __init__(self, order: Order, spl: SplittingMap):
        self.order = order
        self.spl = spl
        self.p = spl.p
        self.gram = order.gram()
        self.images = spl.images  # iota of the order basis, mod p^prec
        self.mod = spl.p**spl.prec

    def _forms(self, m1, m2):
        """Rows of linear forms c -> entries of adj(m2) * iota(sum c b) * m1."""
        adj2 = mat_adj(tuple(int(x) for x in m2))
        m1i = tuple(int(x) for x in m1)
        rows = [[0] * 4 for _ in range(4)]  # entry t, coefficient of c_m
        for midx, im in enumerate(self.images):
            z = mat_mul(mat_mul(adj2, im), m1i)
            for t in range(4):
                rows[t][midx] = z[t] % self.mod
        return rows

    def search(self, m1, m2, kind: str, rmax: int, all_solutions: bool = False,
               trace_bound: bool = False):
        """Find x in R, nrd = p^(2r), r <= rmax, with iota(x/p^r).(m1-object)
        equal to the m2-object (vertex class or directed edge).

        Returns a single (x, r) or None; with all_solutions=True, the list of
        all (x, r) with x primitive."""
        p = self.p
        v1 = _det_val_exact(m1, p)
        v2 = _det_val_exact(m2, p)
        forms = self._forms(m1, m2)
        found = []
        for r in range(rmax + 1):
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
            if modulus == 1:
                K = [[1 if i == j else 0 for j in range(4)] for i in range(4)]
            else:
                K = congruence_kernel(rows, modulus)
            GK = [
                [
                    sum(
                        Fraction(K[i][a]) * self.gram[a][b] * K[j][b]
                        for a in range(4)
                        for b in range(4)
                    )
                    for j in range(4)
                ]
                for i in range(4)
            ]
            target = Fraction(p) ** (2 * r)
            for cvec in enumerate_norm(GK, target):
                c = [sum(K[j][m] * cvec[j] for j in range(4)) for m in range(4)]
                x = self.order.element(c)
                if r > 0 and all(ci % p == 0 for ci in c):
                    continue  # imprimitive: already seen at smaller r
                if trace_bound and abs(x.trd()) > 2 * p**r:
                    continue
                assert x.nrd() == p ** (2 * r)
                if all_solutions:
                    found.append((x, r))
                else:
                    return (x, r)
        return found if all_solutions else None

    # convenience wrappers ------------------------------------------------

    def vertex_equiv(self, v: Vertex, w: Vertex, rmax=None):
        if rmax is None:
            rmax = v.dist_to_base() + w.dist_to_base() + 1
        return self.search(v.matrix(), w.matrix(), "vertex", rmax)

    def edge_equiv(self, e: Edge, f: Edge, rmax=None):
        if rmax is None:
            rmax = _edge_dist(e) + _edge_dist(f) + 1
        return self.search(e.matrix(), f.matrix(), "edge", rmax)

    def edge_stabilizer(self, e: Edge):
        """All gamma in Gamma with gamma.e = e (directed; includes +-1)."""
        rmax = 2 * _edge_dist(e) + 1
        sols = self.search(e.matrix(), e.matrix(), "edge", rmax,
                           all_solutions=True, trace_bound=True)
        out = {}
        for x, r in sols:
            key = tuple(c / Fraction(self.p) ** r for c in x.co)
            out[key] = (x, r)
        return list(out.values())

    def vertex_stabilizer(self, v: Vertex):
        rmax = 2 * v.dist_to_base() + 1
        sols = self.search(v.matrix(), v.matrix(), "vertex", rmax,
                           all_solutions=True, trace_bound=True)
        out = {}
        for x, r in sols:
            key = tuple(c / Fraction(self.p) ** r for c in x.co)
            out[key] = (x, r)
        return list(out.values())


def _edge_dist(e: Edge) -> int:
    return min(e.source().dist_to_base(), e.target().dist_to_base())


@dataclass
class Pairing:
    """gamma.(outside vertex) = representative: iota(x/p^r) carries `vertex`
    to vertices[target_index]."""

    vertex: Vertex
    target_index: int
    x: Quat
    r: int


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
    # edge -> (j, x, r) with iota(x/p^r) . directed_reps()[j] = edge, filled
    # by EdgeReducer.locate; exact, so a copy of the domain under a more
    # precise splitting that agrees with this one shares it
    located: dict = field(default_factory=dict, compare=False, repr=False)

    def directed_reps(self) -> list[Edge]:
        out = []
        for e in self.geo_edges:
            out.append(e)
            out.append(e.opposite())
        return out

    def generators(self):
        """Pairing elements plus nontrivial vertex-stabilizer elements."""
        gens = [(pr.x, pr.r) for pr in self.pairings]
        for stab in self.vertex_stabs:
            for x, r in stab:
                if not _is_pm_one(x, r):
                    gens.append((x, r))
        return gens


def gamma_matrix(dom: FundamentalDomain, x, r: int):
    """Integer residue matrix for gamma = x/p^r together with its exact
    determinant (a power of p times a p-unit)."""
    X = dom.spl.apply(x)
    den = max(t.denominator for t in X)
    Xi = tuple(int(t * den) for t in X)
    det = Fraction(x.nrd()) * den * den
    return Xi, det


def gamma_vertex(dom: FundamentalDomain, x, r: int, v: Vertex) -> Vertex:
    """gamma = x/p^r applied to the vertex v."""
    Xi, _ = gamma_matrix(dom, x, r)
    m = mat_mul(tuple(Fraction(t) for t in Xi), v.matrix())
    return normalize_vertex(m, dom.p)


def _is_pm_one(x: Quat, r: int) -> bool:
    """Whether x/p^r is a central +-1 (scalar part only)."""
    return all(c == 0 for c in x.co[1:])


def compute_fundamental_domain(order: Order, spl: SplittingMap,
                               max_vertices: int = 200) -> FundamentalDomain:
    p = spl.p
    eq = EquivalenceFinder(order, spl)
    dom = FundamentalDomain(p, order, spl)
    v0 = base_vertex(p)
    dom.vertices.append(v0)
    queue = [v0]
    while queue:
        v = queue.pop(0)
        for e in star(v):
            known = False
            for f in dom.geo_edges:
                if eq.edge_equiv(e, f) is not None or eq.edge_equiv(e, f.opposite()) is not None:
                    known = True
                    break
            if known:
                continue
            dom.geo_edges.append(e)
            u = e.target()
            hit = None
            for i, w in enumerate(dom.vertices):
                g = eq.vertex_equiv(u, w)
                if g is not None:
                    hit = (i, g)
                    break
            if hit is not None:
                i, (x, r) = hit
                dom.pairings.append(Pairing(u, i, x, r))
            else:
                dom.vertices.append(u)
                queue.append(u)
                if len(dom.vertices) > max_vertices:
                    raise RuntimeError("fundamental domain larger than expected")
    for e in dom.geo_edges:
        stab = eq.edge_stabilizer(e)
        # closed under negation (contains the central -1), so of even order
        assert len(stab) >= 2 and len(stab) % 2 == 0
        dom.edge_stabs.append(stab)
    for v in dom.vertices:
        dom.vertex_stabs.append(eq.vertex_stabilizer(v))
    return dom


# ----------------------------------------------------------------------
# reduction of arbitrary edges to representatives
# ----------------------------------------------------------------------


@dataclass
class EdgeReduction:
    """g = p^u_exp * (x/p^r) * B_j * sigma with sigma Iwahori mod p^sigma_prec."""

    j: int  # index into directed_reps()
    x: Quat
    r: int
    sigma: tuple  # 4 ints
    sigma_prec: int
    u_exp: int
    sign: int  # +1 if rep j is the geometric rep's own orientation


class EdgeReducer:
    """Reduces arbitrary directed edges (given by matrices with exactly known
    determinant valuation) to the domain's directed representatives.

    The (edge -> gamma, j) part of the answer is cached by canonical edge in
    the domain's `located`, shared by every reducer of the domain."""

    def __init__(self, dom: FundamentalDomain):
        self.dom = dom
        self.eq = EquivalenceFinder(dom.order, dom.spl)
        self.reps = dom.directed_reps()
        self.rep_mats = [e.matrix() for e in self.reps]
        self.rep_detvals = [_det_val_exact(m, dom.p) for m in self.rep_mats]

    def locate(self, e: Edge):
        """(j, x, r) with iota(x/p^r) . reps[j] = e."""
        located = self.dom.located
        if e in located:
            return located[e]
        d_e = _edge_dist(e)
        for j, f in enumerate(self.reps):
            res = self.eq.search(
                self.rep_mats[j], e.matrix(), "edge", d_e + _edge_dist(f) + 1
            )
            if res is not None:
                out = (j, res[0], res[1])
                located[e] = out
                return out
        raise RuntimeError("edge not equivalent to any representative")

    def reduce_matrix(self, g, det_val: int) -> EdgeReduction:
        """Full reduction of the edge g.e0; g may have residue entries as long
        as det_val is the exact valuation of its true determinant."""
        p = self.dom.p
        e = normalize_edge(g, p)
        j, x, r = self.locate(e)
        Bj = self.rep_mats[j]
        vB = self.rep_detvals[j]
        X = self.dom.spl.apply(x)
        # sigma_raw = adj(B_j) adj(X) g ; sigma = sigma_raw / (det(B_j) p^(r+u))
        den = 1
        for t in X:
            den = max(den, t.denominator)
        Xint = tuple(int(t * den) for t in X)  # den is a p-power only
        e_den = frac_val(Fraction(den), p)
        g_int = tuple(int(t) for t in g)
        raw = mat_mul(mat_adj(Bj), mat_mul(mat_adj(Xint), g_int))
        assert (det_val - vB) % 2 == 0
        u_exp = (det_val - vB) // 2
        # adj(Xint) = den * adj(X); so raw = den * adj(Bj) adj(X) g and the
        # true sigma = raw / (den * detB * p^(r+u)).
        detB_unit = -1 if _det_exact_sign(Bj) < 0 else 1
        divisor_exp = e_den + vB + r + u_exp
        out = []
        if divisor_exp >= 0:
            dv = p**divisor_exp
            for t in raw:
                assert t % dv == 0, "sigma is not p-integral at claimed scale"
                out.append(detB_unit * (t // dv))
            sigma_prec = self.dom.spl.prec - divisor_exp
        else:
            dv = p ** (-divisor_exp)
            out = [detB_unit * t * dv for t in raw]
            sigma_prec = self.dom.spl.prec
        sigma = tuple(t % p**sigma_prec for t in out)
        assert sigma[2] % p == 0, "reduction witness is not Iwahori"
        assert sigma[0] % p != 0
        sign = 1 if j % 2 == 0 else -1
        return EdgeReduction(j, x, r, sigma, sigma_prec, u_exp, sign)


def _det_exact_sign(m) -> int:
    d = m[0] * m[3] - m[1] * m[2]
    return 1 if d > 0 else -1


# ----------------------------------------------------------------------
# U_p coset table
# ----------------------------------------------------------------------


@dataclass
class UpEntry:
    jprime: int
    x: Quat
    r: int
    sigma: tuple
    sigma_prec: int
    u_exp: int


def build_up_table(dom: FundamentalDomain, reducer: EdgeReducer) -> list[list[UpEntry]]:
    """table[j][l] reduces B_j * [[p, l], [0, 1]] to a directed representative;
    these are the cosets appearing in the U_p sum."""
    p = dom.p
    table = []
    for j, e in enumerate(reducer.reps):
        Bj = reducer.rep_mats[j]
        vB = reducer.rep_detvals[j]
        row = []
        for l in range(p):
            g = mat_mul(Bj, (p, l, 0, 1))
            red = reducer.reduce_matrix(g, vB + 1)
            row.append(
                UpEntry(red.j, red.x, red.r, red.sigma, red.sigma_prec, red.u_exp)
            )
        table.append(row)
    return table
