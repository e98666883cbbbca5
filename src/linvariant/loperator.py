"""The L-operator on the cocycle space and its invariants.

Two V_k-valued 1-cocycles on the group are attached to each harmonic cocycle
c: the combinatorial psi(c)(gamma) (sum of c over the geodesic from the base
vertex to its gamma-translate) and the analytic lam(c)(gamma) (Coleman
integral of the logarithmic kernel).  In cohomology, lam(c_i) is a linear
combination of the psi(c_l); the matrix A of combination coefficients is the
L-operator.  Its eigenvalues are the L-invariants; their valuations make up
the slope tables, computed from the Newton polygon of the characteristic
polynomial, optionally restricted to Atkin-Lehner eigenspaces.
"""

from __future__ import annotations

from .cocycles import HarmonicCocycle, act_by_gamma
from .domain import EdgeReducer, FundamentalDomain
from .integration import lambda_values
from .padics import (
    PadicNumber,
    PrecisionError,
    charpoly,
    hensel_root,
    solve_linear,
)
from .tree import base_vertex, edge_between, geodesic


def psi_values(dom: FundamentalDomain, reducer: EdgeReducer,
               coc: HarmonicCocycle, x, r: int, prec: int, v0=None):
    """psi(c)(gamma) in V_k: sum of c over the geodesic edges from the chosen
    base vertex to its gamma-translate, oriented source to target."""
    p, k = dom.p, coc.k
    if v0 is None:
        v0 = base_vertex(p)
    v1 = gamma_vertex(dom, x, r, v0)
    path = geodesic(v0, v1)
    total = [PadicNumber.zero(p, prec) for _ in range(k + 1)]
    for i in range(len(path) - 1):
        e = edge_between(path[i], path[i + 1])
        val = coc.value(e, reducer, prec)
        total = [a + b for a, b in zip(total, val)]
    return total


def sample_elements(dom: FundamentalDomain, extra: int = 0):
    """Group elements used to pin down the cohomology relation: the domain's
    generators, with pairwise products appended when more relations are
    needed."""
    gens = [g for g in dom.generators()]
    out = list(gens)
    n = 0
    for i in range(len(gens)):
        for j in range(len(gens)):
            if n >= extra:
                break
            x1, r1 = gens[i]
            x2, r2 = gens[j]
            out.append((x1 * x2, r1 + r2))
            n += 1
    return out


def gamma_vertex(dom: FundamentalDomain, x, r: int, v):
    """gamma applied to an arbitrary vertex."""
    from .tree import mat_mul, normalize_vertex
    from .integration import gamma_matrix
    from fractions import Fraction

    Xi, _ = gamma_matrix(dom, x, r)
    m = mat_mul(tuple(Fraction(t) for t in Xi), v.matrix())
    return normalize_vertex(m, dom.p)


def l_matrix(dom: FundamentalDomain, reducer: EdgeReducer,
             basis: list[HarmonicCocycle], lifts, tau, n_terms: int,
             prec: int, extra: int = 0, base_vertex_override=None):
    """The matrix A with [lam(c_i)] = sum_l A[l][i] [psi(c_l)] in cohomology.

    Solved jointly with the coboundary ambiguity: for each sampled gamma,
    lam_i(gamma) = sum_l A[l][i] psi_l(gamma) + (gamma.u_i - u_i)."""
    p, k = dom.p, basis[0].k
    d = len(basis)
    samples = sample_elements(dom, extra)
    rows = []
    rhs = [[] for _ in range(d)]
    zero = lambda: PadicNumber.zero(p, prec)
    one = lambda: PadicNumber.one(p, prec)
    for x, r in samples:
        psis = [psi_values(dom, reducer, c, x, r, prec, v0=base_vertex_override) for c in basis]
        lams = [
            lambda_values(dom, reducer, lf, x, r, tau, n_terms, prec)
            for lf in lifts
        ]
        # coboundary columns: gamma.e_t - e_t for the k+1 unit functionals
        cob = []
        for tt in range(k + 1):
            u = [zero() for _ in range(k + 1)]
            u[tt] = one()
            gu = act_by_gamma(dom, k, x, r, u, prec)
            gu[tt] = gu[tt] - one()
            cob.append(gu)
        for m in range(k + 1):
            row = [psis[l][m] for l in range(d)]
            row += [cob[tt][m] for tt in range(k + 1)]
            rows.append(row)
            for i in range(d):
                rhs[i].append(lams[i][m])
    A = [[None] * d for _ in range(d)]
    for i in range(d):
        sol, kern = solve_linear([r[:] for r in rows], rhs[i][:])
        if kern:
            raise ValueError(
                "underdetermined cohomology solve; need more sample elements"
            )
        for l in range(d):
            A[l][i] = sol[l]
    return A


def restrict_operator(A, sub_basis, prec: int):
    """Matrix of A on the span of sub_basis (columns), in that basis.

    Raises PrecisionError when the sub-basis is not independent at working
    precision, so that the coordinates are not determined."""
    d = len(A)
    s = len(sub_basis)
    out = [[None] * s for _ in range(s)]
    for j in range(s):
        img = [
            sum((A[i][m] * sub_basis[j][m] for m in range(d)),
                PadicNumber.zero(A[0][0].p, prec))
            for i in range(d)
        ]
        rows = [[sub_basis[t][i] for t in range(s)] for i in range(d)]
        sol, kern = solve_linear(rows, img)
        if kern:
            raise PrecisionError(
                "sub-basis columns are dependent at working precision")
        for t in range(s):
            out[t][j] = sol[t]
    return out


def eigenspace(M, eig: int, prec: int):
    """Basis of the eigenspace of M (a +-1-involution matrix) for eigenvalue
    eig, as column vectors."""
    d = len(M)
    p = M[0][0].p
    rows = [
        [M[i][j] - (eig if i == j else 0) for j in range(d)] for i in range(d)
    ]
    _, kern = solve_linear(rows)
    return kern


def l_invariant_simple(A, slope, prec: int):
    """The eigenvalue of A with the given (simple) Newton slope."""
    cp = charpoly(A)
    p = A[0][0].p
    return hensel_root(cp, p, slope, prec)
