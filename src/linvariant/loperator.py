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

from .budget import checkpoint
from .cocycles import HarmonicCocycle, as_padics, gamma_action
from .domain import FundamentalDomain, gamma_vertex
from .integration import lambda_values
from .padics import (
    PadicNumber,
    PrecisionError,
    hensel_root,
    solve_linear,
)
from .tree import base_vertex, edge_between, geodesic


def psi_values(dom: FundamentalDomain, coc: HarmonicCocycle, x, r: int,
               prec: int):
    """psi(c)(gamma) in V_k: sum of c over the geodesic edges from the base
    vertex to its gamma-translate, oriented source to target."""
    p, k = dom.p, coc.k
    v0 = base_vertex(p)
    path = geodesic(v0, gamma_vertex(dom, x, r, v0))
    total = [PadicNumber.zero(p, prec)] * (k + 1)
    for a, b in zip(path, path[1:]):
        val = as_padics(p, coc.value(edge_between(a, b), prec))
        total = [s + t for s, t in zip(total, val)]
    return total


def l_matrix(dom: FundamentalDomain, basis: list[HarmonicCocycle], lifts,
             tau, n_terms: int, prec: int):
    """The matrix A with [lam(c_i)] = sum_l A[l][i] [psi(c_l)] in cohomology.

    Solved jointly with the coboundary ambiguity: for each generator gamma
    of the domain, lam_i(gamma) = sum_l A[l][i] psi_l(gamma) + (gamma.u_i - u_i).
    The time budget is checked after each generator."""
    p, k = dom.p, basis[0].k
    d = len(basis)
    rows = []
    rhs = [[] for _ in range(d)]
    for x, r in dom.generators():
        psis = [psi_values(dom, c, x, r, prec) for c in basis]
        lams = lambda_values(dom, lifts, x, r, tau, n_terms, prec)
        # coboundary columns: gamma.e_t - e_t for the k+1 unit functionals
        act = gamma_action(dom, x, r, k)
        P, one = min(prec, act.prec) - act.scale, p**act.scale
        for m in range(k + 1):
            row = [psis[l][m] for l in range(d)]
            row += [PadicNumber(p, -act.scale, act.rows[m][t] - one * (m == t), P)
                    for t in range(k + 1)]
            rows.append(row)
            for i in range(d):
                rhs[i].append(lams[i][m])
        checkpoint()
    sols, kern = solve_linear(rows, rhs)
    if kern:
        # for k > 0 the coboundary map u -> (gamma u - u)_gamma is injective
        # (V_k has no Gamma-invariants), so a kernel is lost precision
        raise PrecisionError("cohomology solve has a kernel at working "
                             "precision")
    return [[sols[i][l] for i in range(d)] for l in range(d)]


def restrict_operator(A, sub_basis, prec: int):
    """Matrix of A on the span of sub_basis (columns), in that basis.

    Raises PrecisionError when the sub-basis is not independent at working
    precision, so that the coordinates are not determined."""
    d = len(A)
    s = len(sub_basis)
    imgs = [
        [sum((A[i][m] * col[m] for m in range(d)),
             PadicNumber.zero(A[0][0].p, prec))
         for i in range(d)]
        for col in sub_basis
    ]
    rows = [[sub_basis[t][i] for t in range(s)] for i in range(d)]
    sols, kern = solve_linear(rows, imgs)
    if kern:
        raise PrecisionError(
            "sub-basis columns are dependent at working precision")
    return [[sols[j][t] for j in range(s)] for t in range(s)]


def eigenspace(M, eig: int):
    """Basis of the eigenspace of M (a +-1-involution matrix) for eigenvalue
    eig, as column vectors."""
    d = len(M)
    rows = [
        [M[i][j] - (eig if i == j else 0) for j in range(d)] for i in range(d)
    ]
    _, kern = solve_linear(rows)
    return kern


def l_invariant_simple(cp, slope, prec: int):
    """The root with the given (simple) Newton slope of the characteristic
    polynomial cp of the L-operator, i.e. that eigenvalue."""
    return hensel_root(cp, cp[0].p, slope, prec)
