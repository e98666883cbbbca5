"""The L-operator on the cocycle space and its invariants.

Two V_k-valued 1-cocycles on the group are attached to each harmonic cocycle
c: the combinatorial psi(c)(gamma) (sum of c over the geodesic from the base
vertex to its gamma-translate) and the analytic lam(c)(gamma) (Coleman
integral of the logarithmic kernel).  In cohomology, lam(c_i) is a linear
combination of the psi(c_l); the matrix A of combination coefficients is the
L-operator.  Its eigenvalues are the L-invariants; their valuations make up
the slope tables, computed from the Newton polygon of the characteristic
polynomial, optionally restricted to Atkin-Lehner eigenspaces.  psi, lam and
the coboundaries enter the solve for A as integer rows under one scale
(`padics.solve_linear`); the restriction to eigenspaces takes the small
PadicNumber matrices of the invariants (`padics.solve_padics`).
"""

from __future__ import annotations

from .budget import checkpoint
from .cocycles import HarmonicCocycle, gamma_action, stack_values
from .domain import FundamentalDomain, gamma_vertex
from .integration import lambda_values
from .padics import (
    PadicNumber,
    PrecisionError,
    hensel_root,
    solve_linear,
    solve_padics,
)
from .tree import base_vertex, edge_between, geodesic


def psi_values(dom: FundamentalDomain, coc: HarmonicCocycle, x, r: int,
               prec: int):
    """psi(c)(gamma) in V_k: sum of c over the geodesic edges from the base
    vertex to its gamma-translate, oriented source to target, as
    (residues, scale, precision) in the convention of `cocycles.Action`,
    each value capped at prec digits before its scale."""
    p, v0 = dom.p, base_vertex(dom.p)
    path = geodesic(v0, gamma_vertex(dom, x, r, v0))
    vals = [coc.value(edge_between(a, b), prec) for a, b in zip(path, path[1:])]
    E = max((s for _, s, _ in vals), default=0)
    P = min([prec] + [Pe - s for _, s, Pe in vals]) + E
    total = zip([0] * (coc.k + 1), *(stack_values(p, [v], E)[0] for v in vals))
    return [sum(col) % p ** max(P, 0) for col in total], E, P


def l_matrix(dom: FundamentalDomain, basis: list[HarmonicCocycle], lifts,
             tau, n_terms: int, prec: int):
    """The matrix A with [lam(c_i)] = sum_l A[l][i] [psi(c_l)] in cohomology,
    each entry a (val, unit, prec) triple of `solve_linear`.

    Solved jointly with the coboundary ambiguity: for each generator gamma
    of the domain, lam_i(gamma) = sum_l A[l][i] psi_l(gamma) + (gamma.u_i - u_i),
    one row per coordinate of V_k, every entry an integer under the largest
    scale of the psi values, actions and lam values.  The time budget is
    checked after each generator."""
    p, k, d = dom.p, basis[0].k, len(basis)
    gens = []
    for x, r in dom.generators():
        gens.append(([psi_values(dom, c, x, r, prec) for c in basis],
                     gamma_action(dom, x, r, k),
                     lambda_values(dom, lifts, x, r, tau, n_terms, prec)))
        checkpoint()
    E = max(v[1] for psis, act, lams in gens for v in (*psis, act, *lams))
    rows = []
    for psis, act, lams in gens:
        psis = [stack_values(p, [v], E) for v in psis]
        # coboundary columns: gamma.e_t - e_t for the k+1 unit functionals
        f, one = p ** (E - act.scale), p**act.scale
        P = min(prec, act.prec) + E - act.scale
        rows += [([res[m] for res, _ in psis]
                  + [(a - one * (m == t)) * f for t, a in enumerate(row)],
                  [precs[m] for _, precs in psis] + [P] * (k + 1))
                 for m, row in enumerate(act.rows)]
    sols, kern = solve_linear(p, E, rows, [stack_values(
        p, [lams[i] for _, _, lams in gens], E) for i in range(d)])
    if kern:
        # for k > 0 the coboundary map u -> (gamma u - u)_gamma is injective
        # (V_k has no Gamma-invariants), so a kernel is lost precision
        raise PrecisionError("cohomology solve has a kernel at working "
                             "precision")
    return [list(row) for row in zip(*sols)][:d]


def restrict_operator(A, sub_basis, prec: int):
    """Matrix of A on the span of sub_basis (columns), in that basis.

    Raises PrecisionError when the sub-basis is not independent at working
    precision, so that the coordinates are not determined."""
    d, s = len(A), len(sub_basis)
    imgs = [[sum((A[i][m] * col[m] for m in range(d)),
                 PadicNumber.zero(A[0][0].p, prec)) for i in range(d)]
            for col in sub_basis]
    sols, kern = solve_padics([[col[i] for col in sub_basis]
                               for i in range(d)], imgs)
    if kern:
        raise PrecisionError(
            "sub-basis columns are dependent at working precision")
    return [[sols[j][t] for j in range(s)] for t in range(s)]


def eigenspace(M, eig: int):
    """Basis of the eigenspace of M (a +-1-involution matrix) for eigenvalue
    eig, as column vectors."""
    d = len(M)
    return solve_padics([[M[i][j] - (eig if i == j else 0) for j in range(d)]
                         for i in range(d)])[1]


def l_invariant_simple(cp, slope, prec: int):
    """The root with the given (simple) Newton slope of the characteristic
    polynomial cp of the L-operator, i.e. that eigenvalue."""
    return hensel_root(cp, cp[0].p, slope, prec)
