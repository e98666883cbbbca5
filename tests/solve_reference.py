"""The PadicNumber elimination: the reference for `padics.solve_linear`.

`padics.solve_linear` eliminates on integer residues under one scale, with
one precision per entry.  This module keeps the version it replaced, which
eliminates on PadicNumber entries with the same pivots; the tests compare
the two on every solution and kernel entry.
"""

from __future__ import annotations

from linvariant.budget import checkpoint
from linvariant.padics import PadicNumber, PrecisionError


def _entry_key(x: PadicNumber):
    """Pivot quality: smaller valuation = better (more unit-like)."""
    if x.is_zero():
        return None
    return x.val


def solve_linear(A, rhs=()):
    """Solve A x = b over Q_p with max-unit pivoting, for every b in rhs.

    A is a list of rows of PadicNumber; rhs a list of right-hand sides, each
    a list of PadicNumber (empty to just compute the kernel).  The pivots
    depend on A alone, so A is eliminated once for all of them.  Returns
    (xs, kernel_basis) where xs holds a particular solution per right-hand
    side and kernel_basis a list of vectors spanning the kernel at working
    precision.  Raises PrecisionError when a system is inconsistent beyond
    precision noise.  The time budget is checked once per pivot column.
    """
    nrows = len(A)
    ncols = len(A[0]) if nrows else 0
    M = [row[:] for row in A]
    bs = [list(b) for b in rhs]
    pivots = []  # (row, col)
    used_rows = set()
    used_cols = set()
    while True:
        best = None
        for i in range(nrows):
            if i in used_rows:
                continue
            for j in range(ncols):
                if j in used_cols:
                    continue
                k = _entry_key(M[i][j])
                if k is not None and (best is None or k < best[0]):
                    best = (k, i, j)
        if best is None:
            break
        checkpoint()
        _, pi, pj = best
        used_rows.add(pi)
        used_cols.add(pj)
        pivots.append((pi, pj))
        pv = M[pi][pj].inverse()
        for i in range(nrows):
            if i == pi:
                continue
            f = M[i][pj] * pv
            # Even when f is indistinguishable from zero it is only known to
            # be O(p^f.prec); the update must run so that this uncertainty
            # caps the precision of the remaining entries.
            for j in range(ncols):
                M[i][j] = M[i][j] - f * M[pi][j]
            for b in bs:
                b[i] = b[i] - f * b[pi]
    colpiv = {j: i for i, j in pivots}
    p = A[0][0].p if nrows and ncols else None
    defprec = A[0][0].prec if nrows and ncols else 0
    xs = []
    for b in bs:
        for i in range(nrows):
            if i not in used_rows and not b[i].is_zero():
                raise PrecisionError("inconsistent linear system")
        x = []
        for j in range(ncols):
            if j in colpiv:
                i = colpiv[j]
                x.append(b[i] * M[i][j].inverse())
            else:
                x.append(PadicNumber.zero(p, defprec))
        xs.append(x)
    kernel = []
    free_cols = [j for j in range(ncols) if j not in colpiv]
    for f in free_cols:
        vec = [PadicNumber.zero(p, defprec) for _ in range(ncols)]
        vec[f] = PadicNumber.one(p, defprec)
        for j, i in colpiv.items():
            vec[j] = -(M[i][f] * M[i][j].inverse())
        kernel.append(vec)
    return xs, kernel
