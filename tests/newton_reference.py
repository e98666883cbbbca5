"""The two-pass Newton polygon: the reference for `padics.newton_slopes`.

`padics.newton_slopes` builds one lower hull over all coefficients, with a
coefficient indistinguishable from zero placed at its precision.  This
module keeps the version it replaced, which builds the hull over the known
coefficients only and then checks in a second pass that every unknown one
lies weakly above it; the tests compare the two.
"""

from __future__ import annotations

from fractions import Fraction

from linvariant.padics import PrecisionError


def newton_slopes(coeffs):
    """Valuations of the roots from the Newton polygon of [a_0, ..., a_d],
    as (valuation: Fraction, multiplicity) by descending valuation; raises
    PrecisionError when a needed hull vertex is indistinguishable from
    zero at working precision."""
    d = len(coeffs) - 1
    pts = []
    for i, c in enumerate(coeffs):
        if c.is_zero():
            pts.append((i, None, c.prec))
        else:
            pts.append((i, c.val, c.prec))
    if pts[d][1] is None:
        raise PrecisionError("leading coefficient not determined")
    # lower convex hull over the known points
    known = [(i, v) for i, v, _ in pts if v is not None]
    hull = []
    for pt in known:
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            if (y2 - y1) * (pt[0] - x2) >= (pt[1] - y2) * (x2 - x1):
                hull.pop()
            else:
                break
        hull.append(pt)

    # certify: every undetermined point must lie (weakly) above the hull
    def hull_y(x):
        for (x1, y1), (x2, y2) in zip(hull, hull[1:]):
            if x1 <= x <= x2:
                return Fraction(y1) + Fraction(y2 - y1, x2 - x1) * (x - x1)
        return None

    for i, v, prc in pts:
        if v is None and i <= d:
            hy = hull_y(i)
            if hy is not None and Fraction(prc) < hy:
                raise PrecisionError(
                    f"Newton polygon vertex at index {i} not determined (O(p^{prc}))"
                )
    if hull[0][0] != 0:
        raise PrecisionError("lowest coefficient indistinguishable from zero")
    out = []
    for (x1, y1), (x2, y2) in zip(hull, hull[1:]):
        out.append((Fraction(y1 - y2, x2 - x1), x2 - x1))
    out.sort(key=lambda t: -t[0])
    return out
