"""Capped-precision p-adic arithmetic.

Elements of Q_p are stored as (valuation, unit, absolute precision): the number
is unit * p^valuation known modulo p^precision, with the unit reduced modulo
p^(precision - valuation).  Precision propagates pessimistically (min rule).

Also provides the quadratic unramified extension K_p, the Iwasawa branch of the
p-adic logarithm, polynomial/series helpers for the weight-k Mobius action,
capped-precision Gaussian elimination and a division-free characteristic
polynomial.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction


class PrecisionError(ArithmeticError):
    """Raised when a result is not determined at the working precision."""


def val_int(n: int, p: int) -> int:
    """p-adic valuation of a nonzero integer (raises on 0)."""
    if n == 0:
        raise ValueError("valuation of zero is infinite")
    v = 0
    n = abs(n)
    while n % p == 0:
        n //= p
        v += 1
    return v


def inv_mod(a: int, m: int) -> int:
    return pow(a, -1, m)


def sqrt_mod_ppow(u: int, p: int, prec: int) -> int:
    """Square root of a unit u modulo p^prec (p odd: u a QR mod p; p=2: u=1 mod 8)."""
    m = p**prec
    u %= m
    if prec <= 0:
        return 0
    if p != 2:
        r = pow(u, (p + 1) // 4, p) if p % 4 == 3 else _tonelli(u % p, p)
        if (r * r - u) % p != 0:
            raise ValueError("not a quadratic residue")
        k = 1
        while k < prec:  # Hensel: r <- r - (r^2-u)/(2r)
            k = min(2 * k, prec)
            mk = p**k
            r = (r - (r * r - u) % mk * inv_mod(2 * r, mk)) % mk
        return r
    if u % 8 != 1:
        raise ValueError("2-adic unit square roots require u = 1 mod 8")
    r = 1
    for k in range(3, prec):  # fix one bit at a time: r^2 = u mod 2^(k+1)
        if (r * r - u) % (1 << (k + 1)) != 0:
            r += 1 << (k - 1)
    return r % m


def _tonelli(a: int, p: int) -> int:
    """Tonelli–Shanks square root mod an odd prime."""
    if a % p == 0:
        return 0
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    m, c, t, r = s, pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        m, c, t, r = i, b * b % p, t * b * b % p, r * b % p
    return r


class PadicNumber:
    """An element of Q_p at finite absolute precision.

    The element equals ``unit * p**val`` and is known modulo ``p**prec``.
    ``unit == 0`` means the element is indistinguishable from zero, i.e. it is
    O(p^prec); in that case ``val == prec`` by convention.
    """

    __slots__ = ("p", "val", "unit", "prec")

    def __init__(self, p: int, val: int, unit: int, prec: int):
        self.p = p
        rel = prec - val
        if rel > 0:
            unit %= p**rel
        if rel <= 0 or unit == 0:
            self.val = prec
            self.unit = 0
            self.prec = prec
            return
        # normalize: strip p-powers the reduction may have revealed
        w = 0
        while unit % p == 0:
            unit //= p
            w += 1
        val += w
        rel -= w
        if rel <= 0:
            self.val = prec
            self.unit = 0
            self.prec = prec
            return
        self.val = val
        self.unit = unit % p**rel
        self.prec = prec

    # --- constructors -------------------------------------------------

    @classmethod
    def from_int(cls, n: int, p: int, prec: int) -> "PadicNumber":
        if n == 0:
            return cls(p, prec, 0, prec)
        v = val_int(n, p)
        return cls(p, v, n // p**v, prec)

    @classmethod
    def from_fraction(cls, q, p: int, prec: int) -> "PadicNumber":
        q = Fraction(q)
        if q == 0:
            return cls.zero(p, prec)
        num, den = q.numerator, q.denominator
        vn = val_int(num, p) if num % p == 0 else 0
        vd = val_int(den, p) if den % p == 0 else 0
        v = vn - vd
        num //= p**vn
        den //= p**vd
        rel = prec - v
        if rel <= 0:
            return cls(p, prec, 0, prec)
        unit = num * inv_mod(den, p**rel) % p**rel
        return cls(p, v, unit, prec)

    @classmethod
    def zero(cls, p: int, prec: int) -> "PadicNumber":
        return cls(p, prec, 0, prec)

    @classmethod
    def one(cls, p: int, prec: int) -> "PadicNumber":
        return cls(p, 0, 1, prec)

    # --- predicates ---------------------------------------------------

    def is_zero(self) -> bool:
        """True when indistinguishable from zero at this precision."""
        return self.unit == 0

    def eq_at_prec(self, other: "PadicNumber") -> bool:
        return (self - other).is_zero()

    # --- arithmetic ---------------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        prec = min(self.prec, other.prec)
        if self.unit == 0:
            return PadicNumber(other.p, other.val, other.unit, prec)
        if other.unit == 0:
            return PadicNumber(self.p, self.val, self.unit, prec)
        v0 = min(self.val, other.val)
        rel = prec - v0
        if rel <= 0:
            return PadicNumber.zero(self.p, prec)
        m = self.p**rel
        s = (self.unit * self.p ** (self.val - v0) + other.unit * self.p ** (other.val - v0)) % m
        return PadicNumber(self.p, v0, s, prec)

    def __radd__(self, other):
        return self.__add__(other)

    def __neg__(self):
        return PadicNumber(self.p, self.val, -self.unit, self.prec)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return (-self) + self._coerce(other)

    def __mul__(self, other):
        other = self._coerce(other)
        if self.unit == 0 or other.unit == 0:
            # O(p^a) * (u p^v + O(p^b)) = O(p^(a+v)) at best
            prec = min(self.prec + other.val, other.prec + self.val)
            return PadicNumber.zero(self.p, prec)
        val = self.val + other.val
        rel = min(self.prec - self.val, other.prec - other.val)
        return PadicNumber(self.p, val, self.unit * other.unit, val + rel)

    def __rmul__(self, other):
        return self.__mul__(other)

    def inverse(self) -> "PadicNumber":
        if self.unit == 0:
            raise PrecisionError("cannot invert an element indistinguishable from zero")
        rel = self.prec - self.val
        u = inv_mod(self.unit, self.p**rel)
        return PadicNumber(self.p, -self.val, u, -self.val + rel)

    def __truediv__(self, other):
        return self * self._coerce(other).inverse()

    def __rtruediv__(self, other):
        return self._coerce(other) * self.inverse()

    def __pow__(self, n: int):
        if n == 0:
            return PadicNumber.one(self.p, self.prec - self.val if self.unit else self.prec)
        if n < 0:
            return self.inverse() ** (-n)
        result = self
        for _ in range(n - 1):
            result = result * self
        return result

    def _coerce(self, other) -> "PadicNumber":
        if isinstance(other, PadicNumber):
            return other
        if isinstance(other, (int, Fraction)):
            return PadicNumber.from_fraction(other, self.p, self.prec - min(self.val, 0) + 64)
        return NotImplemented

    # --- conversions --------------------------------------------------

    def valuation(self) -> int:
        if self.unit == 0:
            raise PrecisionError(f"valuation only bounded below by precision O(p^{self.prec})")
        return self.val

    def lift(self) -> Fraction:
        """The canonical representative unit*p^val as a rational number."""
        if self.unit == 0:
            return Fraction(0)
        if self.val >= 0:
            return Fraction(self.unit * self.p**self.val)
        return Fraction(self.unit, self.p ** (-self.val))

    def residue(self, modexp: int) -> int:
        """Integer representative modulo p^modexp (requires val >= 0, prec >= modexp)."""
        if self.unit == 0:
            if self.prec < modexp:
                raise PrecisionError("insufficient precision for requested residue")
            return 0
        if self.val < 0:
            raise ValueError("negative valuation")
        if self.prec < modexp:
            raise PrecisionError("insufficient precision for requested residue")
        return self.unit * self.p**self.val % self.p**modexp

    def with_prec(self, prec: int) -> "PadicNumber":
        return PadicNumber(self.p, self.val, self.unit, min(prec, self.prec))

    def __repr__(self):
        if self.unit == 0:
            return f"O({self.p}^{self.prec})"
        return f"{self.unit}*{self.p}^{self.val} + O({self.p}^{self.prec})"

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self._coerce(other)
        if not isinstance(other, PadicNumber):
            return NotImplemented
        return self.eq_at_prec(other)

    def __hash__(self):
        raise TypeError("PadicNumber is not hashable (equality is at-precision)")

    def expansion_str(self) -> str:
        """Digit expansion, e.g. '1 + 3^2 + 2*3^7' for display."""
        if self.unit == 0:
            return f"O({self.p}^{self.prec})"
        terms = []
        u, v = self.unit, self.val
        while u and v < self.prec:
            d = u % self.p
            if d:
                if v == 0:
                    terms.append(f"{d}")
                elif d == 1:
                    terms.append(f"{self.p}^{v}")
                else:
                    terms.append(f"{d}*{self.p}^{v}")
            u //= self.p
            v += 1
        return " + ".join(terms) + f" + O({self.p}^{self.prec})"


# ----------------------------------------------------------------------
# quadratic unramified extension
# ----------------------------------------------------------------------


class UnramifiedField:
    """The quadratic unramified extension K_p = Q_p(w), w^2 + B w + C = 0.

    The defining polynomial is x^2+x+1 for p=2 and x^2 - n (n the smallest
    quadratic nonresidue) for odd p; in both cases it is irreducible mod p, so
    {1, w} is an integral basis and the valuation is min of coordinate
    valuations.
    """

    def __init__(self, p: int, prec: int):
        self.p = p
        self.prec = prec
        if p == 2:
            self.B, self.C = 1, 1
        else:
            n = 2
            while pow(n, (p - 1) // 2, p) != p - 1:
                n += 1
            self.B, self.C = 0, -n

    def element(self, a, b=0) -> "UnramifiedElement":
        conv = lambda x: (
            x if isinstance(x, PadicNumber) else PadicNumber.from_fraction(x, self.p, self.prec)
        )
        return UnramifiedElement(self, conv(a), conv(b))

    def zero(self) -> "UnramifiedElement":
        return self.element(0, 0)

    def one(self) -> "UnramifiedElement":
        return self.element(1, 0)

    def teichmuller(self, a0: int, b0: int) -> "UnramifiedElement":
        """Teichmuller lift of the residue a0 + b0*w (must be a unit)."""
        x = self.element(a0, b0)
        if x.valuation() != 0:
            raise ValueError("Teichmuller lift requires a unit residue")
        q = self.p**2
        for _ in range(self.prec + 1):
            x = x**q
        return x


@dataclass(frozen=True)
class UnramifiedElement:
    """a + b*w in the quadratic unramified extension of Q_p."""

    field: UnramifiedField
    a: PadicNumber
    b: PadicNumber

    def _co(self, other) -> "UnramifiedElement":
        if isinstance(other, UnramifiedElement):
            return other
        if isinstance(other, (int, Fraction, PadicNumber)):
            return self.field.element(other, 0)
        return NotImplemented

    def __add__(self, other):
        o = self._co(other)
        return UnramifiedElement(self.field, self.a + o.a, self.b + o.b)

    __radd__ = __add__

    def __neg__(self):
        return UnramifiedElement(self.field, -self.a, -self.b)

    def __sub__(self, other):
        return self + (-self._co(other))

    def __rsub__(self, other):
        return (-self) + self._co(other)

    def __mul__(self, other):
        o = self._co(other)
        B, C = self.field.B, self.field.C
        # (a1+b1 w)(a2+b2 w), w^2 = -B w - C
        cross = self.b * o.b
        a = self.a * o.a - C * cross
        b = self.a * o.b + self.b * o.a - B * cross
        return UnramifiedElement(self.field, a, b)

    __rmul__ = __mul__

    def conj(self) -> "UnramifiedElement":
        """Galois conjugate: w -> -B - w."""
        return UnramifiedElement(self.field, self.a - self.field.B * self.b, -self.b)

    def norm(self) -> PadicNumber:
        n = self * self.conj()
        return n.a

    def trace(self) -> PadicNumber:
        return self.a + self.a - self.field.B * self.b

    def inverse(self) -> "UnramifiedElement":
        n = self.norm().inverse()
        c = self.conj()
        return UnramifiedElement(self.field, c.a * n, c.b * n)

    def __truediv__(self, other):
        return self * self._co(other).inverse()

    def __rtruediv__(self, other):
        return self._co(other) * self.inverse()

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        result = self.field.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def is_zero(self) -> bool:
        return self.a.is_zero() and self.b.is_zero()

    def valuation(self) -> int:
        """min of coordinate valuations (valid since {1,w} is an integral basis)."""
        if self.is_zero():
            raise PrecisionError("element indistinguishable from zero")
        if self.a.is_zero():
            return self.b.valuation()
        if self.b.is_zero():
            return self.a.valuation()
        return min(self.a.valuation(), self.b.valuation())

    def prec(self) -> int:
        return min(self.a.prec, self.b.prec)

    def __repr__(self):
        return f"({self.a}) + ({self.b})*w"


def iwasawa_log(x: UnramifiedElement) -> UnramifiedElement:
    """Iwasawa branch of log on K_p^x: log(p) = 0 and roots of unity map to 0.

    Strips the p-power, kills the Teichmuller component via u -> u^(p^2-1), and
    evaluates the usual series, dividing by p^2-1 (a unit) at the end.
    """
    F = x.field
    p = F.p
    v = x.valuation()
    u = x * PadicNumber(p, -v, 1, -v + (x.prec() - v))
    y = u ** (p**2 - 1)
    t = y - 1
    if not t.is_zero() and t.valuation() < 1:
        raise ValueError("argument is not compatible with the log series")
    prec = x.prec()
    # number of series terms: need i - floor(log_p i) >= prec
    nterms = prec + 1
    while nterms - int(math.log(nterms) / math.log(p)) < prec + 1:
        nterms += 1
    acc = F.zero()
    power = F.one()
    for i in range(1, nterms + 1):
        power = power * t
        if power.is_zero():
            break
        term = power * PadicNumber.from_fraction(Fraction((-1) ** (i + 1), i), p, prec + 2 * nterms)
        acc = acc + term
    inv = PadicNumber.from_fraction(Fraction(1, p**2 - 1), p, prec)
    return acc * inv


def half_trace(x: UnramifiedElement) -> PadicNumber:
    """(1/2) Tr_{K_p/Q_p}; at p=2 the division by 2 costs one digit of precision."""
    return x.trace() * PadicNumber.from_fraction(Fraction(1, 2), x.field.p, x.prec() + 2)


# ----------------------------------------------------------------------
# linear algebra over Q_p at capped precision
# ----------------------------------------------------------------------


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
    precision noise.
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


def mat_mul(A, B):
    n, m, r = len(A), len(B), len(B[0])
    return [[sum((A[i][k] * B[k][j] for k in range(m)), A[i][0] * 0) for j in range(r)] for i in range(n)]


def mat_vec(A, v):
    return [sum((A[i][k] * v[k] for k in range(len(v))), A[i][0] * 0) for i in range(len(A))]


def charpoly(A):
    """Characteristic polynomial det(xI - A) by the division-free Berkowitz
    algorithm.  Returns coefficients [a_0, ..., a_{n-1}, 1] (low to high)."""
    n = len(A)
    if n == 0:
        return []
    one = A[0][0] ** 0
    poly = [one, -A[0][0]]  # high to low for size 1
    for t in range(2, n + 1):
        a = A[t - 1][t - 1]
        R = [A[t - 1][j] for j in range(t - 1)]
        Ccol = [A[i][t - 1] for i in range(t - 1)]
        Bm = [[A[i][j] for j in range(t - 1)] for i in range(t - 1)]
        items = [one, -a]
        w = Ccol
        for _ in range(t - 1):
            items.append(-sum((R[j] * w[j] for j in range(t - 1)), a * 0))
            w = mat_vec(Bm, w)
        # Toeplitz multiply: newpoly[i] = sum_j items[i-j] * poly[j]
        newpoly = []
        for i in range(t + 1):
            s = one * 0
            for j in range(len(poly)):
                if 0 <= i - j < len(items):
                    s = s + items[i - j] * poly[j]
            newpoly.append(s)
        poly = newpoly
    poly_low_to_high = list(reversed(poly))
    return poly_low_to_high


def newton_slopes(coeffs):
    """Valuations of the roots from the Newton polygon.

    coeffs: [a_0, ..., a_d] low to high (a_d must be a certified unit or at
    least known nonzero).  Returns a list of (valuation: Fraction, multiplicity)
    sorted by descending valuation.  Raises PrecisionError when a needed hull
    vertex is indistinguishable from zero at working precision.
    """
    d = len(coeffs) - 1
    pts = []
    for i, c in enumerate(coeffs):
        if c.is_zero():
            pts.append((i, None, c.prec))
        else:
            pts.append((i, c.val, c.prec))
    if pts[d][1] is None:
        raise PrecisionError("leading coefficient not determined")
    # lower convex hull over known points, from i=0 (or first known) to d.
    # a_0 may be genuinely 0 (zero eigenvalues) -- but 0 is not an eigenvalue of
    # an invertible operator; treat undetermined low coefficients as +infinity
    # and certify below.
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
        out.append((Fraction(y1 - y2, x2 - x1), x2 - x1))  # root valuation, multiplicity
    out.sort(key=lambda t: -t[0])
    return out


def poly_eval(coeffs, x):
    acc = x * 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def hensel_root(coeffs, p: int, slope: int, prec: int) -> PadicNumber:
    """The unique root of valuation `slope` of a polynomial with a simple
    Newton-polygon segment of that slope and length one.  Substitutes
    x = p^slope * y, finds the unit root mod p by scanning, lifts by Newton."""
    d = len(coeffs) - 1
    # g(y) = f(p^s y) / p^c, normalized to integral coefficients
    sub = [c * PadicNumber.from_fraction(Fraction(p**slope if slope >= 0 else 1,
                                                  1 if slope >= 0 else p**(-slope)) ** i, p, prec + 8 * (d + 1))
           for i, c in enumerate(coeffs)]
    vmin = min(c.val for c in sub if not c.is_zero())
    scale = PadicNumber(p, -vmin, 1, -vmin + prec + 4 * (d + 1))
    g = [c * scale for c in sub]
    dg = [g[i] * i for i in range(1, d + 1)]
    root0 = None
    for y0 in range(1, p):
        y = PadicNumber.from_int(y0, p, prec + 4)
        if poly_eval(g, y).val >= 1 and poly_eval(dg, y).val == 0:
            root0 = y
            break
    if root0 is None:
        raise PrecisionError("no simple unit root found for refinement")
    y = root0
    for _ in range(prec.bit_length() + 3):
        y = y - poly_eval(g, y) / poly_eval(dg, y)
    return y * PadicNumber.from_fraction(Fraction(p) ** slope, p, prec + abs(slope) + 4)
