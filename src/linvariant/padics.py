"""Capped-precision p-adic arithmetic.

Elements of Q_p are stored as (valuation, unit, absolute precision): the number
is unit * p^valuation known modulo p^precision, with the unit reduced modulo
p^(precision - valuation).  Precision propagates pessimistically (min rule).

Also provides the quadratic unramified extension K_p = Q_p(w): the field
holds only p, its precision and the constants of w, and its elements are
integer pairs x0 + x1 w reduced modulo p^N, with products, powers, unit
inverses and the Iwasawa branch of the p-adic logarithm on those.  Last come
capped-precision Gaussian elimination and a division-free characteristic
polynomial.
"""

from __future__ import annotations

from fractions import Fraction

from .budget import checkpoint


class PrecisionError(ArithmeticError):
    """Raised when a result is not determined at the working precision."""


def val_int(n: int, p: int) -> int:
    """p-adic valuation of a nonzero integer (raises on 0)."""
    if n == 0:
        raise ValueError("valuation of zero is infinite")
    if p == 2:
        return (n & -n).bit_length() - 1
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
    if prec <= 3:
        return 1 % m
    # Newton on the inverse square root, s <- s (3 - u s^2) / 2: from
    # u s^2 = 1 mod 2^k it gives u s^2 = 1 mod 2^(2k-2), and r = u s then
    # has r^2 = u (u s^2) = u
    s, k = 1, 3
    while k < prec:
        k = min(2 * k - 2, prec)
        s = (s * (3 - u * s * s) >> 1) % (1 << k)
        checkpoint()
    # of the four roots modulo 2^prec, the one = 1 mod 4 in (0, 2^(prec-1))
    r = u * s % m
    if r % 4 == 3:
        r = m - r
    return r % (m >> 1)


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
        if p == 2:
            w = (unit & -unit).bit_length() - 1
            unit >>= w
        else:
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
        if type(other) is int and other % self.p:
            # exact: `_coerce` gives other 64 spare digits, so only the unit changes
            return PadicNumber(self.p, self.val, self.unit * other, self.prec)
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
    """The quadratic unramified extension K_p = Q_p(w), w^2 + B w + C = 0,
    with elements known modulo p^prec; they are the integer pairs below.

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


def val_cap(n: int, p: int, cap) -> int:
    """min(v_p(n), cap) for an integer n, with v_p(0) infinite."""
    return cap if n == 0 else min(val_int(n, p), cap)


# ----------------------------------------------------------------------
# K_p on integer pairs: x0 + x1 w as (x0, x1), reduced modulo an integer
# ----------------------------------------------------------------------


def pair_mul(x, y, K: UnramifiedField, mod: int):
    """(x0 + x1 w)(y0 + y1 w) modulo mod."""
    cross = x[1] * y[1]
    return ((x[0] * y[0] - K.C * cross) % mod,
            (x[0] * y[1] + x[1] * y[0] - K.B * cross) % mod)


def pair_pow(x, n: int, K: UnramifiedField, mod: int):
    """x^n modulo mod, by square-and-multiply."""
    result = (1, 0)
    while n:
        if n & 1:
            result = pair_mul(result, x, K, mod)
        x = pair_mul(x, x, K, mod)
        n >>= 1
    return result


def pair_powers(x, count: int, K: UnramifiedField, mod: int) -> list:
    """[x, x^2, ..., x^count] modulo mod."""
    out = [(x[0] % mod, x[1] % mod)][:count]
    while len(out) < count:
        out.append(pair_mul(out[-1], x, K, mod))
    return out


def pair_unit_inverse(x, K: UnramifiedField, mod: int):
    """x^-1 = conj(x)/N(x) modulo mod for a unit pair x."""
    x0, x1 = x
    c0 = x0 - K.B * x1
    ninv = pow(x0 * c0 + K.C * x1 * x1, -1, mod)
    return (c0 * ninv % mod, -x1 * ninv % mod)


def scaled_reciprocals(count: int, p: int, s: int, mod: int) -> list:
    """p^s / j modulo mod for j = 1..count; needs v_p(j) <= s."""
    out = []
    for j in range(1, count + 1):
        v = val_cap(j, p, s)
        out.append(p ** (s - v) * pow(j // p**v, -1, mod) % mod)
    return out


def ilog(n: int, p: int) -> int:
    """floor(log_p n) for n >= 1."""
    v = 0
    while p ** (v + 1) <= n:
        v += 1
    return v


def iwasawa_log(K: UnramifiedField, u, R):
    """The Iwasawa logarithm of the unit u = u0 + u1 w of K_p known modulo
    p^R; on the Iwasawa branch log(p^v u) = log(u).

    Returns (s, (l0, l1), P): log u = p^-s (l0 + l1 w) known modulo p^P,
    P = min(R, K.prec).  y = u^(p^2-1) kills the Teichmuller part, so
    y = 1 + t with v(t) >= 1 and log u = log(1 + t)/(p^2 - 1), where
    log(1 + t) = sum_i (-1)^(i+1) t^i/i.  Changing t by O(p^P) changes the
    sum by O(p^P).  Term i has valuation at least i v(t) - floor(log_p i),
    which does not decrease with i, so the sum stops before the first i
    where that reaches P; the p-parts of the i summed make up the scale.
    """
    p = K.p
    P = min(R, K.prec)
    q = p**P
    y = pair_pow(u, p * p - 1, K, q)
    t = ((y[0] - 1) % q, y[1])
    vt = min(val_cap(t[0], p, P), val_cap(t[1], p, P))
    if vt >= P:
        return 0, (0, 0), P
    if vt == 0:
        raise ValueError("iwasawa_log of a non-unit")
    i = 2
    while i * vt - ilog(i, p) < P:
        i += 1
    s = ilog(i - 1, p)
    mod = p ** (P + s)
    l0 = l1 = 0
    for j, ((a, b), c) in enumerate(zip(pair_powers(t, i - 1, K, mod),
                                        scaled_reciprocals(i - 1, p, s, mod))):
        if j % 2:
            c = -c
        l0 += a * c
        l1 += b * c
    c = pow(p * p - 1, -1, mod)
    return s, (l0 * c % mod, l1 * c % mod), P


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

    coeffs: [a_0, ..., a_d] low to high.  Returns a list of (valuation:
    Fraction, multiplicity) sorted by descending valuation.  The polygon is
    one lower hull over all coefficients: one indistinguishable from zero
    enters it at its precision, a lower bound on its valuation, and
    PrecisionError is raised when such a point is a hull vertex, as the
    polygon then depends on digits not computed.  a_0 and a_d are always
    vertices, so both must be known nonzero (0 is not an eigenvalue of an
    invertible operator, so an undetermined a_0 is not taken to be zero).
    """
    hull = []
    for pt in enumerate(c.prec if c.is_zero() else c.val for c in coeffs):
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            if (y2 - y1) * (pt[0] - x2) >= (pt[1] - y2) * (x2 - x1):
                hull.pop()
            else:
                break
        hull.append(pt)
    for i, y in hull:
        if coeffs[i].is_zero():
            raise PrecisionError(
                "lowest coefficient indistinguishable from zero" if i == 0 else
                f"Newton polygon vertex at index {i} not determined (O(p^{y}))")
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
