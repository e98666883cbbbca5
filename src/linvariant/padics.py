"""Capped-precision p-adic arithmetic.

Elements of Q_p are stored as (valuation, unit, absolute precision): the number
is unit * p^valuation known modulo p^precision, with the unit reduced modulo
p^(precision - valuation).  Precision propagates by the first-order rules,
with v(x) = P(x) for an x indistinguishable from zero:
P(x y) = min(P(x) + v(y), P(y) + v(x)), P(x +- y) = min(P(x), P(y)) and
P(1/x) = P(x) - 2 v(x).

Also provides the quadratic unramified extension K_p = Q_p(w): the field
holds only p, its precision and the constants of w, and its elements are
integer pairs x0 + x1 w reduced modulo p^N, with products, powers, unit
inverses and the Iwasawa branch of the p-adic logarithm on those.  Last come
the Gauss-Jordan elimination, on integer residues under one scale by the
same rules, and a division-free characteristic polynomial.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

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
        vn, vd = val_int(num, p), val_int(den, p)
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
        terms, u, v = [], self.unit, self.val
        while u:
            u, d = divmod(u, self.p)
            if d:
                terms.append(f"{d}" if v == 0 else
                             f"{self.p}^{v}" if d == 1 else f"{d}*{self.p}^{v}")
            v += 1
        return " + ".join(terms + [f"O({self.p}^{self.prec})"])


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


def solve_linear(p: int, E: int, A, rhs=()):
    """Solve A x = b over Q_p for every b in rhs (none to compute only the
    kernel) by one Gauss-Jordan elimination on integers.  The rows of A and
    the right-hand sides are pairs (residues, precisions), entry j being
    residues[j] p^-E known modulo p^(precisions[j] - E).  The pivot is the
    first entry of lowest valuation known nonzero, row-major, in the rows
    and columns not pivoted yet; the right-hand sides ride along as
    columns.  Precision follows the rules of the module docstring, so every
    result is that of the same elimination on PadicNumbers; an update
    a y / pivot that is not integral first multiplies every residue by the
    missing power of p, so every step is exact.  Returns a solution per
    right-hand side and a kernel basis at working precision, entries
    (val, unit, prec); raises PrecisionError on a system inconsistent beyond
    precision noise.  The time budget is checked once per pivot.  A row with
    residue 0 in the pivot column (f = 0) is skipped when no precision would
    drop, to Pf + v(y) or P(y) + v(f), below its highest: residues are kept
    reduced modulo their precisions, so then none of them moves either."""
    nrows, ncols = len(A), len(A[0][0]) if A else 0
    P0 = A[0][1][0] - E if nrows and ncols else 0
    zero = (P0, 0, P0)
    Q = [[*P, *(b[1][i] for b in rhs)] for i, (_, P) in enumerate(A)]
    pw = [p**i for i in range(max([0] + [q for r in Q for q in r]) + 1)]
    M = [[a % pw[max(q, 0)] for a, q in zip([*R, *(b[0][i] for b in rhs)], Qi)]
         for i, ((R, _), Qi) in enumerate(zip(A, Q))]
    rows, cols, colpiv = list(range(nrows)), list(range(ncols)), {}
    while True:
        best = None
        for i in rows:
            g = gcd(*[M[i][j] for j in cols])
            if g and (best is None or val_int(g, p) < best[0]):
                v = val_int(g, p)
                best = v, i, next(j for j in cols if M[i][j] % pw[v + 1])
        if best is None:
            break
        checkpoint()
        wn, pi, pj = best
        rows.remove(pi)
        cols.remove(pj)
        colpiv[pj] = pi
        # valuations of the pivot row and column, that of a zero its precision
        vy = [val_int(y, p) if y else q for y, q in zip(M[pi], Q[pi])]
        va = [val_int(r[pj], p) if r[pj] else q[pj] for r, q in zip(M, Q)]
        d = (wn - min(v for v, r in zip(va, M) if r[pj])
             - min(v for v, y in zip(vy, M[pi]) if y))
        if d > 0:
            M = [[a * p**d for a in r] for r in M]
            Q = [[q + d for q in r] for r in Q]
            wn, va, vy = wn + d, [v + d for v in va], [v + d for v in vy]
            pw = [p**i for i in range(len(pw) + d)]
        prow, Qp, pwn = M[pi], Q[pi], pw[wn]
        uinv = pow(prow[pj] // pwn, -1, pw[-1])
        vymin, Qpmin = min(vy), min(Qp)
        for i in range(nrows):
            if i != pi:
                # f = a / pivot, of valuation vf and precision Pf
                vf, Pf = va[i] - wn, min(Q[i][pj] - wn, Qp[pj] - 2 * wn + va[i])
                if not M[i][pj] and min(Pf + vymin, Qpmin + vf) >= max(Q[i]):
                    continue
                Q[i] = [min(q, Pf + v, qy + vf) for q, v, qy in zip(Q[i], vy, Qp)]
                fa = M[i][pj] * uinv
                M[i] = [(m - fa * y // pwn) % pw[max(q, 0)]
                        for m, y, q in zip(M[i], prow, Q[i])]

    def quotient(i, c, j):
        """M[i][c] / M[i][j] as a (val, unit, prec) triple."""
        b, m = M[i][c], M[i][j]
        if not m:
            raise PrecisionError("cannot invert an element indistinguishable from zero")
        vm, vb = val_int(m, p), val_int(b, p) if b else Q[i][c]
        P = min(Q[i][c] - vm, Q[i][j] - 2 * vm + vb)
        mod = pw[P - vb + vm]
        return (vb - vm, b // pw[vb] * pow(m // pw[vm], -1, mod) % mod, P) if b else (P, 0, P)

    xs = []
    for c in range(ncols, ncols + len(rhs)):
        if any(M[i][c] for i in rows):
            raise PrecisionError("inconsistent linear system")
        xs.append([quotient(colpiv[j], c, j) if j in colpiv else zero for j in range(ncols)])
    kernel = []
    for f in cols:
        vec = [zero] * ncols
        vec[f] = (0, 1, P0) if P0 > 0 else zero
        for j, i in colpiv.items():
            v, u, P = quotient(i, f, j)
            vec[j] = v, -u % pw[P - v], P
        kernel.append(vec)
    return xs, kernel


def solve_padics(A, rhs=()):
    """`solve_linear` on PadicNumber rows and right-hand sides, under the
    least scale p^-E, E >= 0, making all integral, with PadicNumber results."""
    vecs = [*A, *rhs]
    p = vecs[0][0].p
    E = max([0] + [-x.val for v in vecs for x in v if x.unit])
    ints = [([x.unit * p ** (x.val + E) if x.unit else 0 for x in v],
             [x.prec + E for x in v]) for v in vecs]
    out = solve_linear(p, E, ints[:len(A)], ints[len(A):])
    return [[[PadicNumber(p, *t) for t in v] for v in vs] for vs in out]


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
        w = [A[i][t - 1] for i in range(t - 1)]
        Bm = [[A[i][j] for j in range(t - 1)] for i in range(t - 1)]
        items = [one, -a]
        for _ in range(t - 1):
            items.append(-sum((R[j] * w[j] for j in range(t - 1)), a * 0))
            w = mat_vec(Bm, w)
        # Toeplitz multiply: new poly[i] = sum_j items[i-j] * poly[j]
        poly = [sum((items[i - j] * poly[j] for j in range(len(poly))
                     if 0 <= i - j < len(items)), one * 0) for i in range(t + 1)]
    return poly[::-1]


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
    # (root valuation, multiplicity) per segment
    return sorted(((Fraction(y1 - y2, x2 - x1), x2 - x1) for (x1, y1), (x2, y2)
                   in zip(hull, hull[1:])), key=lambda t: -t[0])


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
    sub = [c * PadicNumber.from_fraction(Fraction(p) ** (slope * i), p, prec + 8 * (d + 1))
           for i, c in enumerate(coeffs)]
    vmin = min(c.val for c in sub if not c.is_zero())
    scale = PadicNumber(p, -vmin, 1, -vmin + prec + 4 * (d + 1))
    g = [c * scale for c in sub]
    dg = [g[i] * i for i in range(1, d + 1)]
    for y0 in range(1, p):
        y = PadicNumber.from_int(y0, p, prec + 4)
        if poly_eval(g, y).val >= 1 and poly_eval(dg, y).val == 0:
            break
    else:
        raise PrecisionError("no simple unit root found for refinement")
    for _ in range(prec.bit_length() + 3):
        y = y - poly_eval(g, y) / poly_eval(dg, y)
    return y * PadicNumber.from_fraction(Fraction(p) ** slope, p, prec + abs(slope) + 4)
