"""Definite rational quaternion algebras and their orders.

B = (a, b / Q) has basis 1, i, j, k with i^2 = a, j^2 = b, k = ij = -ji,
and `qmul` is its product on coordinate 4-sequences.  An order holds its
basis as integer rows over one denominator, and its elements are their
integer coordinates in that basis, multiplied through the order's integer
multiplication table.  Provides a primality test and trial-division
factoring for the small integers met here, Hilbert symbols, construction of
an algebra of prescribed discriminant, maximal and Eichler orders, integer
lattice utilities (one Hermite normal form, congruence lattices,
fraction-free elimination) and integer Fincke-Pohst enumeration of vectors
of given reduced norm.  Everything here runs on plain integers.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from math import gcd, isqrt, lcm
from operator import mul

from .budget import checkpoint


# ----------------------------------------------------------------------
# primes and factorizations of small integers
# ----------------------------------------------------------------------

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# Miller-Rabin to the first 13 prime bases is exact below this bound, the
# least strong pseudoprime to all of them (Sorenson-Webster, Math. Comp. 2017)
PRIME_BOUND = 3317044064679887385961981
# trial division factors every |n| up to this bound (at most 5 * 10^5 divisors)
FACTOR_BOUND = 10**12


def isprime(n: int) -> bool:
    """Deterministic Miller-Rabin for n < PRIME_BOUND."""
    if n >= PRIME_BOUND:
        raise ValueError(f"{n} is past the exact primality range (< {PRIME_BOUND})")
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def factorint(n: int) -> dict[int, int]:
    """{q: e} with |n| = prod q^e, primes in increasing order, for
    0 < |n| <= FACTOR_BOUND; by trial division."""
    n = abs(n)
    if n > FACTOR_BOUND:
        raise ValueError(f"{n} is past the trial-division bound {FACTOR_BOUND}")
    out: dict[int, int] = {}
    q = 2
    while q * q <= n:
        while n % q == 0:
            out[q] = out.get(q, 0) + 1
            n //= q
        q += 1 if q == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def primefactors(n: int) -> list[int]:
    """The primes dividing n, in increasing order."""
    return list(factorint(n))


# ----------------------------------------------------------------------
# quaternion arithmetic
# ----------------------------------------------------------------------


def qmul(ab, x, y):
    """The product of x = x0 + x1 i + x2 j + x3 k and y in (a, b / Q), on
    integer coordinate 4-sequences."""
    a, b = ab
    x0, x1, x2, x3 = x
    y0, y1, y2, y3 = y
    return [
        x0 * y0 + a * x1 * y1 + b * x2 * y2 - a * b * x3 * y3,
        x0 * y1 + x1 * y0 - b * x2 * y3 + b * x3 * y2,
        x0 * y2 + x2 * y0 + a * x1 * y3 - a * x3 * y1,
        x0 * y3 + x3 * y0 + x1 * y2 - x2 * y1,
    ]


# ----------------------------------------------------------------------
# Hilbert symbols and algebra construction
# ----------------------------------------------------------------------


def _legendre(a: int, p: int) -> int:
    a %= p
    if a == 0:
        return 0
    return 1 if pow(a, (p - 1) // 2, p) == 1 else -1


def hilbert_symbol(a: int, b: int, p) -> int:
    """(a, b)_p for nonzero integers; p a prime or the string 'inf'."""
    if a == 0 or b == 0:
        raise ValueError("arguments must be nonzero")
    if p == "inf":
        return -1 if a < 0 and b < 0 else 1
    if p == 2:
        alpha = beta = 0
        while a % 2 == 0:
            a //= 2
            alpha += 1
        while b % 2 == 0:
            b //= 2
            beta += 1
        eps = lambda u: (u - 1) // 2 % 2
        omg = lambda u: (u * u - 1) // 8 % 2
        e = eps(a) * eps(b) + alpha * omg(b) + beta * omg(a)
        return -1 if e % 2 else 1
    alpha = beta = 0
    while a % p == 0:
        a //= p
        alpha += 1
    while b % p == 0:
        b //= p
        beta += 1
    e = alpha * beta * ((p - 1) // 2)
    s = (-1) ** e * _legendre(a, p) ** beta * _legendre(b, p) ** alpha
    return s


def ramified_primes(a: int, b: int) -> list[int]:
    cand = sorted(set([2] + primefactors(a) + primefactors(b)))
    return [q for q in cand if hilbert_symbol(a, b, q) == -1]


@dataclass(frozen=True)
class QuaternionAlgebra:
    a: int
    b: int
    disc: int


def build_algebra(disc: int) -> QuaternionAlgebra:
    """The definite quaternion algebra over Q ramified exactly at the primes
    dividing disc and at infinity; disc is squarefree with an odd number of
    prime factors.  The symbol (a, b) with a, b < 0 is searched by growing
    m = max(-a, -b), up to disc: every such disc up to 373 has one there.
    For each m the pairs on that edge are tried in the order (-1, -m), ...,
    (-(m-1), -m), then (-m, -1), ..., (-m, -m); the time budget is checked
    once per m.  Only pairs whose product a b is divisible by the odd part D
    of disc are classified, as an odd prime dividing neither a nor b cannot
    ramify: on edge m these are the pairs whose other entry is a multiple of
    g = D / gcd(D, m)."""
    primes = primefactors(disc)
    odd = disc if disc % 2 else disc // 2  # disc is squarefree
    for m in range(1, disc + 1):
        checkpoint()
        g = odd // gcd(odd, m)
        edge = ([(-a, -m) for a in range(g, m, g)]
                + [(-m, -b) for b in range(g, m + 1, g)])
        for a, b in edge:
            if ramified_primes(a, b) == primes:
                return QuaternionAlgebra(a, b, disc)
    raise ValueError(f"no symbol found for discriminant {disc}")


# ----------------------------------------------------------------------
# integer lattice utilities
# ----------------------------------------------------------------------


def xgcd(a: int, b: int):
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    return old_r, old_s, old_t


def hermite_rows(gens: list[list[int]]) -> list[list[int]]:
    """Hermite normal form of the lattice spanned by integer row vectors:
    Cohen, Alg. 2.4.5, on the transpose.  The rows come out in order of
    their last nonzero entry (the pivot), which is positive; every entry in
    a later row's pivot column is reduced into [0, pivot).  For a full-rank
    lattice this is the unique lower-triangular basis H with H[i][j] in
    [0, H[j][j]) for i > j.  Pivots are made from the last coordinate to the
    first, and each reduces the rows after it at once."""
    rows = [list(g) for g in gens]
    k = len(rows)
    for i in range(len(rows[0]) - 1, -1, -1):
        if k == 0:
            break
        k -= 1
        for j in range(k - 1, -1, -1):
            b = rows[j][i]
            if b:
                piv, row = rows[k], rows[j]
                a = piv[i]
                g, u, v = xgcd(a, b)
                r, s = a // g, b // g
                rows[k] = [u * x + v * y for x, y in zip(piv, row)]
                rows[j] = [r * y - s * x for x, y in zip(piv, row)]
        piv = rows[k]
        b = piv[i]
        if b < 0:
            piv = rows[k] = [-x for x in piv]
            b = -b
        if b == 0:
            k += 1
            continue
        for j in range(k + 1, len(rows)):
            q = rows[j][i] // b
            if q:
                rows[j] = [y - q * x for x, y in zip(piv, rows[j])]
    return rows[k:]


def congruence_kernel(forms: list[list[int]], modulus: int) -> list[list[int]]:
    """Basis (rows, in Hermite normal form) of the full-rank lattice
    L = {c in Z^n : F c = 0 mod modulus}.

    L = modulus * dual(Lambda) for the lattice Lambda spanned by the forms
    and modulus * e_i (Cohen, ch. 2).  With H the lower-triangular Hermite
    basis of Lambda, the dual has the columns of H^-1 as a basis, so L is
    spanned by the columns of Y = modulus * H^-1, which are integral because
    modulus * Z^n lies in Lambda; they come from forward substitution on
    H Y = modulus * I."""
    n = len(forms[0])
    H = hermite_rows(list(forms) + [[modulus if i == j else 0 for j in range(n)]
                                    for i in range(n)])
    cols = []
    for j in range(n):
        y = [0] * n
        for i in range(j, n):
            t = (modulus if i == j else 0) - sum(H[i][u] * y[u] for u in range(j, i))
            y[i], rem = divmod(t, H[i][i])
            assert rem == 0
        cols.append(y)
    return hermite_rows(cols)


def bareiss(G: list[list[int]]) -> list[list[int]]:
    """Fraction-free (Bareiss) elimination of a positive definite integer
    matrix, without pivoting.  In the result A, A[k][k] is the leading
    principal minor of order k + 1, and for i > k the LDL^T multiplier is
    L[i][k] = A[i][k] / A[k][k]; so D[k] = A[k][k] / A[k-1][k-1] and the
    determinant is A[-1][-1]."""
    n = len(G)
    A = [list(row) for row in G]
    prev = 1
    for k in range(n):
        piv = A[k][k]
        if piv <= 0:
            raise ValueError("form is not positive definite")
        for i in range(k + 1, n):
            Ai, aik = A[i], A[i][k]
            for j in range(k + 1, n):
                Ai[j] = (piv * Ai[j] - aik * A[k][j]) // prev
        prev = piv
    return A


_OTHERS = [tuple(j for j in range(4) if j != i) for i in range(4)]


def _minor3(M, r: int, c: int) -> int:
    """The minor of the 4x4 matrix M without row r and column c, directly."""
    (h, i, l), (j, k, m) = _OTHERS[r], _OTHERS[c]
    a, b, d = M[h], M[i], M[l]
    return (a[j] * (b[k] * d[m] - b[m] * d[k]) - a[k] * (b[j] * d[m] - b[m] * d[j])
            + a[m] * (b[j] * d[k] - b[k] * d[j]))


def det(M: list[list[int]]) -> int:
    """Determinant of a 4x4 integer matrix, by 3x3 minors (no recursion)."""
    return sum((-1) ** j * M[0][j] * _minor3(M, 0, j) for j in range(4) if M[0][j])


def _adjugate(M: list[list[int]]) -> list[list[int]]:
    """adj(M) of a 4x4 integer matrix, with M adj(M) = det(M) I: each of
    its 16 cofactors is one 3x3 minor, computed directly."""
    return [[(-1) ** (i + j) * _minor3(M, j, i) for j in range(4)]
            for i in range(4)]


# ----------------------------------------------------------------------
# orders
# ----------------------------------------------------------------------


def _lowest_terms(rows: list[list[int]], den: int):
    """(rows, den) divided by the gcd of den and every entry."""
    g = gcd(den, *(x for row in rows for x in row))
    return [[x // g for x in row] for row in rows], den // g


@dataclass
class Order:
    """A Z-order in a quaternion algebra.  Its basis is b_m = (rows[m][0] +
    rows[m][1] i + rows[m][2] j + rows[m][3] k) / den, integer rows over
    their least common denominator, and an element is the tuple c of its
    integer coordinates, x = sum_m c_m b_m.  level is the Eichler level (1
    for a maximal order)."""

    algebra: QuaternionAlgebra
    rows: list[list[int]]
    den: int
    level: int = 1

    @cached_property
    def _inverse(self):
        """(adj(B), det(B)) for B = rows, with B adj(B) = det(B) I."""
        return _adjugate(self.rows), det(self.rows)

    def _solve(self, v, vden: int):
        """The coordinates of (v on 1, i, j, k) / vden in this basis, or None
        when they are not all integers: v / vden = c B / den, so
        c = den v adj(B) / (vden det(B))."""
        adj, det = self._inverse
        out = []
        for col in zip(*adj):
            c, rem = divmod(self.den * sum(map(mul, v, col)), vden * det)
            if rem:
                return None
            out.append(c)
        return tuple(out)

    @cached_property
    def table(self):
        """table[m][n]: the coordinates of b_m b_n; an entry is None where
        the product leaves the lattice, which for an order it never does."""
        ab = (self.algebra.a, self.algebra.b)
        return [[self._solve(qmul(ab, x, y), self.den**2) for y in self.rows]
                for x in self.rows]

    @cached_property
    def one(self):
        """The coordinates of 1 (None when the lattice does not hold it)."""
        return self._solve((1, 0, 0, 0), 1)

    @cached_property
    def gram(self) -> list[list[int]]:
        """The integer Gram matrix trd(b_m conj(b_n)) of the trace form, so
        that c^T gram c = 2 nrd(c); on (1, i, j, k) the norm form is
        diag(1, -a, -b, ab)."""
        a, b = self.algebra.a, self.algebra.b
        form = (1, -a, -b, a * b)
        return [[2 * sum(map(mul, form, map(mul, x, y))) // self.den**2
                 for y in self.rows] for x in self.rows]

    def element(self, c) -> list[int]:
        """den x on (1, i, j, k) for the element x with coordinates c."""
        return [sum(map(mul, c, col)) for col in zip(*self.rows)]

    @cached_property
    def _mul_forms(self):
        """Per coordinate t of a product, table[m][n][t] in the order m, n."""
        return [[Tmn[t] for Tm in self.table for Tmn in Tm] for t in range(4)]

    def mul(self, x, y) -> tuple:
        """The coordinates of x y, each the x_m y_n dotted with a form."""
        xy = [xm * yn for xm in x for yn in y]
        return tuple(sum(map(mul, xy, form)) for form in self._mul_forms)

    def conj(self, x) -> tuple:
        """The coordinates of conj(x) = trd(x) - x."""
        t = self.trd(x)
        return tuple(t * o - c for o, c in zip(self.one, x))

    def nrd(self, c) -> int:
        """The reduced norm of the element with coordinates c: c (G c) / 2."""
        return sum(map(mul, c, [sum(map(mul, row, c)) for row in self.gram])) // 2

    def trd(self, c) -> int:
        """The reduced trace of the element with coordinates c: twice its
        coordinate on 1."""
        return sum(map(mul, c, self._trace_form)) // self.den

    @cached_property
    def _trace_form(self) -> list[int]:
        return [2 * row[0] for row in self.rows]

    def reduced_discriminant(self) -> int:
        """sqrt(det) of the trace form trd(x conj(y)) = 2 (B/den) diag(1, -a,
        -b, ab) (B/den)^T, that is 4 |a b det(B)| / den^4."""
        det = self._inverse[1]
        rd, rem = divmod(abs(4 * self.algebra.a * self.algebra.b * det),
                         self.den**4)
        assert rem == 0
        return rd


def maximal_order(alg: QuaternionAlgebra) -> Order:
    """A maximal order, by saturating Z<1,i,j,k> one prime at a time."""
    order = Order(alg, [[int(i == j) for j in range(4)] for i in range(4)], 1)
    while True:
        rd = order.reduced_discriminant()
        if rd == alg.disc:
            return order
        f = rd // alg.disc
        assert rd % alg.disc == 0
        q = primefactors(f)[0]
        enlarged = _enlarge_at(order, q)
        if enlarged is None:
            raise RuntimeError(f"saturation stuck at prime {q}")
        order = enlarged


def _enlarge_at(order: Order, q: int):
    """An order strictly containing this one with index q, or None: the
    lattice spanned by the order and x = sum_m c_m b_m / q, for the first c
    in [0, q)^4 with x integral over Z (trd and nrd in Z) for which that
    lattice is larger (its Hermite diagonal has a product below q^4
    |det(rows)|), multiplicatively closed and holds 1."""
    ab = a, b = order.algebra.a, order.algebra.b
    D = order.den * q
    scaled = [[q * x for x in row] for row in order.rows]
    vol = q**4 * abs(order._inverse[1])
    for c in itertools.product(range(q), repeat=4):  # c = 0: the same lattice
        v = order.element(c)  # x = v / D
        if (2 * v[0] % D
                or (v[0]**2 - a * v[1]**2 - b * v[2]**2 + a * b * v[3]**2) % D**2):
            continue
        H = hermite_rows(scaled + [v])
        if H[0][0] * H[1][1] * H[2][2] * H[3][3] == vol:
            continue  # same lattice
        cand = Order(order.algebra, *_lowest_terms(H, D))
        if cand.one and all(cand._solve(qmul(ab, x, y), cand.den**2)
                            for x in cand.rows for y in cand.rows):
            return cand
    return None


def eichler_order(alg: QuaternionAlgebra, maxorder: Order, level: int) -> Order:
    """An Eichler order of the given level inside a maximal order (level must
    be coprime to the discriminant): for each prime power q^e exactly
    dividing it, the elements whose splitting at q is upper triangular
    modulo q^e."""
    from .splitting import splitting_map  # local import to avoid a cycle

    assert gcd(level, alg.disc) == 1
    rows, den = maxorder.rows, maxorder.den
    for q, e in factorint(level).items():
        spl = splitting_map(Order(alg, rows, den), q, e + 6)
        forms = [[int(spl.images[m][2]) for m in range(4)]]  # lower-left entries
        K = congruence_kernel(forms, q**e)
        rows, den = _lowest_terms(hermite_rows(
            [[sum(K[t][m] * rows[m][s] for m in range(4)) for s in range(4)]
             for t in range(4)]), den)
    out = Order(alg, rows, den, level)
    assert out.reduced_discriminant() == alg.disc * level
    return out


# ----------------------------------------------------------------------
# norm form enumeration (integer Fincke-Pohst)
# ----------------------------------------------------------------------


def enumerate_norm(G: list[list[int]], target: int) -> list[tuple]:
    """All nonzero integer vectors c (sign pairs included) with
    c^T G c == target, for a positive definite integer matrix G, in
    increasing lexicographic order of (c[n-1], ..., c[0]).

    Integer Fincke-Pohst (Cohen, Alg. 2.7.5).  With A = bareiss(G) and the
    leading principal minors m_0 = 1, m_{k+1} = A[k][k],
        c^T G c = sum_k (m_{k+1} c_k + S_k)^2 / (m_k m_{k+1}),
        S_k = sum_{j>k} A[j][k] c_j,
    so under the one scale C = lcm_k(m_k m_{k+1}) term k is w_k u_k^2 with
    integers w_k = C / (m_k m_{k+1}) and u_k = m_{k+1} c_k + S_k.  The
    recursion fixes c_{n-1} down to c_0 with integer shifts S_k and an
    integer remainder; the range of c_k is |u_k| <= isqrt(rem // w_k), and
    c_0 solves w_0 u_0^2 == rem."""
    n = len(G)
    if target < 0:
        return []
    A = bareiss(G)
    minors = [1] + [A[k][k] for k in range(n)]
    C = lcm(*(minors[k] * minors[k + 1] for k in range(n)))
    w = [C // (minors[k] * minors[k + 1]) for k in range(n)]
    out = []
    x = [0] * n

    def rec(k, rem, shifts):
        d, s = A[k][k], shifts[k]
        if k == 0:
            q, r = divmod(rem, w[0])
            b = isqrt(q)
            if r == 0 and b * b == q:
                for u in ((-b, b) if b else (0,)):
                    if (u - s) % d == 0:
                        x[0] = (u - s) // d
                        out.append(tuple(x))
            return
        b = isqrt(rem // w[k])
        Ak = A[k]
        for xk in range(-((b + s) // d), (b - s) // d + 1):
            u = d * xk + s
            x[k] = xk
            rec(k - 1, rem - w[k] * u * u,
                [shifts[t] + Ak[t] * xk for t in range(k)])

    rec(n - 1, C * target, [0] * n)
    del rec  # rec refers to itself: free the cycle now, not at a collection
    return [v for v in out if any(v)]
