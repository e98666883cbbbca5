"""Definite rational quaternion algebras and their orders.

B = (a, b / Q) has basis 1, i, j, k with i^2 = a, j^2 = b, k = ij = -ji.
Elements are coordinate 4-tuples of Fractions.  Provides Hilbert symbols,
construction of an algebra of prescribed discriminant, maximal and Eichler
orders, integer lattice utilities (Hermite forms, kernels of congruence
conditions) and exact Fincke-Pohst enumeration of vectors of given reduced
norm.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt

from sympy import Matrix, primefactors
from sympy.matrices.normalforms import hermite_normal_form


# ----------------------------------------------------------------------
# quaternion arithmetic
# ----------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class Quat:
    """x0 + x1 i + x2 j + x3 k in (a, b / Q)."""

    ab: tuple
    co: tuple  # 4 Fractions

    @staticmethod
    def of(ab, coords) -> "Quat":
        return Quat(ab, tuple(Fraction(c) for c in coords))

    def __add__(self, other):
        return Quat(self.ab, tuple(x + y for x, y in zip(self.co, other.co)))

    def __sub__(self, other):
        return Quat(self.ab, tuple(x - y for x, y in zip(self.co, other.co)))

    def __neg__(self):
        return Quat(self.ab, tuple(-x for x in self.co))

    def scale(self, s) -> "Quat":
        s = Fraction(s)
        return Quat(self.ab, tuple(s * x for x in self.co))

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        a, b = self.ab
        x0, x1, x2, x3 = self.co
        y0, y1, y2, y3 = other.co
        return Quat(
            self.ab,
            (
                x0 * y0 + a * x1 * y1 + b * x2 * y2 - a * b * x3 * y3,
                x0 * y1 + x1 * y0 - b * x2 * y3 + b * x3 * y2,
                x0 * y2 + x2 * y0 + a * x1 * y3 - a * x3 * y1,
                x0 * y3 + x3 * y0 + x1 * y2 - x2 * y1,
            ),
        )

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    def conj(self) -> "Quat":
        x0, x1, x2, x3 = self.co
        return Quat(self.ab, (x0, -x1, -x2, -x3))

    def trd(self) -> Fraction:
        return 2 * self.co[0]

    def nrd(self) -> Fraction:
        a, b = self.ab
        x0, x1, x2, x3 = self.co
        return x0 * x0 - a * x1 * x1 - b * x2 * x2 + a * b * x3 * x3

    def inverse(self) -> "Quat":
        n = self.nrd()
        if n == 0:
            raise ZeroDivisionError("zero divisor")
        return self.conj().scale(Fraction(1, 1) / n)

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.co)


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

    def one(self) -> Quat:
        return Quat.of((self.a, self.b), (1, 0, 0, 0))

    def gens(self):
        ab = (self.a, self.b)
        return (
            Quat.of(ab, (1, 0, 0, 0)),
            Quat.of(ab, (0, 1, 0, 0)),
            Quat.of(ab, (0, 0, 1, 0)),
            Quat.of(ab, (0, 0, 0, 1)),
        )

    def quat(self, coords) -> Quat:
        return Quat.of((self.a, self.b), coords)


_SYMBOL_TABLE = {2: (-1, -1), 3: (-1, -3), 5: (-2, -5), 7: (-1, -7), 11: (-1, -11), 13: (-2, -13)}


def build_algebra(disc: int) -> QuaternionAlgebra:
    """The definite quaternion algebra over Q ramified exactly at the primes
    dividing disc and at infinity; disc is squarefree with an odd number of
    prime factors.  The symbol (a, b) with a, b < 0 is searched by growing
    max(-a, -b), up to disc: every such disc up to 373 has one there."""
    if disc in _SYMBOL_TABLE:
        a, b = _SYMBOL_TABLE[disc]
        assert ramified_primes(a, b) == [disc]
        return QuaternionAlgebra(a, b, disc)
    primes = primefactors(disc)
    for bound in range(2, disc + 2):
        for a in range(-1, -bound - 1, -1):
            for b in range(-1, -bound - 1, -1):
                if max(-a, -b) != bound - 1:
                    continue
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


def integer_kernel(rows: list[list[int]]) -> list[list[int]]:
    """Basis of the integer kernel {c : M c = 0} of an integer matrix,
    as a list of column vectors.  Column-reduction with a tracked unimodular
    transform."""
    m = len(rows)
    n = len(rows[0]) if m else 0
    cols = [[rows[i][j] for i in range(m)] for j in range(n)]
    U = [[1 if i == j else 0 for i in range(n)] for j in range(n)]  # U[j] = col j
    pivot_cols: list[int] = []
    for i in range(m):
        avail = [j for j in range(n) if j not in pivot_cols]
        nz = [j for j in avail if cols[j][i] != 0]
        if not nz:
            continue
        j0 = nz[0]
        for j in nz[1:]:
            a0, a1 = cols[j0][i], cols[j][i]
            g, s, t = xgcd(a0, a1)
            c0 = [s * cols[j0][r] + t * cols[j][r] for r in range(m)]
            c1 = [-(a1 // g) * cols[j0][r] + (a0 // g) * cols[j][r] for r in range(m)]
            cols[j0], cols[j] = c0, c1
            u0 = [s * U[j0][r] + t * U[j][r] for r in range(n)]
            u1 = [-(a1 // g) * U[j0][r] + (a0 // g) * U[j][r] for r in range(n)]
            U[j0], U[j] = u0, u1
        pivot_cols.append(j0)
    kernel = []
    for j in range(n):
        if j not in pivot_cols and all(x == 0 for x in cols[j]):
            kernel.append(U[j])
    return kernel


def hnf_basis(generators: list[list[Fraction]]) -> list[list[Fraction]]:
    """Basis (as rows) of the lattice spanned by the given rational row
    vectors, via Hermite normal form."""
    den = 1
    for g in generators:
        for x in g:
            den = den * x.denominator // gcd(den, x.denominator)
    M = Matrix([[int(x * den) for x in g] for g in generators])
    H = hermite_normal_form(M.T).T
    rows = [[Fraction(H[i, j], den) for j in range(H.cols)] for i in range(H.rows)]
    return [r for r in rows if any(x != 0 for x in r)]


def congruence_kernel(forms: list[list[int]], modulus: int) -> list[list[int]]:
    """Basis (columns) of the full-rank lattice {c in Z^n : F c = 0 mod modulus}."""
    r = len(forms)
    n = len(forms[0])
    ext = [list(f) + [modulus if i == t else 0 for t in range(r)] for i, f in enumerate(forms)]
    ker = integer_kernel(ext)
    projected = [k[:n] for k in ker]
    M = Matrix([list(v) for v in projected])
    H = hermite_normal_form(M.T).T
    basis = [[int(H[i, j]) for j in range(H.cols)] for i in range(H.rows)]
    basis = [b for b in basis if any(x != 0 for x in b)]
    assert len(basis) == n, "congruence lattice is not full rank"
    return basis


# ----------------------------------------------------------------------
# orders
# ----------------------------------------------------------------------


@dataclass
class Order:
    """A Z-order in a quaternion algebra, with a row basis in (1,i,j,k)
    coordinates.  level is the Eichler level (1 for a maximal order)."""

    algebra: QuaternionAlgebra
    basis: list[Quat]
    level: int = 1

    def gram(self) -> list[list[Fraction]]:
        """Gram matrix of the reduced norm form in this basis."""
        bs = self.basis
        return [
            [
                (bs[i] * bs[j].conj() + bs[j] * bs[i].conj()).co[0] / 2
                for j in range(4)
            ]
            for i in range(4)
        ]

    def element(self, coords) -> Quat:
        acc = self.basis[0].scale(coords[0])
        for c, b in zip(coords[1:], self.basis[1:]):
            acc = acc + b.scale(c)
        return acc

    def coordinates(self, x: Quat) -> list[Fraction]:
        """Coordinates of x in this basis (a rational 4x4 solve)."""
        cols = [b.co for b in self.basis]
        return _solve4(cols, x.co)

    def contains(self, x: Quat) -> bool:
        try:
            co = self.coordinates(x)
        except ZeroDivisionError:
            return False
        return all(c.denominator == 1 for c in co)

    def reduced_discriminant(self) -> int:
        bs = self.basis
        M = Matrix(
            [[Fraction((bs[i] * bs[j].conj()).trd()) for j in range(4)] for i in range(4)]
        )
        d = M.det()
        r = Fraction(d)
        assert r.denominator == 1
        s = isqrt(abs(int(r)))
        assert s * s == abs(int(r))
        return s


def _solve4(cols, target):
    """Solve sum_i x_i cols[i] = target over Q (cols: four 4-tuples)."""
    A = [[Fraction(cols[j][i]) for j in range(4)] + [Fraction(target[i])] for i in range(4)]
    n = 4
    for c in range(n):
        piv = next(r for r in range(c, n) if A[r][c] != 0)
        A[c], A[piv] = A[piv], A[c]
        pv = A[c][c]
        A[c] = [x / pv for x in A[c]]
        for r in range(n):
            if r != c and A[r][c] != 0:
                f = A[r][c]
                A[r] = [x - f * y for x, y in zip(A[r], A[c])]
    return [A[i][4] for i in range(4)]


def maximal_order(alg: QuaternionAlgebra) -> Order:
    """A maximal order, by saturating Z<1,i,j,k> one prime at a time."""
    one, qi, qj, qk = alg.gens()
    basis = [one, qi, qj, qk]
    order = Order(alg, basis)
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
    """An order strictly containing this one with index q, or None."""
    for c in itertools.product(range(q), repeat=4):
        if all(x == 0 for x in c):
            continue
        x = order.element(c).scale(Fraction(1, q))
        if x.trd().denominator != 1 or x.nrd().denominator != 1:
            continue
        rows = [list(b.co) for b in order.basis] + [list(x.co)]
        new_rows = hnf_basis([[Fraction(v) for v in r] for r in rows])
        if len(new_rows) != 4:
            continue
        cand = Order(order.algebra, [order.algebra.quat(r) for r in new_rows])
        if cand.reduced_discriminant() == order.reduced_discriminant():
            continue  # same lattice
        # must be multiplicatively closed to be an order
        if all(
            cand.contains(bi * bj) for bi in cand.basis for bj in cand.basis
        ) and cand.contains(order.algebra.one()):
            return cand
    return None


def eichler_order(alg: QuaternionAlgebra, maxorder: Order, level: int) -> Order:
    """An Eichler order of the given level inside a maximal order (level must
    be coprime to the discriminant)."""
    from .splitting import splitting_map  # local import to avoid a cycle

    if level == 1:
        return Order(alg, list(maxorder.basis), 1)
    assert gcd(level, alg.disc) == 1
    order = Order(alg, list(maxorder.basis), 1)
    lev = level
    basis_rows = [[Fraction(x) for x in b.co] for b in maxorder.basis]
    for q in primefactors(level):
        e = 0
        while lev % q == 0:
            lev //= q
            e += 1
        spl = splitting_map(Order(alg, [alg.quat(r) for r in basis_rows]), q, e + 6)
        forms = [[int(spl.images[m][2]) for m in range(4)]]  # lower-left entries
        K = congruence_kernel(forms, q**e)
        basis_rows = [
            [
                sum(Fraction(K[t][m]) * basis_rows[m][s] for m in range(4))
                for s in range(4)
            ]
            for t in range(4)
        ]
        basis_rows = hnf_basis(basis_rows)
    out = Order(alg, [alg.quat(r) for r in basis_rows], level)
    assert out.reduced_discriminant() == alg.disc * level
    return out


# ----------------------------------------------------------------------
# norm form enumeration (exact Fincke-Pohst)
# ----------------------------------------------------------------------


def _ldl(G):
    """G = L D L^T for a symmetric positive definite rational matrix."""
    n = len(G)
    L = [[Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]
    D = [Fraction(0)] * n
    A = [[Fraction(G[i][j]) for j in range(n)] for i in range(n)]
    for j in range(n):
        D[j] = A[j][j] - sum(L[j][k] ** 2 * D[k] for k in range(j))
        if D[j] <= 0:
            raise ValueError("form is not positive definite")
        for i in range(j + 1, n):
            L[i][j] = (A[i][j] - sum(L[i][k] * L[j][k] * D[k] for k in range(j))) / D[j]
    return L, D


def _floor_sqrt_frac(x: Fraction) -> Fraction:
    """A rational r with r <= sqrt(x) < r + 2/denominator-ish; used as a safe
    bound after widening by one integer step."""
    if x < 0:
        return Fraction(-1)
    n, d = x.numerator, x.denominator
    return Fraction(isqrt(n * d), d)


def enumerate_norm(G, target: Fraction) -> list[tuple]:
    """All integer vectors c (including sign pairs) with c^T G c == target.

    Exact arithmetic throughout; G must be positive definite."""
    n = len(G)
    target = Fraction(target)
    if target < 0:
        return []
    L, D = _ldl(G)
    # Q(x) = sum_i D[i] (x_i + sum_{j>i} L[j][i]?? careful: with G = L D L^T,
    # Q(x) = sum_i D[i] * (sum_j L[j][i] x_j)^2 ... L is lower triangular so
    # the inner sum is x_i + sum_{j>i} L[j][i] x_j.
    out = []
    x = [0] * n

    def rec(i, rem, shift_terms):
        # rem: remaining value to distribute among coords 0..i
        # shift for coordinate i: s_i = sum_{j>i} L[j][i] x_j
        s = shift_terms[i]
        bound = rem / D[i]
        r = _floor_sqrt_frac(bound) + 1
        lo, hi = -s - r, -s + r
        xi_lo = lo.numerator // lo.denominator + (0 if lo.numerator % lo.denominator == 0 else 1)
        xi_hi = hi.numerator // hi.denominator
        for xi in range(xi_lo, xi_hi + 1):
            val = D[i] * (xi + s) ** 2
            if val > rem:
                continue
            x[i] = xi
            if i == 0:
                if val == rem:
                    out.append(tuple(x))
            else:
                new_shifts = list(shift_terms)
                for t in range(i):
                    new_shifts[t] = shift_terms[t] + L[i][t] * xi
                rec(i - 1, rem - val, new_shifts)
        x[i] = 0

    rec(n - 1, target, [Fraction(0)] * n)
    return [v for v in out if any(c != 0 for c in v)]
