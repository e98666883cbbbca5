"""Tests for quaternion algebras, orders, lattices and norm enumeration."""

import functools
import gc
import itertools
import random
import time
from fractions import Fraction
from math import gcd, isqrt, lcm

import pytest
from hypothesis import given, settings, strategies as st
import sympy
from sympy import Matrix
from sympy.matrices.normalforms import hermite_normal_form

from linvariant import quaternions
from linvariant.quaternions import (
    FACTOR_BOUND,
    PRIME_BOUND,
    Order,
    QuaternionAlgebra,
    _adjugate,
    build_algebra,
    congruence_kernel,
    det,
    eichler_order,
    enumerate_norm,
    factorint,
    hermite_rows,
    hilbert_symbol,
    isprime,
    maximal_order,
    primefactors,
    qmul,
    ramified_primes,
    xgcd,
)
from linvariant.splitting import splitting_map
from linvariant.tree import mat_mul

import order_reference
import splitting_reference


# ----------------------------------------------------------------------
# references: the Fraction Fincke-Pohst, the sympy Hermite forms and the
# integer kernel that the integer versions and the dual-lattice congruence
# lattice replaced, kept as the oracle they must equal, order included
# ----------------------------------------------------------------------


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
    """A rational r <= sqrt(x) with sqrt(x) < r + 1/denominator; -1 for x < 0."""
    if x < 0:
        return Fraction(-1)
    n, d = x.numerator, x.denominator
    return Fraction(isqrt(n * d), d)


def reference_enumerate_norm(G, target) -> list[tuple]:
    """All nonzero integer vectors c with c^T G c == target, by Fincke-Pohst
    on the rational LDL^T, with Q(x) = sum_i D[i] (x_i + s_i)^2 and
    s_i = sum_{j>i} L[j][i] x_j."""
    n = len(G)
    target = Fraction(target)
    if target < 0:
        return []
    L, D = _ldl(G)
    out = []
    x = [0] * n

    def rec(i, rem, shift_terms):
        s = shift_terms[i]
        r = _floor_sqrt_frac(rem / D[i]) + 1
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


def reference_hnf_basis(generators):
    den = 1
    for g in generators:
        for x in g:
            den = den * x.denominator // gcd(den, x.denominator)
    M = Matrix([[int(x * den) for x in g] for g in generators])
    H = hermite_normal_form(M.T).T
    rows = [[Fraction(H[i, j], den) for j in range(H.cols)] for i in range(H.rows)]
    return [r for r in rows if any(x != 0 for x in r)]


def reference_congruence_kernel(forms, modulus):
    """The projection to Z^n of the integer kernel of [F | modulus I], in
    sympy's Hermite form."""
    r = len(forms)
    n = len(forms[0])
    ext = [list(f) + [modulus if i == t else 0 for t in range(r)] for i, f in enumerate(forms)]
    projected = [k[:n] for k in integer_kernel(ext)]
    H = hermite_normal_form(Matrix(projected).T).T
    basis = [[int(H[i, j]) for j in range(H.cols)] for i in range(H.rows)]
    return [b for b in basis if any(x != 0 for x in b)]


def _integral(G, target):
    """A rational Gram matrix and target scaled by the lcm of the matrix's
    denominators, as integers."""
    den = lcm(*(Fraction(g).denominator for row in G for g in row))
    return [[int(g * den) for g in row] for row in G], den * target


def square_walk_symbols(bound_max):
    """The symbol search by square walk, for every discriminant at once: for
    each bound up to bound_max + 1, every (a, b) in the square
    -bound <= a, b <= -1 in row order, keeping those with
    max(-a, -b) = bound - 1.  Maps the ramified primes of each symbol found
    to the first (a, b) that has them."""
    first = {}
    for bound in range(2, bound_max + 2):
        for a in range(-1, -bound - 1, -1):
            for b in range(-1, -bound - 1, -1):
                if max(-a, -b) != bound - 1:
                    continue
                first.setdefault(tuple(quaternions.ramified_primes(a, b)),
                                 (a, b))
    return first


def admissible(disc: int) -> bool:
    """disc is squarefree with an odd number of prime factors."""
    fac = sympy.factorint(disc)
    return all(e == 1 for e in fac.values()) and len(fac) % 2 == 1


def rational_rows(order: Order):
    return [[Fraction(x, order.den) for x in row] for row in order.rows]


def _unit(m: int):
    return tuple(int(t == m) for t in range(4))


class TestQuatArithmetic:
    """Order.mul, conj, nrd and trd on coordinates: in the Lipschitz order
    Z<1, i, j, k> of (-1, -1) the coordinates are those on (1, i, j, k), and
    the maximal orders of discriminants 2, 5 and 30 have denominators 2, 4
    and 2."""

    def setup_method(self):
        self.lipschitz = Order(QuaternionAlgebra(-1, -1, 2),
                               [list(_unit(m)) for m in range(4)], 1)
        self.orders = [maximal_order(build_algebra(d)) for d in (2, 5, 30)]

    @staticmethod
    def _random(rng, n=5):
        return tuple(rng.randrange(-n, n + 1) for _ in range(4))

    def test_hamilton_relations(self):
        O = self.lipschitz
        one, i, j, k = (_unit(m) for m in range(4))
        neg = lambda x: tuple(-t for t in x)
        assert O.one == one
        assert O.mul(i, j) == k and O.mul(j, i) == neg(k)
        assert O.mul(i, i) == neg(one) and O.mul(k, k) == neg(one)
        assert O.mul(j, k) == i and O.mul(k, j) == neg(i)
        assert O.mul(k, i) == j and O.mul(i, k) == neg(j)

    def test_norm_multiplicative(self):
        rng = random.Random(1)
        for O in self.orders:
            for _ in range(30):
                x, y = self._random(rng, 9), self._random(rng, 9)
                assert O.nrd(O.mul(x, y)) == O.nrd(x) * O.nrd(y)

    def test_conj_antihomomorphism(self):
        rng = random.Random(2)
        for O in self.orders:
            for _ in range(20):
                x, y = self._random(rng), self._random(rng)
                assert O.conj(O.mul(x, y)) == O.mul(O.conj(y), O.conj(x))

    def test_char_equation(self):
        """x^2 - trd(x) x + nrd(x) = 0."""
        rng = random.Random(3)
        for O in [self.lipschitz] + self.orders:
            for _ in range(10):
                x = self._random(rng)
                lhs = [s - O.trd(x) * t + O.nrd(x) * o
                       for s, t, o in zip(O.mul(x, x), x, O.one)]
                assert lhs == [0] * 4

    def test_inverse(self):
        """x conj(x) = conj(x) x = nrd(x), so conj(x) / nrd(x) inverts x."""
        rng = random.Random(4)
        for O in self.orders:
            for _ in range(10):
                x = self._random(rng)
                n = tuple(O.nrd(x) * o for o in O.one)
                assert O.mul(x, O.conj(x)) == O.mul(O.conj(x), x) == n

    def test_table_is_the_algebra_product(self):
        """On (1, i, j, k), den x is element(x): so qmul of two elements is
        den times the element of their product, and the Gram form is twice
        the norm form."""
        rng = random.Random(5)
        for O in self.orders:
            a, b = O.algebra.a, O.algebra.b
            for _ in range(20):
                x, y = self._random(rng), self._random(rng)
                assert qmul((a, b), O.element(x), O.element(y)) == \
                    [O.den * t for t in O.element(O.mul(x, y))]
                v = O.element(x)
                assert (v[0]**2 - a * v[1]**2 - b * v[2]**2 + a * b * v[3]**2
                        == O.den**2 * O.nrd(x))
                assert 2 * v[0] == O.den * O.trd(x)


# the least strong pseudoprimes to the first 4, 9 and 12 prime bases (psi_4,
# psi_9 and psi_12 of Sorenson-Webster; psi_9 also passes bases 29 and 31)
STRONG_PSEUDOPRIMES = [3215031751, 3825123056546413051, 318665857834031151167461]


class TestPrimes:
    """isprime and factorint against sympy."""

    def test_isprime_below_1e5(self):
        assert [n for n in range(-3, 10**5) if isprime(n)] == \
            list(sympy.primerange(2, 10**5))

    @pytest.mark.parametrize("n", STRONG_PSEUDOPRIMES)
    def test_strong_pseudoprimes(self, n):
        assert not sympy.isprime(n)
        assert not isprime(n)

    @pytest.mark.parametrize("e", [61, 81])
    def test_near_powers_of_two(self, e):
        """Every n within 200 of 2^61 (2^61 - 1 is a Mersenne prime) and of
        2^81 < PRIME_BOUND, composite or prime, agrees with sympy."""
        window = range(2**e - 200, 2**e + 200)
        found = [n for n in window if isprime(n)]
        assert found == [n for n in window if sympy.isprime(n)]
        assert found

    def test_past_the_primality_range(self):
        """PRIME_BOUND is a strong pseudoprime to all 13 bases, so the test
        refuses it and everything above, such as the Mersenne prime
        2^89 - 1, rather than answer wrongly."""
        assert not isprime(PRIME_BOUND - 1)  # even
        assert not sympy.isprime(PRIME_BOUND)
        for n in (PRIME_BOUND, 2**89 - 1, 2**89 + 1):
            with pytest.raises(ValueError):
                isprime(n)

    @settings(max_examples=80, deadline=None)
    @given(n=st.integers(1, FACTOR_BOUND) | st.integers(1, 10**6))
    def test_factorint_equals_sympy(self, n):
        fac = factorint(n)
        assert fac == sympy.factorint(n)
        assert list(fac) == sorted(fac)
        assert primefactors(n) == primefactors(-n) == sympy.primefactors(n)

    def test_factorint_products_of_large_primes(self):
        """Semiprimes near the bound, where trial division runs longest."""
        q = sympy.prevprime(10**6)
        for n in (q * q, q * sympy.prevprime(q), sympy.prevprime(FACTOR_BOUND)):
            assert factorint(n) == sympy.factorint(n)

    def test_past_the_factoring_bound(self):
        with pytest.raises(ValueError):
            factorint(FACTOR_BOUND + 1)


class TestHilbertSymbols:
    def test_known_values(self):
        # [TRIVIAL] (-1,-1) ramifies exactly at 2 and infinity
        assert hilbert_symbol(-1, -1, 2) == -1
        assert hilbert_symbol(-1, -1, 3) == 1
        assert hilbert_symbol(-1, -1, "inf") == -1

    def test_symmetry_and_bilinearity(self):
        rng = random.Random(3)
        vals = [-7, -5, -3, -2, -1, 1, 2, 3, 5, 6, 7, 10]
        for p in (2, 3, 5, 7, "inf"):
            for _ in range(40):
                a, b = rng.choice(vals), rng.choice(vals)
                c = rng.choice(vals)
                assert hilbert_symbol(a, b, p) == hilbert_symbol(b, a, p)
                assert hilbert_symbol(a, b * c, p) == hilbert_symbol(a, b, p) * hilbert_symbol(a, c, p)

    def test_product_formula(self):
        rng = random.Random(4)
        for _ in range(25):
            a = rng.choice([-10, -7, -6, -5, -3, -2, -1, 2, 3, 5, 7, 11])
            b = rng.choice([-10, -7, -6, -5, -3, -2, -1, 2, 3, 5, 7, 11])
            places = set([2, "inf"])
            for x in (a, b):
                n = abs(x)
                d = 2
                while d * d <= n:
                    if n % d == 0:
                        places.add(d)
                        while n % d == 0:
                            n //= d
                    d += 1
                if n > 1:
                    places.add(n)
            prod = 1
            for q in places:
                prod *= hilbert_symbol(a, b, q)
            assert prod == 1

    @pytest.mark.parametrize("disc", [2, 3, 5, 7, 11, 13])
    def test_build_algebra(self, disc):
        """The symbols of the small discriminants, on which the committed
        rows were computed."""
        symbol = {2: (-1, -1), 3: (-1, -3), 5: (-2, -5), 7: (-1, -7),
                  11: (-1, -11), 13: (-2, -13)}[disc]
        alg = build_algebra(disc)
        assert (alg.a, alg.b) == symbol
        assert ramified_primes(alg.a, alg.b) == [disc]
        assert alg.a < 0 and alg.b < 0

    def test_build_algebra_large_prime(self):
        """The walk visits on edge m only the multiples of disc / gcd(disc,
        m), so a prime disc reaches its symbol after disc edges of at most
        one pair each (the whole walk took about two minutes for 10007)."""
        start = time.monotonic()
        alg = build_algebra(10007)
        assert (alg.a, alg.b) == (-1, -10007)
        assert time.monotonic() - start < 1

    def test_build_algebra_edge_walk_equals_square_walk(self, monkeypatch):
        """The edge walk of build_algebra finds the symbol the square walk
        finds, for every admissible disc up to 300.  ramified_primes is
        memoized, so that each pair is classified once across the walks."""
        cached = functools.lru_cache(maxsize=None)(ramified_primes)
        monkeypatch.setattr(quaternions, "ramified_primes", cached)
        first = square_walk_symbols(300)
        count = 0
        for disc in range(2, 301):
            fac = sympy.factorint(disc)
            if any(e > 1 for e in fac.values()) or len(fac) % 2 == 0:
                continue
            alg = build_algebra(disc)
            assert (alg.a, alg.b) == first[tuple(sorted(fac))], disc
            count += 1
        assert count == 94

    def test_build_algebra_classifies_only_candidates(self, monkeypatch):
        """A pair (a, b) is classified only when the odd primes of disc all
        divide a b: for disc 1019 that is first the case, among the million
        pairs of the edges before it, for (-1, -1019), its symbol."""
        calls = []

        def counted(a, b):
            calls.append((a, b))
            return ramified_primes(a, b)

        monkeypatch.setattr(quaternions, "ramified_primes", counted)
        alg = build_algebra(1019)
        assert (alg.a, alg.b) == (-1, -1019)
        assert calls == [(-1, -1019)]


class TestLattices:
    def test_integer_kernel(self):
        ker = integer_kernel([[2, 4, 6]])
        assert len(ker) == 2
        for v in ker:
            assert 2 * v[0] + 4 * v[1] + 6 * v[2] == 0

    def test_integer_kernel_full_rank(self):
        ker = integer_kernel([[1, 0], [0, 1]])
        assert ker == []

    def test_congruence_kernel(self):
        K = congruence_kernel([[1, 2, 3, 4]], 9)
        # index of the lattice must be 9, and each basis vector satisfies it
        M = Matrix([list(b) for b in K])
        assert abs(M.det()) == 9
        for b in K:
            assert (b[0] + 2 * b[1] + 3 * b[2] + 4 * b[3]) % 9 == 0

    def test_hnf_basis(self):
        # the lattice of (x, y) with x + y even
        assert hermite_rows([[2, 0], [3, 1], [1, -1]]) == [[2, 0], [1, 1]]
        assert hermite_rows([[2, 0], [4, 0], [0, 0]]) == [[2, 0]]

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_congruence_kernel_equals_reference(self, data):
        """1-4 forms modulo q^e, e from 0 (the domain's searches meet
        modulus 1) up to 6 as in eichler_order: the same Hermite basis, row
        for row; all-zero forms give Z^n."""
        p = data.draw(st.sampled_from([2, 3, 5, 7, 13]))
        s = data.draw(st.integers(0, 6))
        n = data.draw(st.integers(2, 4))
        r = data.draw(st.integers(1, 4))
        entry = st.integers(0, p**s - 1) | st.just(0)
        forms = data.draw(st.lists(st.lists(entry, min_size=n, max_size=n),
                                   min_size=r, max_size=r))
        K = congruence_kernel(forms, p**s)
        assert K == reference_congruence_kernel(forms, p**s)
        if not any(any(f) for f in forms):
            assert K == [[int(i == j) for j in range(n)] for i in range(n)]

    @pytest.mark.parametrize("n", [1, 2, 4])
    @pytest.mark.parametrize("modulus", [1, 2, 3**6, 13**6])
    def test_congruence_kernel_of_zero_forms(self, n, modulus):
        assert congruence_kernel([[0] * n] * 2, modulus) == \
            [[int(i == j) for j in range(n)] for i in range(n)]

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_adjugate_cofactors(self, data):
        """M adj(M) = adj(M) M = det(M) I on 4x4 integer matrices with
        entries up to 2^100 in size, half of them singular (the last row a
        combination of two others), and det equals sympy's."""
        entry = st.integers(-2**100, 2**100) | st.integers(-3, 3)
        M = data.draw(st.lists(st.lists(entry, min_size=4, max_size=4),
                               min_size=4, max_size=4))
        if data.draw(st.booleans()):
            a, b = data.draw(st.integers(-5, 5)), data.draw(st.integers(-5, 5))
            M[3] = [a * x + b * y for x, y in zip(M[0], M[1])]
        A, d = _adjugate(M), det(M)
        scalar = [[d * (i == j) for j in range(4)] for i in range(4)]
        assert [[sum(M[i][t] * A[t][j] for t in range(4)) for j in range(4)]
                for i in range(4)] == scalar
        assert [[sum(A[i][t] * M[t][j] for t in range(4)) for j in range(4)]
                for i in range(4)] == scalar
        assert d == Matrix(M).det()

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_hnf_basis_equals_reference(self, data):
        """Rational generator sets of any rank, zero rows included, scaled to
        integers by the lcm of their denominators as the orders are: the
        Hermite rows over that denominator are sympy's Hermite basis."""
        n = data.draw(st.integers(1, 4))
        frac = st.builds(Fraction, st.integers(-30, 30), st.integers(1, 6))
        gens = data.draw(st.lists(st.lists(frac, min_size=n, max_size=n),
                                  min_size=1, max_size=6))
        den = lcm(*(x.denominator for g in gens for x in g))
        H = hermite_rows([[int(x * den) for x in g] for g in gens])
        assert [[Fraction(x, den) for x in row] for row in H] == \
            reference_hnf_basis(gens)


class TestOrders:
    @pytest.mark.parametrize("disc", [2, 3, 5, 7, 11, 13])
    def test_maximal_order(self, disc):
        """The reduced discriminant is disc, the lattice holds 1, the table
        is integral and trd, nrd integral on the basis."""
        alg = build_algebra(disc)
        O = maximal_order(alg)
        assert O.reduced_discriminant() == disc
        assert O.one is not None
        assert all(t is not None for row in O.table for t in row)
        for row in O.rows:
            assert 2 * row[0] % O.den == 0
            assert sum(f * x * x for f, x in zip(
                (1, -alg.a, -alg.b, alg.a * alg.b), row)) % O.den**2 == 0
        assert gcd(O.den, *(x for row in O.rows for x in row)) == 1

    def test_hurwitz_order(self):
        # [PAPER-ADJACENT KNOWN FACT] the maximal order of (-1,-1) contains
        # (1+i+j+k)/2
        O = maximal_order(build_algebra(2))
        assert O._solve((1, 1, 1, 1), 2) is not None
        assert O._solve((1, 1, 1, 0), 2) is None

    def test_eichler_order(self):
        alg = build_algebra(2)
        O = maximal_order(alg)
        E = eichler_order(alg, O, 3)
        assert E.reduced_discriminant() == 6
        assert E.level == 3
        assert all(t is not None for row in E.table for t in row)
        for row in E.rows:
            assert O._solve(row, E.den) is not None

    @pytest.mark.parametrize("disc,level", [(2, 1), (2, 3), (3, 5), (7, 1)])
    @settings(max_examples=40, deadline=None)
    @given(num=st.lists(st.integers(-50, 50), min_size=4, max_size=4),
           d=st.integers(1, 12))
    def test_coordinates_invert_element(self, disc, level, num, d):
        """The coordinates of element(num) / d, with den x = element(x), are
        num / d: solved exactly, and None unless they are integers."""
        alg = build_algebra(disc)
        O = eichler_order(alg, maximal_order(alg), level)
        got = O._solve(O.element(num), d * O.den)
        if all(c % d == 0 for c in num):
            assert got == tuple(c // d for c in num)
        else:
            assert got is None

    def test_class_number_one_unit_counts(self):
        # [DERIVED] norm-1 element counts of the constructed maximal orders,
        # frozen from an independent brute-force coordinate search (range +-4):
        # disc 2 -> 24 (Hurwitz units), 3 -> 12, 5 -> 6, 7 -> 4, 13 -> 2
        expect = {2: 24, 3: 12, 5: 6, 7: 4, 13: 2}
        for disc, count in expect.items():
            alg = build_algebra(disc)
            O = maximal_order(alg)
            sols = enumerate_norm(O.gram, 2)  # the Gram form is 2 nrd
            assert len(sols) == count, disc

    @pytest.mark.parametrize("disc", [d for d in range(2, 150) if admissible(d)])
    def test_equal_fraction_reference(self, disc):
        """The maximal order, and its Eichler orders of the levels 3, 5, 9,
        15 and 25 coprime to disc, have the rational basis of the Fraction
        construction of `order_reference`."""
        alg = build_algebra(disc)
        O, ref = maximal_order(alg), order_reference.maximal_order(alg)
        assert rational_rows(O) == [list(b.co) for b in ref.basis]
        for level in (3, 5, 9, 15, 25):
            if gcd(level, disc) == 1:
                E = eichler_order(alg, O, level)
                Eref = order_reference.eichler_order(alg, ref, level)
                assert rational_rows(E) == [list(b.co) for b in Eref.basis]


class TestEnumerate:
    def test_sum_of_four_squares(self):
        # [DERIVED] r_4(n) = 8 sigma(n) for odd n (Jacobi): n=5 -> 48
        G = [[Fraction(1 if i == j else 0) for j in range(4)] for i in range(4)]
        sols = enumerate_norm(*_integral(G, 5))
        assert len(sols) == 48

    def test_exactness(self):
        G = [[Fraction(2), Fraction(1)], [Fraction(1), Fraction(3)]]
        for t in range(1, 30):
            sols = enumerate_norm(*_integral(G, t))
            for c in sols:
                q = 2 * c[0] ** 2 + 2 * c[0] * c[1] + 3 * c[1] ** 2
                assert q == t
            # brute-force cross-check
            brute = [
                (x, y)
                for x in range(-10, 11)
                for y in range(-10, 11)
                if (x, y) != (0, 0) and 2 * x * x + 2 * x * y + 3 * y * y == t
            ]
            assert sorted(sols) == sorted(brute)

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_equals_fraction_reference(self, data):
        """Positive definite integer Gram matrices M M^T + diag, of size 2-4:
        the same vectors in the same order as the rational Fincke-Pohst.
        Doubling the form leaves odd targets without solutions."""
        n = data.draw(st.integers(2, 4))
        M = data.draw(st.lists(st.lists(st.integers(-3, 3), min_size=n, max_size=n),
                               min_size=n, max_size=n))
        diag = data.draw(st.lists(st.integers(1, 4), min_size=n, max_size=n))
        scale = data.draw(st.sampled_from([1, 2]))
        G = [[scale * (sum(a * b for a, b in zip(M[i], M[j])) + (diag[i] if i == j else 0))
              for j in range(n)] for i in range(n)]
        target = data.draw(st.integers(-2, 40))
        sols = enumerate_norm(G, target)
        assert sols == reference_enumerate_norm(G, target)
        if scale == 2 and target % 2:
            assert sols == []

    def test_leaves_no_reference_cycle(self):
        """One call frees all it made without the cycle collector: its
        recursive closure does not keep itself alive."""
        G = maximal_order(build_algebra(13)).gram
        gc.collect()
        gc.disable()
        try:
            assert len(enumerate_norm(G, 4)) > 0
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestSplitting:
    @pytest.mark.parametrize("disc,p", [(2, 3), (3, 2), (5, 2), (7, 2), (2, 5)])
    def test_splitting_properties(self, disc, p):
        """spl.image on random integer coordinates: a ring homomorphism
        mod p^20 (sums, products, the unit) that agrees with the reduced
        trace and norm."""
        alg = build_algebra(disc)
        O = maximal_order(alg)
        spl = splitting_map(O, p, 20)
        mod = p**20
        assert spl.image(O.one) == (1, 0, 0, 1)
        rng = random.Random(5)
        for _ in range(15):
            cx = [rng.randrange(-4, 5) for _ in range(4)]
            cy = [rng.randrange(-4, 5) for _ in range(4)]
            mx, my = spl.image(cx), spl.image(cy)
            assert all(0 <= t < mod for t in mx)
            # memoized per coordinate tuple: the direct formula, every call
            assert mx == spl.image(tuple(cx)) == tuple(
                sum(c * im[t] for c, im in zip(cx, spl.images)) % mod
                for t in range(4))
            mxy = spl.image(O.mul(cx, cy))
            assert all((a - b) % mod == 0
                       for a, b in zip(mat_mul(mx, my), mxy))
            msum = spl.image([a + b for a, b in zip(cx, cy)])
            assert msum == tuple((a + b) % mod for a, b in zip(mx, my))
            # trace and determinant
            assert (mx[0] + mx[3] - O.trd(cx)) % mod == 0
            assert (mx[0] * mx[3] - mx[1] * mx[2] - O.nrd(cx)) % mod == 0

    def test_variants_differ_but_are_conjugate_compatible(self):
        alg = build_algebra(3)
        O = maximal_order(alg)
        s0 = splitting_map(O, 2, 16)
        s1 = splitting_map(O, 2, 16, variant=1)
        # both are valid splittings; traces and dets agree even if images differ
        for m0, m1 in zip(s0.images, s1.images):
            mod = 2**16
            assert (m0[0] + m0[3] - m1[0] - m1[3]) % mod == 0


def splitting_outcome(split, order, p, prec, variant):
    """The images of a splitting, or RuntimeError when no candidate gives
    one."""
    try:
        return split(order, p, prec, variant).images
    except RuntimeError:
        return RuntimeError


class TestSplittingReference:
    """`splitting_map` on integer residues against the PadicNumber
    construction of `splitting_reference`: the same images, so the same
    candidate, companion and lattice pivots, or no splitting from either.
    The reference checks multiplicativity on b_1 b_2 alone, so
    equal images also show that the check on all 16 basis products rejects
    no splitting the reference returns."""

    DISCS = [d for d in range(2, 79) if admissible(d)]  # one or three primes

    def assert_same(self, order, p, precs, variants=range(3)):
        for prec, variant in itertools.product(precs, variants):
            assert splitting_outcome(splitting_map, order, p, prec, variant) \
                == splitting_outcome(splitting_reference.splitting_map, order,
                                     p, prec, variant), (p, prec, variant)

    @pytest.mark.parametrize("disc", DISCS)
    def test_maximal_order(self, disc):
        O = maximal_order(build_algebra(disc))
        for p in (2, 3, 5, 7, 11, 13):
            if disc % p:
                self.assert_same(O, p, (20, 40, 60, 100))

    @pytest.mark.parametrize("disc", DISCS)
    def test_eichler_orders(self, disc):
        """Each level q^e is cut out by the splitting of the maximal order at
        q to p^(e + 6); the Eichler order is then split at the least prime
        prime to disc q."""
        alg = build_algebra(disc)
        O = maximal_order(alg)
        for q, e in ((3, 1), (2, 2), (5, 1), (7, 1), (3, 2), (5, 2)):
            if disc % q:
                self.assert_same(O, q, (e + 6,))
                E = eichler_order(alg, O, q**e)
                p = next(p for p in (2, 3, 5, 7, 11) if disc * q % p)
                self.assert_same(E, p, (30, 60))
