"""Tests for quaternion algebras, orders, lattices and norm enumeration."""

import random
from fractions import Fraction

import pytest

from linvariant.quaternions import (
    Order,
    Quat,
    QuaternionAlgebra,
    build_algebra,
    congruence_kernel,
    eichler_order,
    enumerate_norm,
    hilbert_symbol,
    hnf_basis,
    integer_kernel,
    maximal_order,
    ramified_primes,
)
from linvariant.splitting import splitting_map


class TestQuatArithmetic:
    def setup_method(self):
        self.alg = QuaternionAlgebra(-1, -1, 2)
        self.one, self.i, self.j, self.k = self.alg.gens()

    def test_hamilton_relations(self):
        i, j, k = self.i, self.j, self.k
        assert i * j == k
        assert j * i == -k
        assert i * i == -self.one
        assert k * k == -self.one
        assert j * k == i and k * j == -i
        assert k * i == j and i * k == -j

    def test_norm_multiplicative(self):
        rng = random.Random(1)
        for _ in range(30):
            x = self.alg.quat([Fraction(rng.randrange(-9, 10), rng.randrange(1, 5)) for _ in range(4)])
            y = self.alg.quat([Fraction(rng.randrange(-9, 10), rng.randrange(1, 5)) for _ in range(4)])
            assert (x * y).nrd() == x.nrd() * y.nrd()

    def test_conj_antihomomorphism(self):
        rng = random.Random(2)
        for _ in range(20):
            x = self.alg.quat([rng.randrange(-5, 6) for _ in range(4)])
            y = self.alg.quat([rng.randrange(-5, 6) for _ in range(4)])
            assert (x * y).conj() == y.conj() * x.conj()

    def test_char_equation(self):
        x = self.alg.quat([3, 1, -2, 5])
        lhs = x * x - x.scale(x.trd()) + self.one.scale(x.nrd())
        assert lhs.is_zero()

    def test_inverse(self):
        x = self.alg.quat([2, 1, 1, 0])
        assert x * x.inverse() == self.one


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
        alg = build_algebra(disc)
        assert ramified_primes(alg.a, alg.b) == [disc]
        assert alg.a < 0 and alg.b < 0


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
        from sympy import Matrix

        M = Matrix([list(b) for b in K])
        assert abs(M.det()) == 9
        for b in K:
            assert (b[0] + 2 * b[1] + 3 * b[2] + 4 * b[3]) % 9 == 0

    def test_hnf_basis(self):
        rows = [[Fraction(2), Fraction(0)], [Fraction(3), Fraction(1)], [Fraction(1), Fraction(-1)]]
        basis = hnf_basis(rows)
        assert len(basis) == 2


class TestOrders:
    @pytest.mark.parametrize("disc", [2, 3, 5, 7, 11, 13])
    def test_maximal_order(self, disc):
        alg = build_algebra(disc)
        O = maximal_order(alg)
        assert O.reduced_discriminant() == disc
        assert O.contains(alg.one())
        for bi in O.basis:
            assert Fraction(bi.trd()).denominator == 1
            assert Fraction(bi.nrd()).denominator == 1
            for bj in O.basis:
                assert O.contains(bi * bj)

    def test_hurwitz_order(self):
        # [PAPER-ADJACENT KNOWN FACT] the maximal order of (-1,-1) contains
        # (1+i+j+k)/2
        alg = build_algebra(2)
        O = maximal_order(alg)
        x = alg.quat([Fraction(1, 2)] * 4)
        assert O.contains(x)

    def test_eichler_order(self):
        alg = build_algebra(2)
        O = maximal_order(alg)
        E = eichler_order(alg, O, 3)
        assert E.reduced_discriminant() == 6
        for bi in E.basis:
            for bj in E.basis:
                assert E.contains(bi * bj)
        for b in E.basis:
            assert O.contains(b)

    def test_class_number_one_unit_counts(self):
        # [DERIVED] norm-1 element counts of the constructed maximal orders,
        # frozen from an independent brute-force coordinate search (range +-4):
        # disc 2 -> 24 (Hurwitz units), 3 -> 12, 5 -> 6, 7 -> 4, 13 -> 2
        expect = {2: 24, 3: 12, 5: 6, 7: 4, 13: 2}
        for disc, count in expect.items():
            alg = build_algebra(disc)
            O = maximal_order(alg)
            sols = enumerate_norm(O.gram(), 1)
            assert len(sols) == count, disc


class TestEnumerate:
    def test_sum_of_four_squares(self):
        # [DERIVED] r_4(n) = 8 sigma(n) for odd n (Jacobi): n=5 -> 48
        G = [[Fraction(1 if i == j else 0) for j in range(4)] for i in range(4)]
        sols = enumerate_norm(G, 5)
        assert len(sols) == 48

    def test_exactness(self):
        G = [[Fraction(2), Fraction(1)], [Fraction(1), Fraction(3)]]
        for t in range(1, 30):
            sols = enumerate_norm(G, t)
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


def _apply_int(spl, x):
    """iota(x) mod p^prec for x with p-integral coordinates."""
    m = spl.apply(x)
    assert all(v.denominator == 1 for v in m)
    return tuple(int(v) for v in m)


class TestSplitting:
    @pytest.mark.parametrize("disc,p", [(2, 3), (3, 2), (5, 2), (7, 2), (2, 5)])
    def test_splitting_properties(self, disc, p):
        alg = build_algebra(disc)
        O = maximal_order(alg)
        spl = splitting_map(O, p, 20)
        mod = p**20
        # ring homomorphism on random order elements
        rng = random.Random(5)
        for _ in range(15):
            x = O.element([rng.randrange(-4, 5) for _ in range(4)])
            y = O.element([rng.randrange(-4, 5) for _ in range(4)])
            mx, my = _apply_int(spl, x), _apply_int(spl, y)
            mxy = _apply_int(spl, x * y)
            prod = (
                mx[0] * my[0] + mx[1] * my[2],
                mx[0] * my[1] + mx[1] * my[3],
                mx[2] * my[0] + mx[3] * my[2],
                mx[2] * my[1] + mx[3] * my[3],
            )
            assert all((a - b) % mod == 0 for a, b in zip(prod, mxy))
            # trace and determinant
            assert (mx[0] + mx[3] - int(Fraction(x.trd()))) % mod == 0
            assert (mx[0] * mx[3] - mx[1] * mx[2] - int(Fraction(x.nrd()))) % mod == 0

    def test_variants_differ_but_are_conjugate_compatible(self):
        alg = build_algebra(3)
        O = maximal_order(alg)
        s0 = splitting_map(O, 2, 16)
        s1 = splitting_map(O, 2, 16, variant=1)
        # both are valid splittings; traces and dets agree even if images differ
        for b, m0, m1 in zip(O.basis, s0.images, s1.images):
            mod = 2**16
            assert (m0[0] + m0[3] - m1[0] - m1[3]) % mod == 0

    def test_rlp_elements(self):
        alg = build_algebra(2)
        O = maximal_order(alg)
        spl = splitting_map(O, 3, 12)
        x = O.element([1, 1, 0, 0]).scale(Fraction(1, 3))
        m = spl.apply(x)
        assert any(v.denominator == 3 for v in m)
