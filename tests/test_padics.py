"""Tests for capped-precision p-adic arithmetic."""

import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from linvariant.budget import Budget, BudgetExceeded
from linvariant.integration import _halved_trace
from linvariant.lifting import sigma_series_matrix
from linvariant.padics import (
    PadicNumber,
    PrecisionError,
    UnramifiedField,
    charpoly,
    hensel_root,
    inv_mod,
    iwasawa_log,
    newton_slopes,
    solve_linear,
    solve_padics,
    sqrt_mod_ppow,
    val_cap,
    val_int,
)

from field_reference import Field
from solve_reference import solve_linear as reference_solve_linear


def Q3(x, prec=12):
    return PadicNumber.from_fraction(Fraction(x), 3, prec)


class TestBasicArithmetic:
    def test_int_roundtrip(self):
        x = PadicNumber.from_int(45, 3, 10)
        assert x.val == 2 and x.unit == 5
        assert x.residue(10) == 45

    def test_fraction(self):
        x = Q3(Fraction(1, 3))
        assert x.val == -1 and x.unit == 1

    def test_add_sub_mul_div_against_rationals(self):
        vals = [Fraction(2, 5), Fraction(-7, 3), Fraction(9), Fraction(1, 27)]
        for a in vals:
            for b in vals:
                assert (Q3(a) + Q3(b)).eq_at_prec(Q3(a + b, 8))
                assert (Q3(a) - Q3(b)).eq_at_prec(Q3(a - b, 8))
                assert (Q3(a) * Q3(b)).eq_at_prec(Q3(a * b, 8))
                if b != 0:
                    assert (Q3(a) / Q3(b)).eq_at_prec(Q3(a / b, 8))

    def test_cancellation_loses_precision(self):
        a = Q3(1, 10)
        b = Q3(1 + 3**7, 10)
        d = a - b
        assert d.val == 7 and d.prec == 10

    def test_zero_at_precision(self):
        z = Q3(3**12, 10)  # valuation beyond precision
        assert z.is_zero()
        with pytest.raises(PrecisionError):
            z.valuation()

    def test_mul_precision_rule(self):
        # (u + O(p^a)) * (v p^2 + O(p^b)): relative precision is the min
        x = PadicNumber(3, 0, 5, 7)   # rel 7
        y = PadicNumber(3, 2, 4, 6)   # rel 4
        z = x * y
        assert z.val == 2 and z.prec == 6

    @settings(max_examples=200, deadline=None)
    @given(p=st.sampled_from([2, 3, 5]), val=st.integers(-20, 20),
           unit=st.integers(0, 10**30), rel=st.integers(-5, 40),
           n=st.integers(-10**30, 10**30))
    def test_mul_by_int_unit(self, p, val, unit, rel, n):
        """Multiplying by an integer p-unit gives what multiplying by its
        coercion gives, zero and negative valuations included."""
        if n % p == 0:
            n += 1
        x = PadicNumber(p, val, unit, val + rel)
        y = x * PadicNumber.from_fraction(n, p, x.prec - min(x.val, 0) + 64)
        for z in (x * n, n * x):
            assert (z.val, z.unit, z.prec) == (y.val, y.unit, y.prec)

    def test_expansion_str(self):
        x = Q3(1 + 9, 5)
        assert x.expansion_str() == "1 + 3^2 + O(3^5)"

    def test_residue(self):
        assert Q3(14, 10).residue(3) == 14 % 27


def _division_val(n, p):
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


class TestIntHelpers:
    def test_val_int(self):
        assert val_int(54, 3) == 3 and val_int(7, 3) == 0

    @settings(max_examples=200, deadline=None)
    @given(p=st.sampled_from([2, 3, 5]), n=st.integers(-10**40, 10**40),
           shift=st.integers(0, 80), cap=st.integers(0, 100),
           prec=st.integers(1, 60))
    def test_valuations_match_division_loop(self, p, n, shift, cap, prec):
        """val_int, val_cap and the normalisation of PadicNumber
        agree with repeated division, negative n included."""
        n *= p**shift
        if n == 0:
            with pytest.raises(ValueError):
                val_int(n, p)
            assert val_cap(n, p, cap) == cap
            return
        v = _division_val(n, p)
        assert val_int(n, p) == v
        assert val_cap(n, p, cap) == min(v, cap)
        x = PadicNumber(p, 0, n, prec)
        if v < prec:
            assert (x.val, x.unit) == (v, n // p**v % p ** (prec - v))
        else:
            assert x.is_zero() and x.val == prec

    def test_inv_mod(self):
        assert inv_mod(5, 81) * 5 % 81 == 1

    @pytest.mark.parametrize("p,prec", [(3, 10), (7, 8), (2, 12)])
    def test_sqrt_mod(self, p, prec):
        u = 1 if p == 2 else 4
        if p == 2:
            u = 17  # 1 mod 8
        r = sqrt_mod_ppow(u, p, prec)
        assert (r * r - u) % p**prec == 0

    def test_sqrt_random(self):
        for a in range(1, 40):
            if a % 3:
                r = sqrt_mod_ppow(a * a % 3**9, 3, 9)
                assert (r * r - a * a) % 3**9 == 0

    @settings(max_examples=300, deadline=None)
    @given(u=st.integers(-2**400, 2**400).map(lambda t: 8 * t + 1),
           prec=st.integers(1, 300))
    def test_sqrt_2adic_equals_bit_loop(self, u, prec):
        """The 2-adic Newton lift returns the root that a loop fixing one
        bit per step returns: 1 for prec <= 3, else the root r = 1 mod 4
        with 0 < r < 2^(prec-1)."""
        m = 2**prec
        r = 1
        for k in range(3, prec):  # r^2 = u mod 2^(k+1)
            if (r * r - u) % (1 << (k + 1)) != 0:
                r += 1 << (k - 1)
        assert sqrt_mod_ppow(u, 2, prec) == r % m

    def test_sqrt_2adic_high_precision(self):
        """Newton steps double the digits: 20,000 bits at once, where the
        bit loop took several seconds."""
        u = 8 * random.Random(6).getrandbits(20000) + 1
        r = sqrt_mod_ppow(u, 2, 20000)
        assert (r * r - u) % 2**20000 == 0 and r % 4 == 1 and 0 < r < 2**19999


class TestUnramified:
    """The field-element reference of `field_reference`."""

    def test_norm_trace_conj(self):
        F = Field(3, 12)
        x = F.element(2, 5)
        n = x.norm()
        t = x.trace()
        # x satisfies y^2 - t y + n = 0
        lhs = x * x - x * t + n
        assert lhs.is_zero()

    def test_inverse(self):
        F = Field(2, 12)
        x = F.element(3, 7)
        assert (x * x.inverse() - 1).is_zero()

    def test_valuation(self):
        F = Field(3, 12)
        assert F.element(9, 27).valuation() == 2
        assert F.element(0, 3).valuation() == 1

    def test_teichmuller_is_root_of_unity(self):
        F = Field(3, 8)
        t = F.teichmuller(1, 1)
        assert (t ** (3**2 - 1) - 1).is_zero()

    def test_galois_conjugate_is_frobenius_lift(self):
        F = Field(5, 8)
        t = F.teichmuller(2, 3)
        # on Teichmuller elements, conjugation = x -> x^p
        assert (t.conj() - t**5).is_zero()


def log_of(x):
    """iwasawa_log of an UnramifiedElement x = p^v u as an UnramifiedElement:
    the integer log of the unit pair of u, known to u's precision."""
    F, p = x.field, x.field.p
    v = x.valuation()
    u = x * PadicNumber(p, -v, 1, F.prec + 64)
    R = u.prec()
    s, (l0, l1), P = iwasawa_log(F, (u.a.residue(R), u.b.residue(R)), R)
    return F.element(PadicNumber(p, -s, l0, P), PadicNumber(p, -s, l1, P))


class TestIwasawaLog:
    def test_log_one_plus_p_oracle(self):
        # [DERIVED] oracle: log(1+3) = sum_{i>=1} (-1)^(i+1) 3^i / i, partial sum
        # to 60 terms (tail valuation >= i - log_3 i > 12), reduced mod 3^12.
        acc = Fraction(0)
        for i in range(1, 61):
            acc += Fraction((-1) ** (i + 1) * 3**i, i)
        F = Field(3, 12)
        got = log_of(F.element(1 + 3, 0))
        expect = PadicNumber.from_fraction(acc, 3, 12)
        assert got.a.eq_at_prec(expect.with_prec(10))
        assert got.b.is_zero()

    def test_log_of_p_is_zero(self):
        F = Field(3, 10)
        assert log_of(F.element(3, 0)).is_zero()
        assert log_of(F.element(9, 0)).is_zero()

    def test_log_of_teichmuller_is_zero(self):
        F = Field(3, 8)
        t = F.teichmuller(2, 1)
        assert log_of(t).is_zero()

    def test_log_is_homomorphism(self):
        F = Field(3, 10)
        x = F.element(2, 3)
        y = F.element(7, 9)
        lx, ly, lxy = log_of(x), log_of(y), log_of(x * y)
        d = lxy - lx - ly
        assert d.a.with_prec(8).is_zero() and d.b.with_prec(8).is_zero()

    def test_log_p2(self):
        F = Field(2, 12)
        x = F.element(5, 0)
        # log(5) = log(1+4) = 4 - 16/2 + 64/3 - ...
        acc = Fraction(0)
        for i in range(1, 80):
            acc += Fraction((-1) ** (i + 1) * 4**i, i)
        expect = PadicNumber.from_fraction(acc, 2, 12)
        assert log_of(x).a.eq_at_prec(expect.with_prec(9))

    @settings(max_examples=60, deadline=None)
    @given(p=st.sampled_from([2, 3, 5]), u0=st.integers(0, 10**30),
           u1=st.integers(0, 10**30), R=st.integers(1, 40),
           prec=st.integers(1, 40))
    def test_known_to_claimed_precision(self, p, u0, u1, R, prec):
        """The log of a unit known modulo p^R claims min(R, K.prec) digits,
        and the same unit in a field 40 digits finer confirms all of them:
        the series is long enough for the digits it claims."""
        if u0 % p == 0 and u1 % p == 0:
            u0 += 1
        s, lo, P = iwasawa_log(UnramifiedField(p, prec), (u0, u1), R)
        S, hi, P_hi = iwasawa_log(UnramifiedField(p, prec + 40), (u0, u1),
                                  R + 40)
        assert P == min(R, prec) and P_hi == P + 40
        for a, b in zip(lo, hi):
            assert (a * p ** (S - s) - b) % p ** (P + S) == 0

    def test_half_trace(self):
        x = PadicNumber.from_int(4, 3, 10)
        t, P = _halved_trace(UnramifiedField(3, 10), 0, (4, 10), (6, 10), 10)
        assert PadicNumber(3, 0, t, P).eq_at_prec(x)


class TestLinearAlgebra:
    def test_solve_exact(self):
        A = [[Q3(2), Q3(1)], [Q3(1), Q3(1)]]
        b = [Q3(5), Q3(3)]
        [x], ker = solve_padics(A, [b])
        assert x[0].eq_at_prec(Q3(2)) and x[1].eq_at_prec(Q3(1))
        assert ker == []

    def test_budget_checked_per_pivot(self):
        """An expired active budget stops a solve at its first pivot."""
        A = [[Q3(2), Q3(1)], [Q3(1), Q3(1)]]
        with Budget(seconds=0, start=time.monotonic() - 1).active():
            with pytest.raises(BudgetExceeded):
                solve_padics(A, [[Q3(5), Q3(3)]])

    def test_kernel(self):
        A = [[Q3(1), Q3(2), Q3(3)], [Q3(2), Q3(4), Q3(6)]]
        _, ker = solve_padics(A)
        assert len(ker) == 2
        for v in ker:
            for row in A:
                s = sum((row[i] * v[i] for i in range(3)), Q3(0))
                assert s.is_zero()

    def test_pivoting_preserves_precision(self):
        # the naive pivot 3 would cost a digit; max-unit pivoting avoids it
        A = [[Q3(3), Q3(1)], [Q3(1), Q3(0)]]
        b = [Q3(1), Q3(1)]
        [x], _ = solve_padics(A, [b])
        assert x[0].eq_at_prec(Q3(1)) and x[1].eq_at_prec(Q3(-2))
        assert min(xx.prec for xx in x) >= 11

    def test_inconsistent_raises(self):
        A = [[Q3(1)], [Q3(1)]]
        b = [Q3(0), Q3(1)]
        with pytest.raises(PrecisionError):
            solve_padics(A, [b])

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_integer_solve_equals_padic_reference(self, data):
        """The integer elimination gives every solution and kernel entry the
        (val, unit, prec) of the PadicNumber elimination it replaced, and
        raises PrecisionError on the same systems.  A = U V + N, with U V of
        rank at most r and N drawn from entries indistinguishable from
        zero, mixed precisions and negative valuations; the right-hand
        sides are in the image or random, so inconsistent systems and
        right-hand sides of lower valuation than the pivots come up."""
        p = data.draw(st.sampled_from([2, 3, 5]))

        def entry(v_lo=-4):
            v = data.draw(st.integers(v_lo, 6))
            if data.draw(st.integers(0, 6)) == 0:
                return PadicNumber.zero(p, v)
            return PadicNumber(p, v, data.draw(st.integers(1, p**10)),
                               v + data.draw(st.integers(-1, 12)))

        n, m = data.draw(st.integers(1, 5)), data.draw(st.integers(1, 5))
        r = data.draw(st.integers(0, min(n, m)))
        U = [[entry(0) for _ in range(r)] for _ in range(n)]
        V = [[entry() for _ in range(m)] for _ in range(r)]
        A = [[sum((U[i][t] * V[t][j] for t in range(r)),
                  PadicNumber.zero(p, 30)) for j in range(m)]
             for i in range(n)]
        if data.draw(st.booleans()):
            A = [[a + entry() for a in row] for row in A]
        bs = []
        for _ in range(data.draw(st.integers(0, 3))):
            if data.draw(st.booleans()):
                y = [entry(-8) for _ in range(m)]
                bs.append([sum((a * t for a, t in zip(row, y)),
                               PadicNumber.zero(p, 30)) for row in A])
            else:
                bs.append([entry(-8) for _ in range(n)])

        def digits(vecs):
            return [[(x.val, x.unit, x.prec) for x in v] for v in vecs]

        try:
            xs, ker = reference_solve_linear(A, bs)
        except PrecisionError:
            with pytest.raises(PrecisionError):
                solve_padics(A, bs)
            return
        got_xs, got_ker = solve_padics(A, bs)
        assert digits(got_xs) == digits(xs)
        assert digits(got_ker) == digits(ker)
        # a coarser scale than the least one changes no digit
        E = 12
        rows, rhs = ([([x.unit * p ** (x.val + E) if x.unit else 0 for x in v],
                       [x.prec + E for x in v]) for v in vecs] for vecs in (A, bs))
        assert solve_linear(p, E, rows, rhs) == (digits(xs), digits(ker))

    @given(st.data())
    @settings(max_examples=120, deadline=None)
    def test_sparse_solve_equals_padic_reference(self, data):
        """Block-sparse systems shaped like the harmonic basis rows, up to
        20 x 24: blocks of n rows, each touching one to three blocks of n
        columns, one per edge representative.  Every other entry is a zero,
        known to the precision of its row block or to fewer digits.  So
        many row updates meet a zero in the pivot column: those that lower
        no precision are skipped by the integer elimination, and those that
        meet a zero of lower precision are not.  The same digits, kernel
        and PrecisionError outcome as the reference."""
        p = data.draw(st.sampled_from([2, 3, 5]))
        n = data.draw(st.integers(1, 4))
        ncb = data.draw(st.integers(1, 24 // n))
        nrb = data.draw(st.integers(1, 20 // n))

        def zero(P):
            return PadicNumber.zero(p, P - data.draw(st.sampled_from(
                [0, 0, 0, 1, 3])))

        A = []
        for _ in range(nrb):
            P = data.draw(st.integers(3, 14))
            touched = data.draw(st.sets(st.integers(0, ncb - 1), min_size=1,
                                        max_size=min(3, ncb)))
            for _ in range(n):
                row = []
                for cb in range(ncb):
                    for _ in range(n):
                        if cb in touched and data.draw(st.integers(0, 3)):
                            v = data.draw(st.integers(-2, 4))
                            row.append(PadicNumber(p, v, data.draw(
                                st.integers(1, p**8)), v + P))
                        else:
                            row.append(zero(P))
                A.append(row)
        bs = []
        for _ in range(data.draw(st.integers(0, 2))):
            if data.draw(st.booleans()):
                y = [PadicNumber.from_fraction(Fraction(data.draw(
                    st.integers(-9, 9))), p, 30) for _ in range(ncb * n)]
                bs.append([sum((a * t for a, t in zip(row, y)),
                               PadicNumber.zero(p, 30)) for row in A])
            else:
                bs.append([zero(12) for _ in A])

        def digits(vecs):
            return [[(x.val, x.unit, x.prec) for x in v] for v in vecs]

        try:
            xs, ker = reference_solve_linear(A, bs)
        except PrecisionError:
            with pytest.raises(PrecisionError):
                solve_padics(A, bs)
            return
        got_xs, got_ker = solve_padics(A, bs)
        assert digits(got_xs) == digits(xs)
        assert digits(got_ker) == digits(ker)

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_solve_many_equals_solve_each(self, data):
        """One elimination for several right-hand sides gives each column
        the digits of its own solve, and raises exactly when one of them
        does; A = U V has rank at most r, so rank-deficient and
        inconsistent systems both come up."""
        ent = st.integers(-9, 9)
        n, m = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 4))
        r = data.draw(st.integers(1, min(n, m)))
        U = data.draw(st.lists(st.lists(ent, min_size=r, max_size=r),
                               min_size=n, max_size=n))
        V = data.draw(st.lists(st.lists(ent, min_size=m, max_size=m),
                               min_size=r, max_size=r))
        A = [[sum(U[i][t] * V[t][j] for t in range(r)) for j in range(m)]
             for i in range(n)]
        bs = []
        for _ in range(data.draw(st.integers(1, 3))):
            if data.draw(st.booleans()):
                y = data.draw(st.lists(ent, min_size=m, max_size=m))
                bs.append([sum(a * t for a, t in zip(row, y)) for row in A])
            else:
                bs.append(data.draw(st.lists(ent, min_size=n, max_size=n)))
        A = [[Q3(a) for a in row] for row in A]
        bs = [[Q3(b) for b in col] for col in bs]

        def digits(vec):
            return [(x.val, x.unit, x.prec) for x in vec]

        each = []
        try:
            for b in bs:
                [x], ker = solve_padics(A, [b])
                each.append(digits(x))
        except PrecisionError:
            with pytest.raises(PrecisionError):
                solve_padics(A, bs)
            return
        xs, ker_all = solve_padics(A, bs)
        assert [digits(x) for x in xs] == each
        assert [digits(v) for v in ker_all] == [digits(v) for v in ker]

    def test_charpoly_vs_hand(self):
        # [DERIVED] companion matrix of x^2 - 7x + 12
        A = [[Q3(0), Q3(-12)], [Q3(1), Q3(7)]]
        cp = charpoly(A)
        for got, want in zip(cp, [12, -7, 1]):
            assert got.eq_at_prec(Q3(want))

    def test_charpoly_3x3(self):
        # [DERIVED] det(xI - A) for A = [[1,2,0],[0,1,3],[4,0,1]]
        # = (x-1)^3 - 24 = x^3 - 3x^2 + 3x - 25
        rows = [[1, 2, 0], [0, 1, 3], [4, 0, 1]]
        A = [[Q3(e, 20) for e in r] for r in rows]
        cp = charpoly(A)
        for got, want in zip(cp, [-25, 3, -3, 1]):
            assert got.eq_at_prec(Q3(want, 20))

    @given(st.lists(st.integers(-9, 9), min_size=9, max_size=9))
    @settings(max_examples=40, deadline=None)
    def test_charpoly_trace_det(self, entries):
        A = [[Q3(entries[3 * i + j], 25) for j in range(3)] for i in range(3)]
        cp = charpoly(A)
        tr = entries[0] + entries[4] + entries[8]
        assert cp[2].eq_at_prec(Q3(-tr, 20))

    def test_newton_slopes(self):
        # x^2 - (1/3)x + 1: slopes of roots are -1 and 1
        coeffs = [Q3(1), Q3(Fraction(-1, 3)), Q3(1)]
        slopes = newton_slopes(coeffs)
        assert slopes == [(1, 1), (-1, 1)]

    def test_newton_slopes_multiplicity(self):
        # x^2 - 9: both roots have valuation 1
        coeffs = [Q3(-9), Q3(0), Q3(1)]
        slopes = newton_slopes(coeffs)
        assert slopes == [(1, 2)]

    def test_newton_slopes_precision_guard(self):
        coeffs = [PadicNumber.zero(3, 1), Q3(Fraction(1, 27)), Q3(1)]
        with pytest.raises(PrecisionError):
            newton_slopes(coeffs)

    def test_hensel_root(self):
        # f = (x - 3)(x - 1/3) = x^2 - (10/3)x + 1
        coeffs = [Q3(1, 14), Q3(Fraction(-10, 3), 14), Q3(1, 14)]
        r = hensel_root(coeffs, 3, 1, 10)
        assert r.eq_at_prec(Q3(3, 9))
        r2 = hensel_root(coeffs, 3, -1, 10)
        assert r2.eq_at_prec(Q3(Fraction(1, 3), 9))


def _substitute(f, sigma, k, order, p, W):
    """f |_k sigma mod p^W, truncated at degree `order`, for the polynomial
    with integer coefficients f (low to high)."""
    a, b, c, d = sigma
    T = sigma_series_matrix(sigma, k, order, p, W, len(f), a * d - b * c)
    return [sum(c * T[m][n] for m, c in enumerate(f)) % p**W
            for n in range(order + 1)]


class TestMobiusSubstitute:
    """The weight-k substitution of lifting.sigma_series_matrix:
    (f |_k sigma)(x) = det^(-k/2) (a - c x)^k f((d x - b)/(a - c x))."""

    def test_identity(self):
        out = _substitute([1, 2, 5], (1, 0, 0, 1), 4, 6, 3, 12)
        assert out == [1, 2, 5, 0, 0, 0, 0]

    def test_constant_weight0(self):
        assert _substitute([1], (1, 2, 3, 7), 0, 4, 3, 12) == [1, 0, 0, 0, 0]

    def test_monomial_oracle(self):
        # [DERIVED] sigma = [[1,1],[0,1]], k=2: x |-> (x-1) * 1^2 => f=x gives x-1
        out = _substitute([0, 1], (1, 1, 0, 1), 2, 4, 3, 12)
        assert out == [-1 % 3**12, 1, 0, 0, 0]

    def test_left_action_law(self):
        # g.(h.f) == (gh).f : the substitution is a left action
        import random

        rng = random.Random(7)
        for _ in range(10):
            g = (1 + 3 * rng.randrange(9), rng.randrange(9), 3 * rng.randrange(9), 1 + 3 * rng.randrange(9))
            h = (1 + 3 * rng.randrange(9), rng.randrange(9), 3 * rng.randrange(9), 1 + 3 * rng.randrange(9))
            gh = (
                g[0] * h[0] + g[1] * h[2],
                g[0] * h[1] + g[1] * h[3],
                g[2] * h[0] + g[3] * h[2],
                g[2] * h[1] + g[3] * h[3],
            )
            f = [rng.randrange(-5, 6) for _ in range(3)]
            lhs = _substitute(_substitute(f, h, 2, 8, 3, 14), g, 2, 8, 3, 14)
            rhs = _substitute(f, gh, 2, 8, 3, 14)
            for a, b in zip(lhs, rhs):
                assert (a - b) % 3**8 == 0
