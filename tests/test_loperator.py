"""The combinatorial cocycle psi and Newton-slope extraction."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import linvariant.loperator as loperator
from linvariant.cocycles import (
    harmonic_basis,
    involution_matrix,
    normalizing_element,
)
from linvariant.loperator import (
    eigenspace,
    l_matrix,
    restrict_operator,
)
from linvariant.padics import (
    PadicNumber,
    PrecisionError,
    charpoly,
    newton_slopes,
)

from conftest import act, gamma_conj, gamma_mul, psis
from newton_reference import newton_slopes as two_pass_newton_slopes


def _pad(n, p, prec):
    return PadicNumber.from_int(n, p, prec)


def _coefficient(p):
    """A p-adic number with valuation and precision in [-10, 14]: one
    indistinguishable from zero, or a unit times p^v known to p^prec."""
    zero = st.integers(-10, 14).map(lambda prec: PadicNumber.zero(p, prec))
    unit = st.tuples(st.integers(0, 50), st.integers(1, p - 1)).map(
        lambda t: t[0] * p + t[1])
    known = st.integers(-10, 13).flatmap(lambda v: st.builds(
        lambda u, prec: PadicNumber(p, v, u, prec), unit,
        st.integers(v + 1, 14)))
    return st.one_of(zero, known)


def _poly_mul(a, b, p, prec):
    out = [PadicNumber.zero(p, prec) for _ in range(len(a) + len(b) - 1)]
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = out[i + j] + x * y
    return out


class TestNewtonSlopes:
    @pytest.mark.parametrize("p", [2, 3, 7])
    @pytest.mark.parametrize("e", [-3, -1, 0, 2])
    def test_linear_factor(self, p, e):
        """x - a has the single slope val(a)."""
        unit = 1 + p
        a = _pad(unit, p, 20) * _pad(p, p, 20) ** e
        coeffs = [PadicNumber.zero(p, 20) - a, PadicNumber.one(p, 20)]
        assert newton_slopes(coeffs) == [(Fraction(e), 1)]

    @pytest.mark.parametrize("p", [3, 5])
    def test_product_of_linear_factors(self, p):
        """Slopes of a product of linear factors are the root valuations."""
        rng = random.Random(p)
        prec = 30
        for _ in range(10):
            vals = [rng.randrange(-2, 4) for _ in range(rng.randrange(2, 5))]
            poly = [PadicNumber.one(p, prec)]
            for e in vals:
                u = rng.randrange(1, p ** 3)
                while u % p == 0:
                    u += 1
                root = _pad(u, p, prec) * _pad(p, p, prec) ** e
                factor = [PadicNumber.zero(p, prec) - root,
                          PadicNumber.one(p, prec)]
                poly = _poly_mul(poly, factor, p, prec)
            got = newton_slopes(poly)
            flat = sorted(
                [s for s, m in got for _ in range(m)])
            assert flat == sorted(Fraction(v) for v in vals)

    def test_multiplicity_grouping(self):
        """(x - p)^2 (x - 1) reports slope 1 with multiplicity 2."""
        p, prec = 3, 25
        one = PadicNumber.one(p, prec)
        zero = PadicNumber.zero(p, prec)
        fac_p = [zero - _pad(p, p, prec), one]
        fac_1 = [zero - one, one]
        poly = _poly_mul(_poly_mul(fac_p, fac_p, p, prec), fac_1, p, prec)
        assert sorted(newton_slopes(poly)) == [(Fraction(0), 1),
                                               (Fraction(1), 2)]

    def test_undetermined_leading_coefficient_raises(self):
        p = 3
        coeffs = [PadicNumber.one(p, 20), PadicNumber.zero(p, 0)]
        with pytest.raises(PrecisionError):
            newton_slopes(coeffs)

    def test_undetermined_constant_raises(self):
        """A constant term that is zero at working precision cannot anchor
        the polygon of an invertible operator."""
        p = 3
        coeffs = [PadicNumber.zero(p, 4), PadicNumber.one(p, 20)]
        with pytest.raises(PrecisionError):
            newton_slopes(coeffs)

    @given(st.sampled_from([2, 3, 5]).flatmap(
        lambda p: st.lists(_coefficient(p), min_size=1, max_size=8)))
    @settings(max_examples=300, deadline=None)
    def test_one_hull_matches_two_pass_reference(self, coeffs):
        """The one hull over all coefficients gives the slopes of the
        two-pass reference (a hull over the known coefficients, then a check
        of the undetermined ones against it) wherever the reference returns,
        and raises PrecisionError wherever it raises."""
        try:
            want = two_pass_newton_slopes(coeffs)
        except PrecisionError:
            with pytest.raises(PrecisionError):
                newton_slopes(coeffs)
        else:
            assert newton_slopes(coeffs) == want

    def test_fractional_slope(self):
        """x^2 - p has the slope 1/2 with multiplicity 2."""
        p, prec = 5, 20
        one = PadicNumber.one(p, prec)
        zero = PadicNumber.zero(p, prec)
        coeffs = [zero - _pad(p, p, prec), zero, one]
        assert newton_slopes(coeffs) == [(Fraction(1, 2), 2)]


class TestCharpolySlopes:
    def test_diagonal_matrix_slopes(self):
        p, prec = 3, 20
        diag = [1, p, p * p]
        A = [[_pad(diag[i] if i == j else 0, p, prec) for j in range(3)]
             for i in range(3)]
        got = sorted(newton_slopes(charpoly(A)))
        assert got == [(Fraction(0), 1), (Fraction(1), 1), (Fraction(2), 1)]

    def test_conjugation_invariance(self):
        """Slopes are invariant under a change of basis."""
        p, prec = 5, 24
        rng = random.Random(11)
        A = [[_pad(rng.randrange(-20, 20) * (p if i < j else 1), p, prec)
              for j in range(3)] for i in range(3)]
        # upper-unitriangular conjugator, inverted in closed form
        U = [[_pad(1 if i == j else (rng.randrange(5) if j > i else 0),
                   p, prec) for j in range(3)] for i in range(3)]
        # invert upper unitriangular 3x3
        a, b, c = U[0][1], U[0][2], U[1][2]
        Ui = [[PadicNumber.one(p, prec), PadicNumber.zero(p, prec) - a,
               a * c - b],
              [PadicNumber.zero(p, prec), PadicNumber.one(p, prec),
               PadicNumber.zero(p, prec) - c],
              [PadicNumber.zero(p, prec), PadicNumber.zero(p, prec),
               PadicNumber.one(p, prec)]]

        def mul(X, Y):
            return [[sum((X[i][m] * Y[m][j] for m in range(3)),
                         PadicNumber.zero(p, prec)) for j in range(3)]
                    for i in range(3)]

        try:
            s1 = newton_slopes(charpoly(A))
        except PrecisionError:
            pytest.skip("random matrix with undetermined polygon")
        s2 = newton_slopes(charpoly(mul(mul(Ui, A), U)))
        assert s1 == s2


class TestPsi:
    def test_vertex_stabilizer_maps_to_zero(self, row32_m6):
        """A stabilizer of the base vertex has an empty geodesic, so psi
        vanishes on it."""
        ctx, k, M, sz, basis, lifts, tau = row32_m6
        dom = ctx.dom
        for x, r in dom.vertex_stabs[0][:4]:
            vals = psis(dom, basis[0], x, r, sz.out_prec)
            assert all(v.is_zero() for v in vals)

    def test_nonzero_on_some_generator(self, row32_m6):
        ctx, k, M, sz, basis, lifts, tau = row32_m6
        dom = ctx.dom
        assert any(
            any(not v.is_zero()
                for v in psis(dom, basis[0], x, r, sz.out_prec))
            for x, r in dom.generators())

    def test_z1_law_on_products(self, row32_m6):
        """psi(g1 g2) = psi(g1) + g1 . psi(g2)."""
        ctx, k, M, sz, basis, lifts, tau = row32_m6
        dom = ctx.dom
        rng = random.Random(7)
        gens = dom.generators()
        op = sz.out_prec
        for _ in range(25):
            x1, r1 = gens[rng.randrange(len(gens))]
            x2, r2 = gens[rng.randrange(len(gens))]
            p1 = psis(dom, basis[0], x1, r1, op)
            p2 = psis(dom, basis[0], x2, r2, op)
            p12 = psis(dom, basis[0], gamma_mul(dom, x1, x2), r1 + r2, op)
            g_p2 = act(dom, k, x1, r1, p2, op)
            for a, b, c in zip(g_p2, p1, p12):
                assert (a + b - c).is_zero()

    def test_antisymmetry(self, row32_m6):
        """psi(g) + g . psi(g^-1) = 0."""
        ctx, k, M, sz, basis, lifts, tau = row32_m6
        dom = ctx.dom
        op = sz.out_prec
        for x, r in dom.generators()[:4]:
            xinv = gamma_conj(dom, x)
            p1 = psis(dom, basis[0], x, r, op)
            p2 = psis(dom, basis[0], xinv, r, op)
            g_p2 = act(dom, k, x, r, p2, op)
            for a, b in zip(p1, g_p2):
                assert (a + b).is_zero()


class TestInvolutionSplitting:
    def test_eigenspaces_span(self, row32_m6):
        """For a +-1 involution the +/- eigenspaces together span."""
        p, prec = 3, 20
        # small synthetic involution: swap matrix
        zero = PadicNumber.zero(p, prec)
        one = PadicNumber.one(p, prec)
        W = [[zero, one], [one, zero]]
        plus = eigenspace(W, 1)
        minus = eigenspace(W, -1)
        assert len(plus) == 1 and len(minus) == 1

    def test_restrict_operator_diagonal(self):
        """Restricting a diagonal operator to a coordinate plane keeps the
        corresponding eigenvalues."""
        p, prec = 3, 20
        diag = [2, 3, 7]
        A = [[_pad(diag[i] if i == j else 0, p, prec) for j in range(3)]
             for i in range(3)]
        e0 = [_pad(1, p, prec), _pad(0, p, prec), _pad(0, p, prec)]
        e2 = [_pad(0, p, prec), _pad(0, p, prec), _pad(1, p, prec)]
        R = restrict_operator(A, [e0, e2], prec)
        assert (R[0][0] - _pad(2, p, prec)).is_zero()
        assert (R[1][1] - _pad(7, p, prec)).is_zero()
        assert R[0][1].is_zero() and R[1][0].is_zero()

    def test_restrict_operator_dependent_basis(self):
        """A sub-basis that is dependent at working precision is a precision
        shortfall, not an internal error."""
        p, prec = 3, 20
        A = [[_pad(int(i == j), p, prec) for j in range(2)] for i in range(2)]
        e0 = [_pad(1, p, prec), _pad(0, p, prec)]
        with pytest.raises(PrecisionError):
            restrict_operator(A, [e0, e0], prec)


class TestLMatrix:
    def test_kernel_is_precision_shortfall(self, monkeypatch, row32_m6):
        """For k > 0 the coboundary map is injective, so a kernel in the
        cohomology solve can only be lost precision: PrecisionError, which
        `compute_l_result` escalates."""
        ctx, k, M, sz, basis, lifts, tau = row32_m6
        solve = loperator.solve_linear

        def with_kernel(p, E, rows, rhs):
            sols, kern = solve(p, E, rows, rhs)
            return sols, kern + [[(0, 1, 20)] * len(rows[0][0])]

        monkeypatch.setattr(loperator, "solve_linear", with_kernel)
        with pytest.raises(PrecisionError):
            l_matrix(ctx.dom, basis, lifts, tau, sz.n_terms, sz.out_prec)

    @pytest.mark.parametrize("row", ["row32_m6", "row27_m12"])
    def test_integer_stages_build_no_padic_number(self, request, monkeypatch,
                                                  row):
        """The basis, the L-matrix with its psi and lam values, and both
        involutions run on integers: none of them builds a PadicNumber."""
        ctx, k, M, sz, basis, lifts, tau = request.getfixturevalue(row)
        dom, built, init = ctx.dom, [], PadicNumber.__init__
        monkeypatch.setattr(PadicNumber, "__init__",
                            lambda self, *a: built.append(a) or init(self, *a))
        assert len(harmonic_basis(dom, k, 20)) == len(basis)
        l_matrix(dom, basis, lifts, tau, sz.n_terms, sz.out_prec)
        for target, parity in ((ctx.nminus, False), (ctx.p, True)):
            w, _ = normalizing_element(dom, target, parity_p=parity)
            involution_matrix(dom, k, w, basis, sz.out_prec)
        assert built == []
