"""Harmonic cocycle spaces: dimensions, harmonicity, invariance, involutions."""

import random
from fractions import Fraction

import pytest

from linvariant.cocycles import (
    act_by_gamma,
    harmonic_basis,
    involution_matrix,
    normalizing_element,
    vk_act,
    weight_coeff_rows,
)
from linvariant.padics import PadicNumber
from linvariant.pipeline import build_context
from linvariant.tree import star

PREC = 25


class TestWeightAction:
    def test_identity(self):
        rows = weight_coeff_rows((1, 0, 0, 1), 4)
        for i, row in enumerate(rows):
            assert row == [1 if j == i else 0 for j in range(5)]

    def test_scalar_acts_trivially(self):
        p, k = 3, 2
        omega = [PadicNumber.from_int(n, p, PREC) for n in (5, 7, 11)]
        out = vk_act(p, k, (2, 0, 0, 2), Fraction(4), omega, PREC)
        for a, b in zip(out, omega):
            assert (a - b).is_zero()

    def test_composition(self):
        """act(g1, act(g2, w)) = act(g2 g1, w) for the right action."""
        rng = random.Random(11)
        p, k = 3, 2
        for _ in range(20):
            g1 = tuple(rng.randrange(-9, 10) for _ in range(4))
            g2 = tuple(rng.randrange(-9, 10) for _ in range(4))
            d1 = g1[0] * g1[3] - g1[1] * g1[2]
            d2 = g2[0] * g2[3] - g2[1] * g2[2]
            if d1 % p == 0 or d2 % p == 0 or d1 == 0 or d2 == 0:
                continue
            g21 = (
                g1[0] * g2[0] + g1[1] * g2[2],
                g1[0] * g2[1] + g1[1] * g2[3],
                g1[2] * g2[0] + g1[3] * g2[2],
                g1[2] * g2[1] + g1[3] * g2[3],
            )
            omega = [PadicNumber.from_int(rng.randrange(-50, 50), p, PREC)
                     for _ in range(k + 1)]
            a = vk_act(p, k, g1, Fraction(d1),
                       vk_act(p, k, g2, Fraction(d2), omega, PREC), PREC)
            b = vk_act(p, k, g21, Fraction(d1 * d2), omega, PREC)
            for u, v in zip(a, b):
                assert (u - v).is_zero()


FROZEN_DIMS = {
    # (p, nminus): {weight: dim}
    (2, 3): {4: 1, 6: 1, 8: 1, 10: 1, 12: 3, 14: 1, 16: 3},
    (2, 5): {4: 1, 6: 3, 8: 1},
    (2, 7): {4: 2, 6: 2, 8: 4},
    (3, 2): {4: 1, 6: 1},
}


class TestDimensions:
    @pytest.mark.parametrize("w,dim", sorted(FROZEN_DIMS[(2, 3)].items()))
    def test_dims_23(self, ctx23, w, dim):
        assert len(harmonic_basis(ctx23.dom, w - 2, PREC)) == dim

    @pytest.mark.parametrize("w,dim", sorted(FROZEN_DIMS[(2, 5)].items()))
    def test_dims_25(self, ctx25, w, dim):
        assert len(harmonic_basis(ctx25.dom, w - 2, PREC)) == dim

    @pytest.mark.parametrize("w,dim", sorted(FROZEN_DIMS[(2, 7)].items()))
    def test_dims_27(self, ctx27, w, dim):
        assert len(harmonic_basis(ctx27.dom, w - 2, PREC)) == dim

    @pytest.mark.parametrize("w,dim", sorted(FROZEN_DIMS[(3, 2)].items()))
    def test_dims_32(self, ctx32, w, dim):
        assert len(harmonic_basis(ctx32.dom, w - 2, PREC)) == dim

    # Eichler orders of level N^+ > 1; each dimension equals the count of
    # weight-k newforms of level p N^- N^+ new at p N^- (Cohen-Oesterle).
    @pytest.mark.parametrize("p,nminus,nplus,w,dim", [
        (3, 2, 5, 4, 4), (3, 2, 5, 2, 1), (5, 3, 2, 4, 6), (3, 2, 7, 4, 4)])
    def test_dims_eichler(self, p, nminus, nplus, w, dim):
        ctx = build_context(p, nminus, nplus, 40)
        assert len(harmonic_basis(ctx.dom, w - 2, PREC)) == dim

    def test_weight_2_runs(self, ctx23):
        """k = 0 is a legal degree (no extra scaling conditions)."""
        basis = harmonic_basis(ctx23.dom, 0, PREC)
        assert isinstance(basis, list)


def _random_vertex(p, rng, depth=3):
    from linvariant.tree import base_vertex, neighbors

    v = base_vertex(p)
    for _ in range(rng.randrange(depth + 1)):
        nb = neighbors(v)
        v = nb[rng.randrange(len(nb))]
    return v


class TestHarmonicityInvariance:
    @pytest.mark.parametrize("w", [4, 12])
    def test_harmonicity_random_vertices(self, ctx23, w):
        """Sum of c over the star of a vertex is zero (source convention)."""
        dom, red = ctx23.dom, ctx23.reducer
        k = w - 2
        rng = random.Random(23 + w)
        for c in harmonic_basis(dom, k, PREC):
            for _ in range(25):
                v = _random_vertex(dom.p, rng)
                total = [PadicNumber.zero(dom.p, PREC) for _ in range(k + 1)]
                for e in star(v):
                    val = c.value(e, red, PREC)
                    total = [a + b for a, b in zip(total, val)]
                assert all(t.is_zero() for t in total)

    @pytest.mark.parametrize("w", [4, 12])
    def test_gamma_invariance_random_edges(self, ctx23, w):
        """c(gamma e) = gamma . c(e) for generators gamma and random edges."""
        from linvariant.integration import gamma_matrix
        from linvariant.tree import mat_mul, normalize_edge, star

        dom, red = ctx23.dom, ctx23.reducer
        k = w - 2
        rng = random.Random(37 + w)
        gens = dom.generators()
        for c in harmonic_basis(dom, k, PREC):
            for _ in range(25):
                v = _random_vertex(dom.p, rng)
                e = star(v)[rng.randrange(dom.p + 1)]
                x, r = gens[rng.randrange(len(gens))]
                Xi, _ = gamma_matrix(dom, x, r)
                ge = normalize_edge(
                    mat_mul(tuple(Fraction(t) for t in Xi), e.matrix()), dom.p)
                lhs = c.value(ge, red, PREC)
                rhs = act_by_gamma(dom, k, x, r, c.value(e, red, PREC), PREC)
                assert all((a - b).is_zero() for a, b in zip(lhs, rhs))


class TestInvolutions:
    @pytest.mark.parametrize("w", [4, 12])
    def test_wn_squares_to_identity(self, ctx23, w):
        dom, red = ctx23.dom, ctx23.reducer
        k = w - 2
        basis = harmonic_basis(dom, k, PREC)
        wN, _ = normalizing_element(dom, 3)
        Mn = involution_matrix(dom, red, k, wN, basis, 18)
        d = len(basis)
        for i in range(d):
            for j in range(d):
                acc = PadicNumber.zero(dom.p, 18)
                for l in range(d):
                    acc = acc + Mn[i][l] * Mn[l][j]
                target = 1 if i == j else 0
                assert (acc - target).is_zero()

    def test_wp_squares_to_identity(self, ctx23):
        dom, red = ctx23.dom, ctx23.reducer
        k = 2
        basis = harmonic_basis(dom, k, PREC)
        wp, _ = normalizing_element(dom, 2, parity_p=True)
        Mp = involution_matrix(dom, red, k, wp, basis, 18)
        d = len(basis)
        for i in range(d):
            for j in range(d):
                acc = PadicNumber.zero(dom.p, 18)
                for l in range(d):
                    acc = acc + Mp[i][l] * Mp[l][j]
                target = 1 if i == j else 0
                assert (acc - target).is_zero()
