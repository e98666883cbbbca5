"""Coleman-style integration: coverings, log kernels, lambda cocycle."""

import random
from fractions import Fraction

import pytest

from linvariant.cocycles import act_by_gamma, harmonic_basis
from linvariant.integration import base_point, covering, lambda_values
from linvariant.lifting import make_lift
from linvariant.padics import PadicNumber
from linvariant.pipeline import (
    SIZING_BASIS_PREC,
    SIZING_SPLIT_PREC,
    build_context,
    resplit,
    size_parameters,
)
from linvariant.tree import (
    ball_contains,
    base_vertex,
    edges_leaving_geodesic,
    neighbors,
    star,
)


@pytest.fixture(scope="module")
def lam32():
    ctx = build_context(3, 2, 1, SIZING_SPLIT_PREC)
    k, M = 2, 8
    sz = size_parameters(ctx, k, M,
                         harmonic_basis(ctx.dom, k, SIZING_BASIS_PREC))
    ctx = resplit(ctx, sz.split_prec)
    basis = harmonic_basis(ctx.dom, k, sz.basis_prec)
    lift = make_lift(ctx.dom, ctx.reducer, basis[0], sz.lift)
    tau = base_point(3, sz.tau_prec)
    return ctx, k, M, sz, basis, lift, tau


def _random_point(p, rng):
    """A random element of P^1(Q_p): a rational with small p-denominator, or
    infinity ('inf')."""
    if rng.random() < 0.1:
        return "inf"
    num = rng.randrange(-p**4, p**4)
    dv = rng.randrange(3)
    return Fraction(num, p**dv)


class TestBallPartitions:
    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_star_partition(self, p):
        """The p+1 balls of the star of a vertex partition P^1(Q_p)."""
        rng = random.Random(p)
        v = base_vertex(p)
        for _ in range(40):
            x = _random_point(p, rng)
            hits = sum(1 for e in star(v) if ball_contains(e, x))
            assert hits == 1

        w = neighbors(v)[1]
        for _ in range(40):
            x = _random_point(p, rng)
            hits = sum(1 for e in star(w) if ball_contains(e, x))
            assert hits == 1

    @pytest.mark.parametrize("p", [2, 3])
    def test_covering_partition(self, p):
        """Edges leaving a geodesic give a partition of P^1(Q_p)."""
        rng = random.Random(10 + p)
        v = base_vertex(p)
        for _ in range(10):
            w = v
            for _ in range(1 + rng.randrange(3)):
                nb = neighbors(w)
                w = nb[rng.randrange(len(nb))]
            edges = edges_leaving_geodesic(v, w)
            for _ in range(25):
                x = _random_point(p, rng)
                hits = sum(1 for e in edges if ball_contains(e, x))
                assert hits == 1


class TestCoveringSumZero:
    def test_covering_sum_zero_random_geodesics(self, lam32):
        """Sum of a harmonic cocycle over the edges leaving a geodesic
        vanishes (only the two end-stars contribute, and they cancel)."""
        ctx, k, M, sz, basis, lift, tau = lam32
        dom, red = ctx.dom, ctx.reducer
        rng = random.Random(99)
        c = basis[0]
        prec = 20
        for _ in range(20):
            v = base_vertex(dom.p)
            w = v
            for _ in range(1 + rng.randrange(3)):
                nb = neighbors(w)
                w = nb[rng.randrange(len(nb))]
            total = [PadicNumber.zero(dom.p, prec) for _ in range(k + 1)]
            for e in edges_leaving_geodesic(v, w):
                val = c.value(e, red, prec)
                total = [a + b for a, b in zip(total, val)]
            assert all(t.is_zero() for t in total)


class TestLambdaCocycle:
    def test_z1_law_on_products(self, lam32):
        ctx, k, M, sz, basis, lift, tau = lam32
        dom, red = ctx.dom, ctx.reducer
        rng = random.Random(5)
        gens = dom.generators()
        op = sz.out_prec
        lam = lambda x, r: lambda_values(dom, red, lift, x, r, tau,
                                         sz.n_terms, op)
        for _ in range(12):
            x1, r1 = gens[rng.randrange(len(gens))]
            x2, r2 = gens[rng.randrange(len(gens))]
            l1 = lam(x1, r1)
            l2 = lam(x2, r2)
            l12 = lam(x1 * x2, r1 + r2)
            g_l2 = act_by_gamma(dom, k, x1, r1, l2, op)
            for a, b, c in zip(g_l2, l1, l12):
                assert (a + b - c).is_zero()

    def test_antisymmetry(self, lam32):
        """lam(gamma) + gamma . lam(gamma^-1) = 0 (path reversal)."""
        ctx, k, M, sz, basis, lift, tau = lam32
        dom, red = ctx.dom, ctx.reducer
        op = sz.out_prec
        gens = dom.generators()
        for x, r in gens[:4]:
            xinv = x.conj()  # x * conj(x) = nrd(x) = p^{2r}, central
            l1 = lambda_values(dom, red, lift, x, r, tau, sz.n_terms, op)
            l2 = lambda_values(dom, red, lift, xinv, r, tau, sz.n_terms, op)
            g_l2 = act_by_gamma(dom, k, x, r, l2, op)
            for a, b in zip(l1, g_l2):
                assert (a + b).is_zero()

    def test_omega_coordinate_vanishes(self, lam32):
        """The untraced integrals lie in Q_p: the second coordinate w.r.t.
        the basis (1, w) of the unramified field vanishes at p^(M-2)."""
        ctx, k, M, sz, basis, lift, tau = lam32
        dom, red = ctx.dom, ctx.reducer
        gens = dom.generators()
        for x, r in gens[:6]:
            raws = lambda_values(dom, red, lift, x, r, tau, sz.n_terms,
                                 sz.out_prec, raw=True)
            for t in raws:
                # the omega-coordinate of 2*integral is b-coordinate of trace
                # complement; check directly on the element
                b = t.b
                assert b.is_zero() or b.val >= M - 2

    def test_identity_like_stabilizer_gives_zero_psi_path(self, lam32):
        """Covering for a vertex-stabilizing gamma is the single star."""
        ctx, k, M, sz, basis, lift, tau = lam32
        dom, red = ctx.dom, ctx.reducer
        x, r = dom.vertex_stabs[0][0]
        balls = covering(dom, red, x, r)
        assert len(balls) == dom.p + 1
