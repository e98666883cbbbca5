"""Overconvergent moment lifting: fixed point, stability, Riemann oracle."""

from math import comb

from linvariant.cocycles import harmonic_basis
from linvariant.lifting import LiftParams, make_lift, sigma_series_matrix
from linvariant.pipeline import SIZING_BASIS_PREC, resplit, size_parameters
from linvariant.tree import mat_mul


class TestFixedPoint:
    def test_up_fixed_point_per_index(self, row32_m6):
        """One extra normalized-U_p sweep changes no moment beyond its
        guaranteed precision."""
        ctx, k, M, sz, basis, [lift0], tau = row32_m6
        p = ctx.p
        pr = sz.lift
        pr1 = LiftParams(k=pr.k, t=pr.t, i_max=pr.i_max, n_it=pr.n_it + 1,
                        W=pr.W)
        [lift1] = make_lift(ctx.dom, ctx.reducer, basis, pr1)
        for j in range(len(lift0.vecs)):
            for i in range(pr.i_max + 1):
                mp = lift0.moment_prec(i)
                if mp <= 0:
                    continue
                diff = (lift0.vecs[j][i] - lift1.vecs[j][i]) % p**mp
                assert diff == 0, (j, i, mp)

    def test_stability_three_extra_iterations(self, row32_m6):
        ctx, k, M, sz, basis, [lift0], tau = row32_m6
        p = ctx.p
        pr = sz.lift
        pr3 = LiftParams(k=pr.k, t=pr.t, i_max=pr.i_max, n_it=pr.n_it + 3,
                        W=pr.W)
        [lift3] = make_lift(ctx.dom, ctx.reducer, basis, pr3)
        for j in range(len(lift0.vecs)):
            for i in range(pr.i_max + 1):
                mp = lift0.moment_prec(i)
                if mp <= 0:
                    continue
                assert (lift0.vecs[j][i] - lift3.vecs[j][i]) % p**mp == 0

    def test_low_moments_are_exact_cocycle_moments(self, row32_m6):
        """Moments 0..k of the lift equal the scaled cocycle moments."""
        ctx, k, M, sz, basis, [lift], tau = row32_m6
        for j in range(len(lift.vecs)):
            for i in range(k + 1):
                assert lift.vecs[j][i] == lift.phis[j][i]


def test_basis_lift_equals_each_member_lift(ctx27):
    """The lifts of a whole basis ((2,7,1), weight 4, two cocycles) are the
    one-cocycle lifts of its members."""
    k = 2
    sz = size_parameters(ctx27, k, 4,
                         harmonic_basis(ctx27.dom, k, SIZING_BASIS_PREC))
    ctx = resplit(ctx27, sz.split_prec)
    basis = harmonic_basis(ctx.dom, k, sz.basis_prec)
    assert len(basis) == 2
    lifts = make_lift(ctx.dom, ctx.reducer, basis, sz.lift)
    for c, lift in zip(basis, lifts):
        [own] = make_lift(ctx.dom, ctx.reducer, [c], sz.lift)
        assert own.vecs == lift.vecs and own.phis == lift.phis


def riemann_moments(ctx, lift, j, depth, n_moments):
    """Independent Riemann-sum evaluation of Phi(B_j)(x^i) (scaled world).

    Refine B_j Z_p into the balls B_j h_a Z_p, h_a = [[p^d, a], [0, 1]],
    a mod p^d, and use only the degree-<= k moments of each small ball, which
    are exact polynomial data of the harmonic cocycle:
      Phi(g)(x^i) = sum_a p^(-dk/2) sum_nu C(i,nu) p^(d nu) a^(i-nu)
                                   Phi(g h_a)(x^nu).
    """
    dom, red = ctx.dom, ctx.reducer
    p = dom.p
    pr = lift.params
    k = pr.k
    W, mod = pr.W, p**pr.W
    Bj = red.rep_mats[j]
    vB = red.rep_detvals[j]
    d = depth
    out = []
    low = {}
    for a in range(p**d):
        g = mat_mul(Bj, (p**d, a, 0, 1))
        r = red.reduce_matrix(g, vB + d)
        T = sigma_series_matrix(r.sigma, k, k, p, W, n_rows=k + 1)
        low[a] = [
            sum(T[nu][m] * lift.phis[r.j][m] for m in range(k + 1)) % mod
            for nu in range(k + 1)
        ]
    half = p ** (d * (k // 2))
    for i in range(n_moments):
        acc = 0
        for a in range(p**d):
            for nu in range(min(i, k) + 1):
                acc += comb(i, nu) * p ** (d * nu) * a ** (i - nu) * low[a][nu]
        acc %= mod
        assert acc % half == 0, "Riemann sum not divisible by the scale"
        out.append(acc // half % mod)
    return out


class TestRiemannOracle:
    def test_riemann_oracle_depth3(self, row32_m6):
        """Moments i <= 4 agree mod 3^3 with depth-3 Riemann sums
        ((3,2,1), weight 4)."""
        ctx, k, M, sz, basis, [lift], tau = row32_m6
        p = ctx.p
        t = sz.lift.t
        tol = 3 + t  # mod 3^3 on unscaled moments
        for j in range(len(lift.vecs)):
            rie = riemann_moments(ctx, lift, j, depth=3, n_moments=5)
            for i in range(5):
                assert (lift.vecs[j][i] - rie[i]) % p**tol == 0, (j, i)

    def test_riemann_converges_with_depth(self, row32_m6):
        """Agreement improves by p^2 per extra refinement level (k = 2)."""
        ctx, k, M, sz, basis, [lift], tau = row32_m6
        p = ctx.p
        j = 0
        i = 4
        vals = []
        for depth in (1, 2, 3):
            rie = riemann_moments(ctx, lift, j, depth, n_moments=5)
            diff = (lift.vecs[j][i] - rie[i]) % p**sz.lift.W
            v = 0
            while diff and diff % p == 0:
                diff //= p
                v += 1
            vals.append(v if diff else sz.lift.W)
        assert vals[1] >= vals[0] + 2
        assert vals[2] >= vals[1] + 2
