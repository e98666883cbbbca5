"""Coleman-style integration: coverings, log kernels, lambda cocycle."""

import random
from fractions import Fraction

import pytest

from linvariant.cocycles import weight_coeff_rows
from linvariant.domain import gamma_matrix
from linvariant.integration import (
    _mobius,
    covering,
    lambda_values,
    log_kernel_series,
)
from linvariant.lifting import sigma_series_matrix
from linvariant.padics import PadicNumber, half_trace
from linvariant.tree import base_vertex, edges_leaving_geodesic, neighbors, star

from conftest import act, value
from test_tree import ball_contains


def reference_lambda_values(dom, lifts, x, r, tau, n_terms,
                            target_prec):
    """The untraced totals of lambda_values evaluated term by term in field
    elements: every kernel coefficient, weight-row product, moment and
    pairing is a PadicNumber or UnramifiedElement, so each digit's
    precision follows the PadicNumber rules."""
    p, pr = dom.p, lifts[0].params
    k = pr.k
    K = tau.field
    Xi, _ = gamma_matrix(dom, x, r)
    tau2 = _mobius(Xi, tau)
    totals = [[K.zero() for _ in range(k + 1)] for _ in lifts]
    for ball in covering(dom, x, r):
        lser = log_kernel_series(K, ball, tau, tau2, n_terms)
        T = sigma_series_matrix(ball.reduction.sigma, k, pr.i_max, p, pr.W,
                                n_rows=n_terms)
        W = weight_coeff_rows(ball.matrix, k)
        det = ball.matrix[0] * ball.matrix[3] - ball.matrix[1] * ball.matrix[2]
        dv = ball.det_val
        sgn = 1 if det > 0 else -1
        dfac = K.element(PadicNumber(p, -dv * (k // 2), sgn ** (k // 2),
                                     -dv * (k // 2) + target_prec + abs(dv) * k + 8))
        cfs = []
        for m in range(k + 1):
            row = []
            for i in range(n_terms):
                cf = K.zero()
                for u in range(min(k, i) + 1):
                    if W[m][u]:
                        cf = cf + W[m][u] * lser[i - u]
                row.append(cf)
            cfs.append(row)
        for lift, total in zip(lifts, totals):
            res, precs = lift.moments(ball.reduction, T)
            momK = [K.element(PadicNumber(p, -pr.t, a, P - pr.t))
                    for a, P in zip(res, precs)]
            for m in range(k + 1):
                acc = K.zero()
                for cf, mom in zip(cfs[m], momK):
                    acc = acc + cf * mom
                total[m] = total[m] + dfac * acc
    return totals


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
    def test_covering_sum_zero_random_geodesics(self, row32_m8):
        """Sum of a harmonic cocycle over the edges leaving a geodesic
        vanishes (only the two end-stars contribute, and they cancel)."""
        ctx, k, M, sz, basis, lifts, tau = row32_m8
        dom = ctx.dom
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
                val = value(c, e, prec)
                total = [a + b for a, b in zip(total, val)]
            assert all(t.is_zero() for t in total)


class TestLambdaCocycle:
    def test_z1_law_on_products(self, row32_m8):
        ctx, k, M, sz, basis, lifts, tau = row32_m8
        dom = ctx.dom
        rng = random.Random(5)
        gens = dom.generators()
        op = sz.out_prec
        lam = lambda x, r: lambda_values(dom, lifts, x, r, tau,
                                         sz.n_terms, op)[0]
        for _ in range(12):
            x1, r1 = gens[rng.randrange(len(gens))]
            x2, r2 = gens[rng.randrange(len(gens))]
            l1 = lam(x1, r1)
            l2 = lam(x2, r2)
            l12 = lam(x1 * x2, r1 + r2)
            g_l2 = act(dom, k, x1, r1, l2, op)
            for a, b, c in zip(g_l2, l1, l12):
                assert (a + b - c).is_zero()

    def test_antisymmetry(self, row32_m8):
        """lam(gamma) + gamma . lam(gamma^-1) = 0 (path reversal)."""
        ctx, k, M, sz, basis, lifts, tau = row32_m8
        dom = ctx.dom
        op = sz.out_prec
        gens = dom.generators()
        for x, r in gens[:4]:
            xinv = x.conj()  # x * conj(x) = nrd(x) = p^{2r}, central
            [l1] = lambda_values(dom, lifts, x, r, tau, sz.n_terms, op)
            [l2] = lambda_values(dom, lifts, xinv, r, tau, sz.n_terms, op)
            g_l2 = act(dom, k, x, r, l2, op)
            for a, b in zip(l1, g_l2):
                assert (a + b).is_zero()

    def test_omega_coordinate_vanishes(self, row32_m8):
        """The untraced integrals lie in Q_p: the second coordinate w.r.t.
        the basis (1, w) of the unramified field vanishes at p^(M-2)."""
        ctx, k, M, sz, basis, lifts, tau = row32_m8
        dom = ctx.dom
        gens = dom.generators()
        for x, r in gens[:6]:
            [raws] = lambda_values(dom, lifts, x, r, tau, sz.n_terms,
                                   sz.out_prec, raw=True)
            for t in raws:
                # the omega-coordinate of 2*integral is b-coordinate of trace
                # complement; check directly on the element
                b = t.b
                assert b.is_zero() or b.val >= M - 2

    def test_identity_like_stabilizer_gives_zero_psi_path(self, row32_m8):
        """Covering for a vertex-stabilizing gamma is the single star."""
        ctx, k, M, sz, basis, lifts, tau = row32_m8
        dom = ctx.dom
        x, r = dom.vertex_stabs[0][0]
        balls = covering(dom, x, r)
        assert len(balls) == dom.p + 1


class TestIntegerPairing:
    @pytest.mark.parametrize("row, n_gens, v_min", [
        ("row32_m8", 12, None),  # p = 3, w^2 = n: one cocycle
        ("row27_m12", None, -3),  # p = 2, d = 2: entries down to 2^-3
    ])
    def test_matches_field_element_reference(self, request, row, n_gens,
                                             v_min):
        """The integer contraction agrees with the term-by-term field
        evaluation in value, and each entry is known to exactly
        min(target_prec, reference precision): traced entries and both
        coordinates of the raw ones."""
        ctx, k, M, sz, basis, lifts, tau = request.getfixturevalue(row)
        dom = ctx.dom
        op = sz.out_prec
        vals = []
        for x, r in dom.generators()[:n_gens]:
            ref = reference_lambda_values(dom, lifts, x, r, tau,
                                          sz.n_terms, op)
            got = lambda_values(dom, lifts, x, r, tau, sz.n_terms, op)
            raw = lambda_values(dom, lifts, x, r, tau, sz.n_terms, op,
                                raw=True)
            pairs = []
            for ref_v, got_v, raw_v in zip(ref, got, raw):
                for want, traced, untraced in zip(ref_v, got_v, raw_v):
                    pairs += [(half_trace(want), traced),
                              (want.a, untraced.a), (want.b, untraced.b)]
            for want, have in pairs:
                assert have.prec == min(op, want.prec)
                assert (have - want).is_zero()
            vals += [t.val for v in got for t in v if not t.is_zero()]
        if v_min is not None:
            assert min(vals) == v_min
