"""Harmonic cocycle spaces: dimensions, harmonicity, invariance, involutions."""

import importlib.util
import os
import random

import pytest
from hypothesis import given, settings, strategies as st

from linvariant import cocycles, domain, tree
from linvariant.cocycles import (
    act_on,
    harmonic_basis,
    involution_matrix,
    normalizing_element,
    weight_action,
    weight_coeff_rows,
)
from linvariant.lifting import sigma_series_matrix
from linvariant.padics import PadicNumber, PrecisionError
from linvariant.pipeline import (
    SIZING_BASIS_PREC,
    SIZING_SPLIT_PREC,
    build_context,
    resplit,
)
from linvariant.tree import mat_adj, star

from conftest import act, as_padics, exact_weight_rows, value

PREC = 25

_spec = importlib.util.spec_from_file_location(
    "oracle", os.path.join(os.path.dirname(__file__), "..", "benchmark",
                           "oracle.py"))
oracle = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(oracle)


def _det(g):
    return g[0] * g[3] - g[1] * g[2]


class TestWeightAction:
    def test_identity(self):
        rows, e, P = weight_action(5, (1, 0, 0, 1), 1, 4, PREC)
        assert e == 0 and P == PREC
        for i, row in enumerate(rows):
            assert row == [1 if j == i else 0 for j in range(5)]

    def test_scalar_acts_trivially(self):
        """s I acts trivially, its unit part folded into the rows and its
        p-part into the scale."""
        p, k = 3, 2
        vec = ([5, 7, 11], 0, PREC)
        for s in (2, 3, 9):
            out = act_on(p, weight_action(p, (s, 0, 0, s), s * s, k, PREC),
                         vec, PREC)
            for a, b in zip(as_padics(p, out), as_padics(p, vec)):
                assert (a - b).is_zero()

    def test_composition(self):
        """act(g1, act(g2, w)) = act(g1 g2, w) for the left action
        (g . w)(P) = w(P |_k g), also when p divides a determinant."""
        rng = random.Random(11)
        p, k = 3, 2
        for _ in range(40):
            g1 = tuple(rng.randrange(-9, 10) for _ in range(4))
            g2 = tuple(rng.randrange(-9, 10) for _ in range(4))
            if _det(g1) == 0 or _det(g2) == 0:
                continue
            g12 = (
                g1[0] * g2[0] + g1[1] * g2[2],
                g1[0] * g2[1] + g1[1] * g2[3],
                g1[2] * g2[0] + g1[3] * g2[2],
                g1[2] * g2[1] + g1[3] * g2[3],
            )
            vec = ([rng.randrange(-50, 50) for _ in range(k + 1)], 0, PREC)
            act1, act2, act12 = (weight_action(p, g, _det(g), k, PREC)
                                 for g in (g1, g2, g12))
            a = act_on(p, act1, act_on(p, act2, vec, PREC), PREC)
            b = act_on(p, act12, vec, PREC)
            assert a[1] == b[1]
            for u, v in zip(as_padics(p, a), as_padics(p, b)):
                assert (u - v).is_zero()

    @settings(max_examples=60, deadline=None)
    @given(p=st.sampled_from([2, 3, 5]), k=st.integers(0, 16),
           W=st.integers(1, 40),
           mat=st.lists(st.integers(-10**6, 10**6), min_size=4, max_size=4))
    def test_weight_rows_are_the_exact_rows_reduced(self, p, k, W, mat):
        """The weight rows built modulo p^W are the exact coefficients of
        (a x + b)^i (c x + d)^(k-i) reduced modulo p^W."""
        assert weight_coeff_rows(mat, k, p**W) == [
            [w % p**W for w in row] for row in exact_weight_rows(mat, k)]

    def test_weight_rows_check_the_budget_per_row(self, monkeypatch):
        """The weight rows check the time budget once per power of a x + b
        and of c x + d they build, and once per row they convolve: 3k + 1
        times, so no power of n + 1 products and no row of at most
        (k/2 + 1)^2 products goes unchecked."""
        calls = []
        monkeypatch.setattr(cocycles, "checkpoint", lambda: calls.append(None))
        k = 40
        weight_coeff_rows((3, 5, 7, 11), k, 2**20)
        assert len(calls) == 3 * k + 1

    @settings(max_examples=60, deadline=None)
    @given(p=st.sampled_from([2, 3, 5]), half_k=st.integers(0, 4),
           W=st.integers(1, 20), extra=st.integers(0, 4),
           a=st.integers(-40, 40), b=st.integers(-40, 40),
           c=st.integers(-8, 8), d=st.integers(-40, 40))
    def test_sigma_series_rows_are_the_adjugate_action(self, p, half_k, W,
                                                       extra, a, b, c, d):
        """Rows 0..k of the substitution matrix of an Iwahori sigma are the
        action of adj(sigma) on V_k modulo p^W, extended by zeros: the
        distribution action restricts to the V_k action."""
        if a % p == 0 or d % p == 0:
            return
        sigma = (a, b, p * c, d)
        k = 2 * half_k
        T = sigma_series_matrix(sigma, k, k + extra, p, W, k + extra + 1,
                                _det(sigma))
        adj = mat_adj(sigma)
        rows, e, _ = weight_action(p, adj, _det(adj), k, W)
        assert e == 0
        for m in range(k + 1):
            assert T[m][:k + 1] == rows[m]
            assert not any(T[m][k + 1:])


# (p, nminus): weights; each dimension is the oracle's
DIM_GRID = {
    (2, 3): range(4, 17, 2),
    (2, 5): (4, 6, 8),
    (2, 7): (4, 6, 8),
    (3, 2): (4, 6),
}


def _oracle_dims(p, nminus):
    return [(w, oracle.harmonic_dim(p, nminus, 1, w)) for w in DIM_GRID[(p, nminus)]]


class TestDimensions:
    @pytest.mark.parametrize("w,dim", _oracle_dims(2, 3))
    def test_dims_23(self, ctx23, w, dim):
        assert len(harmonic_basis(ctx23.dom, w - 2, PREC)) == dim

    @pytest.mark.parametrize("w,dim", _oracle_dims(2, 5))
    def test_dims_25(self, ctx25, w, dim):
        assert len(harmonic_basis(ctx25.dom, w - 2, PREC)) == dim

    @pytest.mark.parametrize("w,dim", _oracle_dims(2, 7))
    def test_dims_27(self, ctx27, w, dim):
        assert len(harmonic_basis(ctx27.dom, w - 2, PREC)) == dim

    @pytest.mark.parametrize("w,dim", _oracle_dims(3, 2))
    def test_dims_32(self, ctx32, w, dim):
        assert len(harmonic_basis(ctx32.dom, w - 2, PREC)) == dim

    @pytest.mark.parametrize("p,nminus,w", [(2, 31, 8), (2, 41, 6), (2, 43, 8),
                                            (2, 41, 8)])
    def test_dims_sized_as_basis(self, p, nminus, w):
        """Larger spaces, at the precisions of `linvariant basis`: the
        oracle's dimension (18, 18, 25).  (2, 41) at weight 8 needs a
        splitting beyond p^60 and may raise PrecisionError instead, but
        never gives another dimension."""
        ctx = build_context(p, nminus, 1, SIZING_SPLIT_PREC)
        want = oracle.harmonic_dim(p, nminus, 1, w)
        try:
            basis = harmonic_basis(ctx.dom, w - 2, SIZING_BASIS_PREC)
        except PrecisionError:
            assert (p, nminus, w) == (2, 41, 8)
            return
        assert len(basis) == want

    # Eichler orders of level N^+ > 1, prime-power levels included, and
    # maximal orders of three-prime N^- (denominators other than 2); each
    # dimension equals the count of weight-k newforms of level p N^- N^+ new
    # at p N^- (Cohen-Oesterle).
    @pytest.mark.parametrize("p,nminus,nplus,w,dim", [
        (*s, oracle.harmonic_dim(*s))
        for s in [(3, 2, 5, 4), (3, 2, 5, 2), (5, 3, 2, 4), (3, 2, 7, 4),
                  (5, 2, 9, 4), (3, 2, 25, 2), (7, 30, 1, 4), (5, 42, 1, 2)]])
    def test_dims_eichler(self, p, nminus, nplus, w, dim):
        ctx = build_context(p, nminus, nplus, 40)
        assert len(harmonic_basis(ctx.dom, w - 2, PREC)) == dim

    def test_weight_2_runs(self, ctx23):
        """k = 0 is a legal degree (no extra scaling conditions)."""
        basis = harmonic_basis(ctx23.dom, 0, PREC)
        assert isinstance(basis, list)

    def test_coarse_splitting_never_loses_rank(self):
        """(2, 31) at weight 8 needs more splitting digits than 40: the
        basis raises PrecisionError or has the oracle's dimension, never a
        smaller one."""
        ctx = build_context(2, 31, 1, 40)
        want = oracle.harmonic_dim(2, 31, 1, 8)
        assert want == 18
        try:
            basis = harmonic_basis(ctx.dom, 6, PREC)
        except PrecisionError:
            return
        assert len(basis) == want


class TestConditions:
    @pytest.mark.parametrize("p, nminus, pairs", [(3, 2, 2), (13, 2, 5)])
    def test_one_block_per_sign_pair(self, p, nminus, pairs, monkeypatch):
        """The basis takes one invariance block of k+1 rows per pair x, -x
        of nontrivial edge-stabilizer elements, and one harmonicity block
        per vertex: -1 acts trivially, so -x would repeat the rows of x."""
        dom = build_context(p, nminus, 1, 40).dom
        assert sum(len(s) - 2 for s in dom.edge_stabs) == 2 * pairs
        assert sum(len(dom.one_per_sign(s)) for s in dom.edge_stabs) == pairs
        sizes = []
        solve = cocycles.solve_linear
        monkeypatch.setattr(
            cocycles, "solve_linear",
            lambda p, E, rows: sizes.append(len(rows)) or solve(p, E, rows))
        k = 2
        harmonic_basis(dom, k, PREC)
        assert sizes == [(pairs + len(dom.vertices)) * (k + 1)]

    def test_stars_read_from_the_domain(self, monkeypatch):
        """The harmonicity blocks read the vertex stars the domain search
        recorded: on a built domain the basis calls tree.star zero times."""
        dom = build_context(3, 13, 1, 40).dom
        assert list(dom.stars) == dom.vertices
        calls, orig = [], tree.star
        for mod in (tree, domain, cocycles):
            if getattr(mod, "star", None) is orig:
                monkeypatch.setattr(mod, "star",
                                    lambda v: calls.append(v) or orig(v))
        assert harmonic_basis(dom, 4, PREC)
        assert calls == []


class TestSplittingPrecision:
    """The basis is solved once, at the splitting's precision."""

    @pytest.mark.parametrize("ctx_name,w", [
        ("ctx23", 4), ("ctx23", 6), ("ctx23", 8), ("ctx27", 8), ("ctx32", 6)])
    def test_more_splitting_digits_change_no_basis_digit(self, request,
                                                         ctx_name, w):
        """The bases on splittings at p^60 and p^90 have the same dimension
        and agree modulo the lower basis precision."""
        ctx = request.getfixturevalue(ctx_name)
        low = harmonic_basis(resplit(ctx, 60).dom, w - 2, SIZING_BASIS_PREC)
        high = harmonic_basis(resplit(ctx, 90).dom, w - 2, SIZING_BASIS_PREC)
        assert len(low) == len(high) > 0
        mod = ctx.p ** min(c.prec for c in low + high)
        for a, b in zip(low, high):
            for ra, rb in zip(a.values, b.values):
                assert all((x - y) % mod == 0 for x, y in zip(ra, rb))

    def test_coarse_splitting_raises(self):
        """(2, 7) at weight 26 needs a splitting beyond the sizing one."""
        ctx = build_context(2, 7, 1, SIZING_SPLIT_PREC)
        with pytest.raises(PrecisionError, match="splitting beyond p\\^60"):
            harmonic_basis(ctx.dom, 24, SIZING_BASIS_PREC)


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
        dom = ctx23.dom
        k = w - 2
        rng = random.Random(23 + w)
        for c in harmonic_basis(dom, k, PREC):
            for _ in range(25):
                v = _random_vertex(dom.p, rng)
                total = [PadicNumber.zero(dom.p, PREC) for _ in range(k + 1)]
                for e in star(v):
                    val = value(c, e, PREC)
                    total = [a + b for a, b in zip(total, val)]
                assert all(t.is_zero() for t in total)

    @pytest.mark.parametrize("w", [4, 12])
    def test_gamma_invariance_random_edges(self, ctx23, w):
        """c(gamma e) = gamma . c(e) for generators gamma and random edges."""
        from linvariant.domain import gamma_matrix
        from linvariant.tree import mat_mul, normalize_edge, star

        dom = ctx23.dom
        k = w - 2
        rng = random.Random(37 + w)
        gens = dom.generators()
        for c in harmonic_basis(dom, k, PREC):
            for _ in range(25):
                v = _random_vertex(dom.p, rng)
                e = star(v)[rng.randrange(dom.p + 1)]
                x, r = gens[rng.randrange(len(gens))]
                Xi, _ = gamma_matrix(dom, x, r)
                ge = normalize_edge(mat_mul(Xi, e.matrix()), dom.p)
                lhs = value(c, ge, PREC)
                rhs = act(dom, k, x, r, value(c, e, PREC), PREC)
                assert all((a - b).is_zero() for a, b in zip(lhs, rhs))


class TestInvolutions:
    @pytest.mark.parametrize("w", [4, 12])
    def test_wn_squares_to_identity(self, ctx23, w):
        dom = ctx23.dom
        k = w - 2
        basis = harmonic_basis(dom, k, PREC)
        wN, _ = normalizing_element(dom, 3)
        Mn = [[PadicNumber(dom.p, *t) for t in row]
              for row in involution_matrix(dom, k, wN, basis, 18)]
        d = len(basis)
        for i in range(d):
            for j in range(d):
                acc = PadicNumber.zero(dom.p, 18)
                for l in range(d):
                    acc = acc + Mn[i][l] * Mn[l][j]
                target = 1 if i == j else 0
                assert (acc - target).is_zero()

    def test_wp_squares_to_identity(self, ctx23):
        dom = ctx23.dom
        k = 2
        basis = harmonic_basis(dom, k, PREC)
        wp, _ = normalizing_element(dom, 2, parity_p=True)
        Mp = [[PadicNumber(dom.p, *t) for t in row]
              for row in involution_matrix(dom, k, wp, basis, 18)]
        d = len(basis)
        for i in range(d):
            for j in range(d):
                acc = PadicNumber.zero(dom.p, 18)
                for l in range(d):
                    acc = acc + Mp[i][l] * Mp[l][j]
                target = 1 if i == j else 0
                assert (acc - target).is_zero()
