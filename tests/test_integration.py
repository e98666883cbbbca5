"""Coleman-style integration: coverings, log kernels, lambda cocycle."""

import math
import random
from fractions import Fraction
from functools import lru_cache
from operator import add, mul

import pytest
from hypothesis import assume, given, settings, strategies as st

from linvariant.cocycles import harmonic_basis, weight_coeff_rows
from linvariant.domain import gamma_matrix
from linvariant.integration import (
    CoveringBall,
    _halved_trace,
    _mobius,
    _pairing,
    ball_matrices,
    base_point,
    covering,
    log_kernel_series,
)
from linvariant.lifting import sigma_series_matrix
from linvariant.padics import (PadicNumber, PrecisionError, UnramifiedField,
                               ilog, val_cap, val_int)
from linvariant.pipeline import (SIZING_BASIS_PREC, resplit, row_scales,
                                 size_parameters)
from linvariant.tree import (
    base_vertex,
    edges_leaving_geodesic,
    mat_det,
    mat_mul,
    neighbors,
    normalize_vertex,
    star,
)

from conftest import (
    _row,
    act,
    coordinate_totals,
    exact_weight_rows,
    gamma_conj,
    gamma_mul,
    lambdas,
    value,
)
from field_reference import (
    Field,
    UnramifiedElement,
    base_point as reference_base_point,
    coords,
    half_trace,
    mobius,
)
from test_tree import ball_contains


def reference_iwasawa_log(x: UnramifiedElement) -> UnramifiedElement:
    """Iwasawa log in field elements: strip the p-power, kill the
    Teichmuller component via u -> u^(p^2-1), and sum the series, sized for
    the precision of u, dividing by p^2-1 (a unit) at the end."""
    F = x.field
    p = F.p
    v = x.valuation()
    u = x * PadicNumber(p, -v, 1, -v + (x.prec() - v))
    y = u ** (p**2 - 1)
    t = y - 1
    if not t.is_zero() and t.valuation() < 1:
        raise ValueError("argument is not compatible with the log series")
    prec = u.prec()
    # number of series terms: need i - floor(log_p i) >= prec
    nterms = prec + 1
    while nterms - int(math.log(nterms) / math.log(p)) < prec + 1:
        nterms += 1
    acc = F.zero()
    power = F.one()
    for i in range(1, nterms + 1):
        power = power * t
        if power.is_zero():
            break
        term = power * PadicNumber.from_fraction(
            Fraction((-1) ** (i + 1), i), p, prec + 2 * nterms)
        acc = acc + term
    inv = PadicNumber.from_fraction(Fraction(1, p**2 - 1), p, prec)
    return acc * inv


def reference_log_kernel_series(K, mat, tau1, tau2, n_terms):
    """Coefficients (in K) of log((g z - tau2)/(g z - tau1)) as a series in
    z on Z_p for the exact integer matrix g = mat, term by term in field
    elements: constant log(f2 T2 / (f1 T1)) with f_i = c tau_i - a, then
    sum_n (T1^-n - T2^-n)/n z^n, where T_i = g^{-1} tau_i."""
    a, b, c, d = mat
    conv = lambda t: K.element(Fraction(t))
    out = []
    T = []
    for tau in (tau1, tau2):
        num = conv(d) * tau - conv(b)
        den = conv(a) - conv(c) * tau
        Ti = num / den
        if not (Ti.valuation() is not None and Ti.valuation() < 0):
            raise ValueError("base point reduces into a covering ball")
        T.append(Ti)
    f1 = conv(a) - conv(c) * tau1
    f2 = conv(a) - conv(c) * tau2
    out.append(reference_iwasawa_log(f2 * T[1] * (f1 * T[0]).inverse()))
    i1 = T[0].inverse()
    i2 = T[1].inverse()
    q1, q2 = i1, i2
    for n in range(1, n_terms):
        out.append((q1 - q2) * K.element(Fraction(1, n)))
        q1 = q1 * i1
        q2 = q2 * i2
    return out


def series_elements(K: Field, series):
    """The coefficients of a `log_kernel_series` as field elements."""
    p = K.p
    s, (A, B), precs = series
    return [K.element(PadicNumber(p, -s, a, P), PadicNumber(p, -s, b, P))
            for a, b, P in zip(A, B, precs)]


def reference_ball_moments(lift, reduction, T):
    """The scaled moments p^t Phi(g)(x^i) for i < len(T) and their absolute
    precisions (scaled world), given the reduction of the edge g.e0 produced
    by `FundamentalDomain.reduce_matrix` and the first rows T of its
    substitution matrix, from `sigma_series_matrix`: moment i is row i paired with the moments of
    the rep reduction.j, so the sigma of the reduction is applied to the
    moments rather than pulled back into the integrand.  Each residue is
    reduced modulo p^prec."""
    p = lift.dom.p
    vec = lift.vecs[reduction.j]
    res, precs = [], []
    for i, Ti in enumerate(T):
        prec = min(lift.moment_prec(i), reduction.sigma_prec)
        res.append(sum(map(mul, Ti, vec)) % p ** max(prec, 0))
        precs.append(prec)
    return res, precs


def reference_lambdas(dom, lifts, x, r, tau, n_terms,
                            target_prec):
    """The untraced totals of lambda_values evaluated term by term in field
    elements on the balls g Z_p of the covering, with the exact edge
    matrices g and the moments Phi(g) of `reference_ball_moments`: every
    kernel coefficient, weight-row product, moment and pairing is a
    PadicNumber or UnramifiedElement, so each digit's precision follows the
    PadicNumber rules.  tau is the field element."""
    p, pr = dom.p, lifts[0].params
    k = pr.k
    K = tau.field
    Xi, _ = gamma_matrix(dom, x, r)
    tau2 = mobius(Xi, tau)
    totals = [[K.zero() for _ in range(k + 1)] for _ in lifts]
    for g, dv in ball_matrices(dom, x, r):
        reduction = dom.reduce_matrix(g, dv)
        lser = reference_log_kernel_series(K, g, tau, tau2, n_terms)
        T = sigma_series_matrix(reduction.sigma, k, pr.i_max, p, pr.W,
                                n_terms, mat_det(reduction.sigma))
        W = exact_weight_rows(g, k)
        det = g[0] * g[3] - g[1] * g[2]
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
            res, precs = reference_ball_moments(lift, reduction, T)
            momK = [K.element(PadicNumber(p, -pr.t, a, P - pr.t))
                    for a, P in zip(res, precs)]
            for m in range(k + 1):
                acc = K.zero()
                for cf, mom in zip(cfs[m], momK):
                    acc = acc + cf * mom
                total[m] = total[m] + dfac * acc
    return totals


def reference_kernel_products(series, W, k, p, cap):
    """The products sum_u W[m][u] c[i-u] with the coefficients c of a
    `log_kernel_series`, in its two coordinates on (1, w), as integers
    under its scale p^s.  Returns s and, per coordinate and m, the numerators,
    valuations and precisions (unscaled) of the products; cap is the
    precision of the field, which bounds every sum."""
    s, coords, prc = series
    n_terms = len(prc)
    vW = [[val_int(w, p) if w else None for w in row] for row in W]
    out = []
    for num in coords:
        rows = []
        for m in range(k + 1):
            nums, vals, precs = [], [], []
            for i in range(n_terms):
                acc, P = 0, cap
                for u in range(min(k, i) + 1):
                    if W[m][u]:
                        acc += W[m][u] * num[i - u]
                        P = min(P, vW[m][u] + prc[i - u])
                acc %= p ** max(P + s, 0)
                nums.append(acc)
                vals.append(val_cap(acc, p, P + s) - s)
                precs.append(P)
            rows.append((nums, vals, precs))
        out.append(rows)
    return s, out


def reference_pairing(series, W, moms, p, t, cap):
    """`integration._pairing` through the products of the kernel series
    with the weight rows, each with its own valuation and precision, then
    contracted with the moments: a product q*mu is known to
    min(v(q) + P(mu), v(mu) + P(q))."""
    k = len(W) - 1
    s, cfs = reference_kernel_products(series, W, k, p, cap)
    Pm = moms[0][2]
    low = [[min(map(add, vals, Pm)) for _, vals, _ in rows] for rows in cfs]
    out = []
    for res, vm, _ in moms:
        per_co = []
        for co, rows in enumerate(cfs):
            per_m = []
            for m, (nums, _, precs) in enumerate(rows):
                P = min(cap, low[co][m], min(map(add, vm, precs)))
                S = sum(map(mul, nums, res)) % p ** max(P + s + t, 0)
                per_m.append((S, P))
            per_co.append(per_m)
        out.append(per_co)
    return out


def assert_pairings_agree(new, old, p, s, t):
    """Both pairings agree modulo the new precision, which is never larger
    than the old one.  Returns the number of entries compared."""
    count = 0
    for lift_new, lift_old in zip(new, old, strict=True):
        for co_new, co_old in zip(lift_new, lift_old, strict=True):
            for (S, P), (S0, P0) in zip(co_new, co_old, strict=True):
                assert P <= P0
                assert (S - S0) % p ** max(P + s + t, 0) == 0
                count += 1
    return count


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
        lam = lambda x, r: lambdas(dom, lifts, x, r, tau,
                                         sz.n_terms, op)[0]
        for _ in range(12):
            x1, r1 = gens[rng.randrange(len(gens))]
            x2, r2 = gens[rng.randrange(len(gens))]
            l1 = lam(x1, r1)
            l2 = lam(x2, r2)
            l12 = lam(gamma_mul(dom, x1, x2), r1 + r2)
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
            xinv = gamma_conj(dom, x)  # x * conj(x) = nrd(x) = p^{2r}, central
            [l1] = lambdas(dom, lifts, x, r, tau, sz.n_terms, op)
            [l2] = lambdas(dom, lifts, xinv, r, tau, sz.n_terms, op)
            g_l2 = act(dom, k, x, r, l2, op)
            for a, b in zip(l1, g_l2):
                assert (a + b).is_zero()

    def test_omega_coordinate_vanishes(self, row32_m8):
        """The untraced integrals lie in Q_p: the second coordinate w.r.t.
        the basis (1, w) of the unramified field vanishes at p^(M-2)."""
        ctx, k, M, sz, basis, lifts, tau = row32_m8
        dom = ctx.dom
        for x, r in dom.generators()[:6]:
            [totals] = coordinate_totals(dom, lifts, x, r, tau,
                                          sz.n_terms, sz.out_prec)
            for _, b in totals:
                assert b.is_zero() or b.val >= M - 2

    @pytest.mark.parametrize("p, nminus, k", [
        (7, 2, 2), (7, 2, 4), (3, 2, 2), (3, 2, 4), (2, 3, 6), (2, 7, 6),
        (5, 3, 2), (3, 5, 2), (11, 2, 2)])
    def test_norm_relation_on_torsion(self, p, nminus, k):
        """For a generator gamma with gamma^n = +-1, n minimal,
        sum_(j<n) gamma^j . lam(gamma) = lam(gamma^n) = 0 by the cocycle law,
        as +-1 fixes tau and acts trivially on V_k: an oracle for every
        integrated value on the torsion generators, modulo the precision
        lam claims, with no frozen numbers."""
        ctx, k, M, sz, basis, lifts, tau = _row(p, nminus, k, 8)
        dom = ctx.dom
        op = sz.out_prec
        checked = 0
        for x, r in dom.generators():
            y, n = x, 1
            while n <= 6 and not dom.is_pm_one(y, n * r):
                y, n = gamma_mul(dom, y, x), n + 1
            if n > 6:
                continue
            for lam in lambdas(dom, lifts, x, r, tau, sz.n_terms, op):
                total, term = lam, lam
                for _ in range(n - 1):
                    term = act(dom, k, x, r, term, op)
                    total = [a + b for a, b in zip(total, term)]
                assert all(t.is_zero() for t in total)
                checked += 1
        assert checked > 0

    def test_identity_like_stabilizer_gives_zero_psi_path(self, row32_m8):
        """Covering for a vertex-stabilizing gamma is the single star."""
        ctx, k, M, sz, basis, lifts, tau = row32_m8
        dom = ctx.dom
        x, r = dom.vertex_stabs[0][0]
        balls = covering(dom, x, r)
        assert len(balls) == dom.p + 1


class TestIntegerPairing:
    @pytest.mark.parametrize("row, v_min", [
        ("row23_m12", None),  # p = 2, k = 4
        ("row32_m8", None),  # p = 3, w^2 = n: one cocycle
        ("row27_m12", -3),  # p = 2, d = 2: entries down to 2^-3
        ("row53_m8", None),  # p = 5, k = 2
    ])
    def test_matches_field_element_reference(self, request, row, v_min):
        """On every generator, the integer contraction on the pulled-back
        balls agrees with the term-by-term field evaluation on the balls
        g Z_p with the moments Phi(g) (`reference_lambda_values`) modulo
        the lower precision, and each entry is known to
        min(target_prec, reference precision): traced entries and both
        coordinates of the untraced totals."""
        ctx, k, M, sz, basis, lifts, tau = request.getfixturevalue(row)
        dom = ctx.dom
        op = sz.out_prec
        tau_ref = reference_base_point(dom.p, tau[3])
        vals = []
        for x, r in dom.generators():
            ref = reference_lambdas(dom, lifts, x, r, tau_ref,
                                          sz.n_terms, op)
            got = lambdas(dom, lifts, x, r, tau, sz.n_terms, op)
            totals = coordinate_totals(dom, lifts, x, r, tau, sz.n_terms,
                                        op)
            pairs = []
            for ref_v, got_v, tot_v in zip(ref, got, totals):
                for want, traced, (a, b) in zip(ref_v, got_v, tot_v):
                    pairs += [(half_trace(want), traced),
                              (want.a, a.with_prec(op)),
                              (want.b, b.with_prec(op))]
            for want, have in pairs:
                assert have.prec == min(op, want.prec)
                assert (have - want).is_zero()
            vals += [t.val for v in got for t in v if not t.is_zero()]
        if v_min is not None:
            assert min(vals) == v_min


class TestReassociatedPairing:
    @pytest.mark.parametrize("row", ["row23_m12", "row32_m8", "row27_m12"])
    def test_equals_convolved_reference_on_covering_balls(self, request, row):
        """On every covering ball of every generator, the reassociated
        pairing of the pulled-back kernel series and weight rows with the
        moments of the ball's representative agrees with the convolved one
        modulo its precision, which is never larger."""
        ctx, k, M, sz, basis, lifts, tau = request.getfixturevalue(row)
        dom, p, t = ctx.dom, ctx.p, sz.lift.t
        K = UnramifiedField(p, tau[3])
        reps = [lift.moments(sz.n_terms) for lift in lifts]
        count = 0
        for x, r in dom.generators():
            gtau = _mobius(dom.spl.image(x), tau, K)
            for ball in covering(dom, x, r):
                series = log_kernel_series(K, ball, tau, gtau, sz.n_terms)
                W = weight_coeff_rows(ball.matrix, k, p**ball.prec)
                moms = [rep[ball.j] for rep in reps]
                count += assert_pairings_agree(
                    _pairing(series, W, moms, p, t, K.prec),
                    reference_pairing(series, W, moms, p, t, K.prec),
                    p, series[0], t)
        assert count > 0

    @settings(max_examples=60, deadline=None)
    @given(p=st.sampled_from([2, 3, 5]), half_k=st.integers(0, 3),
           n_terms=st.integers(1, 25), s=st.integers(0, 4),
           t=st.integers(0, 4), cap=st.integers(1, 30),
           n_lifts=st.integers(1, 3), data=st.data())
    def test_equals_convolved_reference_on_random_data(
            self, p, half_k, n_terms, s, t, cap, n_lifts, data):
        """The same on random kernel series, weight rows and moments, with
        entries of every valuation and zeros, so that the products
        sum_u W[m][u] c[i-u] can cancel."""
        rng = random.Random(data.draw(st.integers(0, 2**32)))
        k = 2 * half_k

        def residue(P):
            if P <= 0 or rng.random() < 0.15:
                return 0
            return rng.randrange(p**P) * p ** rng.randrange(3) % p**P

        mat = [rng.randrange(-p**3, p**3) * p ** rng.randrange(3)
               for _ in range(4)]
        W = exact_weight_rows(mat, k)
        prc = [rng.randrange(-2, cap + 1) for _ in range(n_terms)]
        coords = [[residue(cap + s) for _ in range(n_terms)]
                  for _ in range(2)]
        Pmom = [rng.randrange(-3, 20) for _ in range(n_terms)]
        moms = []
        for _ in range(n_lifts):
            res = [residue(P) for P in Pmom]
            moms.append((res, [val_cap(a, p, P) - t for a, P in zip(res, Pmom)],
                         [P - t for P in Pmom]))
        series = (s, coords, prc)
        assert_pairings_agree(_pairing(series, W, moms, p, t, cap),
                              reference_pairing(series, W, moms, p, t, cap),
                              p, s, t)


@lru_cache(maxsize=None)
def _base_point(p, prec, variant):
    """The reference base point, a field element."""
    return reference_base_point(p, prec, variant=variant)


def _matrix_entries(p):
    """Integers up to p^6 in size, times p^j for a j up to 5, so that
    a tau + b and c tau + d reach valuations well past 1."""
    return st.builds(lambda n, j: n * p**j, st.integers(-p**6, p**6),
                     st.sampled_from([0, 0, 1, 2, 5]))


def _padic(p):
    """A PadicNumber of valuation -10 to 10 known to at most 30 digits past
    it; indistinguishable from zero in some draws."""
    return st.builds(
        lambda v, u, rel: PadicNumber(p, v, u, v + rel),
        st.integers(-10, 10), st.integers(0, p**40), st.integers(-5, 30))


class TestIntegerField:
    """K_p on integer pairs against the field-element reference."""

    @settings(max_examples=60, deadline=None)
    @given(p=st.sampled_from([2, 3, 5]), variant=st.sampled_from([0, 1]),
           prec=st.integers(1, 60))
    def test_base_point_is_teichmuller(self, p, variant, prec):
        assert base_point(p, prec, variant) == coords(
            _base_point(p, prec, variant))

    @settings(max_examples=150, deadline=None)
    @given(p=st.sampled_from([2, 3, 5]), variant=st.sampled_from([0, 1]),
           prec=st.sampled_from([10, 23, 40]), data=st.data())
    def test_mobius_equals_reference(self, p, variant, prec, data):
        """(A, B, e, P) of gamma tau, integers and precision both, for a
        random integer matrix gamma; both raise when c tau + d vanishes."""
        X = tuple(data.draw(_matrix_entries(p)) for _ in range(4))
        assume(X[0] * X[3] != X[1] * X[2])
        tau = _base_point(p, prec, variant)
        K = UnramifiedField(p, prec)
        try:
            want = coords(mobius(X, tau))
        except PrecisionError:
            with pytest.raises(PrecisionError):
                _mobius(X, coords(tau), K)
            return
        assert _mobius(X, coords(tau), K) == want

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_mobius_raises_when_denominator_vanishes(self, p):
        """c tau + d = 0 modulo p^prec: gamma tau is not determined."""
        with pytest.raises(PrecisionError):
            _mobius((1, 0, p**10, p**12), base_point(p, 10),
                    UnramifiedField(p, 10))

    @settings(max_examples=150, deadline=None)
    @given(p=st.sampled_from([2, 3, 5]), data=st.data())
    def test_halved_trace_equals_reference(self, p, data):
        a, b = data.draw(_padic(p)), data.draw(_padic(p))
        K = Field(p, 40)
        # both integral under p^-10, a zero's residue 0
        E = 10
        t, P = _halved_trace(K, E, *((x.unit and x.unit * p ** (x.val + E),
                                      x.prec + E) for x in (a, b)), 100)
        h = int(p == 2)
        got = PadicNumber(p, -E - h, t, P - E - h)
        want = half_trace(UnramifiedElement(K, a, b))
        assert (got.val, got.unit, got.prec) == (want.val, want.unit,
                                                 want.prec)


class TestKernelSeries:
    @settings(max_examples=60, deadline=None)
    @given(p=st.sampled_from([2, 3, 5]), variant=st.sampled_from([0, 1]),
           n_terms=st.integers(1, 100), data=st.data())
    def test_equals_field_element_reference(self, p, variant, n_terms, data):
        """On a ball of the covering for a random integer matrix X, the
        integer series equals the field-element one modulo the lower of the
        two precisions, coefficient by coefficient."""
        entry = st.integers(-p**3, p**3)
        X = tuple(data.draw(entry) for _ in range(4))
        assume(X[0] * X[3] != X[1] * X[2])
        tau = _base_point(p, 40, variant)
        K = tau.field
        tau2 = mobius(X, tau)
        v0 = base_vertex(p)
        w = normalize_vertex(mat_mul(tuple(Fraction(t) for t in X),
                                     v0.matrix()), p)
        edges = edges_leaving_geodesic(v0, w)
        ball = CoveringBall(
            edges[data.draw(st.integers(0, len(edges) - 1))].matrix(),
            math.inf, 0, None)
        z1 = coords(tau)
        got = series_elements(K, log_kernel_series(
            K, ball, z1, _mobius(X, z1, K), n_terms))
        want = reference_log_kernel_series(K, ball.matrix, tau, tau2, n_terms)
        assert len(got) == len(want) == n_terms
        for g, r in zip(got, want):
            for x, y in ((g.a, r.a), (g.b, r.b)):
                assert (x - y).is_zero()


def _geodesic_edges(p: int, X):
    """The edges leaving the geodesic from the base vertex to X.v0."""
    v0 = base_vertex(p)
    return edges_leaving_geodesic(v0, normalize_vertex(
        mat_mul(tuple(Fraction(t) for t in X), v0.matrix()), p))


def _undecidable_by_h(hx, H: int, z1, z2, p: int) -> bool:
    """Whether hx, h times a unit, shows a quantity that
    `log_kernel_series` splits into p^v times a unit to be O(p^H):
    p^e (a - c tau) or p^e (d tau - b) for a base point
    tau = p^-e (A + B w) known modulo p^P, so known modulo
    p^(P + e + v(c)) or p^(P + e + v(d)).  H digits of h then cannot tell
    it from zero, and a PrecisionError on the h side is right."""
    a, b, c, d = hx
    for za, zb, e, P in (z1, z2):
        pe = p**e
        for pair, w in (((a * pe - c * za, -c * zb), c),
                        ((d * za - b * pe, d * zb), d)):
            known = P + e + val_cap(w, p, math.inf)
            if min(val_cap(t, p, known) for t in pair) >= H:
                return True
    return False


def _pulled_back_pairing_agrees(p, variant, half_k, extra, H, X, i, sigma,
                                seed) -> bool:
    """For the covering-ball matrix g of edge i of `_geodesic_edges`, an
    Iwahori sigma of unit determinant and h = g sigma^-1 (residues modulo
    p^H), pairing the kernel series and weight rows of g with the moments
    T_sigma mu equals det(sigma)^(k/2) times pairing those of h with mu, as
    row i of T_sigma is x^i |_k sigma^-1.  Both sides are truncated to
    their first n_terms moments, and every kernel coefficient c_n, n >= 1,
    has valuation at least n - log_p(n), so they agree modulo the lower
    claimed precision and the truncation bound
    n_terms - k - log_p(n_terms - k).  Returns False, having compared
    nothing, when the h side raises a PrecisionError that the exact h
    shows to be right (`_undecidable_by_h`)."""
    k = 2 * half_k
    n_terms = k + extra
    cap, Wm = 40, 80
    K = UnramifiedField(p, cap)
    z1 = base_point(p, cap, variant)
    z2 = _mobius(X, z1, K)
    g = _geodesic_edges(p, X)[i].matrix()
    a, b, c, d = sigma
    det = a * d - b * c
    # h = g adj(sigma) / det(sigma), modulo p^H; hx is det(sigma) h, exact
    hx = mat_mul(g, (d, -b, -c, a))
    dinv = pow(det, -1, p**H)
    h = tuple(e * dinv % p**H for e in hx)
    rng = random.Random(seed)
    L = n_terms + 10
    mu = [rng.randrange(p**Wm) for _ in range(L)]
    T = sigma_series_matrix(sigma, k, L - 1, p, Wm, n_terms, det)
    t_mu = [sum(map(mul, row, mu)) % p**Wm for row in T]

    def pairing(mat, prec, moments):
        series = log_kernel_series(K, CoveringBall(mat, prec, 0, None),
                                   z1, z2, n_terms)
        W = [[e % p**prec if prec < math.inf else e for e in row]
             for row in exact_weight_rows(mat, k)]
        moms = [(moments, [val_cap(m, p, Wm) for m in moments],
                 [Wm] * n_terms)]
        [per_co] = _pairing(series, W, moms, p, 0, cap)
        # the weight rows of a residue matrix cap every total
        return series[0], [[(S, min(P, prec - series[0])) for S, P in rows]
                           for rows in per_co]

    s_g, on_g = pairing(g, math.inf, t_mu)
    try:
        s_h, on_h = pairing(h, H, mu[:n_terms])
    except PrecisionError:
        if _undecidable_by_h(hx, H, z1, z2, p):
            return False
        raise
    E = max(s_g, s_h)
    fac = pow(det, half_k, p ** (cap + 2 * E + Wm))
    trunc = n_terms - k - ilog(n_terms - k, p)
    for rows_g, rows_h in zip(on_g, on_h, strict=True):
        for (S, P), (S_h, P_h) in zip(rows_g, rows_h, strict=True):
            bound = min(P, P_h, trunc)
            diff = S * p ** (E - s_g) - fac * S_h * p ** (E - s_h)
            assert diff % p ** max(bound + E, 0) == 0
    return True


class TestChangeOfVariables:
    @settings(max_examples=60, deadline=None)
    @given(p=st.sampled_from([2, 3, 5]), variant=st.sampled_from([0, 1]),
           half_k=st.integers(0, 3), extra=st.integers(8, 30),
           H=st.integers(5, 60), data=st.data())
    def test_pulled_back_kernel_pairs_raw_moments(self, p, variant, half_k,
                                                  extra, H, data):
        """`_pulled_back_pairing_agrees` for a matrix X with entries up to
        p^3, any edge of its geodesic and sigma with diagonal entries up to
        p^4.  A PrecisionError on the h side passes only where the exact h
        shows the refused quantity to be O(p^H)."""
        entry = st.integers(-p**3, p**3)
        X = tuple(data.draw(entry) for _ in range(4))
        assume(X[0] * X[3] != X[1] * X[2])
        i = data.draw(st.integers(0, len(_geodesic_edges(p, X)) - 1))
        unit = st.integers(1, p**4).filter(lambda a: a % p)
        a, d = data.draw(unit), data.draw(unit)
        b, c = data.draw(st.integers(-p**4, p**4)), p * data.draw(entry)
        _pulled_back_pairing_agrees(p, variant, half_k, extra, H, X, i,
                                    (a, b, c, d),
                                    data.draw(st.integers(0, 2**32)))

    def test_h_at_its_own_valuation_is_refused(self):
        """p = 2, X = (5, -2, 3, 2), edge 4 of 7 and sigma = (1, 0, 2, 1):
        for the exact h = (-14, 15, -2, 1), a - c tau_2 has valuation 5,
        so h modulo 2^5 cannot tell it from zero and the h side is refused,
        while modulo 2^6 it pairs as g does."""
        X, sigma = (5, -2, 3, 2), (1, 0, 2, 1)
        assert len(_geodesic_edges(2, X)) == 7
        g = _geodesic_edges(2, X)[4].matrix()
        assert mat_mul(g, (1, 0, -2, 1)) == (-14, 15, -2, 1)
        assert not _pulled_back_pairing_agrees(2, 0, 0, 8, 5, X, 4, sigma, 0)
        assert _pulled_back_pairing_agrees(2, 0, 0, 8, 6, X, 4, sigma, 0)


def _sized_domain(ctx, k, M):
    """The resplit domain and sizing of ctx at weight k + 2 and working
    precision M, as `compute_l_result` builds them."""
    sz = size_parameters(ctx, k, M, row_scales(
        ctx, k, harmonic_basis(ctx.dom, k, SIZING_BASIS_PREC)))
    return resplit(ctx, sz.split_prec).dom, sz


class TestKernelPrecision:
    @pytest.mark.parametrize("ctx_name, k, M", [
        ("ctx27", 6, 12), ("ctx27", 6, 24), ("ctx32", 2, 8)])
    def test_claims_confirmed_by_finer_base_point(self, request, ctx_name,
                                                  k, M):
        """Every covering ball's pulled-back kernel coefficients (constant
        and n >= 1), both coordinates, agree to the precision they claim
        with the same series from a splitting 30 digits finer, which gives
        the pulled-back matrices h to 30 more digits, and from the base point
        at tau_prec + 50.  The Teichmuller base point is canonical and the
        finer splitting agrees with the coarser one to its precision, so the
        finer series is an independent oracle."""
        ctx = request.getfixturevalue(ctx_name)
        dom, sz = _sized_domain(ctx, k, M)
        fine = resplit(ctx, sz.split_prec + 30).dom
        p = dom.p
        fields = [UnramifiedField(p, sz.tau_prec),
                  UnramifiedField(p, sz.tau_prec + 50)]
        taus = [base_point(p, K.prec) for K in fields]
        checked = 0
        for x, r in dom.generators():
            zs = [(tau, _mobius(gamma_matrix(d, x, r)[0], tau, K))
                  for d, tau, K in zip((dom, fine), taus, fields)]
            for ball, ball_hi in zip(covering(dom, x, r),
                                     covering(fine, x, r), strict=True):
                assert (ball.j, ball.det_val) == (ball_hi.j, ball_hi.det_val)
                assert ball_hi.prec == ball.prec + 30
                (s, lo, P), (S, hi, P_hi) = (
                    log_kernel_series(K, b, z1, z2, sz.n_terms)
                    for K, b, (z1, z2) in zip(fields, (ball, ball_hi), zs))
                assert all(a <= b for a, b in zip(P, P_hi))
                E = max(s, S)
                for co_lo, co_hi in zip(lo, hi):
                    for a, b, prec in zip(co_lo, co_hi, P):
                        diff = a * p ** (E - s) - b * p ** (E - S)
                        assert diff % p ** (prec + E) == 0
                        checked += 1
        assert checked > 0
