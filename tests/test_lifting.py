"""Overconvergent moment lifting: substitution rows, packing and packed
sweeps against schoolbook references, the scheduled sweeps against
full-modulus sweeps from phi, the live-window lift against full-width sweeps
from a stabilizer-averaged start, fixed point, stability, Riemann oracle."""

import random
from dataclasses import replace
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from linvariant.cocycles import harmonic_basis
from linvariant.domain import build_up_table
from linvariant import lifting
from linvariant.lifting import (LiftParams, _field_width, _pack,
                                _sweep_lifts, _unpack, _up_sweep, make_lift,
                                sigma_series_matrix)
from linvariant.padics import inv_mod, val_int
from linvariant.pipeline import (SIZING_BASIS_PREC, resplit, row_scales,
                                 size_parameters)
from linvariant.tree import mat_adj, mat_det, mat_mul


def reference_sigma_series_matrix(sigma, k, i_max, p, W, n_rows=None,
                                  n_cols=None, det=None):
    """Schoolbook rows of the substitution matrix, to degree < n_cols: each
    row is the previous one times the series s = (d x - b)/(a - c x), entry
    by entry, then scaled by det^(-k/2), det defaulting to that of sigma."""
    a, b, c, d = (int(t) for t in sigma)
    mod = p**W
    cols = i_max + 1 if n_cols is None else n_cols
    ainv = inv_mod(a % mod, mod)
    inv = [0] * cols
    inv[0] = ainv
    q = c * ainv % mod
    for n in range(1, cols):
        inv[n] = inv[n - 1] * q % mod
    s = [0] * cols
    for n in range(cols):
        acc = d * inv[n - 1] if n >= 1 else 0
        acc -= b * inv[n]
        s[n] = acc % mod
    base = [comb(k, n) * (-c) ** n * a ** (k - n) % mod
            for n in range(min(k, cols - 1) + 1)]
    base += [0] * (cols - len(base))
    if det is None:
        det = a * d - b * c
    dfac = pow(inv_mod(det % mod, mod), k // 2, mod)
    if n_rows is None:
        n_rows = i_max + 1
    rows = [[t * dfac % mod for t in base]]
    cur = base
    for _ in range(n_rows - 1):
        nxt = [0] * cols
        for n in range(cols):
            acc = 0
            for u in range(n + 1):
                if cur[u]:
                    acc += cur[u] * s[n - u]
            nxt[n] = acc % mod
        cur = nxt
        rows.append([t * dfac % mod for t in cur])
    return rows


def reference_up_sweep(combined, phis, vecs, n_out, k, mod, half):
    """One normalized U_p sweep with the combined matrices C stored by rows,
    entry by entry: combined[j] lists (j', C).  Reads the moments m <
    len(vecs[j']) and gives the moments i < n_out."""
    new = []
    for j in range(len(vecs)):
        acc = [0] * n_out
        for jp, C in combined[j]:
            src = vecs[jp]
            for i in range(n_out):
                Ci = C[i]
                s = 0
                for m in range(len(src)):
                    if Ci[m]:
                        s += Ci[m] * src[m]
                acc[i] += s
        vec = []
        for i in range(n_out):
            q = acc[i] % mod
            assert q % half == 0, "U_p value not divisible by p^(k/2)"
            vec.append(q // half)
        for i in range(k + 1):
            vec[i] = phis[j][i]
        new.append(vec)
    return new


def up_table(dom):
    """table[j][l] = (j', sigma): the reductions of the U_p cosets."""
    return [[(ent.j, ent.sigma) for ent in ents]
            for ents in build_up_table(dom)]


def reference_combined(table, p, k, W, i_max):
    """The combined sweep matrices C = P_l T_sigma by rows, entry by entry,
    from the schoolbook substitution rows, for the moments up to i_max, with
    table[j][l] = (j', sigma) as `up_table` gives it."""
    mod = p**W
    n = i_max + 1
    out = []
    for cosets in table:
        row = []
        for ell, (jp, sigma) in enumerate(cosets):
            T = reference_sigma_series_matrix(sigma, k, n - 1, p, W)
            C = []
            for i in range(n):
                acc = [0] * n
                for nu in range(i + 1):
                    cf = comb(i, nu) * p**nu * ell ** (i - nu) % mod
                    for m in range(n):
                        acc[m] += cf * T[nu][m]
                C.append([v % mod for v in acc])
            row.append((jp, C))
        out.append(row)
    return out


def reference_sweeps(table, phis, p, k, W, n_it):
    """The moment vectors of one lift after n_it schoolbook sweeps from phi
    alone, every sweep modulo p^W, sweep n giving the moments 0..n+k."""
    combined = reference_combined(table, p, k, W, n_it + k)
    vecs = phis
    for n in range(1, n_it + 1):
        vecs = reference_up_sweep(combined, phis, vecs, n + k + 1, k, p**W,
                                  p ** (k // 2))
    return vecs


def stab_sigma(dom, B, x, r):
    """Iwahori witness sigma with iota(x/p^r) B = B sigma, as residue matrix:
    adj(B) iota(x) B / (det(B) p^r), nrd(x) = p^(2r), det(B) = +-p^vB."""
    p, det = dom.p, mat_det(B)
    e = val_int(det, p) + r
    raw = mat_mul(mat_adj(B), mat_mul(dom.spl.image(x), B))
    assert all(t % p**e == 0 for t in raw)
    sign = 1 if det > 0 else -1
    return tuple(sign * (t // p**e) % p ** (dom.spl.prec - e) for t in raw)


def averaged_start(dom, lift, i_max):
    """The lift's phi averaged over each edge stabilizer, moments 0..i_max,
    with the moments 0..k reset to phi: the start of the lift before it
    began from phi alone.  The average must be p-integral."""
    p, pr = dom.p, lift.params
    k, mod = pr.k, p**pr.W
    vecs = []
    for j, phi in enumerate(lift.phis):
        B = dom.rep_mats[j]
        stab = dom.edge_stabs[j // 2]
        Ts = [reference_sigma_series_matrix(stab_sigma(dom, B, x, r), k,
                                            i_max, p, pr.W, n_cols=k + 1)
              for x, r in stab]
        a = val_int(len(stab), p)
        uinv = inv_mod(len(stab) // p**a, mod)
        vec = []
        for m in range(i_max + 1):
            q = sum(T[m][u] * phi[u] for T in Ts for u in range(k + 1)) % mod
            assert q % p**a == 0, "stabilizer average is not p-integral"
            vec.append((q // p**a) * uinv % mod)
        vec[:k + 1] = phi
        vecs.append(vec)
    return vecs


def test_budget_checked_within_long_rows(monkeypatch):
    """A row of a substitution matrix checks the time budget every 256
    entries: the second row of 2048 entries, 2047 computed, checks it 8
    times."""
    calls = []
    monkeypatch.setattr(lifting, "checkpoint", lambda: calls.append(None))
    sigma_series_matrix((1, 0, 0, 1), 0, 2047, 2, 8, 2, 1)
    assert len(calls) == 8


class TestPackedKernels:
    @settings(max_examples=30, deadline=None)
    @given(p=st.sampled_from([2, 3, 5]), half_k=st.integers(0, 5),
           W=st.integers(1, 90), i_max=st.integers(0, 100),
           data=st.data())
    def test_sigma_series_matrix_equals_reference(self, p, half_k, W, i_max,
                                                  data):
        """Every row of the substitution matrix from the recurrence equals
        the schoolbook one, for random Iwahori sigma with entries up to
        p^W - 1, including fewer rows than i_max + 1, and
        sigma of determinant p times a unit, passed as det."""
        mod = p**W
        unit = st.integers(0, mod - 1).filter(lambda t: t % p)
        a, d = data.draw(unit), data.draw(unit)
        b = data.draw(st.integers(0, mod - 1))
        c = p * data.draw(st.integers(0, (mod - 1) // p))
        if data.draw(st.booleans()):
            # a d - b c = p det mod p^W
            det = data.draw(unit)
            d = (p * det + b * c) * inv_mod(a, mod) % mod
        else:
            det = a * d - b * c
        n_rows = data.draw(st.integers(1, i_max + 1))
        k = 2 * half_k
        args = ((a, b, c, d), k, i_max, p, W, n_rows)
        assert (sigma_series_matrix(*args, det=det)
                == reference_sigma_series_matrix(*args, det=det))

    @settings(max_examples=30, deadline=None)
    @given(p=st.sampled_from([2, 3, 5]), W=st.integers(1, 90),
           n=st.integers(1, 60), reps=st.integers(1, 4),
           lifts=st.integers(1, 3), half_k=st.integers(0, 5), data=st.data())
    def test_up_sweep_equals_reference(self, p, W, n, reps, lifts, half_k,
                                       data):
        """The column-packed sweep equals the row-by-row one on random
        matrices and moment vectors with residues up to p^W - 1, for a
        modulus p^E, E <= W, reading n_in of the n live moments and giving
        n_out of the n packed ones, for several lifts at once."""
        rng = random.Random(data.draw(st.integers(0, 2**32)))
        mod = p ** data.draw(st.integers(1, W))
        k = min(2 * half_k, n - 1)
        n_in = data.draw(st.integers(k + 1, n))
        n_out = data.draw(st.integers(k + 1, n))
        res = lambda count: [rng.randrange(p**W) for _ in range(count)]
        combined = [[(rng.randrange(reps), [res(n) for _ in range(n)])
                     for _ in range(p)] for _ in range(reps)]
        all_vecs = [[res(n) for _ in range(reps)] for _ in range(lifts)]
        all_phis = [[res(k + 1) for _ in range(reps)] for _ in range(lifts)]
        width = _field_width(p**W, p * n)
        packed = [[(jp, [_pack([C[i][m] for i in range(n)], width)
                         for m in range(n)]) for jp, C in row]
                  for row in combined]
        assert (_up_sweep(packed, all_phis, all_vecs, n_in, n_out, k, mod, 1,
                          width)
                == [reference_up_sweep(combined, phis,
                                       [v[:n_in] for v in vecs], n_out, k,
                                       mod, 1)
                    for phis, vecs in zip(all_phis, all_vecs)])

    @settings(max_examples=50, deadline=None)
    @given(W=st.integers(1, 300), terms=st.integers(0, 1000),
           n=st.integers(0, 40), data=st.data())
    def test_pack_round_trip(self, W, terms, n, data):
        """The field width is the bound for `terms` products of two
        residues mod p^W rounded up to whole bytes, and unpacking the first
        n_read fields of a packed vector of values below 2^B gives them
        reduced modulo a random modulus."""
        p = data.draw(st.sampled_from([2, 3, 5]))
        B = _field_width(p**W, terms)
        bound = 2 * (p**W - 1).bit_length() + terms.bit_length() + 1
        assert B % 8 == 0 and bound <= B < bound + 8
        vals = data.draw(st.lists(st.integers(0, 2**B - 1), min_size=n,
                                  max_size=n))
        mod = data.draw(st.integers(1, 2**B))
        n_read = data.draw(st.integers(0, n))
        assert (_unpack(_pack(vals, B), B, n_read, mod)
                == [v % mod for v in vals[:n_read]])

    @settings(max_examples=40, deadline=None)
    @given(p=st.sampled_from([2, 3, 5]), half_k=st.integers(0, 5),
           W=st.integers(1, 40), n_it=st.integers(0, 12),
           reps=st.integers(1, 3), lifts=st.integers(1, 2), data=st.data())
    def test_scheduled_sweeps_equal_reference(self, p, half_k, W, n_it, reps,
                                              lifts, data):
        """On random Iwahori cosets and random phi, the sweeps run modulo
        p^E_n, skipped while E_n <= k/2, reading and giving only the
        moments that reach the result, give every residue of the sweeps
        run from phi modulo p^W.  phi_m is divisible by p^(k/2 - m), so
        that every U_p value is divisible by p^(k/2)."""
        k, mod = 2 * half_k, p**W
        unit = st.integers(0, mod - 1).filter(lambda t: t % p)
        table = []
        for _ in range(reps):
            cosets = []
            for _ in range(p):
                a, d = data.draw(unit), data.draw(unit)
                c = p * data.draw(st.integers(0, (mod - 1) // p))
                # a d - b c a unit, as p | c
                b = data.draw(st.integers(0, mod - 1))
                cosets.append((data.draw(st.integers(0, reps - 1)),
                               (a, b, c, d)))
            table.append(cosets)
        all_phis = [[[p ** max(half_k - m, 0)
                      * data.draw(st.integers(0, mod - 1)) % mod
                      for m in range(k + 1)] for _ in range(reps)]
                    for _ in range(lifts)]
        pr = LiftParams(k=k, t=0, n_it=n_it, W=W)
        assert (_sweep_lifts(table, all_phis, p, pr)
                == [reference_sweeps(table, phis, p, k, W, n_it)
                    for phis in all_phis])

    @pytest.mark.parametrize("row, n_it", [
        pytest.param(row, n_it,
                     id=row if n_it is None else f"{row}-n_it{n_it}")
        for row, n_it in [("row32_m6", None), ("row32_m6", 0),
                          ("row32_m6", 1), ("row32_m6", 2),
                          ("row32_k6", None), ("row23_k10", None)]])
    def test_make_lift_equals_reference_sweeps(self, request, row, n_it):
        """Every residue of the lift equals that of the schoolbook sweeps
        run from phi alone at the full modulus p^W, sweep n giving the
        moments 0..n+k, with the sized number of sweeps or n_it of them."""
        ctx, k, M, sz, basis, lifts, tau = request.getfixturevalue(row)
        pr = sz.lift if n_it is None else replace(sz.lift, n_it=n_it)
        if n_it is not None:
            lifts = make_lift(ctx.dom, basis, pr)
        table = up_table(ctx.dom)
        for lift in lifts:
            assert lift.vecs == reference_sweeps(table, lift.phis, ctx.p, k,
                                                 pr.W, pr.n_it)
            assert all(len(v) == pr.i_max + 1 for v in lift.vecs)

    @pytest.mark.parametrize("row", ["row32_m6", "row27_m12"])
    def test_live_window_equals_averaged_full_width(self, request, row):
        """The lift agrees, modulo p^moment_prec(i) for every moment i, with
        full-width schoolbook sweeps over the moments 0..W+k+6 from the
        stabilizer-averaged start: neither the start nor the moments
        without a certified digit change a certified one."""
        ctx, k, M, sz, basis, lifts, tau = request.getfixturevalue(row)
        pr, p = sz.lift, ctx.p
        wide = pr.W + k + 6
        assert wide > pr.i_max
        combined = reference_combined(up_table(ctx.dom), p, k, pr.W, wide)
        for lift in lifts:
            vecs = averaged_start(ctx.dom, lift, wide)
            for _ in range(pr.n_it):
                vecs = reference_up_sweep(combined, lift.phis, vecs, wide + 1,
                                          k, p**pr.W, p ** (k // 2))
            for j, vec in enumerate(lift.vecs):
                assert len(vec) == pr.i_max + 1
                for i, a in enumerate(vec):
                    assert lift.moment_prec(i) >= 1
                    assert (a - vecs[j][i]) % p ** lift.moment_prec(i) == 0, \
                        (j, i)


class TestFixedPoint:
    def test_up_fixed_point_per_index(self, row32_m6):
        """One extra normalized-U_p sweep changes no moment beyond its
        guaranteed precision."""
        ctx, k, M, sz, basis, [lift0], tau = row32_m6
        p = ctx.p
        pr = sz.lift
        pr1 = LiftParams(k=pr.k, t=pr.t, n_it=pr.n_it + 1, W=pr.W)
        [lift1] = make_lift(ctx.dom, basis, pr1)
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
        pr3 = LiftParams(k=pr.k, t=pr.t, n_it=pr.n_it + 3, W=pr.W)
        [lift3] = make_lift(ctx.dom, basis, pr3)
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
    sz = size_parameters(ctx27, k, 4, row_scales(
        ctx27, k, harmonic_basis(ctx27.dom, k, SIZING_BASIS_PREC)))
    ctx = resplit(ctx27, sz.split_prec)
    basis = harmonic_basis(ctx.dom, k, SIZING_BASIS_PREC)
    assert len(basis) == 2
    lifts = make_lift(ctx.dom, basis, sz.lift)
    for c, lift in zip(basis, lifts):
        [own] = make_lift(ctx.dom, [c], sz.lift)
        assert own.vecs == lift.vecs and own.phis == lift.phis


def riemann_moments(ctx, lift, j, depth, n_moments):
    """Independent Riemann-sum evaluation of Phi(B_j)(x^i) (scaled world).

    Refine B_j Z_p into the balls B_j h_a Z_p, h_a = [[p^d, a], [0, 1]],
    a mod p^d, and use only the degree-<= k moments of each small ball, which
    are exact polynomial data of the harmonic cocycle:
      Phi(g)(x^i) = sum_a p^(-dk/2) sum_nu C(i,nu) p^(d nu) a^(i-nu)
                                   Phi(g h_a)(x^nu).
    """
    dom = ctx.dom
    p = dom.p
    pr = lift.params
    k = pr.k
    W, mod = pr.W, p**pr.W
    Bj = dom.rep_mats[j]
    vB = dom.rep_detvals[j]
    d = depth
    out = []
    low = {}
    for a in range(p**d):
        g = mat_mul(Bj, (p**d, a, 0, 1))
        r = dom.reduce_matrix(g, vB + d)
        T = sigma_series_matrix(r.sigma, k, k, p, W, k + 1, mat_det(r.sigma))
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
