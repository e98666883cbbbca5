"""End-to-end acceptance suite.

Seven criteria, each a single test emitting one PASS/FAIL line:
  1. scalar L-invariant at (p, Nminus, Nplus, weight) = (3, 2, 1, 4), 10 digits
  2. scalar L-invariant at weight 6, 10 digits, valuation -1
  3. slope/sign table for (2, 3, 1), weights 4-16, exact
  4. slope/sign tables for (2, 5, 1) and (2, 7, 1), weights 4-8, exact
  5. property suite with no frozen numerical data
  6. moment oracle: overconvergent moments vs. direct Riemann refinement
  7. independence of the reported matrix from auxiliary choices

Criteria 1-4 read the committed result rows in .cache/ when present and
compute any missing row otherwise, without writing it back.  Row
(2, 7, 1, 8, 12) is deliberately not committed: it needs a second attempt
at a higher working precision, so the default run exercises that path cold.
With .cache/ removed, criteria 1-4 recompute every row, which takes about
five minutes on a 2-core machine.
"""

import glob
import json
import os
import random
from fractions import Fraction

from linvariant.domain import gamma_matrix
from linvariant.lifting import LiftParams, make_lift
from linvariant import loperator
from linvariant.padics import PadicNumber
from linvariant.pipeline import compute_l_result
from linvariant.tree import (
    base_vertex,
    edge_between,
    edges_leaving_geodesic,
    geodesic,
    mat_det,
    mat_mul,
    neighbors,
    normalize_edge,
    normalize_vertex,
    star,
)

from conftest import act, coordinate_totals, gamma_mul, lambdas, psis, value
from test_lifting import riemann_moments
from test_tree import ball_contains, random_glq

CACHE = os.path.join(os.path.dirname(__file__), "..", ".cache")


def report(name, ok):
    print(f"[acceptance] {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, name


def load_row(p, nminus, weight, M):
    """Result for (p, nminus, 1, weight) at M digits.

    A committed row of .cache/ qualifies when its precision is >= M, since
    slopes and signs are exact.  A missing row is computed and not written
    back, so that the next run computes it again instead of reading its own
    output."""
    pat = os.path.join(CACHE, f"lresult_{p}_{nminus}_1_{weight}_*.json")
    for f in sorted(glob.glob(pat)):
        with open(f) as fh:
            d = json.load(fh)
        if d["prec"] >= M:
            return d
    return compute_l_result(p, nminus, 1, weight, M).to_json()


def entry_fraction(e):
    return Fraction(int(e["unit"]) * Fraction(e["p"]) ** e["val"])


def val_p(x: Fraction, p: int):
    if x == 0:
        return None
    v = 0
    num, den = x.numerator, x.denominator
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v


def slopes_set(raw):
    return sorted((Fraction(s), m) for s, m in raw)


def signs_set(raw):
    return sorted((int(e), m) for e, m in raw)


class TestScalarInvariants:
    def test_criterion_1_weight4(self):
        data = load_row(3, 2, 4, 10)
        expected = Fraction(1 + 3**2 + 2 * 3**7 + 3**8 + 2 * 3**9)
        e = data["matrix"][0][0]
        got = entry_fraction(e)
        ok = (data["dim"] == 1
              and e["val"] + e["prec"] >= 10
              and (got == expected or val_p(got - expected, 3) >= 10))
        report("1: L-invariant (3,2,1) weight 4 mod 3^10", ok)

    def test_criterion_2_weight6(self):
        data = load_row(3, 2, 6, 10)
        expected = (Fraction(1, 3) + 2 * 3**2 + 3**4 + 3**7
                    + 2 * 3**8 + 2 * 3**9)
        e = data["matrix"][0][0]
        got = entry_fraction(e)
        ok = (data["dim"] == 1
              and e["val"] == -1
              and e["val"] + e["prec"] >= 10
              and (got == expected or val_p(got - expected, 3) >= 10))
        report("2: L-invariant (3,2,1) weight 6 mod 3^10, valuation -1", ok)


# frozen slope tables: weight -> (dim, plus slopes, minus slopes, W_p signs)
TABLE_2_3 = {
    4: (1, [(1, 1)], [], [(1, 1)]),
    6: (1, [(0, 1)], [], [(-1, 1)]),
    8: (1, [], [(-1, 1)], [(-1, 1)]),
    10: (1, [], [(0, 1)], [(1, 1)]),
    12: (3, [(-1, 1)], [(-4, 2)], [(-1, 1), (1, 2)]),
    14: (1, [(-1, 1)], [], [(-1, 1)]),
    16: (3, [(-4, 2)], [(-2, 1)], [(-1, 2), (1, 1)]),
}
TABLE_2_5 = {
    4: (1, [], [(2, 1)], [(-1, 1)]),
    6: (3, [(-2, 2)], [(0, 1)], [(-1, 1), (1, 2)]),
    8: (1, [], [(-1, 1)], [(-1, 1)]),
}
TABLE_2_7 = {
    4: (2, [(1, 1)], [(1, 1)], [(-1, 1), (1, 1)]),
    6: (2, [(0, 1)], [(0, 1)], [(-1, 1), (1, 1)]),
    8: (4, [(0, 1), (-1, 1)], [(0, 1), (-1, 1)], [(-1, 3), (1, 1)]),
}


def check_table(nminus, table, M):
    bad = []
    for w, (dim, sp, sm, eps) in sorted(table.items()):
        d = load_row(2, nminus, w, M)
        row_ok = (
            d["dim"] == dim
            and slopes_set(d["slopes_plus"]) == slopes_set(sp)
            and slopes_set(d["slopes_minus"]) == slopes_set(sm)
            and signs_set(d["eps_w"]) == signs_set(eps)
        )
        if not row_ok:
            bad.append(w)
    return bad


class TestSlopeTables:
    def test_criterion_3_table_2_3(self):
        bad = check_table(3, TABLE_2_3, 12)
        report("3: slope table (2,3,1) weights 4-16"
               + (f" (bad weights {bad})" if bad else ""), not bad)

    def test_criterion_4_tables_2_5_and_2_7(self):
        bad5 = check_table(5, TABLE_2_5, 12)
        bad7 = check_table(7, TABLE_2_7, 12)
        report("4: slope tables (2,5,1) and (2,7,1) weights 4-8"
               + (f" (bad {bad5} / {bad7})" if bad5 or bad7 else ""),
               not (bad5 or bad7))


def _translated_edge(dom, x, r, e):
    Xi, _ = gamma_matrix(dom, x, r)
    return normalize_edge(mat_mul(tuple(Fraction(t) for t in Xi),
                                  e.matrix()), dom.p)


def _random_iwahori_unit(rng, p):
    while True:
        u = tuple(rng.randrange(-20, 21) for _ in range(4))
        if mat_det(u) % p != 0 and u[2] % p == 0:
            return u


class TestProperties:
    """Criterion 5: structural laws only, no frozen numerical data."""

    def test_criterion_5_property_suite(self, row32_m8):
        ctx, k, M, sz, basis, lifts, tau = row32_m8
        [lift] = lifts
        dom = ctx.dom
        p = dom.p
        op = sz.out_prec
        rng = random.Random(2024)

        # (a) edge normal form is invariant under 500 random right
        # Iwahori-unit factors
        for _ in range(500):
            m = random_glq(rng, p)
            u = _random_iwahori_unit(rng, p)
            assert normalize_edge(mat_mul(m, u), p) == normalize_edge(m, p)

        # (b) star and covering partitions of the projective line
        def rand_pt():
            if rng.random() < 0.1:
                return "inf"
            return Fraction(rng.randrange(-p**4, p**4), p**rng.randrange(3))

        v0 = base_vertex(p)
        for v in (v0, neighbors(v0)[1]):
            for _ in range(25):
                x = rand_pt()
                assert sum(1 for e in star(v) if ball_contains(e, x)) == 1
        far = neighbors(neighbors(v0)[0])[1]
        for _ in range(25):
            x = rand_pt()
            hits = sum(1 for e in edges_leaving_geodesic(v0, far)
                       if ball_contains(e, x))
            assert hits == 1

        # (c) harmonicity and invariance of every basis cocycle at 100
        # random vertices / edges
        def rand_vertex():
            return normalize_vertex(random_glq(rng, p), p)

        gens = dom.generators()
        for c in basis:
            for _ in range(100):
                v = rand_vertex()
                total = [PadicNumber.zero(p, op) for _ in range(k + 1)]
                for e in star(v):
                    val = value(c, e, op)
                    total = [a + b for a, b in zip(total, val)]
                assert all(t.is_zero() for t in total)
            for _ in range(100):
                e = star(rand_vertex())[rng.randrange(p + 1)]
                x, r = gens[rng.randrange(len(gens))]
                lhs = value(c, _translated_edge(dom, x, r, e), op)
                rhs = act(dom, k, x, r, value(c, e, op), op)
                assert all((a - b).is_zero() for a, b in zip(lhs, rhs))

        # (d) covering sums to zero over 20 random geodesics
        done = 0
        while done < 20:
            a, b = rand_vertex(), rand_vertex()
            if a == b:
                continue
            total = [PadicNumber.zero(p, op) for _ in range(k + 1)]
            for e in edges_leaving_geodesic(a, b):
                val = value(basis[0], e, op)
                total = [s + t for s, t in zip(total, val)]
            assert all(t.is_zero() for t in total)
            done += 1

        # (e) crossed-homomorphism law for psi and lambda on 50 products
        lam_cache = {}

        def lam(x, r, key):
            if key not in lam_cache:
                [lam_cache[key]] = lambdas(dom, lifts, x, r, tau,
                                                 sz.n_terms, op)
            return lam_cache[key]

        for _ in range(50):
            i1, i2 = rng.randrange(len(gens)), rng.randrange(len(gens))
            (x1, r1), (x2, r2) = gens[i1], gens[i2]
            p1 = psis(dom, basis[0], x1, r1, op)
            p2 = psis(dom, basis[0], x2, r2, op)
            x12 = gamma_mul(dom, x1, x2)
            p12 = psis(dom, basis[0], x12, r1 + r2, op)
            gp2 = act(dom, k, x1, r1, p2, op)
            assert all((a + b - c).is_zero()
                       for a, b, c in zip(gp2, p1, p12))
            l1, l2 = lam(x1, r1, i1), lam(x2, r2, i2)
            [l12] = lambdas(dom, lifts, x12, r1 + r2, tau,
                                  sz.n_terms, op)
            gl2 = act(dom, k, x1, r1, l2, op)
            assert all((a + b - c).is_zero()
                       for a, b, c in zip(gl2, l1, l12))

        # (f)+(g) the lift is a fixed point of the averaging operator:
        # one extra sweep, and three extra sweeps, change no moment within
        # its guaranteed precision
        pr = sz.lift
        for extra in (1, 3):
            pr_x = LiftParams(k=pr.k, t=pr.t, n_it=pr.n_it + extra, W=pr.W)
            [lift_x] = make_lift(dom, basis, pr_x)
            for j in range(len(lift.vecs)):
                for i in range(pr.i_max + 1):
                    mp = lift.moment_prec(i)
                    if mp <= 0:
                        continue
                    assert (lift.vecs[j][i] - lift_x.vecs[j][i]) \
                        % p**mp == 0, (extra, j, i)

        # (h) path additivity and antisymmetry of the edge sums
        def edge_sum(u, v):
            pth = geodesic(u, v)
            tot = [PadicNumber.zero(p, op) for _ in range(k + 1)]
            for s, t in zip(pth, pth[1:]):
                val = value(basis[0], edge_between(s, t), op)
                tot = [x + y for x, y in zip(tot, val)]
            return tot

        done = 0
        while done < 10:
            a, b = rand_vertex(), rand_vertex()
            path = geodesic(a, b)
            if len(path) < 3:
                continue
            mid = path[rng.randrange(1, len(path) - 1)]
            whole = edge_sum(a, b)
            part = [x + y for x, y in zip(edge_sum(a, mid),
                                          edge_sum(mid, b))]
            assert all((x - y).is_zero() for x, y in zip(whole, part))
            rev = edge_sum(b, a)
            assert all((x + y).is_zero() for x, y in zip(whole, rev))
            done += 1

        # (i) the auxiliary field coordinate of the untraced integrals
        # vanishes
        for x, r in gens[:6]:
            [totals] = coordinate_totals(dom, lifts, x, r, tau,
                                          sz.n_terms, op)
            for _, b in totals:
                assert b.is_zero() or b.val >= M - 2

        report("5: property suite (normal form, partitions, harmonicity, "
               "cocycle laws, lift fixed point, path laws)", True)


class TestMomentOracle:
    def test_criterion_6_riemann_refinement(self, row32_m8):
        """Low moments agree with a direct depth-3 Riemann refinement."""
        ctx, k, M, sz, basis, lifts, tau = row32_m8
        [lift] = lifts
        p = ctx.p
        t = sz.lift.t
        tol = 3 + t  # mod 3^3 after removing the scaling by 3^t
        ok = True
        for j in range(len(lift.vecs)):
            rie = riemann_moments(ctx, lift, j, depth=3, n_moments=5)
            for i in range(5):
                ok = ok and (lift.vecs[j][i] - rie[i]) % p**tol == 0
        report("6: moments i<=4 match depth-3 Riemann sums mod 3^3", ok)


class TestChoiceIndependence:
    def test_criterion_7_choice_independence(self, monkeypatch):
        """The reported matrix for (3,2,1,4) does not depend on the base
        vertex, the base point, or the splitting, within M-2 digits.  The
        other base vertex is the one psi starts its geodesics from."""
        M = 6
        ref = compute_l_result(3, 2, 1, 4, M)
        variants = [
            compute_l_result(3, 2, 1, 4, M, tau_variant=1),
            compute_l_result(3, 2, 1, 4, M, split_variant=1),
        ]
        v_alt = neighbors(base_vertex(3))[0]
        with monkeypatch.context() as mp:
            mp.setattr(loperator, "base_vertex", lambda p: v_alt)
            variants.append(compute_l_result(3, 2, 1, 4, M))
        ok = True
        a = ref.matrix[0][0]
        for alt in variants:
            b = alt.matrix[0][0]
            d = a - b
            ok = ok and (d.is_zero() or d.val >= M - 2)
        report("7: (3,2,1,4) matrix independent of base vertex, base point, "
               "splitting (mod 3^4)", ok)
