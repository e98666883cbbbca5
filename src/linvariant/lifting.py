"""Overconvergent lifts of harmonic cocycles by iterated U_p/p^(k/2).

The cocycle is turned into a vector-valued function phi on the directed edge
representatives (moments 0..k of the associated distribution), lifted to a
function with moments 0..i_max by stabilizer averaging, and iterated under the
normalized U_p operator.  Moments of index i at iteration n are correct modulo
p^(n - max(i-k,0) + 1) relative to the fixed point, which is enough to read off
the extra moments k+1.. to any target precision by choosing n large.

All heavy arithmetic is plain integers modulo p^W, with a single global scale
p^t making every stored moment integral.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import comb
from operator import mul

from .cocycles import HarmonicCocycle, act_on, weight_action
from .domain import (EdgeReducer, EdgeReduction, FundamentalDomain, build_up_table,
                     gamma_matrix)
from .padics import inv_mod, val_int
from .tree import frac_val, mat_adj, mat_mul


def sigma_series_matrix(sigma, k: int, i_max: int, p: int, W: int, n_rows=None):
    """Rows T[m] (m = 0..n_rows-1, default i_max+1) of the substitution x^m -> sigma-transformed
    series, entries mod p^W: row m holds the coefficients of
    det^(-k/2) (a - c x)^(k - m) (d x - b)^m expanded to degree i_max.

    sigma must be Iwahori: a a unit, p | c."""
    a, b, c, d = (int(t) for t in sigma)
    mod = p**W
    assert a % p != 0 and c % p == 0
    ainv = inv_mod(a % mod, mod)
    # inverse of (a - c x) as a series
    inv = [0] * (i_max + 1)
    inv[0] = ainv
    q = c * ainv % mod
    for n in range(1, i_max + 1):
        inv[n] = inv[n - 1] * q % mod
    # s = (d x - b) * inv
    s = [0] * (i_max + 1)
    for n in range(i_max + 1):
        acc = d * inv[n - 1] if n >= 1 else 0
        acc -= b * inv[n]
        s[n] = acc % mod
    # base = (a - c x)^k, exact polynomial
    base = [comb(k, n) * (-c) ** n * a ** (k - n) % mod for n in range(min(k, i_max) + 1)]
    base += [0] * (i_max + 1 - len(base))
    det = a * d - b * c
    dv = val_int(det, p) if det % p == 0 else 0
    assert dv == 0, "sigma must have unit determinant"
    dfac = pow(inv_mod(det % mod, mod), k // 2, mod)
    if n_rows is None:
        n_rows = i_max + 1
    rows = [[t * dfac % mod for t in base]]
    cur = base
    for _ in range(n_rows - 1):
        nxt = [0] * (i_max + 1)
        for n in range(i_max + 1):
            acc = 0
            for u in range(n + 1):
                if cur[u]:
                    acc += cur[u] * s[n - u]
            nxt[n] = acc % mod
        cur = nxt
        rows.append([t * dfac % mod for t in cur])
    return rows


@dataclass
class LiftParams:
    k: int
    t: int  # global scale exponent
    i_max: int
    n_it: int
    W: int  # working modulus exponent


@dataclass
class Lift:
    """Moments of the overconvergent lift on the directed representatives.

    vecs[j][i] = p^t * Phi(B_j)(x^i) mod p^W."""

    dom: FundamentalDomain
    reducer: EdgeReducer
    params: LiftParams
    vecs: list
    phis: list  # scaled exact low moments, per directed rep
    # moments of this lift per distinct ball reduction, filled by the
    # Coleman integration and dropped with the lift
    memo: dict = field(default_factory=dict, repr=False, compare=False)

    def moment_prec(self, i: int) -> int:
        """Absolute precision (scaled world) of vecs[.][i]."""
        pr = self.params
        if i <= pr.k:
            return pr.W
        return min(pr.W - pr.k // 2, pr.n_it + 1 - (i - pr.k))

    def moments(self, reduction: EdgeReduction, T):
        """The scaled moments p^t Phi(g)(x^i) for i < len(T) and their
        absolute precisions (scaled world), given the reduction of the edge
        g.e0 produced by the reducer and the rows
        T = sigma_series_matrix(reduction.sigma, k, i_max, p, W, len(T)).
        Each residue is reduced modulo p^prec."""
        p = self.dom.p
        vec = self.vecs[reduction.j]
        res, precs = [], []
        for i, Ti in enumerate(T):
            prec = min(self.moment_prec(i), reduction.sigma_prec)
            res.append(sum(map(mul, Ti, vec)) % p ** max(prec, 0))
            precs.append(prec)
        return res, precs


def _phi_scaled(dom: FundamentalDomain, coc: HarmonicCocycle, k: int):
    """The low moments phi(B_j)(x^i) = c(B_j e0)(x^i |_k B_j^{-1}) of the
    cocycle measure per directed rep j, as (residues, scale, precision) in
    the convention of `cocycles.Action`."""
    out = []
    for j, e in enumerate(dom.directed_reps()):
        B = e.matrix()
        act = weight_action(dom.p, mat_adj(B), B[0] * B[3] - B[1] * B[2], k,
                            coc.prec)
        base = coc.values[j // 2]
        if j % 2:
            base = [-t for t in base]
        out.append(act_on(dom.p, act, (base, 0, coc.prec), coc.prec))
    return out


def _stab_sigma(dom: FundamentalDomain, B, vB: int, det_unit: int, x, r: int):
    """Iwahori witness sigma with iota(x/p^r) B = B sigma, as residue matrix."""
    p = dom.p
    Xi, det = gamma_matrix(dom, x, r)  # Xi = p^e_den iota(x), nrd(x) = p^(2r)
    e = vB + frac_val(det, p) // 2
    raw = mat_mul(mat_adj(B), mat_mul(Xi, B))
    out = []
    for t in raw:
        assert t % p**e == 0
        out.append((det_unit * (t // p**e)) % p ** (dom.spl.prec - e))
    return tuple(out), dom.spl.prec - e


def make_lift(dom: FundamentalDomain, reducer: EdgeReducer,
              basis: list[HarmonicCocycle], params: LiftParams,
              progress=None) -> list[Lift]:
    """The lifts of every cocycle of the basis: an initial stabilizer-averaged
    lift followed by params.n_it sweeps of the normalized U_p operator,
    resetting the exactly-known moments 0..k.  The substitution matrices of
    the stabilizers and of the U_p cosets are built once for the whole basis;
    progress(it) runs after each sweep."""
    p, k = dom.p, params.k
    W, i_max, t = params.W, params.i_max, params.t
    mod = p**W
    all_phis = []
    for coc in basis:
        # to the lift's scale p^t
        phis = []
        for res, e, P in _phi_scaled(dom, coc, k):
            assert P - e + t >= W, "cocycle basis precision too small"
            if t >= e:
                phis.append([a * p ** (t - e) % mod for a in res])
            else:
                assert all(a % p ** (e - t) == 0 for a in res), \
                    "scale exponent too small for the cocycle moments"
                phis.append([a // p ** (e - t) % mod for a in res])
        all_phis.append(phis)
    reps = dom.directed_reps()
    # initial lift: average phi over the edge stabilizer
    all_vecs = [[] for _ in basis]
    for j, e in enumerate(reps):
        B = e.matrix()
        det = B[0] * B[3] - B[1] * B[2]
        vB = val_int(det, p) if det % p == 0 else 0
        det_unit = 1 if det > 0 else -1
        stab = dom.edge_stabs[j // 2]
        Ts = [sigma_series_matrix(_stab_sigma(dom, B, vB, det_unit, x, r)[0],
                                  k, i_max, p, W)
              for x, r in stab]
        ns = len(stab)
        a = val_int(ns, p) if ns % p == 0 else 0
        uinv = inv_mod(ns // p**a, mod)
        for phis, vecs in zip(all_phis, all_vecs):
            acc = [0] * (i_max + 1)
            for T in Ts:
                for m in range(i_max + 1):
                    s = 0
                    for i in range(k + 1):
                        if T[m][i]:
                            s += T[m][i] * phis[j][i]
                    acc[m] += s
            vec = []
            for m in range(i_max + 1):
                q = acc[m] % mod
                assert q % p**a == 0, "stabilizer average is not p-integral"
                vec.append((q // p**a) * uinv % mod)
            for i in range(k + 1):
                vec[i] = phis[j][i]
            vecs.append(vec)
    # precompute the combined sweep matrices C[(j, l)] = P_l * T_sigma
    table = build_up_table(dom, reducer)
    combined = []
    for j in range(len(reps)):
        row = []
        for ell in range(p):
            ent = table[j][ell]
            T = sigma_series_matrix(ent.sigma, k, i_max, p, W)
            C = []
            for i in range(i_max + 1):
                acc = [0] * (i_max + 1)
                for nu in range(i + 1):
                    cf = comb(i, nu) * p**nu * ell ** (i - nu) % mod
                    if cf:
                        Tn = T[nu]
                        for m in range(i_max + 1):
                            if Tn[m]:
                                acc[m] += cf * Tn[m]
                C.append([v % mod for v in acc])
            row.append((ent.jprime, C))
        combined.append(row)
    half = p ** (k // 2)
    for it in range(params.n_it):
        for n, (phis, vecs) in enumerate(zip(all_phis, all_vecs)):
            all_vecs[n] = _up_sweep(combined, phis, vecs, i_max, k, mod, half)
        if progress is not None:
            progress(it)
    return [Lift(dom, reducer, params, vecs, phis)
            for phis, vecs in zip(all_phis, all_vecs)]


def _up_sweep(combined, phis, vecs, i_max: int, k: int, mod: int, half: int):
    """One normalized U_p sweep of the moment vectors of one lift."""
    new = []
    for j in range(len(vecs)):
        acc = [0] * (i_max + 1)
        for jp, C in combined[j]:
            src = vecs[jp]
            for i in range(i_max + 1):
                Ci = C[i]
                s = 0
                for m in range(i_max + 1):
                    if Ci[m]:
                        s += Ci[m] * src[m]
                acc[i] += s
        vec = []
        for i in range(i_max + 1):
            q = acc[i] % mod
            assert q % half == 0, "U_p value not divisible by p^(k/2)"
            vec.append(q // half)
        for i in range(k + 1):
            vec[i] = phis[j][i]
        new.append(vec)
    return new
