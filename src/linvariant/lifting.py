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

from dataclasses import dataclass
from math import comb

from .cocycles import HarmonicCocycle, weight_coeff_rows
from .domain import EdgeReducer, EdgeReduction, FundamentalDomain, build_up_table
from .padics import PadicNumber, inv_mod, val_int
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

    def moment_prec(self, i: int) -> int:
        """Absolute precision (scaled world) of vecs[.][i]."""
        pr = self.params
        if i <= pr.k:
            return pr.W
        return min(pr.W - pr.k // 2, pr.n_it + 1 - (i - pr.k))

    def moments(self, reduction: EdgeReduction, T):
        """Phi(g)(x^i) for i < len(T) as PadicNumber, given the reduction of
        the edge g.e0 produced by the reducer and the rows
        T = sigma_series_matrix(reduction.sigma, k, i_max, p, W, len(T))."""
        p = self.dom.p
        pr = self.params
        vec = self.vecs[reduction.j]
        mod = p**pr.W
        out = []
        for i, Ti in enumerate(T):
            acc = 0
            for m in range(pr.i_max + 1):
                if Ti[m]:
                    acc += Ti[m] * vec[m]
            prec = min(self.moment_prec(i), reduction.sigma_prec)
            out.append(PadicNumber(p, -pr.t, acc % mod, prec - pr.t))
        return out


def _phi_scaled(dom: FundamentalDomain, coc: HarmonicCocycle, k: int):
    """Unscaled low moments phi(B_j)(x^i) of the cocycle measure, per directed
    rep, as PadicNumber: phi(B_j)(x^i) = c(B_j e0)(x^i |_k B_j^{-1})."""
    p = dom.p
    out = []
    for j, e in enumerate(dom.directed_reps()):
        B = e.matrix()
        det = B[0] * B[3] - B[1] * B[2]
        vB = val_int(det, p) if det % p == 0 else 0
        sgn = 1 if det > 0 else -1
        assert abs(det) == p**vB
        Wadj = weight_coeff_rows(mat_adj(B), k)
        geo, s = j // 2, (1 if j % 2 == 0 else -1)
        cval = coc.values[geo]
        prec = cval[0].prec
        dfac = PadicNumber(p, -vB * (k // 2), sgn ** (k // 2), prec)
        row = []
        for i in range(k + 1):
            acc = PadicNumber.zero(p, prec + vB * k)
            for m in range(k + 1):
                if Wadj[i][m]:
                    acc = acc + Wadj[i][m] * cval[m]
            row.append(s * (acc * dfac))
        out.append(row)
    return out


def _stab_sigma(dom: FundamentalDomain, B, vB: int, det_unit: int, x, r: int):
    """Iwahori witness sigma with iota(x/p^r) B = B sigma, as residue matrix."""
    p = dom.p
    X = dom.spl.apply(x)
    den = max(t.denominator for t in X)
    Xi = tuple(int(t * den) for t in X)
    e_den = frac_val(den, p)
    raw = mat_mul(mat_adj(B), mat_mul(Xi, B))
    dv = p ** (vB + r + e_den)
    out = []
    for t in raw:
        assert t % dv == 0
        out.append((det_unit * (t // dv)) % p ** (dom.spl.prec - (vB + r + e_den)))
    return tuple(out), dom.spl.prec - (vB + r + e_den)


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
        # scale to integers
        phis = []
        for row in _phi_scaled(dom, coc, k):
            srow = []
            for c in row:
                v = c.val + t
                assert v >= 0, "scale exponent too small for the cocycle moments"
                assert c.prec + t >= W, "cocycle basis precision too small"
                srow.append(c.unit * p**v % mod if not c.is_zero() else 0)
            phis.append(srow)
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
