"""Overconvergent lifts of harmonic cocycles by iterated U_p/p^(k/2).

The cocycle is turned into a vector-valued function phi on the directed edge
representatives (moments 0..k of the associated distribution), lifted to a
function with moments 0..i_max by stabilizer averaging, and iterated under the
normalized U_p operator.  Moments of index i at iteration n are correct modulo
p^(n - max(i-k,0) + 1) relative to the fixed point, which is enough to read off
the extra moments k+1.. to any target precision by choosing n large.

All heavy arithmetic is plain integers modulo p^W, with a single global scale
p^t making every stored moment integral.

The integer kernels run on packed big integers (Kronecker substitution): a
vector v_0..v_(n-1) of residues mod p^W is the integer sum_i v_i 2^(B i),
one field of B bits per entry.  A field width

    B = 2 bitlen(p^W - 1) + bitlen(terms) + 1

holds a sum of `terms` products of two residues, so in a product or a
linear combination of packed vectors no carry crosses into the next field;
unpacking reads each field and reduces it mod p^W.  `sigma_series_matrix`
computes each row as the previous row times the packed series s in one
multiplication (terms = i_max + 1).  `make_lift` stores each sweep matrix
C = P_l T_sigma by columns, cols[m] = sum_i C[i][m] 2^(B i), so that one
U_p sweep is a sum of residue-times-column products followed by a single
unpack (terms = p (i_max + 1)).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import comb
from operator import mul

from .budget import checkpoint
from .cocycles import HarmonicCocycle, act_on, weight_action
from .domain import (EdgeReduction, FundamentalDomain, build_up_table,
                     gamma_matrix)
from .padics import PrecisionError, inv_mod, val_int
from .tree import frac_val, mat_adj, mat_mul


def _field_width(mod: int, terms: int) -> int:
    """Bits per packed field holding a sum of `terms` products of two
    residues mod `mod`."""
    return 2 * (mod - 1).bit_length() + terms.bit_length() + 1


def _pack(vals, B: int) -> int:
    """sum_i vals[i] 2^(B i) for nonnegative vals[i] < 2^B."""
    X = 0
    for v in reversed(vals):
        X = X << B | v
    return X


def _unpack(X: int, B: int, n: int, mod: int) -> list:
    """Fields 0..n-1 of X, each reduced mod `mod`."""
    mask = (1 << B) - 1
    X &= (1 << B * n) - 1  # shorter shifts below
    return [(X >> B * i & mask) % mod for i in range(n)]


def sigma_series_matrix(sigma, k: int, i_max: int, p: int, W: int, n_rows=None):
    """Rows T[m] (m = 0..n_rows-1, default i_max+1) of the substitution x^m -> sigma-transformed
    series, entries mod p^W: row m holds the coefficients of
    det^(-k/2) (a - c x)^(k - m) (d x - b)^m expanded to degree i_max.

    sigma must be Iwahori: a a unit, p | c.  Row 0 is det^(-k/2) (a - c x)^k
    and row m+1 is row m times s = (d x - b)/(a - c x), one packed product
    each."""
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
    s = [(-b * inv[0]) % mod]
    s += [(d * inv[n - 1] - b * inv[n]) % mod for n in range(1, i_max + 1)]
    det = a * d - b * c
    dv = val_int(det, p) if det % p == 0 else 0
    assert dv == 0, "sigma must have unit determinant"
    dfac = pow(inv_mod(det % mod, mod), k // 2, mod)
    # det^(-k/2) (a - c x)^k, an exact polynomial
    row = [dfac * comb(k, n) * (-c) ** n * a ** (k - n) % mod
           for n in range(min(k, i_max) + 1)]
    row += [0] * (i_max + 1 - len(row))
    if n_rows is None:
        n_rows = i_max + 1
    B = _field_width(mod, i_max + 1)
    S = _pack(s, B)
    rows = [row]
    for _ in range(n_rows - 1):
        row = _unpack(_pack(row, B) * S, B, i_max + 1, mod)
        rows.append(row)
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
        g.e0 produced by `FundamentalDomain.reduce_matrix` and the rows
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


def make_lift(dom: FundamentalDomain, basis: list[HarmonicCocycle],
              params: LiftParams) -> list[Lift]:
    """The lifts of every cocycle of the basis: an initial stabilizer-averaged
    lift followed by params.n_it sweeps of the normalized U_p operator,
    resetting the exactly-known moments 0..k.  The substitution matrices of
    the stabilizers and of the U_p cosets are built once for the whole basis;
    the time budget is checked after each sweep.  Raises PrecisionError when
    the basis does not determine the moments 0..k to p^W under the scale
    p^t."""
    p, k = dom.p, params.k
    W, i_max, t = params.W, params.i_max, params.t
    mod = p**W
    all_phis = []
    for coc in basis:
        # to the lift's scale p^t
        phis = []
        for res, e, P in _phi_scaled(dom, coc, k):
            if P - e + t < W:
                raise PrecisionError("cocycle basis precision too small")
            if t >= e:
                phis.append([a * p ** (t - e) % mod for a in res])
            elif any(a % p ** (e - t) for a in res):
                raise PrecisionError(
                    "scale exponent too small for the cocycle moments")
            else:
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
            vec = []
            for m in range(i_max + 1):
                q = sum(sum(map(mul, T[m], phis[j])) for T in Ts) % mod
                assert q % p**a == 0, "stabilizer average is not p-integral"
                vec.append((q // p**a) * uinv % mod)
            vec[:k + 1] = phis[j]
            vecs.append(vec)
    # the combined sweep matrices C[(j, l)] = P_l * T_sigma, column-packed;
    # P_l[i][nu] = C(i, nu) p^nu l^(i - nu) is the substitution x -> l + p x
    n = i_max + 1
    width = _field_width(mod, p * n)
    binom = [[_pack([0] * nu + [comb(i, nu) * p**nu * ell ** (i - nu) % mod
                                for i in range(nu, n)], width)
              for nu in range(n)]
             for ell in range(p)]
    table = build_up_table(dom)
    combined = []
    for j in range(len(reps)):
        row = []
        for ell in range(p):
            ent = table[j][ell]
            T = sigma_series_matrix(ent.sigma, k, i_max, p, W)
            cols = [_pack(_unpack(sum(map(mul, (Tn[m] for Tn in T), binom[ell])),
                                  width, n, mod), width)
                    for m in range(n)]
            row.append((ent.j, cols))
        combined.append(row)
    half = p ** (k // 2)
    for _ in range(params.n_it):
        all_vecs = [_up_sweep(combined, phis, vecs, k, mod, half, width)
                    for phis, vecs in zip(all_phis, all_vecs)]
        checkpoint()
    return [Lift(dom, params, vecs, phis)
            for phis, vecs in zip(all_phis, all_vecs)]


def _up_sweep(combined, phis, vecs, k: int, mod: int, half: int, B: int):
    """One normalized U_p sweep of the moment vectors of one lift: per rep j,
    the packed sum of src[m] * cols[m] over its cosets (j', cols) and the
    moments m of src = vecs[j'], unpacked once."""
    n = len(vecs[0])
    new = []
    for j, row in enumerate(combined):
        X = 0
        for jp, cols in row:
            X += sum(map(mul, vecs[jp], cols))
        vec = _unpack(X, B, n, mod)
        for i, q in enumerate(vec):
            assert q % half == 0, "U_p value not divisible by p^(k/2)"
            vec[i] = q // half
        vec[:k + 1] = phis[j]
        new.append(vec)
    return new
