"""Overconvergent lifts of harmonic cocycles by iterated U_p/p^(k/2).

The cocycle is turned into a vector-valued function phi on the directed edge
representatives (moments 0..k of the associated distribution), and the lift
iterates the normalized U_p operator from phi alone, resetting the exactly
known moments 0..k after each sweep.  After n sweeps modulo p^W, moment i
is correct modulo p^(n - max(i-k,0) + 1) relative to the fixed point, and
at most modulo p^(W - k/2), the division's loss; choosing n large reads off
the extra moments k+1.. to any target precision.  The lift gives the same
residues with each sweep run only to the digits that reach them (below).

Why phi alone, and which digits each sweep computes.  Row i of every sweep
matrix C (below) has v(C[i][m]) >= m, as p | c and p | p d - l c, and the
moments 0..k are reset exactly after each sweep.  So if two moment vectors
differ on the moments m > k by some e_m of valuation >= D, their images
under U_p/p^(k/2) differ by sum_m C[i][m] e_m / p^(k/2), of valuation
>= D + k/2 + 1: U_p/p^(k/2) contracts the kernel of the specialisation to
moments 0..k, its fixed point is unique, and the start does not matter.

Let every moment m > k after sweep n differ from the fixed point (integral
under the scale p^t) by e_m with v(e_m) >= n + 1 - (m - k); for m > n + k
the bound is <= 0, so any integer meets it.  After the next sweep moment
i > k differs from it with valuation >= n + 1 + k/2 >= n + 2 - (i - k).
So sweep n reads the moments 0..n+k-1 of the sweep before and computes only
0..n+k, and the lift keeps the moments up to i_max = n_it + k, the last one
whose precision holds a digit (`LiftParams` derives it).

Sweep n of n_it runs modulo p^E_n, E_n = W - (k/2 + 1)(n_it - n), before
its division by p^(k/2); the last one runs modulo p^W.  Its truncation
changes the moments above k by a difference of valuation >= E_n - k/2, and
each later sweep adds k/2 + 1 to that, so after the last sweep it has
valuation >= W - k/2, the modulus in which the lift's moments are kept:
every residue is that of the sweeps run modulo p^W throughout.  A sweep with
E_n <= k/2 keeps no digit, as any start is within valuation 0 >= E_n - k/2
of its result, so the lift starts from phi at the first sweep with
E_n > k/2.  As column m of C is 0 mod p^m, sweep n reads only the moments
m < min(n + k, E_n), and each sweep but the last gives only the moments
below min(n + k + 1, E_(n+1)), the ones the next sweep reads.  The last one
reads the columns m < min(i_max, W), the only ones built.

All heavy arithmetic is plain integers modulo p^W or below, with a single
global scale p^t making every stored moment integral.

Row m of the weight-k substitution matrix T of an Iwahori sigma =
[[a, b], [c, d]] (a a unit, p | c), for a unit det, holds the coefficients of
the series det^(-k/2) (a - c x)^(k - m) (d x - b)^m.  Row 0 is a polynomial,
and from (a - c x) T[m+1] = (d x - b) T[m] each later row follows from the
one before with three scalar products per entry:

    T[m+1][i] = a^-1 (c T[m+1][i-1] + d T[m][i-1] - b T[m][i])  mod p^W.

Entry i depends only on entries up to i, so dropping columns is exact.  The
U_p coset of l applies T_sigma of its reduction, then P_l[i][nu] =
C(i, nu) p^nu l^(i - nu), the substitution x -> l + p x.  Row nu of T_sigma
is det^(-k/2) (a - c x)^k s^nu with s = (d x - b)/(a - c x), and
sum_nu P_l[i][nu] s^nu = (l + p s)^i, so row i of C = P_l T_sigma is
det^(-k/2) (a - c x)^(k - i) ((p d - l c) x - (p b - l a))^i: the
substitution matrix of sigma [[1, -l], [0, p]] with det = det sigma.

The U_p sweep runs on packed big integers (Kronecker substitution): a vector
v_0..v_(n-1) of residues mod p^W is the integer sum_i v_i 2^(B i), one field
of B bits per entry, 2 bitlen(p^W - 1) + bitlen(terms) + 1 rounded up to
whole bytes, which holds a sum of `terms` products of two residues, so no
carry crosses into the next field.  Packing joins the bytes of the fields
and unpacking slices them, both in linear time; unpacking reduces each
field mod p^E_n.  `make_lift` stores each C by columns, cols[m] =
sum_i C[i][m] 2^(B i), the columns of the cosets into the same rep summed,
so that one sweep is a sum of residue-times-column products over the
columns it reads, each column cut to the fields the sweep gives, and a
single unpack of those fields (terms = p min(i_max, W)).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from math import comb
from operator import add, mul

from .budget import checkpoint
from .cocycles import HarmonicCocycle, act_on, weight_action
from .domain import FundamentalDomain, build_up_table
from .padics import PrecisionError, inv_mod, val_cap
from .tree import mat_adj


def _field_width(mod: int, terms: int) -> int:
    """Bits per packed field holding a sum of `terms` products of two
    residues mod `mod`, rounded up to whole bytes."""
    return -(-(2 * (mod - 1).bit_length() + terms.bit_length() + 1) // 8) * 8


def _pack(vals, B: int) -> int:
    """sum_i vals[i] 2^(B i) for nonnegative vals[i] < 2^B, B a multiple
    of 8."""
    b = B // 8
    return int.from_bytes(
        b"".join(map(int.to_bytes, vals, repeat(b), repeat("little"))),
        "little")


def _unpack(X: int, B: int, n: int, mod: int) -> list:
    """Fields 0..n-1 of X >= 0, each reduced mod `mod`; B a multiple of 8."""
    b = B // 8
    buf = X.to_bytes((X.bit_length() + 7) // 8, "little")
    return [int.from_bytes(buf[i:i + b], "little") % mod
            for i in range(0, b * n, b)]


def sigma_series_matrix(sigma, k: int, i_max: int, p: int, W: int,
                        n_rows: int, det: int):
    """Rows m < n_rows of the weight-k substitution matrix of sigma (see the
    module docstring), to degree i_max, mod p^W, for an Iwahori sigma and
    the unit det standing for its determinant (that of sigma, or for a
    sigma of determinant p times a unit, that unit).  The time budget is
    checked every 256 entries of a row."""
    a, b, c, d = (int(t) for t in sigma)
    mod = p**W
    assert a % p != 0 and c % p == 0
    assert det % p != 0, "det must be a unit"
    ainv = inv_mod(a % mod, mod)
    c1, d1, b1 = c * ainv % mod, d * ainv % mod, b * ainv % mod
    n = i_max + 1
    dfac = pow(inv_mod(det % mod, mod), k // 2, mod)
    # det^(-k/2) (a - c x)^k, an exact polynomial
    row = [dfac * comb(k, i) * (-c) ** i * a ** (k - i) % mod
           for i in range(min(k + 1, n))]
    row += [0] * (n - len(row))
    rows = [row]
    for _ in range(n_rows - 1):
        prev, x = row, -b1 * row[0] % mod
        row = [x]
        for lo in range(0, n - 1, 256):
            row += [x := (c1 * x + d1 * u - b1 * v) % mod
                    for u, v in zip(prev[lo:lo + 256], prev[lo + 1:lo + 257])]
            checkpoint()
        rows.append(row)
    return rows


@dataclass
class LiftParams:
    k: int
    t: int  # global scale exponent
    n_it: int
    W: int  # working modulus exponent

    @property
    def i_max(self) -> int:
        """The last moment with a certified digit after n_it sweeps."""
        return self.n_it + self.k


@dataclass
class Lift:
    """Moments of the overconvergent lift on the directed representatives,
    the only moments the Coleman integration reads (see `integration`).

    vecs[j][i] = p^t * Phi(B_j)(x^i) mod p^W."""

    dom: FundamentalDomain
    params: LiftParams
    vecs: list
    phis: list  # scaled exact low moments, per directed rep

    def moment_prec(self, i: int) -> int:
        """Absolute precision (scaled world) of vecs[.][i]."""
        pr = self.params
        if i <= pr.k:
            return pr.W
        return min(pr.W - pr.k // 2, pr.n_it + 1 - (i - pr.k))

    def moments(self, n_terms: int):
        """Per directed rep j, the moments p^t Phi(B_j)(x^i), i < n_terms <=
        i_max + 1, reduced modulo p^P, P their precisions (scaled world), as
        (residues, valuations, precisions), the last two unscaled."""
        p, t = self.dom.p, self.params.t
        precs = [self.moment_prec(i) for i in range(n_terms)]
        res = [[a % p ** max(P, 0) for a, P in zip(vec, precs)]
               for vec in self.vecs]
        return [(r, [val_cap(a, p, P) - t for a, P in zip(r, precs)],
                 [P - t for P in precs]) for r in res]


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


def make_lift(dom: FundamentalDomain, basis: list[HarmonicCocycle],
              params: LiftParams) -> list[Lift]:
    """The lifts of every cocycle of the basis: params.n_it sweeps of the
    normalized U_p operator from phi alone, sweep n computing the moments
    0..n+k modulo p^E_n, and only those the next sweep reads, after
    skipping the sweeps that keep no digit (see the module docstring and
    `_sweep_lifts`).  The substitution matrices of the U_p cosets are built
    once for the whole basis; the time budget is checked every 256 entries
    of a built matrix row and after each sweep.  Raises PrecisionError when the basis does
    not determine the moments 0..k to p^W under the scale p^t."""
    p, k, W, t = dom.p, params.k, params.W, params.t
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
    table = [[(ent.j, ent.sigma) for ent in ents]
             for ents in build_up_table(dom)]
    return [Lift(dom, params, vecs, phis) for phis, vecs
            in zip(all_phis, _sweep_lifts(table, all_phis, p, params))]


def _sweep_lifts(table, all_phis, p: int, params: LiftParams):
    """The moment vectors of every lift after params.n_it sweeps from phi
    (all_phis[l][j], the scaled moments 0..k of lift l on the rep j), where
    table[j][ell] = (j', sigma) reduces the U_p coset ell of the rep j to
    the rep j' with sigma Iwahori of unit det (see `build_up_table`).  Sweep n
    runs modulo p^E_n and skips with E_n <= k/2 (see the module docstring);
    the time budget is checked after each sweep."""
    k, W, n_it, i_max = params.k, params.W, params.n_it, params.i_max
    if n_it == 0:
        return all_phis
    h = k // 2
    # E_n = W - (h + 1)(n_it - n) exceeds h from this sweep on
    first = max(1, n_it - max(W - h - 1, 0) // (h + 1))
    # the sweep matrices C = P_l T_sigma in closed form, column-packed, the
    # columns of the cosets into one rep summed; the last sweep reads the
    # most columns
    ncols = min(n_it + k, W)
    width = _field_width(p**W, p * ncols)
    combined = []
    for cosets in table:
        row = {}
        for ell, (jp, (a, b, c, d)) in enumerate(cosets):
            C = sigma_series_matrix((a, p * b - ell * a, c, p * d - ell * c),
                                    k, ncols - 1, p, W, n_rows=i_max + 1,
                                    det=a * d - b * c)
            cols = [_pack(col, width) for col in zip(*C)]
            row[jp] = list(map(add, row[jp], cols)) if jp in row else cols
            del C  # freed before the next coset's matrix is built
        combined.append(list(row.items()))
    half = p**h
    all_vecs = all_phis
    for n in range(first, n_it + 1):
        e = W - (h + 1) * (n_it - n)
        n_out = i_max + 1 if n == n_it else min(n + k + 1, e + h + 1)
        all_vecs = _up_sweep(combined, all_phis, all_vecs, min(n + k, e),
                             n_out, k, p**e, half, width)
        checkpoint()
    return all_vecs


def _up_sweep(combined, all_phis, all_vecs, n_in: int, n_out: int, k: int,
              mod: int, half: int, B: int):
    """One normalized U_p sweep of the moment vectors of every lift, giving
    the moments 0..n_out-1: per rep j and lift l, the packed sum of
    src[m] * cols[m] over (j', cols) in combined[j] and the moments m < n_in
    of src = all_vecs[l][j'], each column cut to its first n_out fields,
    unpacked mod `mod` and divided by `half`, the moments 0..k reset to
    all_phis[l][j]."""
    mask = (1 << B * n_out) - 1
    out = [[] for _ in all_vecs]
    for j, row in enumerate(combined):
        X = [0] * len(all_vecs)
        for jp, cols in row:
            cols = [c & mask for c in cols[:n_in]]
            for l, vecs in enumerate(all_vecs):
                X[l] += sum(map(mul, vecs[jp], cols))
        for l, x in enumerate(X):
            vec = _unpack(x, B, n_out, mod)
            assert not any(q % half for q in vec), \
                "U_p value not divisible by p^(k/2)"
            out[l].append(all_phis[l][j] + [q // half for q in vec[k + 1:]])
    return out
