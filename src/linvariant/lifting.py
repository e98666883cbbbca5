"""Overconvergent lifts of harmonic cocycles by iterated U_p/p^(k/2).

The cocycle is turned into a vector-valued function phi on the directed edge
representatives (moments 0..k of the associated distribution), and the lift
iterates the normalized U_p operator from phi alone, resetting the exactly
known moments 0..k after each sweep.  After sweep n, moment i is correct
modulo p^(n - max(i-k,0) + 1) relative to the fixed point, and at most
modulo p^(W - k/2), the division's loss; choosing n large reads off the
extra moments k+1.. to any target precision.

Why phi alone, and only the moments 0..n+k at sweep n.  Row i of every
sweep matrix C (below) has v(C[i][m]) >= m, as p | c and p | p d - l c.
Let every moment m > k after sweep n differ from the fixed point (integral
under the scale p^t) by e_m with v(e_m) >= n + 1 - (m - k); for m > n + k
the bound is <= 0, so any integer meets it.  After the next sweep moment
i > k differs from it by sum_m C[i][m] e_m / p^(k/2), of valuation
>= n + 1 + k/2 >= n + 2 - (i - k): U_p/p^(k/2) contracts the kernel of the
specialisation to moments 0..k, its fixed point is unique, and the start
does not matter.  So sweep n reads the moments 0..n+k-1 of the sweep before
and computes only 0..n+k, and the lift keeps the moments up to
i_max = n_it + k, the last one whose precision holds a digit (`LiftParams`
derives it).

All heavy arithmetic is plain integers modulo p^W, with a single global scale
p^t making every stored moment integral.

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
of B = 2 bitlen(p^W - 1) + bitlen(terms) + 1 bits per entry, which holds a
sum of `terms` products of two residues, so no carry crosses into the next
field; unpacking reads each field and reduces it mod p^W.  `make_lift`
stores each C by columns, cols[m] = sum_i C[i][m] 2^(B i), so that one sweep
is a sum of residue-times-column products over the live columns and a single
unpack of the live fields (terms = p (i_max + 1)).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import comb
from operator import mul

from .budget import checkpoint
from .cocycles import HarmonicCocycle, act_on, weight_action
from .domain import EdgeReduction, FundamentalDomain, build_up_table
from .padics import PrecisionError, inv_mod
from .tree import mat_adj


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


def sigma_series_matrix(sigma, k: int, i_max: int, p: int, W: int,
                        n_rows=None, det=None):
    """Rows m < n_rows (default i_max + 1) of the weight-k substitution
    matrix of sigma (see the module docstring), to degree i_max, mod p^W,
    checking the time budget after each row.  sigma must be Iwahori; det
    defaults to its determinant, which must then be a unit, and is passed
    for a sigma of determinant p times a unit."""
    a, b, c, d = (int(t) for t in sigma)
    mod = p**W
    assert a % p != 0 and c % p == 0
    if det is None:
        det = a * d - b * c
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
    for _ in range((i_max + 1 if n_rows is None else n_rows) - 1):
        x = -b1 * row[0] % mod
        row = [x] + [x := (c1 * x + d1 * u - b1 * v) % mod
                     for u, v in zip(row, row[1:])]
        rows.append(row)
        checkpoint()
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
        g.e0 produced by `FundamentalDomain.reduce_matrix` and the first
        rows T = sigma_series_matrix(reduction.sigma, k, i_max, p, W,
        n_rows=len(T)) of its substitution matrix: moment i is row i paired
        with the moments of the rep reduction.j.  Each residue is reduced
        modulo p^prec."""
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


def make_lift(dom: FundamentalDomain, basis: list[HarmonicCocycle],
              params: LiftParams) -> list[Lift]:
    """The lifts of every cocycle of the basis: params.n_it sweeps of the
    normalized U_p operator from phi alone, sweep n computing the moments
    0..n+k (see the module docstring).  The substitution matrices of the
    U_p cosets are built once for the whole basis; the time budget is
    checked after each sweep.  Raises PrecisionError when the basis does
    not determine the moments 0..k to p^W under the scale p^t."""
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
    # the sweep matrices C = P_l T_sigma in closed form, column-packed
    width = _field_width(mod, p * (i_max + 1))
    combined = []
    for ents in build_up_table(dom):
        row = []
        for ell, ent in enumerate(ents):
            a, b, c, d = ent.sigma
            C = sigma_series_matrix((a, p * b - ell * a, c, p * d - ell * c),
                                    k, i_max, p, W, det=a * d - b * c)
            row.append((ent.j, [_pack(col, width) for col in zip(*C)]))
        combined.append(row)
    half = p ** (k // 2)
    all_vecs = all_phis
    for n in range(1, params.n_it + 1):
        all_vecs = [_up_sweep(combined, phis, vecs, n + k + 1, k, mod, half,
                              width)
                    for phis, vecs in zip(all_phis, all_vecs)]
        checkpoint()
    return [Lift(dom, params, vecs, phis)
            for phis, vecs in zip(all_phis, all_vecs)]


def _up_sweep(combined, phis, vecs, n_out: int, k: int, mod: int, half: int,
              B: int):
    """One normalized U_p sweep of the moment vectors of one lift, giving
    the moments 0..n_out-1: per rep j, the packed sum of src[m] * cols[m]
    over its cosets (j', cols) and the live moments m < len(src) of
    src = vecs[j'], of which the first n_out fields are unpacked."""
    new = []
    for j, row in enumerate(combined):
        X = 0
        for jp, cols in row:
            X += sum(map(mul, vecs[jp], cols))
        vec = _unpack(X, B, n_out, mod)
        for i, q in enumerate(vec):
            assert q % half == 0, "U_p value not divisible by p^(k/2)"
            vec[i] = q // half
        vec[:k + 1] = phis[j]
        new.append(vec)
    return new
