"""End-to-end orchestration: parameter sizing, caching, and result assembly.

Given (p, Nminus, Nplus, weight, M) this module builds the arithmetic context
(order, splitting, fundamental domain), chooses all internal precisions so
that the final invariants carry at least M correct digits, runs the lifting
and integration stages, and packages the L-operator matrix, Newton slopes,
Atkin-Lehner splittings and L-invariants into a serializable result.  When
the invariants are not determined at the first working precision, the stages
are rerun at a bounded sequence of higher ones (see `compute_l_result`).

The Atkin-Lehner matrices reported here are the negatives of the involutions
computed on the quaternionic side: the correspondence with newforms of level
p*Nminus*Nplus interchanges the +-1 eigenspaces, and the tables follow the
newform labeling.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, replace
from fractions import Fraction

from .budget import checkpoint
from .cocycles import (
    harmonic_basis,
    involution_matrix,
    normalizing_element,
)
from .domain import MAX_VERTICES, FundamentalDomain, compute_fundamental_domain
from .integration import ball_matrices, base_point
from .lifting import LiftParams, make_lift, _phi_scaled
from .loperator import (
    eigenspace,
    l_matrix,
    l_invariant_simple,
    restrict_operator,
)
from .padics import (
    PadicNumber,
    PrecisionError,
    charpoly,
    ilog,
    mat_mul,
    newton_slopes,
    val_int,
)
from .quaternions import (
    PRIME_BOUND,
    build_algebra,
    eichler_order,
    factorint,
    isprime,
    maximal_order,
)
from .splitting import splitting_map

SCHEMA_VERSION = 2


# Bound on N^- N^+: every integer factored on the way (N^-, N^+, the symbol
# entries a, b >= -N^- and the indices 4 |a b| / N^- <= 4 N^- that the maximal
# order saturates) then stays far below quaternions.FACTOR_BOUND.
LEVEL_BOUND = 10**9


class UsageError(ValueError):
    """Invalid run configuration."""


def validate(p: int, nminus: int, nplus: int, weight: int | None = None):
    if p >= PRIME_BOUND:
        raise UsageError(f"p must be below {PRIME_BOUND}, the range of the "
                         "exact primality test")
    if not isprime(p):
        raise UsageError(f"p = {p} is not prime")
    if nminus < 2 or nplus < 1:
        raise UsageError("Nminus must be >= 2 and Nplus >= 1")
    if math.gcd(p, nminus * nplus) != 1:
        raise UsageError("p must be coprime to Nminus*Nplus")
    if math.gcd(nminus, nplus) != 1:
        raise UsageError("Nminus and Nplus must be coprime")
    if nminus * nplus > LEVEL_BOUND:
        raise UsageError(f"Nminus*Nplus must be at most {LEVEL_BOUND}")
    fac = factorint(nminus)
    if any(e > 1 for e in fac.values()):
        raise UsageError("Nminus must be squarefree")
    if len(fac) % 2 != 1:
        raise UsageError(
            "Nminus must have an odd number of prime factors (definite algebra)"
        )
    # Eichler's mass formula; every vertex stabilizer holds +-1, so the
    # domain has at least 2 mass vertex orbits
    mass = Fraction(math.prod(q - 1 for q in fac), 12) * math.prod(
        q ** (e - 1) * (q + 1) for q, e in factorint(nplus).items())
    if 2 * mass > MAX_VERTICES:
        raise UsageError(
            f"the fundamental domain would have at least {math.ceil(2 * mass)}"
            f" vertex orbits, more than the {MAX_VERTICES} supported")
    if weight is not None and (weight < 2 or weight % 2 != 0):
        raise UsageError("weight must be even and >= 2")


def validate_row(p: int, nminus: int, nplus: int, weight: int, M: int):
    """validate, and reject weight 2 (at k = 0 every coboundary gamma.u - u
    vanishes, so the cohomology solve in l_matrix cannot determine A) and
    fewer than one output digit."""
    validate(p, nminus, nplus, weight)
    if weight == 2:
        raise UsageError("L-operator rows need weight >= 4; at weight 2 "
                         "every coboundary vanishes")
    if M < 1:
        raise UsageError("the precision M must be at least 1 digit")


@dataclass
class Context:
    p: int
    nminus: int
    nplus: int
    dom: FundamentalDomain  # holds the order and the splitting


def build_context(p: int, nminus: int, nplus: int, split_prec: int,
                  variant: int = 0) -> Context:
    alg = build_algebra(nminus)
    order = maximal_order(alg)
    if nplus > 1:
        order = eichler_order(alg, order, nplus)
    spl = splitting_map(order, p, split_prec, variant=variant)
    dom = compute_fundamental_domain(order, spl)
    return Context(p, nminus, nplus, dom)


def resplit(ctx: Context, split_prec: int, variant: int = 0) -> Context:
    """ctx with its splitting recomputed at precision split_prec.

    The domain, with its caches of edge locations and derivations, depends
    only on the order and p, so it carries over when the new splitting
    agrees with the old one to the old precision; otherwise the domain is
    computed afresh.  The actions of group elements depend on the splitting, so the new domain
    starts without them, and its walks use the new splitting."""
    dom = ctx.dom
    spl = splitting_map(dom.order, ctx.p, split_prec, variant=variant)
    mod = ctx.p ** min(split_prec, dom.spl.prec)
    if all((a - b) % mod == 0 for old, new in zip(dom.spl.images, spl.images)
           for a, b in zip(old, new)):
        dom = replace(dom, spl=spl)
    else:
        dom = compute_fundamental_domain(dom.order, spl)
    return Context(ctx.p, ctx.nminus, ctx.nplus, dom)


@dataclass
class Sizing:
    lift: LiftParams
    n_terms: int
    split_prec: int
    tau_prec: int
    out_prec: int


# Splitting precision of the context a row is sized on, and the digits
# every weight-k basis must carry: the probe basis, which gives the
# dimension and bounds the moments, and the basis of each attempt.
SIZING_SPLIT_PREC = 60
SIZING_BASIS_PREC = 40


def row_scales(ctx: Context, k: int, basis0) -> tuple[int, int]:
    """(halfD, t) of `size_parameters`, once per row from the sizing context
    and its weight-k basis basis0 (of SIZING_BASIS_PREC digits): (k/2) times
    the largest v(det) of a covering ball, and the lift's scale t.  The time
    budget is checked after the covering of each generator."""
    p = ctx.p
    maxD = 0
    for x, r in ctx.dom.generators():
        for _, dv in ball_matrices(ctx.dom, x, r):
            maxD = max(maxD, dv)
        checkpoint()
    minv = 0
    for c in basis0:
        for res, e, P in _phi_scaled(ctx.dom, c, k):
            for a in res:
                if a:
                    minv = min(minv, val_int(a, p) - e)
    a_s = max(val_int(len(st), p) if len(st) % p == 0 else 0
              for st in ctx.dom.edge_stabs)
    return (k // 2) * maxD, max(0, -minv) + a_s + k // 2 + 1


def size_parameters(ctx: Context, k: int, M: int, scales) -> Sizing:
    """Choose scale, truncation and iteration counts for M output digits.

    scales are the row's `row_scales`.  No basis precision is sized: the
    basis of an attempt carries the digits of its splitting, at
    p^split_prec, and `make_lift` checks that they determine the moments
    0..k to p^W under the scale p^t.

    The series term pairing moment i has valuation at least
    (i-k) - floor(log_p i) - (k/2)*maxD + v(moment); moments carry the global
    scale p^-t.  Truncation, iteration count and working modulus are chosen so
    that every term is correct modulo p^(M + margin).

    M is the working precision.  The sizing does not account for the negative
    valuations of the resulting L-matrix; `compute_l_result` makes up for them
    by calling this again with a larger M when the invariants read off the
    matrix are not determined (see its docstring)."""
    p = ctx.p
    margin = 6 + (1 if p == 2 else 0)
    Mt = M + margin
    halfD, t_sc = scales
    i = 1
    while max(i - k, 0) - halfD - t_sc - ilog(i, p) < Mt:
        i += 1
    N = i
    logN = ilog(N, p) + 1
    n_it = Mt + halfD + t_sc + logN + 2
    W = Mt + halfD + t_sc + logN + k // 2 + 6
    return Sizing(
        lift=LiftParams(k=k, t=t_sc, n_it=n_it, W=W),
        n_terms=N,
        split_prec=W + 30,
        tau_prec=W + 12,
        out_prec=M + 8,
    )


def _pad_json(x: PadicNumber):
    return {"p": x.p, "val": x.val, "unit": str(x.unit), "prec": x.prec,
            "digits": x.expansion_str()}


@dataclass
class LResult:
    p: int
    nminus: int
    nplus: int
    weight: int
    prec: int
    dim: int
    matrix: list | None = None
    char_poly: list | None = None
    slopes: list | None = None  # [(slope str, mult)]
    slopes_plus: list | None = None
    slopes_minus: list | None = None
    eps_w: list | None = None  # [(+1/-1, mult)]
    l_invariants: list | None = None  # [(sign, slope, digits)]
    commutes: bool | None = None
    choices: dict | None = None

    def to_json(self):
        d = {
            "schema_version": SCHEMA_VERSION,
            "p": self.p,
            "nminus": self.nminus,
            "nplus": self.nplus,
            "weight": self.weight,
            "prec": self.prec,
            "dim": self.dim,
        }
        if self.matrix is not None:
            d["matrix"] = [[_pad_json(c) for c in row] for row in self.matrix]
            d["char_poly"] = [_pad_json(c) for c in self.char_poly]
            d["slopes"] = [[str(s), m] for s, m in self.slopes]
            d["slopes_plus"] = [[str(s), m] for s, m in self.slopes_plus]
            d["slopes_minus"] = [[str(s), m] for s, m in self.slopes_minus]
            d["eps_w"] = [[e, m] for e, m in self.eps_w]
            d["l_invariants"] = [
                {"wn_sign": s, "slope": str(sl), "value": v}
                for s, sl, v in self.l_invariants
            ]
            d["atkin_lehner_commutes"] = self.commutes
            d["choices"] = self.choices
        return d


def _int_trace(M, d: int):
    """The trace of an involution matrix as the unique plausible integer."""
    tr = sum((M[i][i] for i in range(1, d)), M[0][0])
    for e in range(-d, d + 1, 2):
        if (tr - e).is_zero():
            return e
    raise PrecisionError("involution trace is not an integer at precision")


def _padic_matrix(p: int, M, sign: int = 1):
    """sign times a matrix of (val, unit, prec) triples, as PadicNumber."""
    return [[PadicNumber(p, v, sign * u, P) for v, u, P in row] for row in M]


MAX_PRECISION_RETRIES = 3


def compute_l_result(p: int, nminus: int, nplus: int, weight: int, M: int,
                     tau_variant: int = 0, split_variant: int = 0) -> LResult:
    """The L-operator row for (p, nminus, nplus, weight) with M output digits.

    The algebra, the order, the fundamental domain and the probe weight-k
    basis are computed once.  The stages from `size_parameters` to the
    L-matrix A run at a working precision Mw, first Mw = M; each attempt
    recomputes the splitting, at the precision the sizing asks for (see
    `resplit`), and the basis, solved once at that precision.  The
    invariants read off A (characteristic polynomial, Newton slopes,
    Atkin-Lehner eigenspaces and traces, Hensel lifts) lose about (d-1)*v
    absolute digits when the entries of the d x d matrix A have valuation
    -v, which the sizing does not foresee.  When one of them raises
    PrecisionError, the attempt is rerun with Mw raised by
    max(1, d-1)*max(1, v), where -v is the lowest entry valuation of A.
    When `l_matrix` raises it (an integration step loses its digits, or the
    cohomology solve is inconsistent or has a kernel), there is no A to
    measure, and Mw is doubled.  Either way the attempt is rerun at most
    MAX_PRECISION_RETRIES times and never past Mw = 4M; past that cap the
    error propagates.  The active time budget (see `budget`) is checked
    within every stage and between attempts.  The result is reported at the
    requested M: `prec` is M and the L-invariants are Hensel-lifted at
    precision M.
    """
    validate_row(p, nminus, nplus, weight, M)
    k = weight - 2
    ctx = build_context(p, nminus, nplus, SIZING_SPLIT_PREC,
                        variant=split_variant)
    basis0 = harmonic_basis(ctx.dom, k, SIZING_BASIS_PREC)
    if not basis0:
        return LResult(p, nminus, nplus, weight, M, 0)
    scales = row_scales(ctx, k, basis0)
    Mw = M
    retries = 0
    while True:
        sz = size_parameters(ctx, k, Mw, scales)
        actx = resplit(ctx, sz.split_prec, variant=split_variant)
        basis = harmonic_basis(actx.dom, k, SIZING_BASIS_PREC)
        d = len(basis)
        lifts = make_lift(actx.dom, basis, sz.lift)
        tau = base_point(p, sz.tau_prec, variant=tau_variant)
        A = None
        try:
            A = _padic_matrix(p, l_matrix(actx.dom, basis, lifts, tau,
                                          sz.n_terms, sz.out_prec))
            res = _invariants(actx, basis, A, M, sz.out_prec)
        except PrecisionError:
            if retries == MAX_PRECISION_RETRIES or Mw >= 4 * M:
                raise
            # -v, v the lowest valuation of an entry known nonzero
            step = Mw if A is None else max(1, d - 1) * max(1, -min(
                (c.val for row in A for c in row if not c.is_zero()), default=0))
            Mw = min(Mw + step, 4 * M)
            retries += 1
            checkpoint()
        else:
            # nothing is random; "seed" keeps schema v2 rows unchanged
            res.choices = {"tau_variant": tau_variant,
                           "split_variant": split_variant, "seed": 0}
            return res


def _invariants(ctx: Context, basis, A, M: int, out_prec: int) -> LResult:
    """Slopes, Atkin-Lehner data and L-invariants of the L-matrix A."""
    p, k, d = ctx.p, basis[0].k, len(basis)
    cp = charpoly(A)
    slopes = newton_slopes(cp)
    # Atkin-Lehner matrices in newform labeling (see module docstring)
    wN, _ = normalizing_element(ctx.dom, ctx.nminus * ctx.nplus)
    wp, _ = normalizing_element(ctx.dom, p, parity_p=True)
    MN, Mp = (_padic_matrix(p, involution_matrix(ctx.dom, k, w, basis, out_prec), -1)
              for w in (wN, wp))
    checkpoint()
    # commutation of A with W_N, within the available precision
    diff = mat_mul(A, MN)
    diff2 = mat_mul(MN, A)
    commutes = all(
        (diff[i][j] - diff2[i][j]).is_zero() or
        (diff[i][j] - diff2[i][j]).val >= M - 2
        for i in range(d) for j in range(d)
    )
    plus = eigenspace(MN, 1)
    minus = eigenspace(MN, -1)
    if len(plus) + len(minus) != d:
        raise PrecisionError("Atkin-Lehner eigenspaces do not span at precision")
    # the characteristic polynomial of A on each nonempty W_N eigenspace,
    # restricted once; it gives both the slopes and the L-invariants
    cplus = charpoly(restrict_operator(A, plus, out_prec)) if plus else None
    cminus = charpoly(restrict_operator(A, minus, out_prec)) if minus else None
    sp = newton_slopes(cplus) if plus else []
    sm = newton_slopes(cminus) if minus else []
    trp = _int_trace(Mp, d)
    eps = []
    if (d + trp) // 2:
        eps.append((1, (d + trp) // 2))
    if (d - trp) // 2:
        eps.append((-1, (d - trp) // 2))
    l_invs = []
    for sign, sub_slopes, csub in [(1, sp, cplus), (-1, sm, cminus)]:
        for sl, mult in sub_slopes:
            if mult == 1 and sl == int(sl):
                root = l_invariant_simple(csub, int(sl), M)
                l_invs.append((sign, Fraction(sl), root.expansion_str()))
    return LResult(
        p, ctx.nminus, ctx.nplus, k + 2, M, d,
        matrix=A, char_poly=cp, slopes=slopes,
        slopes_plus=sp, slopes_minus=sm, eps_w=eps, l_invariants=l_invs,
        commutes=commutes,
    )


def render_table(rows) -> str:
    """The slope/sign table of row dicts as `cached_l_result` returns them."""
    def fmt(pairs):
        return ", ".join(f"{a}_{m}" for a, m in pairs or [])

    out = [f"{'k':>4} {'d':>3}  {'alpha+':<22} {'alpha-':<22} {'eps_W':<12}"]
    for r in rows:
        out.append(
            f"{r['weight']:>4} {r['dim']:>3}  "
            f"{fmt(r.get('slopes_plus')):<22} "
            f"{fmt(r.get('slopes_minus')):<22} "
            f"{fmt(r.get('eps_w')):<12}"
        )
    return "\n".join(out)


# ----------------------------------------------------------------------
# caching
# ----------------------------------------------------------------------


def cache_dir_default():
    return os.environ.get("CACHE_DIR") or os.path.join(
        os.path.expanduser("~"), ".cache", "linvariant"
    )


def cached_l_result(p, nminus, nplus, weight, M, cache_dir=None):
    """The row as a JSON dict, read from the cache directory or computed and
    stored there.  An entry that cannot be read counts as a miss; a new entry
    is written to a temporary file and renamed, so a killed run leaves no
    partial entry."""
    validate_row(p, nminus, nplus, weight, M)
    cdir = cache_dir or cache_dir_default()
    try:
        os.makedirs(cdir, exist_ok=True)
    except OSError as exc:
        raise UsageError(f"unusable cache directory {cdir}: {exc.strerror}")
    key = f"lresult_{p}_{nminus}_{nplus}_{weight}_{M}_v{SCHEMA_VERSION}.json"
    path = os.path.join(cdir, key)
    try:
        with open(path) as f:
            data = json.load(f)
    except (OSError, ValueError):
        data = None
    if isinstance(data, dict) and data.get("schema_version") == SCHEMA_VERSION:
        return data
    data = compute_l_result(p, nminus, nplus, weight, M).to_json()
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w") as f:
            json.dump(data, f, indent=1)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return data
