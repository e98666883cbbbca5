import os
import shutil
from math import comb

import pytest

from linvariant.cocycles import gamma_action, harmonic_basis
from linvariant.integration import _coordinate_totals, base_point, lambda_values
from linvariant.loperator import psi_values
from linvariant.lifting import make_lift
from linvariant.padics import PadicNumber
from linvariant.pipeline import (
    SIZING_BASIS_PREC,
    SIZING_SPLIT_PREC,
    build_context,
    resplit,
    size_parameters,
)

CACHE = os.path.join(os.path.dirname(__file__), "..", ".cache")


def as_padics(p, vec):
    """The entries of a V_k value (residues, scale, precision) in the
    convention of `cocycles.Action`, its precision one for the vector or
    one per entry, as PadicNumber."""
    res, s, P = vec
    precs = P if isinstance(P, list) else [P] * len(res)
    return [PadicNumber(p, -s, a, q - s) for a, q in zip(res, precs)]


def psis(dom, coc, x, r, prec):
    """psi_values as a list of PadicNumber."""
    return as_padics(dom.p, psi_values(dom, coc, x, r, prec))


def lambdas(dom, lifts, x, r, tau, n_terms, prec):
    """lambda_values as one list of PadicNumber per lift."""
    return [as_padics(dom.p, vec)
            for vec in lambda_values(dom, lifts, x, r, tau, n_terms, prec)]


def coordinate_totals(dom, lifts, x, r, tau, n_terms, prec):
    """_coordinate_totals as pairs of PadicNumber."""
    E, totals = _coordinate_totals(dom, lifts, x, r, tau, n_terms, prec)
    return [[tuple(PadicNumber(dom.p, -E, a, P - E) for a, P in pair)
             for pair in vec] for vec in totals]


def exact_weight_rows(mat, k):
    """The rows of `cocycles.weight_coeff_rows` as exact integers: the
    coefficients of (a x + b)^i (c x + d)^(k-i)."""
    a, b, c, d = mat
    rows = []
    for i in range(k + 1):
        left = [comb(i, s) * a**s * b ** (i - s) for s in range(i + 1)]
        right = [comb(k - i, s) * c**s * d ** (k - i - s)
                 for s in range(k - i + 1)]
        row = [0] * (k + 1)
        for s1, v1 in enumerate(left):
            for s2, v2 in enumerate(right):
                row[s1 + s2] += v1 * v2
        rows.append(row)
    return rows


def act(dom, k, x, r, omega, prec):
    """gamma . omega for gamma = x/p^r and omega a list of k+1 PadicNumber,
    through the integer action; entries known to prec digits before the
    action's scale."""
    p = dom.p
    rows, e, P = gamma_action(dom, x, r, k)
    out = []
    for row in rows:
        acc = PadicNumber.zero(p, prec - e)
        for a, w in zip(row, omega):
            acc = acc + PadicNumber(p, -e, a, min(prec, P) - e) * w
        out.append(acc)
    return out


def gamma_mul(dom, x1, x2):
    """The coordinates of x1 x2 for order elements given by coordinates, as
    the domain carries group elements."""
    return dom.order.mul(x1, x2)


def gamma_conj(dom, x):
    """The coordinates of the conjugate of x; x conj(x) = nrd(x)."""
    return dom.order.conj(x)


def value(c, e, prec):
    """c(e) as a list of PadicNumber."""
    return as_padics(c.dom.p, c.value(e, prec))


@pytest.fixture(scope="session")
def cache_dir(tmp_path_factory):
    """A copy of the committed rows, so that the CLI tests read them but
    never write into the repository."""
    path = tmp_path_factory.mktemp("cache") / "rows"
    shutil.copytree(CACHE, path)
    return str(path)


@pytest.fixture(scope="session")
def ctx32():
    """p = 3, definite algebra of discriminant 2."""
    return build_context(3, 2, 1, 60)


@pytest.fixture(scope="session")
def ctx23():
    """p = 2, definite algebra of discriminant 3."""
    return build_context(2, 3, 1, 60)


@pytest.fixture(scope="session")
def ctx25():
    return build_context(2, 5, 1, 60)


@pytest.fixture(scope="session")
def ctx27():
    return build_context(2, 7, 1, 60)


def _row(p, nminus, k, M):
    """(p, nminus, 1) at weight k + 2, sized for M digits through the
    production path: the sizing context and probe basis, the resplit
    context, its basis, the lifts of the whole basis and the base point."""
    ctx = build_context(p, nminus, 1, SIZING_SPLIT_PREC)
    sz = size_parameters(ctx, k, M,
                         harmonic_basis(ctx.dom, k, SIZING_BASIS_PREC))
    ctx = resplit(ctx, sz.split_prec)
    basis = harmonic_basis(ctx.dom, k, SIZING_BASIS_PREC)
    lifts = make_lift(ctx.dom, basis, sz.lift)
    return ctx, k, M, sz, basis, lifts, base_point(p, sz.tau_prec)


@pytest.fixture(scope="session")
def row32_m6():
    """(3, 2, 1) at weight 4 (k = 2), sized for M = 6."""
    return _row(3, 2, 2, 6)


@pytest.fixture(scope="session")
def row32_m8():
    return _row(3, 2, 2, 8)


@pytest.fixture(scope="session")
def row23_m12():
    """(2, 3, 1) at weight 6 (k = 4), sized for M = 12."""
    return _row(2, 3, 4, 12)


@pytest.fixture(scope="session")
def row32_k6():
    """(3, 2, 1) at weight 8 (k = 6), sized for M = 4."""
    return _row(3, 2, 6, 4)


@pytest.fixture(scope="session")
def row23_k10():
    """(2, 3, 1) at weight 12 (k = 10), sized for M = 4: three cocycles,
    and W = 53 < i_max = 54, so the lift builds no column m >= W."""
    return _row(2, 3, 10, 4)


@pytest.fixture(scope="session")
def row53_m8():
    """(5, 3, 1) at weight 4 (k = 2), sized for M = 8."""
    return _row(5, 3, 2, 8)


@pytest.fixture(scope="session")
def row27_m12():
    """(2, 7, 1) at weight 4, sized for M = 12: a basis of two cocycles."""
    return _row(2, 7, 2, 12)
