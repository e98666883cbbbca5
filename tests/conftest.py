import os
import shutil

import pytest

from linvariant.cocycles import harmonic_basis
from linvariant.integration import base_point
from linvariant.lifting import make_lift
from linvariant.pipeline import (
    SIZING_BASIS_PREC,
    SIZING_SPLIT_PREC,
    build_context,
    resplit,
    size_parameters,
)

CACHE = os.path.join(os.path.dirname(__file__), "..", ".cache")


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


def _row32(M):
    """(3, 2, 1) at weight 4 (k = 2), sized for M digits through the
    production path: the sizing context and probe basis, the resplit
    context, its basis, the lifts of the whole basis and the base point."""
    ctx = build_context(3, 2, 1, SIZING_SPLIT_PREC)
    k = 2
    sz = size_parameters(ctx, k, M,
                         harmonic_basis(ctx.dom, k, SIZING_BASIS_PREC))
    ctx = resplit(ctx, sz.split_prec)
    basis = harmonic_basis(ctx.dom, k, sz.basis_prec)
    lifts = make_lift(ctx.dom, ctx.reducer, basis, sz.lift)
    return ctx, k, M, sz, basis, lifts, base_point(3, sz.tau_prec)


@pytest.fixture(scope="session")
def row32_m6():
    return _row32(6)


@pytest.fixture(scope="session")
def row32_m8():
    return _row32(8)
