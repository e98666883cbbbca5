import os
import shutil

import pytest

from linvariant.pipeline import build_context

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
