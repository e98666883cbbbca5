"""The committed rows of .cache/ as an oracle: each recomputes cold to the
same JSON.

Nothing random enters a row, so every committed row is a frozen output of
the whole pipeline at its (p, N-, N+, weight, M) and choices.  Each test
computes its row from scratch with `compute_l_result` (no cache is read),
passes `to_json()` through `json.dumps`/`json.loads`, as `cached_l_result`
does when it writes the file, and asserts equality with the committed file.
"""

import json
import os

import pytest

from linvariant.pipeline import compute_l_result

CACHE = os.path.join(os.path.dirname(__file__), "..", ".cache")
ROWS = sorted(f for f in os.listdir(CACHE) if f.endswith(".json"))


def test_every_row_is_checked():
    assert len(ROWS) >= 14


@pytest.mark.parametrize("name", ROWS)
def test_row_recomputes_cold(name):
    with open(os.path.join(CACHE, name)) as f:
        want = json.load(f)
    choices = want.get("choices") or {}
    res = compute_l_result(want["p"], want["nminus"], want["nplus"],
                           want["weight"], want["prec"],
                           tau_variant=choices.get("tau_variant", 0),
                           split_variant=choices.get("split_variant", 0))
    assert json.loads(json.dumps(res.to_json())) == want
