"""compute_l_result: what a row computes once, and precision escalation."""

import json
import os

import pytest

import linvariant.loperator as loperator
import linvariant.pipeline as pipeline
from linvariant.padics import PadicNumber, PrecisionError
from linvariant.pipeline import (
    SCHEMA_VERSION,
    Budget,
    BudgetExceeded,
    compute_l_result,
)

from conftest import CACHE


def _record_working_precisions(monkeypatch):
    seen = []
    sizing = pipeline.size_parameters

    def recording(ctx, k, M, basis0):
        seen.append(M)
        return sizing(ctx, k, M, basis0)

    monkeypatch.setattr(pipeline, "size_parameters", recording)
    return seen


def test_first_attempt_success_does_not_retry(monkeypatch):
    seen = _record_working_precisions(monkeypatch)
    res = compute_l_result(3, 2, 1, 4, 4)
    assert seen == [4]
    assert res.prec == 4


def test_retry_then_report_at_requested_precision(monkeypatch):
    """A shortfall in the invariants reruns the stages at a higher working
    precision; the row is still reported at the requested M."""
    seen = _record_working_precisions(monkeypatch)
    invariants = pipeline._invariants
    calls = []

    def short_once(ctx, basis, A, M, out_prec, budget):
        calls.append(out_prec)
        if len(calls) == 1:
            raise PrecisionError("simulated shortfall")
        return invariants(ctx, basis, A, M, out_prec, budget)

    monkeypatch.setattr(pipeline, "_invariants", short_once)
    res = compute_l_result(3, 2, 1, 4, 4)
    # d = 1 and the single entry is a unit: the step is 1
    assert seen == [4, 5]
    assert calls[1] > calls[0]
    assert res.prec == 4
    assert res.slopes == [(0, 1)]
    # criterion 1 of the acceptance suite: 1 + 3^2 + O(3^4)
    assert res.l_invariants[0][2].startswith("1 + 3^2 + ")


def _count_calls(monkeypatch, module, name):
    calls = []
    fn = getattr(module, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, name, counting)
    return calls


def test_each_artefact_once_per_row(monkeypatch):
    """A row that retries once computes its domain once, the weight-k basis
    once for the sizing plus once per attempt, and sizes and lifts each
    attempt once."""
    domains = _count_calls(monkeypatch, pipeline, "compute_fundamental_domain")
    bases = _count_calls(monkeypatch, pipeline, "harmonic_basis")
    sizings = _count_calls(monkeypatch, pipeline, "size_parameters")
    lifts = _count_calls(monkeypatch, pipeline, "make_lift")
    invariants = pipeline._invariants
    attempts = []

    def short_once(*args):
        attempts.append(args)
        if len(attempts) == 1:
            raise PrecisionError("simulated shortfall")
        return invariants(*args)

    monkeypatch.setattr(pipeline, "_invariants", short_once)
    res = compute_l_result(3, 2, 1, 4, 4)
    assert len(attempts) == 2
    assert len(domains) == 1
    assert len(bases) == 1 + len(attempts)
    assert len(sizings) == len(attempts)
    assert len(lifts) == len(attempts)
    # every attempt sizes with the one probe basis
    assert sizings[0][3] is sizings[1][3]
    assert res.l_invariants[0][2].startswith("1 + 3^2 + ")


DOMAIN_FIELDS = ("vertices", "geo_edges", "pairings", "edge_stabs",
                 "vertex_stabs")


def test_resplit_keeps_domain_and_located_edges(ctx32):
    """A more precise splitting agrees with the sizing one modulo its
    precision, so the domain's exact data and the located edges carry over."""
    ctx = pipeline.resplit(ctx32, 90)
    assert ctx.dom.spl.prec == 90
    assert ctx.dom.vertices is ctx32.dom.vertices
    assert ctx.dom.edge_stabs is ctx32.dom.edge_stabs
    assert ctx.dom.located is ctx32.dom.located
    fresh = pipeline.build_context(3, 2, 1, 90)
    assert fresh.dom.spl.images == ctx.dom.spl.images
    for field in DOMAIN_FIELDS:
        assert getattr(fresh.dom, field) == getattr(ctx.dom, field)


def test_resplit_rebuilds_domain_for_another_splitting(ctx32):
    """A splitting that disagrees with the context's own (here the other
    variant) gets a domain of its own."""
    ctx = pipeline.resplit(ctx32, 90, variant=1)
    assert ctx.dom.located is not ctx32.dom.located
    fresh = pipeline.build_context(3, 2, 1, 90, variant=1)
    assert fresh.dom.spl.images == ctx.dom.spl.images
    for field in DOMAIN_FIELDS:
        assert getattr(fresh.dom, field) == getattr(ctx.dom, field)


def _fake_l_matrix(monkeypatch, val):
    """Skip the lift and integration stages: the L-matrix is the 1 x 1
    matrix (3^val), and the invariants never come out determined."""
    entry = PadicNumber(3, val, 1, 20)
    monkeypatch.setattr(pipeline, "make_lift", lambda *a, **kw: None)
    monkeypatch.setattr(pipeline, "l_matrix", lambda *a, **kw: [[entry]])

    def always_short(*args):
        raise PrecisionError("simulated shortfall")

    monkeypatch.setattr(pipeline, "_invariants", always_short)


def test_retry_cap_reraises(monkeypatch):
    """After MAX_PRECISION_RETRIES retries the PrecisionError propagates."""
    seen = _record_working_precisions(monkeypatch)
    _fake_l_matrix(monkeypatch, 0)
    with pytest.raises(PrecisionError):
        compute_l_result(3, 2, 1, 4, 4)
    assert seen == [4, 5, 6, 7]


def test_step_follows_entry_valuation_and_stops_at_4m(monkeypatch):
    """The step is (d-1)*max(1, -v_min(A)) with d - 1 raised to 1; the
    working precision is clamped at 4M and the error propagates there."""
    seen = _record_working_precisions(monkeypatch)
    _fake_l_matrix(monkeypatch, -5)
    with pytest.raises(PrecisionError):
        compute_l_result(3, 2, 1, 4, 4)
    assert seen == [4, 9, 14, 16]


def test_budget_checked_between_attempts(monkeypatch):
    seen = _record_working_precisions(monkeypatch)
    _fake_l_matrix(monkeypatch, 0)
    budget = Budget(seconds=1e6)

    def exhaust(ctx, basis, A, M, out_prec, b):
        b.seconds = 0.0
        raise PrecisionError("simulated shortfall")

    monkeypatch.setattr(pipeline, "_invariants", exhaust)
    with pytest.raises(BudgetExceeded):
        compute_l_result(3, 2, 1, 4, 4, budget=budget)
    assert seen == [4]


def test_budget_checked_between_sample_elements(monkeypatch):
    """A budget that runs out while the first generator is integrated stops
    the row before the second one is."""
    budget = Budget(seconds=1e6)
    lambda_values = loperator.lambda_values
    calls = []

    def exhausting(*args, **kwargs):
        calls.append(args)
        budget.seconds = 0.0
        return lambda_values(*args, **kwargs)

    monkeypatch.setattr(loperator, "lambda_values", exhausting)
    with pytest.raises(BudgetExceeded):
        compute_l_result(3, 2, 1, 4, 4, budget=budget)
    assert len(calls) == 1
    assert len(calls[0][0].generators()) > 1


@pytest.mark.parametrize("row", [(2, 7, 1, 4, 12), (2, 5, 1, 6, 12)])
def test_row_matches_committed_file(row):
    """Rows with a basis of 2 and 3 cocycles recompute cold to the bytes of
    their committed files."""
    name = "_".join(map(str, row))
    with open(os.path.join(CACHE, f"lresult_{name}_v{SCHEMA_VERSION}.json")) as f:
        want = f.read()
    assert json.dumps(compute_l_result(*row).to_json(), indent=1) == want
