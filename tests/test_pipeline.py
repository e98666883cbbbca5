"""compute_l_result: what a row computes once, and precision escalation."""

import glob
import json
import os
from fractions import Fraction

import pytest

import linvariant.cocycles as cocycles
import linvariant.loperator as loperator
import linvariant.pipeline as pipeline
from linvariant.budget import Budget, BudgetExceeded
from linvariant.cocycles import harmonic_basis
from linvariant.lifting import _phi_scaled
from linvariant.padics import PrecisionError, val_int
from linvariant.pipeline import (
    SCHEMA_VERSION,
    SIZING_BASIS_PREC,
    SIZING_SPLIT_PREC,
    build_context,
    compute_l_result,
    resplit,
    row_scales,
    size_parameters,
)

from conftest import CACHE


def _record_working_precisions(monkeypatch):
    seen = []
    sizing = pipeline.size_parameters

    def recording(ctx, k, M, scales):
        seen.append(M)
        return sizing(ctx, k, M, scales)

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

    def short_once(ctx, basis, A, M, out_prec):
        calls.append(out_prec)
        if len(calls) == 1:
            raise PrecisionError("simulated shortfall")
        return invariants(ctx, basis, A, M, out_prec)

    monkeypatch.setattr(pipeline, "_invariants", short_once)
    res = compute_l_result(3, 2, 1, 4, 4)
    # d = 1 and the single entry is a unit: the step is 1
    assert seen == [4, 5]
    assert calls[1] > calls[0]
    assert res.prec == 4
    assert res.slopes == [(0, 1)]
    # criterion 1 of the acceptance suite: 1 + 3^2 + O(3^4)
    assert res.l_invariants[0][2].startswith("1 + 3^2 + ")


def test_l_matrix_shortfall_doubles_working_precision(monkeypatch):
    """A PrecisionError from the L-matrix stage leaves no matrix to measure
    a step from: the attempt is rerun at twice the working precision, and
    the row is still reported at the requested M."""
    seen = _record_working_precisions(monkeypatch)
    l_matrix = pipeline.l_matrix
    calls = []

    def short_once(*args, **kwargs):
        calls.append(args)
        if len(calls) == 1:
            raise PrecisionError("simulated shortfall")
        return l_matrix(*args, **kwargs)

    monkeypatch.setattr(pipeline, "l_matrix", short_once)
    res = compute_l_result(3, 2, 1, 4, 4)
    assert seen == [4, 8]
    assert res.prec == 4
    assert res.l_invariants[0][2].startswith("1 + 3^2 + ")


def test_basis_precision_covers_moment_scale():
    """At weight 24 the scale e = v*k/2 of the cocycle moments passes 10
    digits; the attempt's basis, solved at the precision of its splitting,
    still gives `make_lift` its W digits under the scale p^t:
    P - e + t >= W."""
    k = 22
    ctx = build_context(2, 3, 1, SIZING_SPLIT_PREC)
    sz = size_parameters(ctx, k, 8, row_scales(
        ctx, k, harmonic_basis(ctx.dom, k, SIZING_BASIS_PREC)))
    dom = resplit(ctx, sz.split_prec).dom
    moments = [(e, P) for c in harmonic_basis(dom, k, SIZING_BASIS_PREC)
               for _, e, P in _phi_scaled(dom, c, k)]
    assert max(e for e, _ in moments) > 10
    assert all(P - e + sz.lift.t >= sz.lift.W for e, P in moments)


def _count_calls(monkeypatch, module, name):
    calls = []
    fn = getattr(module, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, name, counting)
    return calls


def _count_basis_solves(monkeypatch, module):
    """The number of kernel solves of each call of `harmonic_basis` through
    module."""
    solves = _count_calls(monkeypatch, cocycles, "solve_linear")
    per_call = []
    basis = module.harmonic_basis

    def solving(*args, **kwargs):
        before = len(solves)
        out = basis(*args, **kwargs)
        per_call.append(len(solves) - before)
        return out

    monkeypatch.setattr(module, "harmonic_basis", solving)
    return per_call


@pytest.mark.parametrize("ctx_name,w", [
    ("ctx23", 4), ("ctx23", 6), ("ctx23", 8), ("ctx27", 8), ("ctx32", 6)])
def test_basis_solved_once(monkeypatch, request, ctx_name, w):
    """Each basis is one kernel solve, at p = 2 too, where a solve at the
    requested precision would fall a few digits short of it."""
    ctx = request.getfixturevalue(ctx_name)
    per_call = _count_basis_solves(monkeypatch, cocycles)
    basis = cocycles.harmonic_basis(ctx.dom, w - 2, SIZING_BASIS_PREC)
    assert per_call == [1] and basis


def test_each_artefact_once_per_row(monkeypatch):
    """A row that retries once computes its domain once, the weight-k basis
    once for the sizing plus once per attempt, each by one kernel solve, and
    sizes and lifts each attempt once.  The action of each (x, r, k) is
    built once per domain: a domain under a new splitting starts without the
    actions but shares the located edges.  The invariants restrict the L-matrix once to each
    nonempty W_N eigenspace.  What does not depend on the working
    precision runs once per row: the coverings and moments the sizing reads
    and the searches for the two normalizing elements; psi builds one
    geodesic per generator and attempt, for the whole basis."""
    domains = _count_calls(monkeypatch, pipeline, "compute_fundamental_domain")
    coverings = _count_calls(monkeypatch, pipeline, "ball_matrices")
    moments = _count_calls(monkeypatch, pipeline, "_phi_scaled")
    norm_searches = _count_calls(monkeypatch, cocycles, "enumerate_norm")
    paths = _count_calls(monkeypatch, loperator, "geodesic")
    bases = _count_calls(monkeypatch, pipeline, "harmonic_basis")
    sizings = _count_calls(monkeypatch, pipeline, "size_parameters")
    lifts = _count_calls(monkeypatch, pipeline, "make_lift")
    actions = _count_calls(monkeypatch, cocycles, "weight_action")
    restricts = _count_calls(monkeypatch, pipeline, "restrict_operator")
    charpolys = _count_calls(monkeypatch, pipeline, "charpoly")
    doms = []
    build, split = pipeline.build_context, pipeline.resplit

    def building(*args, **kwargs):
        ctx = build(*args, **kwargs)
        doms.append(ctx.dom)
        return ctx

    def splitting(ctx, *args, **kwargs):
        new = split(ctx, *args, **kwargs)
        assert new.dom.actions == {} and ctx.dom.actions
        assert new.dom.located is ctx.dom.located
        doms.append(new.dom)
        return new

    monkeypatch.setattr(pipeline, "build_context", building)
    monkeypatch.setattr(pipeline, "resplit", splitting)
    invariants = pipeline._invariants
    attempts = []

    def short_once(*args):
        attempts.append(args)
        if len(attempts) == 1:
            raise PrecisionError("simulated shortfall")
        return invariants(*args)

    monkeypatch.setattr(pipeline, "_invariants", short_once)
    basis_solves = _count_basis_solves(monkeypatch, pipeline)
    res = compute_l_result(3, 2, 1, 4, 4)
    assert len(attempts) == 2
    assert len(domains) == 1
    assert len(bases) == 1 + len(attempts)
    assert basis_solves == [1] * len(bases)
    assert len(sizings) == len(attempts)
    assert len(lifts) == len(attempts)
    # every attempt sizes with the scales of the one probe basis
    assert sizings[0][3] is sizings[1][3]
    gens = doms[0].generators()
    assert len(coverings) == len(gens)
    assert len(moments) == res.dim
    targets = [target for _, target in norm_searches]
    assert targets and len(set(targets)) == len(targets)
    assert len(paths) == len(attempts) * len(gens)
    assert len(doms) == 1 + len(attempts)
    assert len(actions) == sum(len(dom.actions) for dom in doms) > 0
    # d = 1: one nonempty eigenspace, whose simple slope is also Hensel-lifted
    assert len(restricts) == bool(res.slopes_plus) + bool(res.slopes_minus) == 1
    # one characteristic polynomial for A and one per eigenspace, which the
    # Hensel lift reuses
    assert len(charpolys) == 1 + len(restricts)
    assert res.l_invariants[0][2].startswith("1 + 3^2 + ")


def test_charpoly_once_per_matrix(monkeypatch):
    """(2,7,1,4,12) has d = 2 and a simple slope on each W_N eigenspace:
    3 characteristic polynomials, for A and its two restrictions, of which
    the two L-invariants are Hensel-lifted."""
    charpolys = _count_calls(monkeypatch, pipeline, "charpoly")
    res = compute_l_result(2, 7, 1, 4, 12)
    assert res.dim == 2 and len(res.l_invariants) == 2
    assert len(charpolys) == 3


DOMAIN_FIELDS = ("vertices", "geo_edges", "pairings", "edge_stabs",
                 "vertex_stabs")


def test_resplit_keeps_domain_and_located_edges(ctx32):
    """A more precise splitting agrees with the sizing one modulo its
    precision, so the domain's exact data, the located edges and the
    recorded vertex stars carry over."""
    ctx = pipeline.resplit(ctx32, 90)
    assert ctx.dom.spl.prec == 90
    assert ctx.dom.vertices is ctx32.dom.vertices
    assert ctx.dom.edge_stabs is ctx32.dom.edge_stabs
    assert ctx.dom.located is ctx32.dom.located
    assert ctx.dom.stars is ctx32.dom.stars
    # the images depend on the splitting: the copy memoizes its own
    assert ctx.dom.spl.memo is not ctx32.dom.spl.memo
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
    monkeypatch.setattr(pipeline, "make_lift", lambda *a, **kw: None)
    monkeypatch.setattr(pipeline, "l_matrix",
                        lambda *a, **kw: [[(val, 1, 20)]])

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

    def exhaust(ctx, basis, A, M, out_prec):
        budget.seconds = 0.0
        raise PrecisionError("simulated shortfall")

    monkeypatch.setattr(pipeline, "_invariants", exhaust)
    with budget.active(), pytest.raises(BudgetExceeded):
        compute_l_result(3, 2, 1, 4, 4)
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
    with budget.active(), pytest.raises(BudgetExceeded):
        compute_l_result(3, 2, 1, 4, 4)
    assert len(calls) == 1
    assert len(calls[0][0].generators()) > 1


def test_budget_checked_in_sizing_scan(monkeypatch):
    """A budget that runs out during the covering balls of the first
    generator in the sizing stops the row there."""
    budget = Budget(seconds=1e6)
    ball_matrices = pipeline.ball_matrices
    calls = []

    def exhausting(*args):
        calls.append(args)
        budget.seconds = 0.0
        return ball_matrices(*args)

    monkeypatch.setattr(pipeline, "ball_matrices", exhausting)
    with budget.active(), pytest.raises(BudgetExceeded):
        compute_l_result(3, 2, 1, 4, 4)
    assert len(calls) == 1
    assert len(calls[0][0].generators()) > 1


def _committed_rows():
    """(p, nminus, nplus, weight, M) of every committed row file."""
    suffix = f"_v{SCHEMA_VERSION}.json"
    return [tuple(int(t) for t in os.path.basename(path)[len("lresult_"):
                                                         -len(suffix)].split("_"))
            for path in sorted(glob.glob(os.path.join(CACHE, f"lresult_*{suffix}")))]


@pytest.mark.parametrize("row", _committed_rows())
def test_row_matches_committed_file(row):
    """Every committed row recomputes cold to the bytes of its file: bases
    of 1 to 3 cocycles, weights 4 to 16, and an odd p, where K_p = Q_p(w)
    with w^2 = n."""
    name = "_".join(map(str, row))
    with open(os.path.join(CACHE, f"lresult_{name}_v{SCHEMA_VERSION}.json")) as f:
        want = f.read()
    assert json.dumps(compute_l_result(*row).to_json(), indent=1) == want


def _expansion(text, p):
    """(value as a Fraction, absolute precision) of an expansion such as
    '2^-2 + 2^3 + O(2^10)' or '1 + 2*3^2 + O(3^10)'."""
    *terms, big_o = text.split(" + ")
    value = Fraction(0)
    for t in terms:
        coef, _, power = t.rpartition("*")
        base, _, exp = power.partition("^")
        value += int(coef or 1) * (Fraction(p) ** int(exp) if exp else int(base))
    return value, int(big_o[big_o.index("^") + 1:-1])


def test_high_weight_row_agrees_across_precisions():
    """(2,3,1) at weight 20, whose lift sweeps start from the widest
    exact moments of the suite (k = 18): the row computes at M = 8, after a
    retry at a higher working precision, and its L-invariant agrees modulo
    2^10 with that of the row at M = 12, both 2^-2 + 2^3 + 2^4 + 2^7."""
    rows = [compute_l_result(2, 3, 1, 20, M) for M in (8, 12)]
    assert [r.slopes for r in rows] == [[(-2, 1), (-6, 2)]] * 2
    [(_, s8, d8)], [(_, s12, d12)] = [r.l_invariants for r in rows]
    assert s8 == s12 == -2
    (v8, prec8), (v12, prec12) = _expansion(d8, 2), _expansion(d12, 2)
    assert prec8 >= 10 and prec12 >= 10

    def agree_mod_2_10(x, y):
        d = x - y
        return d == 0 or val_int(d.numerator, 2) - val_int(d.denominator, 2) >= 10

    assert agree_mod_2_10(v8, v12)
    assert agree_mod_2_10(v8, Fraction(1, 4) + 2**3 + 2**4 + 2**7)
