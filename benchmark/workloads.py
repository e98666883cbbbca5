"""The benchmark's workloads: which operations a run repeats, and their checks.

An operation is one call a user of the library makes, computed cold:
- a row, `pipeline.compute_l_result(p, N^-, N^+, weight, M)`, which is
  what `linvariant linv` and `linvariant slopes` compute behind the cache;
- a space, `pipeline.build_context(p, N^-, N^+, 40)` and then
  `cocycles.harmonic_basis(dom, weight - 2, 25)`, which is what
  `linvariant basis` runs.

The seed picks each operation's auxiliary choices, the base point
(`tau_variant`) and the splitting (`split_variant`), among those every
operation of the workload accepts; seed 0 keeps the defaults.  The answer
must not depend on them, so every check holds whatever the seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import checks
import oracle

# Both generators of F_4^x, and the first two splittings found, are
# accepted by every row and every space below.
TAU_VARIANTS = (0, 1)
SPLIT_VARIANTS = (0, 1)

# Rows of the paper's p = 2 slope tables, as (p, N^-, N^+, weight, M).  They
# mix d = 1 rows with d = 2, 3 and 4 rows; (2, 7, 1, 8) certifies its
# invariants only on a second attempt at a higher working precision; and
# (2, 5, 1, 4) at M = 60 runs the lift with 96 moments modulo 2^87.
# A row above REF_M is also checked against the same row at REF_M with the
# other base point, computed outside the timed region: the L-invariants
# must agree modulo p^REF_AGREE.
SLOPES_P2 = [(2, 3, 1, 4, 12), (2, 5, 1, 4, 12), (2, 5, 1, 6, 12),
             (2, 7, 1, 4, 12), (2, 7, 1, 8, 12), (2, 5, 1, 4, 60)]
REF_M = 12
REF_AGREE = 10

# (p, N^-, weight) of the cocycle spaces, with N^+ = 1: every p from 2 to
# 13, N^- from 2 to 19 and weights 2 to 8, at 5 to 10 s a round.  Larger
# levels cost seconds each, and some p = 2 spaces at N^- >= 31 come out
# with the wrong dimension (see CHANGES.md).
DIMS_SPACES = [(2, 3, 2), (2, 3, 4), (2, 3, 6), (2, 3, 8),
               (2, 13, 4), (2, 13, 8), (2, 19, 2),
               (3, 2, 4), (3, 2, 8), (3, 13, 6),
               (5, 3, 4), (5, 7, 6), (7, 3, 2), (11, 2, 6), (13, 2, 2)]
DIMS_SPLIT_PREC = 40
DIMS_BASIS_PREC = 25


def choices(seed: int, n: int) -> list[tuple[int, int]]:
    """(tau_variant, split_variant) for each of n operations."""
    if seed == 0:
        return [(0, 0)] * n
    rng = random.Random(seed)
    return [(rng.choice(TAU_VARIANTS), rng.choice(SPLIT_VARIANTS))
            for _ in range(n)]


@dataclass
class Row:
    p: int
    nminus: int
    nplus: int
    weight: int
    M: int
    tau_variant: int
    split_variant: int
    ref: object = None
    ref_problems: tuple = ()

    @property
    def label(self) -> str:
        return (f"row ({self.p},{self.nminus},{self.nplus},{self.weight},"
                f"{self.M}) tau={self.tau_variant} split={self.split_variant}")

    def compute(self, pipeline, M=None, tau_variant=None):
        return pipeline.compute_l_result(
            self.p, self.nminus, self.nplus, self.weight,
            self.M if M is None else M,
            tau_variant=self.tau_variant if tau_variant is None else tau_variant,
            split_variant=self.split_variant)

    def run(self, lib) -> list[str]:
        res = self.compute(lib.pipeline)
        probs = checks.row_problems(res, self.M)
        if self.ref is not None:
            probs += checks.agreement_problems(res, self.ref, REF_AGREE)
        return probs + list(self.ref_problems)


@dataclass
class Space:
    p: int
    nminus: int
    weight: int
    split_variant: int

    @property
    def label(self) -> str:
        return (f"space ({self.p},{self.nminus},1) weight {self.weight} "
                f"split={self.split_variant}")

    def run(self, lib) -> list[str]:
        ctx = lib.pipeline.build_context(self.p, self.nminus, 1,
                                         DIMS_SPLIT_PREC,
                                         variant=self.split_variant)
        basis = lib.cocycles.harmonic_basis(ctx.dom, self.weight - 2,
                                            DIMS_BASIS_PREC)
        want = oracle.harmonic_dim(self.p, self.nminus, 1, self.weight)
        if len(basis) != want:
            return [f"dim {len(basis)}, oracle {want}"]
        return []


def slopes_p2(seed: int, lib) -> list[Row]:
    """The rows, each above REF_M with its reference row already computed
    and checked.  A reference row that raises or fails a check makes every
    attempt of its row fail."""
    ops = [Row(*r, tau, split) for r, (tau, split)
           in zip(SLOPES_P2, choices(seed, len(SLOPES_P2)))]
    for op in ops:
        if op.M <= REF_M:
            continue
        try:
            op.ref = op.compute(lib.pipeline, M=REF_M,
                                tau_variant=1 - op.tau_variant)
        except Exception as exc:
            op.ref_problems = (f"reference row raised {exc!r}",)
            continue
        op.ref_problems = tuple(f"reference row: {p}" for p in
                                checks.row_problems(op.ref, REF_M))
    return ops


def dims_survey(seed: int, lib) -> list[Space]:
    return [Space(p, n, w, split)
            for (p, n, w), (_, split) in zip(DIMS_SPACES,
                                             choices(seed, len(DIMS_SPACES)))]


WORKLOADS = {
    "slopes-p2": slopes_p2,
    "dims-survey": dims_survey,
}
