"""Checks on L-operator rows that need no stored copy of the program's output.

Each check returns a list of problems (empty when the row is right).  The
expected values come from the paper's p = 2 slope tables, from the dimension
oracle, and from properties any correct row has.
"""

from __future__ import annotations

import re
from fractions import Fraction

import oracle

# The paper's p = 2 slope tables: weight -> (dim, slopes on W_N = +1,
# slopes on W_N = -1, W_p signs), each a list of (value, multiplicity).
# The same tables are TABLE_2_3, TABLE_2_5 and TABLE_2_7 of the acceptance
# tests.
PAPER_TABLES = {
    (2, 3, 1): {
        4: (1, [(1, 1)], [], [(1, 1)]),
        6: (1, [(0, 1)], [], [(-1, 1)]),
        8: (1, [], [(-1, 1)], [(-1, 1)]),
        10: (1, [], [(0, 1)], [(1, 1)]),
        12: (3, [(-1, 1)], [(-4, 2)], [(-1, 1), (1, 2)]),
        14: (1, [(-1, 1)], [], [(-1, 1)]),
        16: (3, [(-4, 2)], [(-2, 1)], [(-1, 2), (1, 1)]),
    },
    (2, 5, 1): {
        4: (1, [], [(2, 1)], [(-1, 1)]),
        6: (3, [(-2, 2)], [(0, 1)], [(-1, 1), (1, 2)]),
        8: (1, [], [(-1, 1)], [(-1, 1)]),
    },
    (2, 7, 1): {
        4: (2, [(1, 1)], [(1, 1)], [(-1, 1), (1, 1)]),
        6: (2, [(0, 1)], [(0, 1)], [(-1, 1), (1, 1)]),
        8: (4, [(0, 1), (-1, 1)], [(0, 1), (-1, 1)], [(-1, 3), (1, 1)]),
    },
}

_TERM = re.compile(r"^(?:(\d+)\*)?(\d+)\^(-?\d+)$")
_BIG_O = re.compile(r"^O\((\d+)\^(-?\d+)\)$")


def parse_expansion(text: str, p: int):
    """(valuation, absolute precision, value as a Fraction) of a p-adic
    expansion such as '2^-1 + 2^3 + O(2^14)' or '1 + 2*3^2 + O(3^10)'.
    The valuation is None when no digit is known."""
    *terms, big_o = [t.strip() for t in text.split(" + ")]
    m = _BIG_O.match(big_o)
    if not m or int(m.group(1)) != p:
        raise ValueError(f"no O(p^n) term in {text!r}")
    prec = int(m.group(2))
    value = Fraction(0)
    val = None
    for t in terms:
        if t.isdigit():
            digit, exp = int(t), 0
        else:
            mt = _TERM.match(t)
            if not mt or int(mt.group(2)) != p:
                raise ValueError(f"bad term {t!r} in {text!r}")
            digit, exp = int(mt.group(1) or 1), int(mt.group(3))
        if not 0 < digit < p:
            raise ValueError(f"digit {digit} out of range in {text!r}")
        value += digit * Fraction(p) ** exp
        val = exp if val is None else min(val, exp)
    return val, prec, value


def _multiset(pairs):
    out: dict = {}
    for v, m in pairs:
        out[Fraction(v)] = out.get(Fraction(v), 0) + m
    return out


def val_p(x: Fraction, p: int) -> int | None:
    if x == 0:
        return None
    v, num, den = 0, x.numerator, x.denominator
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v


def row_problems(res, M: int) -> list[str]:
    """Everything wrong with the `LResult` res of a row asked at M digits."""
    p, key, w, d = res.p, (res.p, res.nminus, res.nplus), res.weight, res.dim
    probs = []
    want = oracle.harmonic_dim(p, res.nminus, res.nplus, w)
    if d != want:
        probs.append(f"dim {d}, oracle {want}")
    if d == 0:
        return probs
    if res.prec != M:
        probs.append(f"reported at prec {res.prec}, asked {M}")
    table = PAPER_TABLES.get(key, {}).get(w)
    if table is not None:
        t_dim, t_plus, t_minus, t_eps = table
        if (d, _multiset(res.slopes_plus), _multiset(res.slopes_minus),
                _multiset(res.eps_w)) != (t_dim, _multiset(t_plus),
                                          _multiset(t_minus), _multiset(t_eps)):
            probs.append("slopes or W_p signs differ from the paper's table")
    if sum(m for _, m in res.slopes) != d:
        probs.append("slope multiplicities do not sum to d")
    if sum(m for _, m in res.eps_w) != d:
        probs.append("W_p sign multiplicities do not sum to d")
    union = _multiset(list(res.slopes_plus) + list(res.slopes_minus))
    if union != _multiset(res.slopes):
        probs.append("slopes are not the union of slopes_plus and slopes_minus")
    if res.commutes is not True:
        probs.append("W_N does not commute with the L-operator")
    simple = [(s, sl) for s, part in ((1, res.slopes_plus),
                                      (-1, res.slopes_minus))
              for sl, m in part if m == 1 and Fraction(sl).denominator == 1]
    if sorted(simple) != sorted((s, Fraction(sl))
                                for s, sl, _ in res.l_invariants):
        probs.append("L-invariants do not match the simple integral slopes")
    for sign, slope, digits in res.l_invariants:
        val, prec, _ = parse_expansion(digits, p)
        if val != slope:
            probs.append(f"L-invariant ({sign:+d}, {slope}) has valuation {val}")
        if prec < M:
            probs.append(f"L-invariant ({sign:+d}, {slope}) known to "
                         f"O({p}^{prec}) only")
    return probs


def agreement_problems(res, ref, digits: int) -> list[str]:
    """L-invariants of res that differ from those of ref modulo p^digits.
    The two rows are the same (p, N^-, N^+, weight) computed with another
    precision and another base point."""
    p = res.p

    def keyed(r):
        out: dict = {}
        for sign, slope, text in r.l_invariants:
            out.setdefault((sign, Fraction(slope)), []).append(
                parse_expansion(text, p)[2])
        return out

    a, b = keyed(res), keyed(ref)
    if a.keys() != b.keys():
        return ["L-invariant slopes differ from the reference row"]
    probs = []
    for key, values in a.items():
        left = list(b[key])
        for x in values:
            match = next((y for y in left
                          if val_p(x - y, p) is None
                          or val_p(x - y, p) >= digits), None)
            if match is None:
                probs.append(f"L-invariant {key} differs from the reference "
                             f"modulo {p}^{digits}")
            else:
                left.remove(match)
    return probs
