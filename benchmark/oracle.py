"""Dimensions of harmonic cocycle spaces, independent of the program.

By Jacquet-Langlands, the Gamma-invariant harmonic cocycles of weight k on
the Bruhat-Tits tree for the definite quaternion algebra of discriminant
N^- (with an Eichler order of level N^+) correspond to the cusp forms of
weight k on Gamma_0(p N^- N^+) that are new at every prime of p N^-.  Their
dimension is computed here from the Cohen-Oesterle formula for
dim S_k(Gamma_0(N)) and the inversion that isolates the forms new at a set
of primes: with beta multiplicative, beta(q) = -2, beta(q^2) = 1 and
beta(q^a) = 0 for a >= 3,

    dim S_k(Gamma_0(L N))^{L-new} = sum_{D | L} beta(L / D) dim S_k(Gamma_0(D N))

for L squarefree-free of common factors with N.  Nothing here imports the
program under test.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd


def factor(n: int) -> dict[int, int]:
    out: dict[int, int] = {}
    q = 2
    while q * q <= n:
        while n % q == 0:
            out[q] = out.get(q, 0) + 1
            n //= q
        q += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


def _totient(n: int) -> int:
    out = n
    for q in factor(n):
        out = out // q * (q - 1)
    return out


def _kronecker_minus1(q: int) -> int:
    """(-4 / q) for a prime q."""
    return 0 if q == 2 else (1 if q % 4 == 1 else -1)


def _kronecker_minus3(q: int) -> int:
    """(-3 / q) for a prime q."""
    if q == 3:
        return 0
    if q == 2:
        return -1
    return 1 if q % 3 == 1 else -1


def dim_cusp_forms(k: int, n: int) -> int:
    """dim S_k(Gamma_0(n)) for even k >= 2 (Cohen-Oesterle)."""
    if k < 2 or k % 2:
        raise ValueError("k must be even and >= 2")
    fac = factor(n)
    mu = Fraction(n)
    for q in fac:
        mu *= Fraction(q + 1, q)
    nu2 = 0 if n % 4 == 0 else 1
    nu3 = 0 if n % 9 == 0 else 1
    for q in fac:
        nu2 *= 1 + _kronecker_minus1(q)
        nu3 *= 1 + _kronecker_minus3(q)
    nu_inf = sum(_totient(gcd(d, n // d)) for d in divisors(n))
    dim = ((k - 1) * mu / 12
           + (k // 4 - Fraction(k - 1, 4)) * nu2
           + (k // 3 - Fraction(k - 1, 3)) * nu3
           - Fraction(nu_inf, 2)
           + (1 if k == 2 else 0))
    if dim.denominator != 1:
        raise ArithmeticError(f"non-integral dimension {dim} for k={k}, N={n}")
    return int(dim)


def _beta(n: int) -> int:
    out = 1
    for e in factor(n).values():
        out *= {1: -2, 2: 1}.get(e, 0)
    return out


def dim_new_at(k: int, new_level: int, other_level: int = 1) -> int:
    """Dimension of the cusp forms of weight k on
    Gamma_0(new_level * other_level) that are new at every prime of
    new_level (squarefree and coprime to other_level)."""
    return sum(_beta(new_level // d) * dim_cusp_forms(k, d * other_level)
               for d in divisors(new_level))


def harmonic_dim(p: int, nminus: int, nplus: int, weight: int) -> int:
    """Expected dimension of the weight-`weight` harmonic cocycles for
    (p, N^-, N^+)."""
    return dim_new_at(weight, p * nminus, nplus)


# textbook values the formulas must reproduce before they are trusted
KNOWN = [
    (("cusp", 12, 1), 1),    # Delta
    (("cusp", 2, 11), 1),    # X_0(11) has genus 1
    (("cusp", 2, 37), 2),    # X_0(37) has genus 2
    (("cusp", 4, 5), 1),
    (("cusp", 2, 23), 2),
    (("cusp", 10, 1), 0),
    (("cusp", 24, 1), 2),
    (("new", 4, 6), 1),      # S_4(Gamma_0(6))^new
    (("new", 2, 6), 0),
    (("new", 2, 30), 1),     # the elliptic curve 30a
    (("new", 2, 15), 1),     # the elliptic curve 15a
]


def self_check() -> list[str]:
    """The KNOWN values that the formulas fail to reproduce."""
    bad = []
    for (kind, k, n), want in KNOWN:
        got = dim_cusp_forms(k, n) if kind == "cusp" else dim_new_at(k, n)
        if got != want:
            bad.append(f"{kind} S_{k}(Gamma_0({n})) = {got}, expected {want}")
    return bad
