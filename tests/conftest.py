"""Shared test helpers: random exact draws and classification dispatch keys."""

from __future__ import annotations

import random
from fractions import Fraction
from pathlib import Path

from hypothesis import HealthCheck, settings

from tpl3 import (AutoMatrix, CommProduct, Matrix, Vector, a3_bracket,
                  detect_case, family_coordinates, tp_product_space)

settings.register_profile("deterministic", derandomize=True,
                          suppress_health_check=[HealthCheck.too_slow])
settings.load_profile("deterministic")

FIXTURES = Path(__file__).parent / "fixtures"

A3 = a3_bracket()
A3_PRODUCT_SPACE = tp_product_space(A3)


def rand_rat(rng: random.Random, nonzero: bool = False,
             lo: int = -6, hi: int = 6, max_den: int = 4) -> Fraction:
    while True:
        value = Fraction(rng.randint(lo, hi), rng.randint(1, max_den))
        if value != 0 or not nonzero:
            return value


def rand_vector(rng: random.Random, n: int) -> Vector:
    return Vector([rand_rat(rng) for _ in range(n)])


def rand_family_product(rng: random.Random) -> CommProduct:
    """A random element of the solved compatible-product family."""
    return A3_PRODUCT_SPACE.combination([rand_rat(rng) for _ in range(9)])


def rand_a3_automorphism(rng: random.Random) -> AutoMatrix:
    """A random automorphism of the standard bracket: zero first row tail,
    nonzero corner, block of determinant one, free shifts."""
    l11 = rand_rat(rng, nonzero=True)
    l21, l31 = rand_rat(rng), rand_rat(rng)
    l22 = rand_rat(rng, nonzero=True)
    l23, l32 = rand_rat(rng), rand_rat(rng)
    l33 = (1 + l23 * l32) / l22
    return AutoMatrix.from_rows([[l11, 0, 0], [l21, l22, l23], [l31, l32, l33]])


def rand_invertible(rng: random.Random, n: int) -> AutoMatrix:
    while True:
        rows = [[rand_rat(rng) for _ in range(n)] for _ in range(n)]
        try:
            return AutoMatrix(Matrix.from_rows(rows))
        except ArithmeticError:
            continue


def unimodular(rng: random.Random, n: int) -> AutoMatrix:
    """A seeded product of 8 to 16 elementary row operations, each adding
    ±1 or ±2 times one row to another: an integer map of determinant 1."""
    rows = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(rng.randint(8, 16)):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-2, -1, 1, 2))
        rows[i] = [x + c * y for x, y in zip(rows[i], rows[j])]
    return AutoMatrix.from_rows(rows)


def scaled_shift_witness(rng: random.Random) -> AutoMatrix:
    """Random element of the witness subgroup [[u,0,0],[x,c,0],[y,0,1/c]]."""
    u = rand_rat(rng, nonzero=True)
    c = rand_rat(rng, nonzero=True)
    return AutoMatrix.from_rows([[u, 0, 0],
                                 [rand_rat(rng), c, 0],
                                 [rand_rat(rng), 0, 1 / c]])


def dispatch_key(p: CommProduct):
    """The data the normaliser dispatches on: case number, whether the
    shift residual vanishes, and the subcase zero-pattern tie-breaks.  Two
    products with equal keys normalise onto the same family id."""
    case = detect_case(p)
    if case is None:
        return None
    co = family_coordinates(p)
    pat = case.subcase
    if case.case == 1:
        return (1, co.k - co.g * co.s / co.a == 0, pat == "d")
    if case.case == 2:
        residual = co.g - co.a * co.k / co.s + co.q * co.h / co.a
        return (2, residual == 0, co.g == 0, pat == "c")
    if case.case == 3:
        residual = co.g * co.r + co.k * co.q
        return (3, residual == 0, co.g != 0 and co.h != 0, co.k == 0)
    residual = -co.r * co.r * co.g + co.s * co.q * co.h - co.r * co.q * co.k
    return (4, residual == 0, co.g == 0, pat == "b")
