"""A committed digest of the solved spaces: the sha256 of the ``repr`` of
every fundamental-identity report, δ-derivation space, product space and
reduction memo on a seeded corpus, against ``golden/spaces_digest.json``.

The corpus is built here from the public API: sign-flipped direct sums of
the simple 3- and 4-dimensional 3-Lie algebras with abelian parts (the
brackets of the spaces benchmark), dense brackets with integer
coefficients in [-2, 2] at n = 4 and 5, sparse and dense brackets with
rational coefficients (a common denominator D > 1), and images of the
direct sums and of rational brackets under unimodular integer maps.  For
each bracket it hashes, in this order, the ``check_fundamental_identity``
report, the ``tp_product_space`` solved on a fresh bracket object, the
``delta_derivations`` spaces at δ = 1/3, 1, −2/5 and 2, and the bracket's
``_reduced`` memo of ``derivations._reduced_rows`` (the normal integer
rows and pivots per δ).  A change that keeps every result byte-identical
keeps the digest, so a speed-up of the solve path proves it here.

To rewrite the digest after an intended change of results, run
``PYTHONPATH=src python tests/test_spaces_digest.py > tests/golden/spaces_digest.json``.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from fractions import Fraction as F
from itertools import combinations
from pathlib import Path

from tpl3 import (AutoMatrix, DerivationQuery, TriBracket, Vector,
                  check_fundamental_identity, delta_derivations, tp_product_space,
                  transport_bracket)

GOLDEN = Path(__file__).parent / "golden" / "spaces_digest.json"
DELTAS = (F(1, 3), F(1), F(-2, 5), F(2))

#: [e1,e2,e3] = e1 and the simple 4-dimensional 3-Lie algebra
#: [e_i,e_j,e_k] = eps_ijkl e_l, as {triple: {component: coefficient}}
A3_PART = (3, {(1, 2, 3): {1: 1}})
A4_PART = (4, {(1, 2, 3): {4: 1}, (1, 2, 4): {3: -1}, (1, 3, 4): {2: 1},
               (2, 3, 4): {1: -1}})
STRUCTURED = ((A3_PART,), (A4_PART,), (A3_PART, (2, {})), (A4_PART, (1, {})),
              (A3_PART, A3_PART), (A4_PART, (2, {})), (A3_PART, (1, {}), A3_PART))


def direct_sum(parts, signs) -> TriBracket:
    """The direct sum of ``parts`` in the basis f_a = signs[a]·e_a."""
    n = sum(d for d, _ in parts)
    table, offset = {}, 0
    for d, part in parts:
        for (i, j, k), comps in part.items():
            i, j, k = i + offset, j + offset, k + offset
            vec = [0] * n
            for c, x in comps.items():
                vec[offset + c - 1] = signs[i - 1] * signs[j - 1] * signs[k - 1] \
                    * signs[offset + c - 1] * x
            table[(i, j, k)] = Vector(vec)
        offset += d
    return TriBracket(n, table)


def rand_rat(rng: random.Random) -> F:
    return F(rng.randint(-6, 6), rng.randint(1, 4))


def rational_bracket(rng: random.Random, n: int, keep: float, density: float) -> TriBracket:
    """Each triple stored with probability ``keep``, each coefficient of a
    stored triple a random rational with probability ``density``."""
    return TriBracket(n, {
        tr: Vector([rand_rat(rng) if rng.random() < density else 0 for _ in range(n)])
        for tr in combinations(range(1, n + 1), 3) if rng.random() < keep})


def unimodular(rng: random.Random, n: int) -> AutoMatrix:
    """A product of 8 to 16 elementary row operations, each adding ±1 or ±2
    times one row to another: an integer map of determinant 1."""
    rows = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(rng.randint(8, 16)):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-2, -1, 1, 2))
        rows[i] = [x + c * y for x, y in zip(rows[i], rows[j])]
    return AutoMatrix.from_rows(rows)


def corpus() -> list[TriBracket]:
    rng = random.Random("spaces-digest")
    brackets = []
    for parts in STRUCTURED:
        n = sum(d for d, _ in parts)
        for _ in range(3):
            brackets.append(direct_sum(parts, [rng.choice((-1, 1)) for _ in range(n)]))
    for n, count in ((4, 6), (5, 2)):
        for _ in range(count):
            brackets.append(TriBracket(n, {tr: Vector([rng.randint(-2, 2) for _ in range(n)])
                                           for tr in combinations(range(1, n + 1), 3)}))
    rational = [rational_bracket(rng, n, keep, density) for n in (3, 4, 4, 5, 5, 6)
                for keep, density in ((1, 1), (1, 0.4), (0.5, 0.7), (0.25, 0.5))
                if n < 5 or keep < 1 or density < 1]
    brackets += rational
    for parts in STRUCTURED[2:6]:
        b = direct_sum(parts, [1] * sum(d for d, _ in parts))
        brackets += [transport_bracket(b, unimodular(rng, b.dim)) for _ in range(2)]
    brackets += [transport_bracket(b, unimodular(rng, b.dim)) for b in rational[::3]]
    return brackets


def results() -> tuple[int, str]:
    """The number of brackets and the sha256 of the ``repr``s of their
    solved spaces, one line each."""
    digest = hashlib.sha256()
    brackets = corpus()
    for b in brackets:
        b = TriBracket(b.dim, b.table)  # empty memos
        values = [check_fundamental_identity(b), tp_product_space(b)]
        values += [delta_derivations(DerivationQuery(b, delta)) for delta in DELTAS]
        values.append(b._reduced)
        for value in values:
            digest.update(repr(value).encode("utf-8") + b"\n")
    return len(brackets), digest.hexdigest()


def test_solved_spaces_match_golden_digest():
    count, digest = results()
    assert {"brackets": count, "sha256": digest} == json.loads(GOLDEN.read_text())


if __name__ == "__main__":
    count, digest = results()
    json.dump({"brackets": count, "sha256": digest}, sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
