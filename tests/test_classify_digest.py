"""A committed digest of ``classify`` results: the sha256 of the ``repr`` of
every result on a seeded corpus, against ``golden/classify_digest.json``.

The corpus is built here from the public API and the shared test helpers:
witness-shape and random-automorphism images of all sixteen tables, their
quarter-turn images (which the reduction reaches through a cubic match),
in-case products with random coordinates (certificates and
``NeedsExtension``), generic family products and products off the family.
A change that keeps every result byte-identical keeps the digest, so a
speed-up proves it here; every certificate is also revalidated.

To rewrite the digest after an intended change of results, run
``PYTHONPATH=src python tests/test_classify_digest.py > tests/golden/classify_digest.json``.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from fractions import Fraction as F
from pathlib import Path

from tpl3 import (FAMILY_IDS, AutoMatrix, Certificate, CommProduct, FamilyCoordinates,
                  FamilyInstance, Vector, classify, draw_family_params, instantiate_family,
                  transport_product)
from conftest import A3, rand_a3_automorphism, rand_rat, scaled_shift_witness

GOLDEN = Path(__file__).parent / "golden" / "classify_digest.json"
QUARTER_TURN = AutoMatrix.from_rows([[1, 0, 0], [0, 0, 1], [0, -1, 0]])


def in_case(rng: random.Random, case: int) -> CommProduct:
    """A product of the condition set ``case`` with random coordinates."""
    g, h, k = (rand_rat(rng) for _ in range(3))
    if case in (1, 2):
        a, s = rand_rat(rng, nonzero=True), rand_rat(rng, nonzero=True)
        q = F(0) if case == 1 else rand_rat(rng, nonzero=True)
        return FamilyCoordinates(g, a, q, h, F(0), -a, k, s, F(0)).as_product()
    r, q = rand_rat(rng, nonzero=True), rand_rat(rng, nonzero=True)
    s = F(0) if case == 3 else rand_rat(rng, nonzero=True)
    return FamilyCoordinates(g, F(0), q, h, r, F(0), k, s, -r).as_product()


def off_family(rng: random.Random) -> CommProduct:
    """A family product with one random entry changed: e1·e1, an e2/e3 part
    of e1·e2 or e1·e3, or the e1 part of one of them."""
    table = dict(FamilyCoordinates(*(rand_rat(rng) for _ in range(9))).as_product().table)
    key = rng.choice(((1, 1), (1, 2), (1, 3)))
    entries = list(table.get(key, Vector.zero(3)))
    entries[rng.randrange(3)] += rand_rat(rng, nonzero=True)
    table[key] = Vector(entries)
    return CommProduct(3, table)


def corpus() -> list[CommProduct]:
    rng = random.Random("classify-digest")
    products = []
    for fam in FAMILY_IDS:
        for _ in range(4):
            inst = instantiate_family(FamilyInstance.make(fam, **draw_family_params(fam, rng)))
            image = transport_product(inst, scaled_shift_witness(rng))
            products += [image, transport_product(image, QUARTER_TURN),
                         transport_product(inst, rand_a3_automorphism(rng))]
    for i in range(80):
        products.append(in_case(rng, 1 + i % 4))
    for _ in range(40):
        products.append(FamilyCoordinates(*(rand_rat(rng) for _ in range(9))).as_product())
        products.append(off_family(rng))
    return products


def results() -> tuple[int, str]:
    """The number of products and the sha256 of their results' ``repr``s,
    one line each; every certificate must revalidate."""
    digest = hashlib.sha256()
    products = corpus()
    for p in products:
        out = classify(A3, p)
        assert not isinstance(out, Certificate) or out.validate(), p
        digest.update(repr(out).encode("utf-8") + b"\n")
    return len(products), digest.hexdigest()


def test_classify_results_match_golden_digest():
    count, digest = results()
    assert {"products": count, "sha256": digest} == json.loads(GOLDEN.read_text())


if __name__ == "__main__":
    count, digest = results()
    json.dump({"products": count, "sha256": digest}, sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
