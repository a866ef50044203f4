"""Seeded input generators.

Every generator draws from its own ``random.Random`` seeded from the
command-line seed, so the same seed gives the same inputs, byte for byte.
Inputs are built with the benchmark's own arithmetic (``exact``), never with
tpl3, so a change to tpl3 cannot change them.  Each input carries a label
saying how it was built; the label stays here and is never passed to tpl3.

Inputs come in rounds: one round holds one input of each class of the
workload, in a fixed order, so every run sees the same class shares
whatever its length.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import exact
from exact import F, ZERO

# --- labels -----------------------------------------------------------------


@dataclass(frozen=True)
class Label:
    """How an input was built.

    ``kind`` is the input class.  ``in_family`` says whether the product
    satisfies the coupling identity with [e1,e2,e3] = e1.  ``witnessed``
    says whether it was built from a canonical table by a rational
    automorphism, so a certificate exists.
    """

    kind: str
    in_family: bool
    witnessed: bool
    source: str = ""


@dataclass(frozen=True)
class ClassifyInput:
    product: dict
    label: Label


# --- random exact values ----------------------------------------------------

def small_rat(rng: random.Random, nonzero: bool = False, lo: int = -6, hi: int = 6,
              max_den: int = 4) -> Fraction:
    while True:
        value = F(rng.randint(lo, hi), rng.randint(1, max_den))
        if value or not nonzero:
            return value


def family_params(rng: random.Random, family: str) -> dict:
    """Nonzero parameters; for T4 the thin sets 3θ+2α = 0 (breaks the
    subcase pattern) and 3θ+α = 0 (falls into the T1 orbit) are redrawn."""
    while True:
        params = {name: small_rat(rng, True, -12, 12, 6)
                  for name in exact.FAMILY_PARAMS[family]}
        if family == "T4" and 0 in (3 * params["theta"] + 2 * params["alpha"],
                                    3 * params["theta"] + params["alpha"]):
            continue
        return params


def witness_shape(u, x, y, c) -> tuple:
    return ((u, ZERO, ZERO), (x, c, ZERO), (y, ZERO, 1 / c))


def a3_automorphism(rng: random.Random) -> tuple:
    """A general automorphism of [e1,e2,e3] = e1: zero first-row tail,
    nonzero corner, e2/e3 block of determinant one, free shifts."""
    l11 = small_rat(rng, True)
    l21, l31 = small_rat(rng), small_rat(rng)
    l22 = small_rat(rng, True)
    l23, l32 = small_rat(rng), small_rat(rng)
    l33 = (1 + l23 * l32) / l22
    return ((l11, ZERO, ZERO), (l21, l22, l23), (l31, l32, l33))


def dispatch_key(p: dict):
    """The data the in-case reduction dispatches on: case number, whether
    the shift residual vanishes, and the zero-pattern tie-breaks."""
    co = exact.family_coords(p)
    if co is None:
        return None
    g, a, q, h, r, w, k, s, t = co
    if r == 0 and t == 0 and w == -a and a != 0 and s != 0:
        case = 1 if q == 0 else 2
    elif a == 0 and w == 0 and r == -t and r != 0 and q != 0:
        case = 3 if s == 0 else 4
    else:
        return None
    pattern = "a" if g == 0 else "b" if h == 0 else "c" if k == 0 else "d"
    if case == 1:
        return (1, k - g * s / a == 0, pattern == "d")
    if case == 2:
        return (2, g - a * k / s + q * h / a == 0, g == 0, pattern == "c")
    if case == 3:
        return (3, g * r + k * q == 0, g != 0 and h != 0, k == 0)
    return (4, -r * r * g + s * q * h - r * q * k == 0, g == 0, pattern == "b")


#: attempts at drawing a witness that keeps the dispatch key; with big
#: coefficients a match may never come, and the last draw is used anyway
WITNESS_ATTEMPTS = 20


def witness_image(rng: random.Random, family: str, params: dict, draw_entry) -> dict:
    canonical = exact.family_table(family, params)
    key = dispatch_key(canonical)
    for _ in range(WITNESS_ATTEMPTS):
        u, c = draw_entry(rng, True), draw_entry(rng, True)
        moved = exact.push_product(canonical, witness_shape(u, draw_entry(rng, False),
                                                            draw_entry(rng, False), c))
        if dispatch_key(moved) == key:
            break
    return moved


# --- classify-mix -----------------------------------------------------------

FAMILIES = tuple(exact.FAMILY_PARAMS)

#: positive square-free radicands: no rational square or fourth root, and
#: 4m/9 (the second case-1 radicand) is no fourth power either
SQUAREFREE = (2, 3, 5, 6, 7, 10, 11, 13, 14, 15, 17, 19, 21, 22, 23)

MIX_CLASSES = ("witness", "orbit", "needs_extension", "generic", "outside")


def _needs_extension_product(rng: random.Random) -> dict:
    """A product inside one of the four case condition sets whose defining
    radicand is ±m or ±1/m for square-free m, so no rational root exists."""
    m = F(rng.choice(SQUAREFREE))
    if rng.random() < 0.5:
        m = 1 / m
    if rng.random() < 0.25:
        m = -m
    g, h, k = (small_rat(rng) for _ in range(3))
    case = rng.randint(1, 4)
    if case == 1:      # radicand -3a/s
        a = small_rat(rng, True)
        s = -3 * a / m
        if rng.random() < 0.5:
            k = g * s / a  # vanishing shift residual
        return exact.family_product(g, a, ZERO, h, ZERO, -a, k, s, ZERO)
    if case == 2:      # q²s = -3a³, radicand q/a
        a = small_rat(rng, True)
        q = a * m
        return exact.family_product(g, a, q, h, ZERO, -a, k, -3 * a ** 3 / q ** 2, ZERO)
    if case == 3:      # radicand q/(3r)
        r = small_rat(rng, True)
        return exact.family_product(g, ZERO, 3 * r * m, h, r, ZERO, k, ZERO, -r)
    s = small_rat(rng, True)  # case 4: 3r³ = q s², radicand -r/s
    r = -s * m
    return exact.family_product(g, ZERO, 3 * r ** 3 / s ** 2, h, r, ZERO, k, s, -r)


def _outside_product(rng: random.Random) -> dict:
    """A solved-family product with one structure constant moved off the
    family: the family is the whole solution set of the coupling identity,
    so the result violates it."""
    p = dict(exact.family_product(*(small_rat(rng) for _ in range(9))))
    key, comp = rng.choice((((1, 1), 0), ((1, 1), 1), ((1, 2), 1), ((1, 3), 2)))
    vec = list(p.get(key, (ZERO, ZERO, ZERO)))
    vec[comp] += small_rat(rng, True)
    p[key] = tuple(vec)
    return exact.clean(p)


def classify_mix_round(rng: random.Random) -> list[ClassifyInput]:
    fam = rng.choice(FAMILIES)
    params = family_params(rng, fam)
    witness = witness_image(rng, fam, params, lambda r, nz: small_rat(r, nz))
    fam2 = rng.choice(FAMILIES)
    orbit = exact.push_product(exact.family_table(fam2, family_params(rng, fam2)),
                               a3_automorphism(rng))
    generic = exact.family_product(*(small_rat(rng) for _ in range(9)))
    return [
        ClassifyInput(witness, Label("witness", True, True, fam)),
        ClassifyInput(orbit, Label("orbit", True, True, fam2)),
        ClassifyInput(_needs_extension_product(rng), Label("needs_extension", True, False)),
        ClassifyInput(generic, Label("generic", True, False)),
        ClassifyInput(_outside_product(rng), Label("outside", False, False)),
    ]


# --- classify-bigcoef ---------------------------------------------------------

#: witness entries get 2, 3, ..., 20 digits in turn
BIG_DIGITS = tuple(range(2, 21))


def classify_bigcoef_round(rng: random.Random) -> list[ClassifyInput]:
    out = []
    for digits in BIG_DIGITS:
        def draw(r: random.Random, nonzero: bool, d=digits):
            return F(r.choice((-1, 1)) * r.randint(10 ** (d - 1), 10 ** d - 1))
        fam = rng.choice(FAMILIES)
        product = witness_image(rng, fam, family_params(rng, fam), draw)
        out.append(ClassifyInput(product, Label("witness", True, True, f"{fam}/{digits}d")))
    return out


# --- spaces -------------------------------------------------------------------

A3_PART = (3, {(1, 2, 3): {1: F(1)}})
#: the simple 4-dimensional 3-Lie algebra [e_i,e_j,e_k] = eps_ijkl e_l
A4_PART = (4, {(1, 2, 3): {4: F(1)}, (1, 2, 4): {3: F(-1)},
               (1, 3, 4): {2: F(1)}, (2, 3, 4): {1: F(-1)}})


def abelian(d: int):
    return (d, {})


STRUCTURED = {
    "A3+ab2": (A3_PART, abelian(2)),
    "A4+ab1": (A4_PART, abelian(1)),
    "A3+A3": (A3_PART, A3_PART),
    "A4+ab2": (A4_PART, abelian(2)),
}

#: one round of the spaces workload, in order.  A4+ab2, the slowest, fills
#: the top sixth of the latencies, so their tail percentile falls inside one
#: kind of bracket instead of on the edge between two.
SPACES_ROUND = ("A3+ab2", "A4+ab1", "A3+A3", "A4+ab2", "A4+ab2", "dense4", "dense4")


@dataclass(frozen=True)
class SpacesInput:
    bracket: dict
    dim: int
    kind: str          # "structured" or "dense"
    name: str
    is_3lie: bool | None  # known by construction for structured brackets


def direct_sum(parts) -> tuple[dict, int]:
    table, offset = {}, 0
    n = sum(d for d, _ in parts)
    for d, part in parts:
        for (i, j, k), comps in part.items():
            vec = [ZERO] * n
            for c, x in comps.items():
                vec[offset + c - 1] = x
            table[(i + offset, j + offset, k + offset)] = tuple(vec)
        offset += d
    return exact.clean(table), n


def flip_signs(b: dict, n: int, rng: random.Random) -> dict:
    """The same algebra in the basis f_a = d_a e_a for seeded signs d_a:
    isomorphic, so still 3-Lie, with the same sparsity and coefficient
    sizes, so its solve cost does not depend on the seed."""
    d = [None] + [rng.choice((-1, 1)) for _ in range(n)]
    return exact.clean({(i, j, k): tuple(d[i] * d[j] * d[k] * d[s] * x
                                         for s, x in enumerate(vec, start=1))
                        for (i, j, k), vec in b.items()})


def dense_bracket(rng: random.Random, n: int) -> dict:
    return exact.clean({tr: tuple(F(rng.randint(-2, 2)) for _ in range(n))
                        for tr in combinations(range(1, n + 1), 3)})


def spaces_round(rng: random.Random) -> list[SpacesInput]:
    out = []
    for name in SPACES_ROUND:
        if name.startswith("dense"):
            n = int(name[5:])
            out.append(SpacesInput(dense_bracket(rng, n), n, "dense", name, None))
        else:
            b, n = direct_sum(STRUCTURED[name])
            out.append(SpacesInput(flip_signs(b, n, rng), n, "structured", name, True))
    return out


# --- documents ----------------------------------------------------------------

def _value_map(vec) -> dict:
    return {str(i + 1): str(x) for i, x in enumerate(vec) if x}


def document_bytes(bracket: dict, n: int, product: dict | None) -> bytes:
    obj = {"dim": n, "bracket": [{"args": list(key), "value": _value_map(vec)}
                                 for key, vec in sorted(bracket.items())]}
    if product is not None:
        obj["product"] = [{"args": list(key), "value": _value_map(vec)}
                          for key, vec in sorted(product.items())]
    return json.dumps(obj, separators=(",", ":")).encode("utf-8")


def parse_table(entries, n: int) -> dict:
    table = {}
    for item in entries:
        vec = [ZERO] * n
        for comp, text in item["value"].items():
            vec[int(comp) - 1] = F(text)
        table[tuple(item["args"])] = tuple(vec)
    return exact.clean(table)


def parse_document_bytes(data: bytes) -> tuple[dict, int, dict | None]:
    obj = json.loads(data)
    n = obj["dim"]
    product = parse_table(obj["product"], n) if "product" in obj else None
    return parse_table(obj["bracket"], n), n, product


def matrix_bytes(m) -> bytes:
    return json.dumps([[str(x) for x in row] for row in m]).encode("utf-8")


# --- cli-docs -----------------------------------------------------------------

#: one round of the cli-docs workload: (subcommand, document source)
CLI_ROUND = (("classify", "fixture"), ("classify", "generated"),
             ("check", "fixture"), ("check", "generated"),
             ("fingerprint", "fixture"), ("fingerprint", "generated"),
             ("transport", "fixture"), ("transport", "generated"))

#: golden fixtures of dimension 3 and how each was built
FIXTURE_LABELS = {
    **{f"t{i}": Label("witness", True, True, f"T{i}") for i in range(1, 17)},
    "a3": Label("generic", True, False),
    "unclassified": Label("generic", True, False),
    "needs_extension": Label("needs_extension", True, False),
    "not_tp": Label("outside", False, False),
}


@dataclass(frozen=True)
class CliInput:
    command: str
    document: bytes
    label: Label
    product: dict      # the product the document holds (empty if absent)
    matrix: tuple | None = None


def invertible3(rng: random.Random) -> tuple:
    while True:
        m = tuple(tuple(small_rat(rng) for _ in range(3)) for _ in range(3))
        if exact.det3(m) != 0:
            return m


class CliStream:
    """Rounds of CLI calls on golden fixtures and on generated documents."""

    def __init__(self, rng: random.Random, fixture_dir: Path):
        self.rng = rng
        self.fixtures = []
        for name in sorted(FIXTURE_LABELS):
            data = (fixture_dir / f"{name}.json").read_bytes()
            _, _, product = parse_document_bytes(data)
            self.fixtures.append((data, FIXTURE_LABELS[name], product or {}))
        self.pending: list[ClassifyInput] = []

    def _generated(self):
        if not self.pending:
            self.pending = classify_mix_round(self.rng)
        item = self.pending.pop(0)
        return document_bytes(exact.A3_BRACKET, 3, item.product), item.label, item.product

    def round(self) -> list[CliInput]:
        out = []
        for command, source in CLI_ROUND:
            if source == "fixture":
                data, label, product = self.rng.choice(self.fixtures)
            else:
                data, label, product = self._generated()
            matrix = invertible3(self.rng) if command == "transport" else None
            out.append(CliInput(command, data, label, product, matrix))
        return out


# --- streams ------------------------------------------------------------------

def make_rng(seed: int, workload: str) -> random.Random:
    return random.Random(f"{workload}:{seed}")
