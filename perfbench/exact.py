"""The benchmark's own exact arithmetic, independent of tpl3.

Checks of tpl3's outputs must not reuse the code they check, so this module
re-implements what they need from the definitions: evaluation of products
and brackets, the 3x3 inverse and push-forward, the sixteen canonical
tables, exact integer roots, the two defining identities, the linear
systems of the solved spaces and their rank modulo a large prime.

Data are plain Python values:

* a product is ``{(i, j): (c1, ..., cn)}`` over 1-based pairs i <= j,
* a bracket is ``{(i, j, k): (c1, ..., cn)}`` over increasing triples,
* a matrix is a tuple of row tuples in the row convention
  phi(e_i) = sum_j M[i][j] e_j,

with ``Fraction`` entries and all-zero vectors omitted, so two values are
equal exactly when the tables are.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations

F = Fraction
ZERO = Fraction(0)


def clean(table: dict) -> dict:
    """Drop all-zero coefficient vectors and sort the keys."""
    return {key: tuple(vec) for key, vec in sorted(table.items()) if any(vec)}


def unit(n: int, i: int) -> tuple:
    return tuple(F(1) if t == i else ZERO for t in range(1, n + 1))


def add(u, v) -> tuple:
    return tuple(a + b for a, b in zip(u, v))


def scale(c, v) -> tuple:
    return tuple(c * a for a in v)


# --- products and brackets -------------------------------------------------

def basis_product(p: dict, n: int, i: int, j: int) -> tuple:
    return p.get((min(i, j), max(i, j)), (ZERO,) * n)


def product_eval(p: dict, n: int, x, y) -> tuple:
    out = [ZERO] * n
    for (i, j), vec in p.items():
        c = x[i - 1] * y[i - 1] if i == j else x[i - 1] * y[j - 1] + x[j - 1] * y[i - 1]
        if c:
            for t in range(n):
                out[t] += c * vec[t]
    return tuple(out)


def basis_bracket(b: dict, n: int, i: int, j: int, k: int) -> tuple:
    if len({i, j, k}) < 3:
        return (ZERO,) * n
    key = tuple(sorted((i, j, k)))
    # parity of the permutation that sorts (i, j, k)
    inversions = (i > j) + (i > k) + (j > k)
    vec = b.get(key, (ZERO,) * n)
    return vec if inversions % 2 == 0 else tuple(-a for a in vec)


def bracket_eval(b: dict, n: int, x, y, z) -> tuple:
    out = [ZERO] * n
    for (i, j, k), vec in b.items():
        minor = (x[i - 1] * (y[j - 1] * z[k - 1] - y[k - 1] * z[j - 1])
                 - x[j - 1] * (y[i - 1] * z[k - 1] - y[k - 1] * z[i - 1])
                 + x[k - 1] * (y[i - 1] * z[j - 1] - y[j - 1] * z[i - 1]))
        if minor:
            for t in range(n):
                out[t] += minor * vec[t]
    return tuple(out)


def first_slot(b: dict, n: int, v, j: int, k: int) -> tuple:
    """[v, e_j, e_k] by linearity in the first slot."""
    out = [ZERO] * n
    for s, c in enumerate(v, start=1):
        if c:
            for t, x in enumerate(basis_bracket(b, n, s, j, k)):
                if x:
                    out[t] += c * x
    return tuple(out)


def fi_violations(b: dict, n: int) -> set:
    """All (x, y, z, u, v, left, right) where the fundamental identity
    [[x,y,z],u,v] = [[x,u,v],y,z] + [[y,u,v],z,x] + [[z,u,v],x,y] fails."""
    out = set()
    for (x, y, z) in combinations(range(1, n + 1), 3):
        inner = basis_bracket(b, n, x, y, z)
        for (u, v) in combinations(range(1, n + 1), 2):
            left = first_slot(b, n, inner, u, v)
            right = add(add(first_slot(b, n, basis_bracket(b, n, x, u, v), y, z),
                            first_slot(b, n, basis_bracket(b, n, y, u, v), z, x)),
                        first_slot(b, n, basis_bracket(b, n, z, u, v), x, y))
            if left != right:
                out.add(((x, y, z, u, v), left, right))
    return out


def coupling_violations(b: dict, p: dict, n: int) -> set:
    """All (u, x, y, z, left, right) where the transposed Leibniz rule
    3 u.[x,y,z] = [u.x,y,z] + [x,u.y,z] + [x,y,u.z] fails."""
    out = set()
    for u in range(1, n + 1):
        for (x, y, z) in combinations(range(1, n + 1), 3):
            left = [ZERO] * n
            for s, c in enumerate(basis_bracket(b, n, x, y, z), start=1):
                if c:
                    left = add(left, scale(3 * c, basis_product(p, n, u, s)))
            right = add(add(first_slot(b, n, basis_product(p, n, u, x), y, z),
                            scale(-1, first_slot(b, n, basis_product(p, n, u, y), x, z))),
                        first_slot(b, n, basis_product(p, n, u, z), x, y))
            if tuple(left) != right:
                out.add(((u, x, y, z), tuple(left), right))
    return out


def associativity_holds(p: dict, n: int) -> bool:
    e = [None] + [unit(n, i) for i in range(1, n + 1)]
    return all(product_eval(p, n, basis_product(p, n, i, j), e[k])
               == product_eval(p, n, e[i], basis_product(p, n, j, k))
               for i in range(1, n + 1) for j in range(1, n + 1) for k in range(1, n + 1))


A3_BRACKET = {(1, 2, 3): (F(1), ZERO, ZERO)}


# --- the solved family and the sixteen canonical tables ---------------------

def family_product(g, a, q, h, r, w, k, s, t) -> dict:
    """The product with solved-family coordinates (g, a, q, h, r, w, k, s, t)."""
    half = F(1, 2)
    return clean({
        (1, 2): ((a + w) * half, ZERO, ZERO),
        (1, 3): ((r + t) * half, ZERO, ZERO),
        (2, 2): (g, a, q),
        (2, 3): (h, r, w),
        (3, 3): (k, s, t),
    })


def family_coords(p: dict):
    """(g, a, q, h, r, w, k, s, t) of a product in the solved family, else None."""
    n = 3
    g, a, q = basis_product(p, n, 2, 2)
    h, r, w = basis_product(p, n, 2, 3)
    k, s, t = basis_product(p, n, 3, 3)
    coords = (g, a, q, h, r, w, k, s, t)
    return coords if family_product(*coords) == p else None


FAMILY_PARAMS = {
    "T1": ("alpha",), "T2": ("alpha", "theta"), "T3": ("alpha",),
    "T4": ("alpha", "theta"), "T5": ("alpha",), "T6": ("alpha",),
    "T7": ("alpha",), "T8": ("alpha", "theta"), "T9": ("gamma",),
    "T10": ("gamma", "eta"), "T11": ("gamma",), "T12": ("gamma", "eta"),
    "T13": ("gamma",), "T14": ("gamma",), "T15": ("gamma",),
    "T16": ("gamma", "xi"),
}


def family_table(family: str, params: dict) -> dict:
    """The canonical table T1..T16 of the paper at the given parameters."""
    z = ZERO
    if int(family[1:]) <= 8:
        al, th = params["alpha"], params.get("theta", z)
        coords = {
            "T1": (z, al, z, z, z, -al, z, -3 * al, z),
            "T2": (th, al, z, z, z, -al, 3 * th, -3 * al, z),
            "T3": (-2 * al, al, z, 2 * al, z, -al, z, F(-4, 3) * al, z),
            "T4": (th, al, z, al, z, -al, 3 * th + 2 * al, -3 * al, z),
            "T5": (z, al, al, z, z, -al, z, -3 * al, z),
            "T6": (al, al, al, z, z, -al, -3 * al, -3 * al, z),
            "T7": (al, al, al, F(-1, 2) * al, z, -al, z, -3 * al, z),
            "T8": (th, al, al, F(-3, 2) * th, z, -al, 3 * th, -3 * al, z),
        }[family]
    else:
        ga, et, xi = params["gamma"], params.get("eta", z), params.get("xi", z)
        coords = {
            "T9": (z, z, -3 * ga, z, -ga, z, z, z, ga),
            "T10": (3 * et, z, -3 * ga, z, -ga, z, et, z, ga),
            "T11": (4 * ga, z, -3 * ga, 2 * ga, -ga, z, z, z, ga),
            "T12": (3 * et, z, -3 * ga, 2 * ga, -ga, z, et, z, ga),
            "T13": (z, z, -3 * ga, z, -ga, z, z, ga, ga),
            "T14": (2 * ga, z, -3 * ga, z, -ga, z, -ga, ga, ga),
            "T15": (-3 * ga, z, -3 * ga, ga, -ga, z, z, ga, ga),
            "T16": (-2 * xi, z, -3 * ga, xi, -ga, z, F(-2, 3) * xi, ga, ga),
        }[family]
    return family_product(*coords)


# --- 3x3 maps ---------------------------------------------------------------

def det3(m) -> Fraction:
    return (m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
            - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
            + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0]))


def inverse3(m) -> tuple:
    """Inverse by the adjugate; raises ZeroDivisionError when singular."""
    d = det3(m)
    if d == 0:
        raise ZeroDivisionError("singular 3x3 matrix")

    def cof(i, j):
        rows = [r for r in range(3) if r != i]
        cols = [c for c in range(3) if c != j]
        minor = (m[rows[0]][cols[0]] * m[rows[1]][cols[1]]
                 - m[rows[0]][cols[1]] * m[rows[1]][cols[0]])
        return minor if (i + j) % 2 == 0 else -minor

    return tuple(tuple(cof(j, i) / d for j in range(3)) for i in range(3))


def row_times(v, m) -> tuple:
    return tuple(sum((v[i] * m[i][j] for i in range(len(v))), ZERO) for j in range(len(m[0])))


def push_product(p: dict, m) -> dict:
    """Push-forward x * y = phi(phi^-1(x) . phi^-1(y)) of a 3-dim product."""
    inv = inverse3(m)
    return clean({(i, j): row_times(product_eval(p, 3, inv[i - 1], inv[j - 1]), m)
                  for i in range(1, 4) for j in range(i, 4)})


def push_bracket(b: dict, m) -> dict:
    inv = inverse3(m)
    return clean({(1, 2, 3): row_times(bracket_eval(b, 3, inv[0], inv[1], inv[2]), m)})


def is_a3_automorphism(m) -> bool:
    """Shape of an automorphism of [e1,e2,e3] = e1 in the row convention."""
    return (m[0][1] == 0 and m[0][2] == 0 and m[0][0] != 0
            and m[1][1] * m[2][2] - m[1][2] * m[2][1] == 1)


# --- exact roots ------------------------------------------------------------

def int_root(k: int, degree: int):
    """The non-negative integer r with r**degree == k, or None (integer
    Newton iteration; no floating point)."""
    if k < 0:
        return None
    if k < 2:
        return k
    if degree == 2:
        r = math.isqrt(k)
        return r if r * r == k else None
    x = 1 << -(-k.bit_length() // degree)  # an upper bound for the root
    while True:
        y = ((degree - 1) * x + k // x ** (degree - 1)) // degree
        if y >= x:
            break
        x = y
    return x if x ** degree == k else None


def has_rational_root(q: Fraction, degree: int) -> bool:
    """Whether x**degree == q has a rational solution (degree even)."""
    if q < 0:
        return False
    return (int_root(q.numerator, degree) is not None
            and int_root(q.denominator, degree) is not None)


# --- linear systems and rank ------------------------------------------------

PRIME = (1 << 61) - 1


def rank_mod_p(rows, p: int = PRIME) -> int:
    """Rank over GF(p) of sparse rational rows {column: value}; a lower
    bound for the rank over Q.  Rows are deduplicated before elimination.
    """
    distinct = set()
    for row in rows:
        sparse = tuple(sorted((c, x.numerator * pow(x.denominator, -1, p) % p)
                              for c, x in row.items() if x))
        if sparse:
            distinct.add(sparse)
    pivots: dict[int, dict] = {}
    for sparse in distinct:
        row = dict(sparse)
        while row:
            col = min(row)
            pivot = pivots.get(col)
            if pivot is None:
                inv = pow(row[col], -1, p)
                pivots[col] = {c: x * inv % p for c, x in row.items()}
                break
            f = row[col]
            for c, x in pivot.items():
                value = (row.get(c, 0) - f * x) % p
                if value:
                    row[c] = value
                else:
                    row.pop(c, None)
    return len(pivots)


def dense(row: dict, ncols: int) -> list:
    return [row.get(c, ZERO) for c in range(ncols)]


def rank_exact(rows) -> int:
    """Rank over Q of dense rows by Gaussian elimination on Fractions
    (small matrices)."""
    work = [list(r) for r in rows if any(r)]
    rank = 0
    ncols = len(work[0]) if work else 0
    for c in range(ncols):
        pivot = next((i for i in range(rank, len(work)) if work[i][c]), None)
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        for i in range(len(work)):
            if i != rank and work[i][c]:
                f = work[i][c] / work[rank][c]
                work[i] = [a - f * b for a, b in zip(work[i], work[rank])]
        rank += 1
    return rank


def derivation_rows(b: dict, n: int, delta: Fraction, column):
    """Sparse rows {column: coefficient} of
    phi[x,y,z] = delta([phi x,y,z] + [x,phi y,z] + [x,y,phi z]) on basis
    triples; ``column(u, v)`` places phi(e_u)'s component v."""
    for (i, j, k) in combinations(range(1, n + 1), 3):
        c_ijk = basis_bracket(b, n, i, j, k)
        images = {(s, pos): (basis_bracket(b, n, s, j, k), basis_bracket(b, n, i, s, k),
                             basis_bracket(b, n, i, j, s))[pos]
                  for s in range(1, n + 1) for pos in range(3)}
        for t in range(1, n + 1):
            row: dict = {}
            for s in range(1, n + 1):
                terms = ((column(s, t), c_ijk[s - 1]),
                         (column(i, s), -delta * images[(s, 0)][t - 1]),
                         (column(j, s), -delta * images[(s, 1)][t - 1]),
                         (column(k, s), -delta * images[(s, 2)][t - 1]))
                for col, x in terms:
                    if x:
                        row[col] = row.get(col, ZERO) + x
            yield row


def derivation_system(b: dict, n: int, delta: Fraction) -> list:
    return list(derivation_rows(b, n, delta, lambda u, v: (u - 1) * n + (v - 1)))


def product_system(b: dict, n: int) -> tuple[list, int]:
    """Rows stating that every left multiplication of an unknown commutative
    product is a 1/3-derivation, and the number of unknowns."""
    pairs = {pair: idx for idx, pair in
             enumerate((i, j) for i in range(1, n + 1) for j in range(i, n + 1))}
    rows = []
    for g in range(1, n + 1):
        column = (lambda u, v, g=g: pairs[(min(g, u), max(g, u))] * n + (v - 1))
        rows.extend(derivation_rows(b, n, F(1, 3), column))
    return rows, len(pairs) * n


def is_delta_derivation(b: dict, n: int, delta: Fraction, m) -> bool:
    """Whether the map with rows m (row i = phi(e_i)) is a delta-derivation."""
    for (i, j, k) in combinations(range(1, n + 1), 3):
        left = row_times(basis_bracket(b, n, i, j, k), m)
        right = add(add(first_slot(b, n, m[i - 1], j, k),
                        scale(-1, first_slot(b, n, m[j - 1], i, k))),
                    first_slot(b, n, m[k - 1], i, j))
        if left != scale(delta, right):
            return False
    return True
