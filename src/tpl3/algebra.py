"""Structure-constant tensors and exhaustive verification of defining identities.

A skew ternary bracket is stored by its coefficients on strictly increasing
basis triples; a commutative product by its coefficients on non-decreasing
basis pairs.  Skewness and symmetry are therefore structural, not checked:
evaluating a permuted triple applies the permutation sign, and a repeated
index evaluates to zero.

The identity checks run over canonical basis tuples only.  Both sides of
each identity are multilinear and skew in the appropriate slots, so basis
exhaustiveness implies the identity for all arguments; the accompanying
test suite cross-checks this reduction on random rational tuples.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cache
from itertools import combinations, combinations_with_replacement, islice
from typing import Iterable, Mapping, Sequence

from .linalg import DimensionMismatch, Vector, _Record


class ShapeMismatch(ValueError):
    """A product is outside the solved compatible-product family."""


def _sort_with_sign(indices: tuple[int, ...]) -> tuple[tuple[int, ...], int]:
    """Sort an index tuple, returning the permutation sign (0 on repeats)."""
    idx = list(indices)
    sign = 1
    for i in range(len(idx)):
        for j in range(len(idx) - 1 - i):
            if idx[j] > idx[j + 1]:
                idx[j], idx[j + 1] = idx[j + 1], idx[j]
                sign = -sign
    if any(idx[i] == idx[i + 1] for i in range(len(idx) - 1)):
        return tuple(idx), 0
    return tuple(idx), sign


class TriBracket(_Record):
    """Skew trilinear bracket given by coefficients on increasing triples.

    ``table`` maps a strictly increasing 1-based triple (i, j, k) to the
    coefficient vector of [e_i, e_j, e_k]; absent triples are zero.

    Two memos sit beside ``table``.  ``_reduced`` is the reduction memo of
    ``tpl3.derivations._reduced_rows``, which documents its format: the
    normal integer rows and pivots that ``linalg._reduce`` returns.  It is
    None until the first solve creates it.  ``_structure`` is the result
    of ``structure_table``, None until its first call.  Both rely on
    ``table`` never being mutated after construction, and what they store
    is read-only.  Neither is part of ``==``, ``hash``, ``repr`` or the
    pickled state, so a copy or an equal bracket builds and solves again.
    """

    __slots__ = ("dim", "table", "_reduced", "_structure")

    def __init__(self, dim: int, table: Mapping[tuple[int, int, int], Vector]):
        if dim < 1:
            raise DimensionMismatch("dimension must be positive")
        clean: dict[tuple[int, int, int], Vector] = {}
        for key, value in table.items():
            i, j, k = key
            if not (1 <= i < j < k <= dim):
                raise ValueError(f"bracket key {key} is not strictly increasing in 1..{dim}")
            if value.dim != dim:
                raise DimensionMismatch(f"coefficient vector for {key} has wrong length")
            if not value.is_zero():
                clean[(i, j, k)] = value
        self._store(self, dim, dict(sorted(clean.items())))

    def basis_bracket(self, i: int, j: int, k: int) -> Vector:
        """[e_i, e_j, e_k] for arbitrary index order (sign applied)."""
        for idx in (i, j, k):
            if not 1 <= idx <= self.dim:
                raise DimensionMismatch(f"index {idx} out of range 1..{self.dim}")
        key, sign = _sort_with_sign((i, j, k))
        if sign == 0:
            return Vector.zero(self.dim)
        coeffs = self.table.get(key)
        if coeffs is None:
            return Vector.zero(self.dim)
        return coeffs if sign == 1 else -coeffs

    def __hash__(self) -> int:
        return hash((self.dim, tuple(self.table.items())))

    def __repr__(self) -> str:
        body = ", ".join(f"[e{i},e{j},e{k}]={v!r}" for (i, j, k), v in self.table.items())
        return f"TriBracket(dim={self.dim}, {body or 'zero'})"


class CommProduct(_Record):
    """Commutative bilinear product given by coefficients on pairs i <= j.

    The memo ``_table`` keeps the result of ``_product_table``, None until
    its first call, as ``TriBracket._structure`` keeps ``structure_table``,
    on the same terms: ``table`` is never mutated, the memo is read-only,
    and it is not part of ``==``, ``hash``, ``repr`` or the pickled state.
    """

    __slots__ = ("dim", "table", "_table")

    def __init__(self, dim: int, table: Mapping[tuple[int, int], Vector]):
        if dim < 1:
            raise DimensionMismatch("dimension must be positive")
        clean: dict[tuple[int, int], Vector] = {}
        for key, value in table.items():
            i, j = key
            if not (1 <= i <= j <= dim):
                raise ValueError(f"product key {key} is not non-decreasing in 1..{dim}")
            if value.dim != dim:
                raise DimensionMismatch(f"coefficient vector for {key} has wrong length")
            if not value.is_zero():
                clean[(i, j)] = value
        self._store(self, dim, dict(sorted(clean.items())))

    @classmethod
    def zero(cls, dim: int) -> "CommProduct":
        return cls(dim, {})

    def basis_product(self, i: int, j: int) -> Vector:
        """e_i · e_j for arbitrary index order."""
        for idx in (i, j):
            if not 1 <= idx <= self.dim:
                raise DimensionMismatch(f"index {idx} out of range 1..{self.dim}")
        coeffs = self.table.get((min(i, j), max(i, j)))
        return coeffs if coeffs is not None else Vector.zero(self.dim)

    def is_zero(self) -> bool:
        return not self.table

    def __hash__(self) -> int:
        return hash((self.dim, tuple(self.table.items())))

    def __repr__(self) -> str:
        body = ", ".join(f"e{i}*e{j}={v!r}" for (i, j), v in self.table.items())
        return f"CommProduct(dim={self.dim}, {body or 'zero'})"


def a3_bracket() -> TriBracket:
    """The unique nontrivial 3-dimensional 3-Lie bracket: [e1,e2,e3] = e1."""
    return TriBracket(3, {(1, 2, 3): Vector.unit(3, 1)})


class Violation(_Record):
    """A failed identity instance: witness index tuple plus both sides."""

    __slots__ = ("witness", "left", "right")


class CheckReport(_Record):
    __slots__ = ("violations",)

    @property
    def passed(self) -> bool:
        return not self.violations


def bracket_eval(b: TriBracket, x: Vector, y: Vector, z: Vector) -> Vector:
    """Trilinear skew evaluation of the bracket on arbitrary vectors.

    Expands by 3x3 minors: the coefficient of the basis triple (i, j, k)
    in x ^ y ^ z multiplies the stored bracket value.
    """
    for v in (x, y, z):
        if v.dim != b.dim:
            raise DimensionMismatch("argument dimension differs from bracket dimension")
    total = Vector.zero(b.dim)
    for (i, j, k), coeffs in b.table.items():
        a0, a1, a2 = x[i - 1], x[j - 1], x[k - 1]
        b0, b1, b2 = y[i - 1], y[j - 1], y[k - 1]
        c0, c1, c2 = z[i - 1], z[j - 1], z[k - 1]
        minor = (a0 * (b1 * c2 - b2 * c1)
                 - a1 * (b0 * c2 - b2 * c0)
                 + a2 * (b0 * c1 - b1 * c0))
        if minor != 0:
            total = total + coeffs.scale(minor)
    return total


def structure_table(b: TriBracket) -> tuple[int, list[list[list[tuple[tuple[int, int], ...]]]]]:
    """Every basis bracket over one common denominator: ``(D, table)``, where
    ``table[i][j][k]`` lists the nonzero (t, c) with [e_i, e_j, e_k] =
    Σ (c/D) e_t, each c an ``int``, all indices 0-based, and D is the least
    common denominator of the stored coefficients (1 for an integer bracket).

    Filled straight from the stored increasing triples: each one writes its
    three even permutations with +c and its three odd ones with −c, and
    every other cell (a repeated index or an absent triple) stays empty.
    Built once per bracket object and kept in its ``_structure`` memo, so
    the routines that read many basis brackets share one build; callers
    must not mutate it.  Their inner loops index a list instead of sorting
    indices and allocating a ``Vector`` per term, and multiply Python
    ``int``s instead of ``Fraction``s.  Each reader works on the scaled
    constants and divides by its power of D only when it builds a reported
    ``Vector``: both sides of the fundamental identity are products of two
    constants (D²), the coupling identity and
    ``morphisms.transport_bracket`` are linear in them (D), and
    ``derivations._derivation_rows`` scales each row by D, which keeps its
    row space.
    """
    if b._structure is not None:
        return b._structure
    n = b.dim
    den = math.lcm(*(e.denominator for coeffs in b.table.values() for e in coeffs))
    table = [[[()] * n for _ in range(n)] for _ in range(n)]
    for (i, j, k), coeffs in b.table.items():
        even = tuple((t, c.numerator * (den // c.denominator))
                     for t, c in enumerate(coeffs) if c)
        odd = tuple((t, -c) for t, c in even)
        i, j, k = i - 1, j - 1, k - 1
        table[i][j][k] = table[j][k][i] = table[k][i][j] = even
        table[j][i][k] = table[i][k][j] = table[k][j][i] = odd
    object.__setattr__(b, "_structure", (den, table))
    return den, table


_ZERO = Fraction(0)


def _unscaled(values: list[int], den: int) -> Vector:
    """The ``Vector`` of an ``int`` coordinate list that is ``den`` times the
    value.  Each entry is built once, as ``Fraction(v, den)``, and every zero
    is one shared ``Fraction(0)``; the tuple goes to ``Vector`` through
    ``Vector._from_fields``, with no second pass through ``rat``."""
    return Vector._from_fields(tuple([Fraction(v, den) if v else _ZERO for v in values]))


@cache
def _basis_pairs(n: int) -> tuple[tuple[int, int], ...]:
    """The 0-based basis pairs i <= j of dimension n, in the order of
    ``combinations_with_replacement``, built once per dimension: the order
    of every list of pair rows in the package."""
    return tuple(combinations_with_replacement(range(n), 2))


def _unscaled_product(n: int, den: int, rows: Iterable[Sequence[int]]) -> CommProduct:
    """The product of dimension ``n`` whose pair rows, in the order of
    ``_basis_pairs``, are the ``int`` lists ``rows`` over ``den``.  A zero
    row is left out and every other row goes through ``_unscaled``; the
    pairs are ascending and every vector is nonzero, so the table goes to
    ``CommProduct._from_fields`` as it is."""
    return CommProduct._from_fields(n, {(i + 1, j + 1): _unscaled(row, den)
                                        for (i, j), row in zip(_basis_pairs(n), rows)
                                        if any(row)})


def _product_table(p: CommProduct) -> tuple[int, list[list[tuple[tuple[int, int], ...]]]]:
    """Every basis product over one common denominator: ``(D, table)``,
    where ``table[i][j]`` lists the nonzero (t, c) with e_i·e_j =
    Σ (c/D) e_t, each c an ``int``, all indices 0-based, and D is the least
    common denominator of the stored coefficients (1 for an integer
    product).

    The product's counterpart of ``structure_table``, with the same
    convention and the same memo: built once per product object, kept in
    its ``_table`` slot, never mutated by a caller.  Each reader runs its
    inner loops on the scaled ``int``s and divides by its power of D once
    per reported entry, through ``_unscaled``.  ``check_transposed_leibniz``
    multiplies one bracket and one product constant per term, so it divides
    by D_bracket·D; ``check_commutative_associative`` multiplies two
    product constants (D²); ``_cleared_coordinates``,
    ``morphisms.transport_product`` and ``morphisms._homomorphism``
    document their own scales.
    """
    if p._table is not None:
        return p._table
    n = p.dim
    # one as_integer_ratio pass over the stored entries, n per stored pair
    ratios = [e.as_integer_ratio() for coeffs in p.table.values() for e in coeffs.entries]
    den = math.lcm(*[d for _, d in ratios])
    table = [[()] * n for _ in range(n)]
    entries = iter(ratios)
    for i, j in p.table:
        row = []
        for t, (num, d) in enumerate(islice(entries, n)):
            if num:
                row.append((t, num * (den // d)))
        table[i - 1][j - 1] = table[j - 1][i - 1] = tuple(row)
    object.__setattr__(p, "_table", (den, table))
    return p._table


def check_fundamental_identity(b: TriBracket) -> CheckReport:
    """Check [[x,y,z],u,v] = [[x,u,v],y,z] + [[y,u,v],z,x] + [[z,u,v],x,y].

    Runs over basis tuples with x < y < z and u < v; multilinearity and
    skewness of both sides make this exhaustive.  Both sides expand by
    linearity in the first slot over the structure-constant table, in
    integers scaled by D² (see ``structure_table``).

    Only tuples where the two sides can differ are visited; the others
    hold, so once the violations are sorted the report is that of the full
    loop, in its order (x < y < z, then u < v, ascending).

    * Components.  One union–find pass joins the indices of each stored
      triple and the support of its value.  A basis bracket is nonzero only
      on three indices of one component, and then lies in its span, so each
      component C spans an ideal L_C and [L_C, L_D, ·] = 0 for C ≠ D.  A
      term [[a,b,c],d,e] is nonzero only when all five indices lie in one
      component, so only triples and pairs inside one component are visited.
    * Repeated pairs.  When {u, v} ⊂ {x, y, z}, skewness makes two
      right-hand terms zero and the third equal to the left side, e.g.
      [[y,x,z],z,x] = [[x,y,z],x,z] at (u, v) = (x, z).  So the pairs
      (x, y), (x, z) and (y, z) are skipped, and a component of at most
      three indices is skipped whole.
    * Zero triples.  When [e_x,e_y,e_z] = 0 the left side vanishes, and the
      right side too unless {a, u, v} is a stored triple for some
      a ∈ {x, y, z}; only those pairs are visited, in ascending order.
    """
    n = b.dim
    den, table = structure_table(b)
    den2 = den * den
    root = list(range(n))

    def find(i: int) -> int:
        while root[i] != i:
            i = root[i]
        return i

    partners: list[set[tuple[int, int]]] = [set() for _ in range(n)]
    for (i, j, k) in b.table:
        i, j, k = i - 1, j - 1, k - 1
        partners[i].add((j, k))
        partners[j].add((i, k))
        partners[k].add((i, j))
        r = find(i)
        for t in (j, k, *(s for s, _ in table[i][j][k])):
            s = find(t)
            if s != r:
                root[s] = r
    components: dict[int, list[int]] = {}
    for i in range(n):
        components.setdefault(find(i), []).append(i)
    violations = []
    for comp in components.values():
        if len(comp) < 4:
            continue
        comp_pairs = list(combinations(comp, 2))
        for (x, y, z) in combinations(comp, 3):
            xyz = table[x][y][z]
            if xyz:
                pairs = comp_pairs
            else:
                pairs = sorted(partners[x] | partners[y] | partners[z])
            for (u, v) in pairs:
                if (u == x or u == y) and (v == y or v == z):
                    continue
                left = [0] * n
                for s, c in xyz:
                    for t, d in table[s][u][v]:
                        left[t] += c * d
                right = [0] * n
                for a, p, q in ((x, y, z), (y, z, x), (z, x, y)):
                    for s, c in table[a][u][v]:
                        for t, d in table[s][p][q]:
                            right[t] += c * d
                if left != right:
                    violations.append(Violation((x + 1, y + 1, z + 1, u + 1, v + 1),
                                                _unscaled(left, den2), _unscaled(right, den2)))
    violations.sort(key=lambda w: w.witness)
    return CheckReport(tuple(violations))


def check_transposed_leibniz(b: TriBracket, p: CommProduct) -> CheckReport:
    """Check 3 u·[x,y,z] = [u·x,y,z] + [x,u·y,z] + [x,y,u·z].

    Runs over all basis u and basis triples x < y < z (exhaustive by
    multilinearity and skewness in x, y, z).  Both sides expand by
    linearity over the bracket's ``structure_table`` and the product's
    ``_product_table``, in integers: every term multiplies one bracket and
    one product constant, so both sides are scaled by D_bracket·D_product,
    and a violation divides each side by that once.
    """
    if b.dim != p.dim:
        raise DimensionMismatch("bracket and product dimensions differ")
    n = b.dim
    den_b, table = structure_table(b)
    den_p, prod = _product_table(p)
    den = den_b * den_p
    violations = []
    for u in range(n):
        for (x, y, z) in combinations(range(n), 3):
            left = [0] * n
            for s, c in table[x][y][z]:
                for t, d in prod[u][s]:
                    left[t] += d * (3 * c)
            right = [0] * n
            for s, c in prod[u][x]:
                for t, d in table[s][y][z]:
                    right[t] += c * d
            for s, c in prod[u][y]:
                for t, d in table[x][s][z]:
                    right[t] += c * d
            for s, c in prod[u][z]:
                for t, d in table[x][y][s]:
                    right[t] += c * d
            if left != right:
                violations.append(Violation((u + 1, x + 1, y + 1, z + 1),
                                            _unscaled(left, den), _unscaled(right, den)))
    return CheckReport(tuple(violations))


def check_commutative_associative(p: CommProduct) -> CheckReport:
    """Exhaustive associativity; commutativity is structural (products are
    stored on non-decreasing pairs), so it needs no check.

    Associativity is checked on all basis triples: (e_i·e_j)·e_k = e_i·(e_j·e_k).
    Both sides expand by linearity over the product's ``_product_table``,
    in integers scaled by D².
    """
    n = p.dim
    den, prod = _product_table(p)
    den2 = den * den
    violations = []
    for i in range(n):
        for j in range(n):
            for k in range(n):
                left = [0] * n
                for s, c in prod[i][j]:
                    for t, d in prod[s][k]:
                        left[t] += c * d
                right = [0] * n
                for s, c in prod[j][k]:
                    for t, d in prod[i][s]:
                        right[t] += c * d
                if left != right:
                    violations.append(Violation((i + 1, j + 1, k + 1),
                                                _unscaled(left, den2),
                                                _unscaled(right, den2)))
    return CheckReport(tuple(violations))


class FamilyCoordinates(_Record):
    """The nine free structure constants of a compatible product on the
    standard 3-dimensional bracket.

    The solved family is::

        e1·e1 = 0
        e1·e2 = ((a + w) / 2) e1
        e1·e3 = ((r + t) / 2) e1
        e2·e2 = g e1 + a e2 + q e3
        e2·e3 = h e1 + r e2 + w e3
        e3·e3 = k e1 + s e2 + t e3

    so a product in the family is determined by (g, a, q, h, r, w, k, s, t).
    """

    __slots__ = ("g", "a", "q", "h", "r", "w", "k", "s", "t")

    def pair_rows(self) -> tuple[tuple[Fraction, Fraction, Fraction], ...]:
        """The coordinates of e_i·e_j for the six basis pairs i <= j, in the
        order of ``_basis_pairs``: the one statement of the table layout,
        read by ``as_product`` and by the integer table forms of
        ``families._table_form``."""
        zero, half = Fraction(0), Fraction(1, 2)
        return ((zero, zero, zero),
                ((self.a + self.w) * half, zero, zero),
                ((self.r + self.t) * half, zero, zero),
                (self.g, self.a, self.q),
                (self.h, self.r, self.w),
                (self.k, self.s, self.t))

    def as_product(self) -> CommProduct:
        return CommProduct(3, {(i + 1, j + 1): Vector(row)
                               for (i, j), row in zip(_basis_pairs(3), self.pair_rows())})


def _dense(row: tuple[tuple[int, int], ...]) -> list[int]:
    """A 3-dimensional row of ``_product_table`` as a coordinate list."""
    out = [0, 0, 0]
    for t, c in row:
        out[t] = c
    return out


def _traces(row: tuple[tuple[int, int], ...], twice: int) -> bool:
    """Whether a row of ``_product_table`` is (twice/2)·e1 (the zero row is
    the empty one)."""
    return not twice % 2 and row == (((0, twice // 2),) if twice else ())


def _cleared_coordinates(p: CommProduct) -> tuple[int, ...]:
    """The solved-family coordinates of ``p`` on integers, read from
    ``_product_table(p)``: (D, g, a, q, h, r, w, k, s, t), each coordinate
    D times the one ``family_coordinates`` reports; ShapeMismatch when
    ``p`` is not of the solved compatible-product shape.

    The coordinates come from e2·e2, e2·e3 and e3·e3, and ``p`` is of the
    shape exactly when e1·e1 = 0 and e1·e2 = c12·e1 and e1·e3 = c13·e1
    with 2·c12 = a + w and 2·c13 = r + t, all on the scale D.
    """
    if p.dim != 3:
        raise ShapeMismatch(f"expected dimension 3, got {p.dim}")
    den, ((e11, e12, e13), (_, e22, e23), (_, _, e33)) = _product_table(p)
    g, a, q = _dense(e22)
    h, r, w = _dense(e23)
    k, s, t = _dense(e33)
    if e11 or not _traces(e12, a + w) or not _traces(e13, r + t):
        raise ShapeMismatch(
            "product is outside the compatible family: e1·e1 must vanish, "
            "e1·e2 = ((a+w)/2) e1 and e1·e3 = ((r+t)/2) e1 must hold"
        )
    return den, g, a, q, h, r, w, k, s, t


def family_coordinates(p: CommProduct) -> FamilyCoordinates:
    """Extract the solved-family coordinates of ``p``; raise ShapeMismatch
    when ``p`` is not of the solved compatible-product shape.  The
    ``Fraction`` form of ``_cleared_coordinates``, which states the test."""
    den, *values = _cleared_coordinates(p)
    return FamilyCoordinates(*(Fraction(v, den) for v in values))


def remark_associativity_residuals(p: CommProduct) -> list[Fraction]:
    """Left-minus-right of the eight polynomial relations that the solved
    family's constants satisfy whenever the product is associative.

    Requires ``p`` in the solved family (ShapeMismatch otherwise).  The
    relations are necessary for associativity, not claimed sufficient.
    """
    c = family_coordinates(p)
    g, a, q, h, r, w, k, s, t = c.g, c.a, c.q, c.h, c.r, c.w, c.k, c.s, c.t
    return [
        a * a + 2 * q * r + 2 * q * t - w * w,
        a * r + 3 * r * w + w * t - a * t,
        2 * a * s + 2 * w * s + t * t - r * r,
        g * t + a * h + 2 * q * k - g * r - 3 * h * w,
        r * w - q * s,
        q * r + w * w - a * w - q * t,
        k * a + 2 * g * s + h * t - k * w - 3 * h * r,
        r * r + w * s - a * s - r * t,
    ]
