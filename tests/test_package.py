"""The lazy package: what ``import tpl3`` and each subcommand load, and the
public names, which are those the package re-exported when it imported
every submodule eagerly less the dense references now in ``oracles``, and
less the dense affine solve and matrix product that no module called."""

import copy
import inspect
import json
import os
import pickle
import random
import subprocess
import sys
from fractions import Fraction
from itertools import combinations_with_replacement
from pathlib import Path

import pytest

import tpl3
from conftest import FIXTURES

SRC = Path(tpl3.__file__).resolve().parents[1]

PUBLIC_NAMES = {
    # linalg
    "DimensionMismatch", "Matrix", "Singular", "Vector", "fmt_rat", "invert",
    "parse_rat", "rank", "rational_root", "vec_mat",
    # algebra
    "CheckReport", "CommProduct", "FamilyCoordinates", "ShapeMismatch", "TriBracket",
    "Violation", "a3_bracket", "bracket_eval", "check_commutative_associative",
    "check_fundamental_identity", "check_transposed_leibniz", "family_coordinates",
    "remark_associativity_residuals",
    # derivations
    "DerivationQuery", "DerivationSpace", "ProductSpace", "delta_derivations",
    "tp_product_space",
    # morphisms
    "AutoMatrix", "NotAutomorphism", "a3_automorphism_check",
    "eleven_equation_residuals", "is_bracket_automorphism", "transport_bracket",
    "transport_product",
    # families
    "ALL_CASES", "CASE_FAMILY", "FAMILY_IDS", "FAMILY_PARAMS", "CaseId",
    "FamilyInstance", "detect_case", "instantiate_family",
    # classify
    "CANONICAL_AUTOMORPHISM", "Certificate", "NeedsExtension", "NotTransposedPoisson",
    "Unclassified", "Unsupported", "classify", "draw_family_params", "fingerprint",
    "normalize", "verify_all_cases", "verify_paper_case",
    # docio
    "AlgebraDocument", "DocumentError", "matrix_payload", "parse_document",
    "parse_matrix", "serialize_document",
}


def fresh_python(code: str, *args: str) -> str:
    """stdout of ``code`` run by a new interpreter that imports tpl3 from
    this checkout."""
    proc = subprocess.run([sys.executable, "-c", code, *args], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=str(SRC)),
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


LOADED_AFTER_COMMAND = """
import contextlib, io, json, sys
from tpl3 import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.run_command(sys.argv[1:])
print(json.dumps([code, sorted(m for m in sys.modules if m.startswith("tpl3."))]))
"""


def loaded_after(*argv: str) -> tuple[int, set[str]]:
    code, modules = json.loads(fresh_python(LOADED_AFTER_COMMAND, *argv))
    return code, {m.removeprefix("tpl3.") for m in modules}


def test_import_loads_no_submodule():
    out = fresh_python("import sys, tpl3\n"
                       "print(sorted(m for m in sys.modules if m.startswith('tpl3.')))")
    assert out == "[]\n"


def test_subcommands_load_only_what_they_run(tmp_path):
    code, loaded = loaded_after("check", str(FIXTURES / "a3.json"))
    assert code == 0 and "algebra" in loaded
    assert not loaded & {"classify", "families", "derivations"}
    matrix = tmp_path / "m.json"
    matrix.write_text('[["1","0","0"],["1","2","0"],["0","-1","1"]]')
    code, loaded = loaded_after("transport", str(FIXTURES / "t9.json"),
                                "--matrix", str(matrix))
    assert code == 0 and "morphisms" in loaded
    assert not loaded & {"classify", "derivations"}


def test_family_tables_load_neither_morphisms_nor_classify():
    # the classify bench builds its tables from ``families`` alone, so its
    # set-up time must not include compiling the automorphism modules
    out = fresh_python(
        "import sys\n"
        "from tpl3.families import FAMILY_IDS, FAMILY_PARAMS, FamilyInstance, "
        "instantiate_family\n"
        "for family in FAMILY_IDS:\n"
        "    params = {name: 1 for name in FAMILY_PARAMS[family]}\n"
        "    instantiate_family(FamilyInstance.make(family, **params))\n"
        "print(sorted(m for m in sys.modules if m.startswith('tpl3.')))")
    assert out == "['tpl3.algebra', 'tpl3.families', 'tpl3.linalg']\n"


def test_canonical_automorphisms_are_built_from_the_family_rows():
    from tpl3.families import _WITNESS_ROWS

    witnesses = tpl3.CANONICAL_AUTOMORPHISM
    assert list(witnesses) == [str(case) for case in tpl3.ALL_CASES]
    for case, witness in witnesses.items():
        assert type(witness) is tpl3.AutoMatrix
        assert witness == tpl3.AutoMatrix.from_rows(_WITNESS_ROWS[case])
    with pytest.raises(TypeError):
        witnesses["1-a"] = tpl3.AutoMatrix.identity(3)
    with pytest.raises(TypeError):
        witnesses["5-a"] = tpl3.AutoMatrix.identity(3)


def test_public_names_unchanged():
    assert {name for name in dir(tpl3) if not name.startswith("_")} == PUBLIC_NAMES
    namespace: dict = {}
    exec("from tpl3 import *", namespace)
    assert set(namespace) - {"__builtins__"} == PUBLIC_NAMES


def test_submodule_imported_before_package_names():
    # ``import tpl3.classify`` binds the submodule on the package before any
    # name is read; ``tpl3.classify`` must still be the function
    out = fresh_python(
        "import tpl3.classify\n"
        "import tpl3\n"
        "p = tpl3.instantiate_family(tpl3.FamilyInstance.make('T1', alpha=2))\n"
        "print(type(tpl3.classify(tpl3.a3_bracket(), p)).__name__)")
    assert out == "Certificate\n"


#: each command, in one ``python -S`` interpreter, and the heavy stdlib
#: modules loaded after it: the first command that loads one shows up
STDLIB_AFTER_COMMANDS = """
import contextlib, io, json, sys
from tpl3 import cli
heavy = ("dataclasses", "inspect")
loaded = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.run_command(argv)
    loaded.append([argv[0], code, [m for m in heavy if m in sys.modules]])
print(json.dumps(loaded))
"""


def test_subcommands_load_neither_dataclasses_nor_inspect(tmp_path):
    matrix = tmp_path / "m.json"
    matrix.write_text('[["1","0","0"],["1","2","0"],["0","-1","1"]]')
    commands = [["check", str(FIXTURES / "a3.json")],
                ["classify", str(FIXTURES / "t4.json")],
                ["fingerprint", str(FIXTURES / "t7.json")],
                ["transport", str(FIXTURES / "t9.json"), "--matrix", str(matrix)],
                ["derivations", str(FIXTURES / "a3.json")],
                ["tp-space", str(FIXTURES / "a3.json")]]
    proc = subprocess.run([sys.executable, "-S", "-c", STDLIB_AFTER_COMMANDS,
                           json.dumps(commands)],
                          capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(SRC)), timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [[argv[0], 0, []] for argv in commands]


# -- value semantics: every public value class and record ---------------------

A3 = tpl3.a3_bracket()
PRODUCT = tpl3.CommProduct(3, {(2, 2): tpl3.Vector([0, 1, 0])})
VIOLATION = tpl3.Violation((1, 2, 3), tpl3.Vector([1, 0, 0]), tpl3.Vector([0, 0, 0]))

#: one fixed instance of each record and its ``repr`` in the dataclass
#: format ``Name(field=value!r, ...)``; DerivationSpace.query and
#: ProductSpace.bracket are left out of it
RECORD_REPRS = [
    (VIOLATION, "Violation(witness=(1, 2, 3), left=(1, 0, 0), right=(0, 0, 0))"),
    (tpl3.CheckReport((VIOLATION,)),
     "CheckReport(violations=(Violation(witness=(1, 2, 3), left=(1, 0, 0), "
     "right=(0, 0, 0)),))"),
    (tpl3.FamilyCoordinates(*map(Fraction, range(9))),
     "FamilyCoordinates(g=Fraction(0, 1), a=Fraction(1, 1), q=Fraction(2, 1), "
     "h=Fraction(3, 1), r=Fraction(4, 1), w=Fraction(5, 1), k=Fraction(6, 1), "
     "s=Fraction(7, 1), t=Fraction(8, 1))"),
    (tpl3.Certificate(input=PRODUCT, family=tpl3.FamilyInstance.make("T1", alpha=1),
                      witness=tpl3.AutoMatrix.identity(3)),
     "Certificate(input=CommProduct(dim=3, e2*e2=(0, 1, 0)), "
     "family=FamilyInstance(id='T1', params=(('alpha', Fraction(1, 1)),)), "
     "witness=AutoMatrix(map=[1, 0, 0; 0, 1, 0; 0, 0, 1]))"),
    (tpl3.NeedsExtension(radicand=Fraction(2), degree=4),
     "NeedsExtension(radicand=Fraction(2, 1), degree=4)"),
    (tpl3.Unclassified("no case"), "Unclassified(reason='no case')"),
    (tpl3.NotTransposedPoisson(tpl3.CheckReport(())),
     "NotTransposedPoisson(report=CheckReport(violations=()))"),
    (tpl3.Unsupported("other bracket"), "Unsupported(reason='other bracket')"),
    (tpl3.DerivationQuery(A3, Fraction(-2, 5)),
     "DerivationQuery(bracket=TriBracket(dim=3, [e1,e2,e3]=(1, 0, 0)), "
     "delta=Fraction(-2, 5))"),
    (tpl3.DerivationSpace(dim=1, basis=(tpl3.Matrix.identity(3),),
                          query=tpl3.DerivationQuery(A3)),
     "DerivationSpace(dim=1, basis=([1, 0, 0; 0, 1, 0; 0, 0, 1],))"),
    (tpl3.ProductSpace(dim=1, basis=(PRODUCT,), description=(((2, 2), 2),), bracket=A3),
     "ProductSpace(dim=1, basis=(CommProduct(dim=3, e2*e2=(0, 1, 0)),), "
     "description=(((2, 2), 2),))"),
    (tpl3.AlgebraDocument(A3, PRODUCT, {"name": "x"}),
     "AlgebraDocument(bracket=TriBracket(dim=3, [e1,e2,e3]=(1, 0, 0)), "
     "product=CommProduct(dim=3, e2*e2=(0, 1, 0)), meta={'name': 'x'})"),
    (tpl3.FamilyInstance.make("T2", alpha=1, theta=Fraction(1, 2)),
     "FamilyInstance(id='T2', params=(('alpha', Fraction(1, 1)), "
     "('theta', Fraction(1, 2))))"),
    (tpl3.CaseId(2, "c"), "CaseId(case=2, subcase='c')"),
    (tpl3.AutoMatrix.from_rows([[1, 0, 0], [1, 2, 0], [0, -1, 1]]),
     "AutoMatrix(map=[1, 0, 0; 1, 2, 0; 0, -1, 1])"),
]

VALUES = [tpl3.Vector([1, Fraction(1, 2)]), tpl3.Matrix.from_rows([[1, 2], [3, 4]]),
          A3, PRODUCT] + [record for record, _ in RECORD_REPRS]


def test_every_public_record_has_a_fixed_instance():
    # the public classes, exceptions aside, are the value classes and records
    public = [getattr(tpl3, name) for name in PUBLIC_NAMES]
    assert {type(value) for value in VALUES} == {
        c for c in public if isinstance(c, type) and not issubclass(c, Exception)}


@pytest.mark.parametrize("record, expected", RECORD_REPRS,
                         ids=[type(r).__name__ for r, _ in RECORD_REPRS])
def test_record_repr_is_the_dataclass_format(record, expected):
    assert repr(record) == expected


@pytest.mark.parametrize("value", VALUES, ids=[type(v).__name__ for v in VALUES])
def test_values_are_immutable(value):
    stored = [name for c in type(value).__mro__ for name in getattr(c, "__slots__", ())]
    for name in (*stored, *getattr(value, "__dict__", ()), "extra"):
        before = getattr(value, name, None)
        with pytest.raises(AttributeError):
            setattr(value, name, before)
        with pytest.raises(AttributeError):
            delattr(value, name)
        assert getattr(value, name, None) is before


@pytest.mark.parametrize("value", VALUES, ids=[type(v).__name__ for v in VALUES])
def test_values_survive_pickle_and_deepcopy(value):
    for other in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value)):
        assert type(other) is type(value) and other == value
        assert repr(other) == repr(value)
        if isinstance(value, tpl3.AlgebraDocument):
            continue  # its meta dict leaves it unhashable, as a dict is
        assert hash(other) == hash(value)


def test_record_equality_needs_the_same_class():
    assert tpl3.Unclassified("x") != tpl3.Unsupported("x")
    assert tpl3.Unclassified("x") == tpl3.Unclassified("x")
    assert tpl3.CaseId(1, "a") != (1, "a")
    with pytest.raises(TypeError):
        iter(tpl3.CaseId(1, "a"))
    # the inverse is derived from the map, so it is no field
    m = tpl3.AutoMatrix.from_rows([[1, 0, 0], [1, 2, 0], [0, -1, 1]])
    assert m == tpl3.AutoMatrix(m.map) and m.inverse().inverse() == m


def test_every_value_class_has_the_one_base():
    from tpl3 import linalg

    public = [getattr(tpl3, name) for name in PUBLIC_NAMES]
    classes = [c for c in public if isinstance(c, type) and not issubclass(c, Exception)]
    assert all(issubclass(c, linalg._Record) for c in classes)
    assert not [name for name in vars(linalg) if name.startswith("_frozen")]


def test_value_equality_needs_the_same_class():
    assert tpl3.Vector([1]) == tpl3.Vector([1])
    assert tpl3.Vector([1]) != (1,)
    assert tpl3.Vector([1]) != tpl3.Matrix.from_rows([[1]])
    assert tpl3.Matrix.from_rows([[1, 2]]) != tpl3.Matrix.from_rows([[1], [2]])
    assert A3 != PRODUCT and PRODUCT == tpl3.CommProduct(3, dict(PRODUCT.table))
    # a single-field key is the field itself, so a vector hashes as its entries
    assert hash(tpl3.Vector([1, 2])) == hash((Fraction(1), Fraction(2)))


def test_record_defaults():
    assert tpl3.DerivationQuery(A3).delta == Fraction(1, 3)
    assert tpl3.DerivationQuery(A3, "-2/5").delta == Fraction(-2, 5)
    with pytest.raises(ValueError):
        tpl3.DerivationQuery(A3, 0)
    first, second = tpl3.AlgebraDocument(A3), tpl3.AlgebraDocument(A3)
    assert first.product is None and first.meta == {} and first.meta is not second.meta
    with pytest.raises(ValueError):
        tpl3.CaseId(5, "a")


def test_automatrix_inverts_through_the_class_hook(monkeypatch):
    from tpl3 import morphisms

    calls = []
    post_init = morphisms.AutoMatrix.__post_init__
    monkeypatch.setattr(morphisms.AutoMatrix, "__post_init__",
                        lambda self: calls.append(post_init(self)))
    inverts = []
    invert = morphisms.invert
    monkeypatch.setattr(morphisms, "invert", lambda m: inverts.append(m) or invert(m))
    m = morphisms.AutoMatrix.from_rows([[1, 0, 0], [1, 2, 0], [0, -1, 1]])
    assert len(calls) == 1 and inverts == [m.map]
    # no inverse is kept: inverse() inverts the map again, and constructs an
    # off-shape map (det B = 1/2), which inverts once more
    inverse = m.inverse()
    assert len(calls) == 2 and inverts == [m.map, m.map, inverse.map]
    assert inverse.map == tpl3.invert(m.map)


# -- one generated constructor, and one no-check constructor -------------------

#: the records that store their fields as given, and their fields: each takes
#: the generated ``_store`` as its ``__init__``
GENERATED = {
    tpl3.Violation: "witness, left, right",
    tpl3.CheckReport: "violations",
    tpl3.FamilyCoordinates: "g, a, q, h, r, w, k, s, t",
    tpl3.Certificate: "input, family, witness",
    tpl3.NeedsExtension: "radicand, degree",
    tpl3.Unclassified: "reason",
    tpl3.NotTransposedPoisson: "report",
    tpl3.Unsupported: "reason",
    tpl3.DerivationSpace: "dim, basis, query",
    tpl3.ProductSpace: "dim, basis, description, bracket",
    tpl3.FamilyInstance: "id, params",
}

#: the records whose own ``__init__`` checks, coerces or supplies a default
CHECKED = {tpl3.Vector, tpl3.Matrix, tpl3.TriBracket, tpl3.CommProduct, tpl3.AutoMatrix,
           tpl3.DerivationQuery, tpl3.CaseId, tpl3.AlgebraDocument}


def test_every_record_either_checks_or_takes_the_generated_init():
    classes = {type(value) for value in VALUES}
    assert classes == set(GENERATED) | CHECKED
    for cls in classes:
        assert (cls.__init__ is cls._store) == (cls in GENERATED), cls


#: one call of each checking constructor, on arguments built beforehand
CHECKED_CALLS = {
    tpl3.Vector: lambda: tpl3.Vector([1, "1/2"]),
    tpl3.Matrix: lambda: tpl3.Matrix.from_rows([[1, 2], [3, 4]]),
    tpl3.TriBracket: lambda: tpl3.TriBracket(3, dict(A3.table)),
    tpl3.CommProduct: lambda: tpl3.CommProduct(3, dict(PRODUCT.table)),
    tpl3.AutoMatrix: lambda: tpl3.AutoMatrix(tpl3.Matrix.identity(4)),
    tpl3.DerivationQuery: lambda: tpl3.DerivationQuery(A3, "-2/5"),
    tpl3.CaseId: lambda: tpl3.CaseId(2, "c"),
    tpl3.AlgebraDocument: lambda: tpl3.AlgebraDocument(A3, PRODUCT),
}


@pytest.mark.parametrize("cls", CHECKED_CALLS, ids=[c.__name__ for c in CHECKED_CALLS])
def test_checking_init_stores_once_through_the_generated_store(cls, monkeypatch):
    assert set(CHECKED_CALLS) == CHECKED
    stored = []
    store = cls._store
    monkeypatch.setattr(cls, "_store", staticmethod(
        lambda record, *fields: stored.append(fields) or store(record, *fields)))
    record = CHECKED_CALLS[cls]()
    assert type(record) is cls
    assert stored == [tuple(getattr(record, name) for name in cls._fields)]
    memos = [name for name in cls.__slots__ if name.startswith("_")]
    assert all(getattr(record, name) is None for name in memos)


@pytest.mark.parametrize("cls", GENERATED, ids=[c.__name__ for c in GENERATED])
def test_generated_init_takes_exactly_the_fields(cls):
    assert str(inspect.signature(cls)) == f"({GENERATED[cls]})"
    assert ", ".join(cls._fields) == GENERATED[cls]


@pytest.mark.parametrize("record", [r for r, _ in RECORD_REPRS if type(r) in GENERATED],
                         ids=lambda r: type(r).__name__)
def test_generated_init_by_position_and_by_keyword(record):
    cls = type(record)
    fields = [getattr(record, name) for name in cls._fields]
    by_name = dict(zip(cls._fields, fields))
    assert cls(*fields) == cls(**by_name) == record
    assert repr(cls(*fields)) == repr(cls(**by_name)) == repr(record)
    with pytest.raises(TypeError):
        cls(*fields[:-1])
    with pytest.raises(TypeError):
        cls(*fields, None)
    with pytest.raises(TypeError):
        cls(**by_name, extra=None)
    with pytest.raises(TypeError):
        cls(*fields, **{cls._fields[0]: fields[0]})


#: fresh values, so that no other test has filled a memo
NO_CHECK = [tpl3.Vector([1, Fraction(1, 2)]), tpl3.Matrix.from_rows([[1, 2], [3, 4]]),
            tpl3.CommProduct(3, dict(PRODUCT.table)), tpl3.TriBracket(3, dict(A3.table))]


@pytest.mark.parametrize("value", NO_CHECK, ids=[type(v).__name__ for v in NO_CHECK])
def test_from_fields_is_the_public_record_with_empty_memos(value):
    cls = type(value)
    # the record owns what it is given, so each dict field is a copy
    fields = [getattr(value, name) for name in cls._fields]
    fields = [dict(f) if isinstance(f, dict) else f for f in fields]
    record = cls._from_fields(*fields)
    assert type(record) is cls and record == value and hash(record) == hash(value)
    assert repr(record) == repr(value)
    for other in (pickle.loads(pickle.dumps(record)), copy.deepcopy(record)):
        assert type(other) is cls and other == value and repr(other) == repr(value)
    memos = [name for name in cls.__slots__ if name.startswith("_")]
    assert all(getattr(record, name) is None for name in memos)
    assert all(getattr(value, name) is None for name in memos)


def test_integer_pair_rows_make_the_public_product():
    # seeded int rows, zero rows among them, through the one builder and
    # through the two readers that call it; a transport is checked against
    # the evaluator reference
    from test_morphisms import reference_transport_product
    from tpl3.algebra import _unscaled_product
    from tpl3.families import table_rows

    def public(n, den, rows):
        pairs = combinations_with_replacement(range(1, n + 1), 2)
        return tpl3.CommProduct(n, {pair: tpl3.Vector([Fraction(v, den) for v in row])
                                    for pair, row in zip(pairs, rows)})

    rng = random.Random(34)
    cases = []
    for n in (1, 2, 3, 4):
        for _ in range(10):
            den = rng.choice((1, 2, 6, -4))
            rows = [[rng.randint(-3, 3) if rng.random() < 0.5 else 0 for _ in range(n)]
                    for _ in range(n * (n + 1) // 2)]
            cases.append((_unscaled_product(n, den, rows), public(n, den, rows)))
    for family_id in tpl3.FAMILY_IDS:
        f = tpl3.FamilyInstance.make(family_id, **tpl3.draw_family_params(family_id, rng))
        table = tpl3.instantiate_family(f)
        cases.append((table, public(3, *table_rows(f))))
        m = tpl3.AutoMatrix.from_rows([[1, 0, 0], [rng.randint(-2, 2), 2, 1],
                                       [Fraction(1, 3), rng.randint(1, 3), 2]])
        cases.append((tpl3.transport_product(table, m), reference_transport_product(table, m)))
    # rows were dropped in most cases
    assert sum(len(b.table) < b.dim * (b.dim + 1) // 2 for b, _ in cases) >= 40
    for built, expected in cases:
        for other in (built, pickle.loads(pickle.dumps(built)), copy.deepcopy(built)):
            assert type(other) is tpl3.CommProduct and other == expected
            assert hash(other) == hash(expected) and repr(other) == repr(expected)


def test_from_fields_bracket_solves_from_empty_memos():
    b = tpl3.TriBracket._from_fields(3, dict(A3.table))
    assert b._reduced is None and tpl3.tp_product_space(b).dim == 9
    assert set(b._reduced) == {Fraction(1, 3)}
