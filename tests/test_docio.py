import json
import random
from fractions import Fraction as F

import pytest

from tpl3 import (AutoMatrix, CommProduct, DocumentError, FamilyInstance,
                  TriBracket, Vector, a3_bracket, instantiate_family, parse_document,
                  parse_matrix, serialize_document)
from conftest import rand_family_product

A3_BYTES = b'{"dim":3,"bracket":[{"args":[1,2,3],"value":{"1":"1"}}]}'


def test_parse_a3():
    doc = parse_document(A3_BYTES)
    assert doc.bracket == a3_bracket()
    assert doc.product is None
    assert doc.meta == {}


def test_parse_zero_bracket():
    doc = parse_document(b'{"dim":2,"bracket":[]}')
    assert doc.bracket == TriBracket(2, {})
    assert (serialize_document(doc.bracket, doc.product, doc.meta)
            == b'{"dim":2,"bracket":[]}')


def test_parse_non_monotone_args():
    with pytest.raises(DocumentError, match="strictly increasing"):
        parse_document(b'{"dim":3,"bracket":[{"args":[2,1,3],"value":{"1":"1"}}]}')
    with pytest.raises(DocumentError, match="non-decreasing"):
        parse_document(b'{"dim":3,"bracket":[],"product":[{"args":[2,1],"value":{}}]}')


def test_parse_error_diagnostics():
    with pytest.raises(DocumentError, match="line 1"):
        parse_document(b"{nope")
    with pytest.raises(DocumentError, match=r"bracket\[0\]\.args"):
        parse_document(b'{"dim":3,"bracket":[{"args":[1,2],"value":{}}]}')
    with pytest.raises(DocumentError, match="out of range"):
        parse_document(b'{"dim":2,"bracket":[{"args":[1,2,3],"value":{}}]}')
    with pytest.raises(DocumentError, match="component 4"):
        parse_document(b'{"dim":3,"bracket":[{"args":[1,2,3],"value":{"4":"1"}}]}')
    with pytest.raises(DocumentError, match="bad rational"):
        parse_document(b'{"dim":3,"bracket":[{"args":[1,2,3],"value":{"1":"x"}}]}')
    with pytest.raises(DocumentError, match="duplicate"):
        parse_document(b'{"dim":3,"bracket":[{"args":[1,2,3],"value":{}},'
                       b'{"args":[1,2,3],"value":{"1":"1"}}]}')
    with pytest.raises(DocumentError, match="unknown keys"):
        parse_document(b'{"dim":3,"bracket":[],"extra":1}')
    with pytest.raises(DocumentError, match="dim"):
        parse_document(b'{"bracket":[]}')


def test_serialize_canonical_bytes():
    assert serialize_document(a3_bracket()) == A3_BYTES
    t1 = instantiate_family(FamilyInstance.make("T1", alpha=F(1, 2)))
    data = serialize_document(a3_bracket(), t1)
    assert b'{"args":[3,3],"value":{"2":"-3/2"}}' in data


def test_unreduced_input_normalises():
    raw = b'{"dim":3,"bracket":[{"args":[1,2,3],"value":{"1":"2/2"}}]}'
    doc = parse_document(raw)
    assert serialize_document(doc.bracket, doc.product, doc.meta) == A3_BYTES


def test_roundtrip_random_documents():
    rng = random.Random(14)
    for _ in range(25):
        product = rand_family_product(rng)
        meta = {"label": "sample"} if rng.random() < 0.5 else {}
        data = serialize_document(a3_bracket(), product, meta)
        doc = parse_document(data)
        assert doc.bracket == a3_bracket()
        assert doc.product == product
        assert doc.meta == meta
        assert serialize_document(doc.bracket, doc.product, doc.meta) == data


def test_zero_product_distinct_from_absent():
    with_zero = serialize_document(a3_bracket(), CommProduct.zero(3))
    assert with_zero == A3_BYTES[:-1] + b',"product":[]}'
    doc = parse_document(with_zero)
    assert doc.product == CommProduct.zero(3)
    assert parse_document(A3_BYTES).product is None


def test_meta_roundtrip_sorted():
    data = serialize_document(a3_bracket(), None, {"b": "2", "a": "1"})
    assert data.endswith(b'"meta":{"a":"1","b":"2"}}')
    assert parse_document(data).meta == {"a": "1", "b": "2"}


def test_parse_matrix():
    m = parse_matrix(b'[["1","0","0"],["0","-1/2","1/2"],["0","-3/2","-1/2"]]')
    assert isinstance(m, AutoMatrix)
    assert m.map.entry(1, 2) == F(1, 2)
    with pytest.raises(DocumentError):
        parse_matrix(b'[["1","0"],["0"]]')
    with pytest.raises(DocumentError):
        parse_matrix(b'[[1]]')


def test_non_utf8_bytes_rejected():
    # both parsers share one decode and one error
    with pytest.raises(DocumentError, match="^document is not UTF-8: "):
        parse_document(b"\xff")
    with pytest.raises(DocumentError, match="^matrix is not UTF-8: "):
        parse_matrix(b"\xff")


def test_component_keys_are_plain_decimal():
    # int() would read each of these as component 2
    for key in (" 2", "2 ", "02", "+2", "0_2", "٢", "0", "-1", ""):
        raw = json.dumps({"dim": 3, "bracket": [{"args": [1, 2, 3],
                                                 "value": {key: "1"}}]})
        with pytest.raises(DocumentError, match="not a positive decimal integer"):
            parse_document(raw.encode())
    doc = parse_document(b'{"dim":12,"bracket":[{"args":[1,2,3],"value":{"12":"1"}}]}')
    assert doc.bracket.basis_bracket(1, 2, 3) == Vector.unit(12, 12)


def test_repeated_keys_rejected():
    # json.loads alone keeps the last value of a repeated key
    for raw in (b'{"dim":3,"bracket":[{"args":[1,2,3],"value":{"1":"1","1":"5"}}]}',
                b'{"dim":3,"dim":3,"bracket":[]}',
                b'{"dim":3,"bracket":[{"args":[1,2,3],"args":[1,2,3],"value":{}}]}',
                b'{"dim":3,"bracket":[],"meta":{"a":"1","a":"2"}}'):
        with pytest.raises(DocumentError, match="duplicate key"):
            parse_document(raw)
    with pytest.raises(DocumentError, match="duplicate key"):
        parse_matrix(b'[[{"a":1,"a":2}]]')


def test_deep_nesting_rejected():
    # the JSON scanner recurses once per level; past the recursion limit it
    # raises RecursionError, which both parsers report as a document error
    for opener, closer in (b"[", b"]"), (b'{"a":', b"}"):
        deep = opener * 100_000 + b"1" + closer * 100_000
        with pytest.raises(DocumentError, match="^document is nested too deeply$"):
            parse_document(deep)
        with pytest.raises(DocumentError, match="^matrix is nested too deeply$"):
            parse_matrix(deep)
    # nesting below the limit still parses, and fails on the document shape
    with pytest.raises(DocumentError, match="top level"):
        parse_document(b"[" * 100 + b"]" * 100)
