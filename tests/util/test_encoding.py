"""Canonical encoding: determinism, invertibility, rejection of the
unencodable. Signatures live and die by this module, so the property
tests are strict."""

from __future__ import annotations

import ast
import pathlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.errors import EncodingError
from repro.util.encoding import (
    b64decode,
    b64encode,
    canonical_bytes,
    canonical_json,
    from_canonical_bytes,
)

# Strategy for canonically-encodable values: JSON scalars + bytes,
# nested in lists and string-keyed dicts.
_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**53), max_value=2**53),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=64),
    st.binary(max_size=64),
)
_values = st.recursive(
    _scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.dictionaries(
            st.text(max_size=16).filter(lambda k: k != "__b64__"), children, max_size=5
        ),
    ),
    max_leaves=20,
)


class TestCanonicalJson:
    def test_sorted_keys(self):
        a = canonical_json({"b": 1, "a": 2})
        b = canonical_json({"a": 2, "b": 1})
        assert a == b == '{"a":2,"b":1}'

    def test_no_whitespace(self):
        assert " " not in canonical_json({"a": [1, 2, {"b": "c"}]})

    def test_bytes_envelope(self):
        encoded = canonical_json({"data": b"\x00\x01"})
        assert "__b64__" in encoded

    def test_nested_dict_ordering_deterministic(self):
        v1 = {"outer": {"z": 1, "a": {"m": 2, "b": 3}}}
        v2 = {"outer": {"a": {"b": 3, "m": 2}, "z": 1}}
        assert canonical_bytes(v1) == canonical_bytes(v2)

    def test_tuple_encodes_as_list(self):
        assert canonical_json((1, 2)) == canonical_json([1, 2])


class TestRejections:
    def test_nan_rejected(self):
        with pytest.raises(EncodingError):
            canonical_bytes(float("nan"))

    def test_inf_rejected(self):
        with pytest.raises(EncodingError):
            canonical_bytes(float("inf"))

    def test_non_string_keys_rejected(self):
        with pytest.raises(EncodingError):
            canonical_bytes({1: "a"})

    def test_reserved_key_rejected(self):
        with pytest.raises(EncodingError):
            canonical_bytes({"__b64__": "sneaky"})

    def test_object_rejected(self):
        with pytest.raises(EncodingError):
            canonical_bytes(object())

    def test_set_rejected(self):
        with pytest.raises(EncodingError):
            canonical_bytes({1, 2})

    def test_invalid_payload_decode(self):
        with pytest.raises(EncodingError):
            from_canonical_bytes(b"\xff\xfe not json")

    def test_malformed_bytes_envelope(self):
        with pytest.raises(EncodingError):
            from_canonical_bytes(b'{"__b64__": 42}')


class TestBase64:
    def test_roundtrip(self):
        assert b64decode(b64encode(b"\x00\xffhello")) == b"\x00\xffhello"

    def test_invalid_rejected(self):
        with pytest.raises(EncodingError):
            b64decode("not!!base64***")


class TestProperties:
    @given(_values)
    @settings(max_examples=200)
    def test_roundtrip(self, value):
        assert from_canonical_bytes(canonical_bytes(value)) == value

    @given(_values)
    @settings(max_examples=100)
    def test_deterministic(self, value):
        assert canonical_bytes(value) == canonical_bytes(value)

    @given(st.binary(max_size=256))
    def test_bytes_roundtrip_exact(self, raw):
        assert from_canonical_bytes(canonical_bytes({"k": raw}))["k"] == raw


def bytes_of_a_field(source: str) -> list:
    """Lines calling ``bytes(<name>["<key>"])``: a decoded field handed to
    ``bytes``, which given an integer allocates that many zero bytes."""
    return sorted(
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "bytes"
        and len(node.args) == 1
        and isinstance(node.args[0], ast.Subscript)
        and isinstance(node.args[0].value, ast.Name)
        and isinstance(node.args[0].slice, ast.Constant)
        and isinstance(node.args[0].slice.value, str)
    )


class TestNoBytesOfAField:
    def test_decoded_fields_go_through_wire_bytes(self):
        root = pathlib.Path(repro.__file__).parent
        found = {
            path.relative_to(root).as_posix(): lines
            for path in root.rglob("*.py")
            if (lines := bytes_of_a_field(path.read_text(encoding="utf-8")))
        }
        assert found == {}

    @pytest.mark.parametrize(
        "source, lines",
        [
            ('bytes(data["signature"])', [1]),
            ('x = 1\nbytes(answer["body"])', [2]),
            ('wire_bytes(data["signature"])', []),
            ("bytes(data[0])", []),
            ("bytes(self.content)", []),
        ],
    )
    def test_guard_sees_the_pattern_and_only_it(self, source, lines):
        assert bytes_of_a_field(source) == lines
