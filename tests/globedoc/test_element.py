"""Page elements: naming rules, hashing, content types."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.crypto import hashes
from repro.crypto.hashes import SHA1, SHA256
from repro.errors import ReproError
from repro.globedoc.element import (
    PageElement,
    guess_content_type,
    validate_element_name,
)


class TestNameValidation:
    @pytest.mark.parametrize(
        "name",
        ["index.html", "img/logo.png", "a/b/c.txt", "UPPER.HTML", "dash-name_1.js"],
    )
    def test_valid_names(self, name):
        assert validate_element_name(name) == name

    @pytest.mark.parametrize(
        "name",
        [
            "",
            "/absolute.html",
            "has\\backslash",
            "dot/./segment",
            "dot/../segment",
            "trailing/",
            "//double",
            "ctrl\x01char",
        ],
    )
    def test_invalid_names(self, name):
        with pytest.raises(ReproError):
            validate_element_name(name)

    def test_overlong_rejected(self):
        with pytest.raises(ReproError):
            validate_element_name("x" * 2000)

    def test_non_string_rejected(self):
        with pytest.raises(ReproError):
            validate_element_name(42)  # type: ignore[arg-type]


class TestContentType:
    @pytest.mark.parametrize(
        "name,ctype",
        [
            ("index.html", "text/html"),
            ("a.htm", "text/html"),
            ("story.txt", "text/plain"),
            ("pic.png", "image/png"),
            ("pic.JPG", "image/jpeg"),
            ("app.class", "application/java-vm"),
            ("mystery.bin", "application/octet-stream"),
        ],
    )
    def test_guesses(self, name, ctype):
        assert guess_content_type(name) == ctype

    def test_element_inherits_guess(self):
        assert PageElement("x.png", b"").content_type == "image/png"

    def test_explicit_type_kept(self):
        elem = PageElement("x.bin", b"", content_type="application/wasm")
        assert elem.content_type == "application/wasm"


class TestPageElement:
    def test_size(self):
        assert PageElement("a.txt", b"12345").size == 5

    def test_content_coerced_to_bytes(self):
        elem = PageElement("a.txt", bytearray(b"ab"))
        assert isinstance(elem.content, bytes)

    def test_content_hash_suites(self, monkeypatch):
        assert PageElement("a.txt", b"data").content_hash() == SHA1.digest(b"data")
        monkeypatch.setattr(hashes, "SUITE", SHA256)
        assert PageElement("a.txt", b"data").content_hash() == SHA256.digest(b"data")

    def test_with_content(self):
        original = PageElement("a.txt", b"v1")
        updated = original.with_content(b"v2")
        assert updated.name == "a.txt"
        assert updated.content == b"v2"
        assert original.content == b"v1"  # immutable

    def test_dict_roundtrip(self):
        elem = PageElement("a/b.png", b"\x89PNG", metadata={"author": "vu"})
        restored = PageElement.from_dict(elem.to_dict())
        assert restored == elem

    def test_invalid_name_rejected_at_construction(self):
        with pytest.raises(ReproError):
            PageElement("../escape.html", b"")

    @given(st.binary(max_size=256))
    def test_hash_matches_content(self, content):
        elem = PageElement("f.bin", content)
        assert elem.content_hash() == SHA1.digest(content)
