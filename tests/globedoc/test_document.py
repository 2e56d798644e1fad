"""Document state: element management and the state/cert invariant."""

from __future__ import annotations

import pytest

from repro.errors import ConsistencyError, ReproError
from repro.globedoc.document import DocumentState, GlobeDocInterface
from repro.globedoc.element import PageElement
from repro.server.localrep import ReplicaLR


class TestDocumentState:
    def test_add_and_get(self, shared_keys):
        state = DocumentState(public_key=shared_keys.public)
        elem = PageElement("a.html", b"data")
        state.add_element(elem)
        assert state.element("a.html") == elem
        assert state.element_names == ["a.html"]

    def test_missing_element_raises_consistency(self, shared_keys):
        state = DocumentState(public_key=shared_keys.public)
        with pytest.raises(ConsistencyError):
            state.element("ghost.html")

    def test_remove(self, shared_keys):
        state = DocumentState(public_key=shared_keys.public)
        state.add_element(PageElement("a.html", b""))
        state.remove_element("a.html")
        assert state.element_names == []
        with pytest.raises(ReproError):
            state.remove_element("a.html")

    def test_total_size(self, shared_keys):
        state = DocumentState(public_key=shared_keys.public)
        state.add_element(PageElement("a", b"12345"))
        state.add_element(PageElement("b", b"123"))
        assert state.total_size == 8


class TestValidation:
    def test_signed_document_state_validates(self, make_owner):
        owner = make_owner(elements={"a.html": b"x", "b.png": b"y"})
        state = owner.publish(validity=60).state()
        state.validate()  # no raise

    def test_missing_certificate_rejected(self, shared_keys):
        state = DocumentState(public_key=shared_keys.public)
        state.add_element(PageElement("a", b""))
        with pytest.raises(ReproError, match="no integrity certificate"):
            state.validate()

    def test_element_set_mismatch_rejected(self, make_owner):
        owner = make_owner(elements={"a.html": b"x"})
        state = owner.publish(validity=60).state()
        state.add_element(PageElement("extra.html", b"z"))
        with pytest.raises(ReproError, match="differs"):
            state.validate()

    def test_hash_mismatch_rejected(self, make_owner):
        owner = make_owner(elements={"a.html": b"x"})
        state = owner.publish(validity=60).state()
        state.elements["a.html"] = PageElement("a.html", b"tampered")
        with pytest.raises(ReproError, match="does not match"):
            state.validate()

    def test_copy_is_independent(self, make_owner):
        owner = make_owner(elements={"a.html": b"x"})
        state = owner.publish(validity=60).state()
        clone = state.copy()
        clone.add_element(PageElement("b.html", b"y"))
        assert "b.html" not in state.elements


class TestInterfaceConformance:
    def test_replica_lr_satisfies_protocol(self, make_owner):
        owner = make_owner()
        lr = ReplicaLR(owner.publish(validity=60).state())
        assert isinstance(lr, GlobeDocInterface)
        assert lr.get_public_key() == owner.public_key
        assert lr.get_element("index.html").name == "index.html"
