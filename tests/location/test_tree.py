"""The location domain tree: expanding rings, pointer maintenance."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import LocationError, ObjectNotFound
from repro.location.tree import DomainTree
from repro.net.address import ContactAddress, Endpoint


def addr(host: str, replica: str = "r") -> ContactAddress:
    return ContactAddress(
        endpoint=Endpoint(host=host, service="objectserver"), replica_id=replica
    )


@pytest.fixture
def tree():
    t = DomainTree()
    for site in (
        "root/europe/vu",
        "root/europe/inria",
        "root/us/cornell",
        "root/us/mit",
    ):
        t.add_site(site)
    return t


OID = "aa" * 20


class TestConstruction:
    def test_sites(self, tree):
        assert tree.site_paths == [
            "root/europe/inria",
            "root/europe/vu",
            "root/us/cornell",
            "root/us/mit",
        ]

    def test_wrong_root_rejected(self, tree):
        with pytest.raises(LocationError):
            tree.add_site("other/x")

    def test_unknown_site_rejected(self, tree):
        with pytest.raises(LocationError):
            tree.site("root/mars/base")

    def test_depth(self, tree):
        assert tree.depth_of("root/europe/vu") == 2
        assert tree.depth_of("root") == 0


class TestInsertLookup:
    def test_insert_touches_path_to_root(self, tree):
        touched = tree.insert(OID, "root/europe/vu", addr("ginger"))
        assert touched == 3  # site + europe + root

    def test_local_lookup_stops_at_site(self, tree):
        tree.insert(OID, "root/europe/vu", addr("ginger"))
        addresses, visited = tree.lookup(OID, "root/europe/vu")
        assert [a.host for a in addresses] == ["ginger"]
        assert visited == 1

    def test_regional_lookup(self, tree):
        tree.insert(OID, "root/europe/vu", addr("ginger"))
        addresses, visited = tree.lookup(OID, "root/europe/inria")
        assert [a.host for a in addresses] == ["ginger"]
        # inria site (miss), europe region, vu site.
        assert visited == 3

    def test_cross_region_lookup_goes_to_root(self, tree):
        tree.insert(OID, "root/europe/vu", addr("ginger"))
        addresses, visited = tree.lookup(OID, "root/us/cornell")
        assert [a.host for a in addresses] == ["ginger"]
        assert visited > 3

    def test_closest_replica_first(self, tree):
        tree.insert(OID, "root/europe/vu", addr("ginger"))
        tree.insert(OID, "root/us/cornell", addr("cornell-box"))
        addresses, _ = tree.lookup(OID, "root/us/mit")
        # The US replica is in the smaller enclosing ring for MIT.
        assert addresses[0].host == "cornell-box"

    def test_missing_object(self, tree):
        with pytest.raises(ObjectNotFound):
            tree.lookup(OID, "root/europe/vu")

    def test_multiple_addresses_per_site(self, tree):
        tree.insert(OID, "root/europe/vu", addr("ginger", "r1"))
        tree.insert(OID, "root/europe/vu", addr("ginger", "r2"))
        addresses, _ = tree.lookup(OID, "root/europe/vu")
        assert len(addresses) == 2


class TestDelete:
    def test_delete_prunes_pointers(self, tree):
        a = addr("ginger")
        tree.insert(OID, "root/europe/vu", a)
        tree.delete(OID, "root/europe/vu", a)
        with pytest.raises(ObjectNotFound):
            tree.lookup(OID, "root/europe/vu")
        assert tree.total_records() == 0

    def test_delete_keeps_other_sites(self, tree):
        a, b = addr("ginger"), addr("cornell-box")
        tree.insert(OID, "root/europe/vu", a)
        tree.insert(OID, "root/us/cornell", b)
        tree.delete(OID, "root/europe/vu", a)
        addresses, _ = tree.lookup(OID, "root/europe/vu")
        assert [x.host for x in addresses] == ["cornell-box"]

    def test_delete_one_of_two_at_site(self, tree):
        a1, a2 = addr("ginger", "r1"), addr("ginger", "r2")
        tree.insert(OID, "root/europe/vu", a1)
        tree.insert(OID, "root/europe/vu", a2)
        tree.delete(OID, "root/europe/vu", a1)
        addresses, _ = tree.lookup(OID, "root/europe/vu")
        assert len(addresses) == 1

    def test_delete_missing_rejected(self, tree):
        with pytest.raises(ObjectNotFound):
            tree.delete(OID, "root/europe/vu", addr("ghost"))

    def test_move(self, tree):
        """A migration is a delete then an insert."""
        a = addr("roaming")
        tree.insert(OID, "root/europe/vu", a)
        tree.delete(OID, "root/europe/vu", a)
        tree.insert(OID, "root/us/mit", a)
        assert tree.addresses_at(OID, "root/europe/vu") == []
        assert [x.host for x in tree.addresses_at(OID, "root/us/mit")] == ["roaming"]


class TestInvariants:
    """Property: after arbitrary insert/delete sequences, every recorded
    address is findable from every site, and pointer state is exactly
    consistent with address placement."""

    @given(
        st.lists(
            st.tuples(
                st.booleans(),  # True = insert, False = delete
                st.integers(min_value=0, max_value=3),  # site index
                st.integers(min_value=0, max_value=2),  # replica id
            ),
            max_size=30,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_lookup_finds_all_or_raises(self, ops):
        tree = DomainTree()
        sites = [
            "root/europe/vu",
            "root/europe/inria",
            "root/us/cornell",
            "root/us/mit",
        ]
        for s in sites:
            tree.add_site(s)
        placed = set()
        for is_insert, site_idx, rid in ops:
            site = sites[site_idx]
            a = addr(f"host{site_idx}", f"r{rid}")
            key = (site, a)
            if is_insert:
                if key not in placed:
                    tree.insert(OID, site, a)
                    placed.add(key)
            elif key in placed:
                tree.delete(OID, site, a)
                placed.discard(key)
        expected = {a for (_, a) in placed}
        for origin in sites:
            if expected:
                found, _ = tree.lookup(OID, origin)
                assert set(tree.all_addresses(OID)) == expected
                assert set(found) <= expected
                assert found  # something is always found when placed
            else:
                with pytest.raises(ObjectNotFound):
                    tree.lookup(OID, origin)
                assert tree.total_records() == 0
