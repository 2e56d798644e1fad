"""The distributed search tree underlying the Location Service.

Domains form a tree; leaves are *sites*. Each node keeps, per OID,
either a set of contact addresses (at a site) or the set of child
domains through which addresses are reachable (at interior nodes).
Inserting an address at a site therefore updates O(depth) nodes, and
deleting the last address in a subtree cleans the pointers back up —
the invariants the property tests exercise.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.errors import LocationError, ObjectNotFound
from repro.net.address import ContactAddress

__all__ = ["DomainNode", "DomainTree"]


@dataclass
class DomainNode:
    """One domain in the hierarchy."""

    name: str
    parent: Optional["DomainNode"] = None
    children: Dict[str, "DomainNode"] = field(default_factory=dict)
    #: site level: oid hex -> contact addresses
    addresses: Dict[str, Set[ContactAddress]] = field(default_factory=dict)
    #: interior level: oid hex -> names of children that lead to addresses
    pointers: Dict[str, Set[str]] = field(default_factory=dict)

    @property
    def is_site(self) -> bool:
        """Sites are the leaves where actual addresses live."""
        return not self.children

    @property
    def path(self) -> str:
        parts = []
        node: Optional[DomainNode] = self
        while node is not None:
            parts.append(node.name)
            node = node.parent
        return "/".join(reversed(parts))

    def record_count(self) -> int:
        return len(self.addresses) + len(self.pointers)


class DomainTree:
    """The full domain hierarchy with insert/delete/lookup operations.

    Build it from site paths (``"root/europe/nl-vu"``); every interior
    domain is created on demand. All operations count the nodes they
    touch so the harness can charge realistic lookup costs.
    """

    def __init__(self, root_name: str = "root") -> None:
        self.root = DomainNode(name=root_name)
        self._sites: Dict[str, DomainNode] = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    def add_site(self, path: str) -> DomainNode:
        """Ensure the domain chain for *path* exists; return the site node.

        *path* must start with the root domain name.
        """
        parts = [p for p in path.split("/") if p]
        if not parts or parts[0] != self.root.name:
            raise LocationError(
                f"site path must start with root {self.root.name!r}: {path!r}"
            )
        node = self.root
        for part in parts[1:]:
            nxt = node.children.get(part)
            if nxt is None:
                if node.addresses:
                    raise LocationError(
                        f"cannot grow tree below site {node.path!r} holding addresses"
                    )
                nxt = DomainNode(name=part, parent=node)
                node.children[part] = nxt
            node = nxt
        self._sites[node.path] = node
        return node

    def site(self, path: str) -> DomainNode:
        node = self._sites.get(path)
        if node is None:
            raise LocationError(f"unknown site {path!r}")
        return node

    @property
    def site_paths(self) -> List[str]:
        return sorted(self._sites)

    def depth_of(self, path: str) -> int:
        return len([p for p in path.split("/") if p]) - 1

    # ------------------------------------------------------------------
    # Record maintenance
    # ------------------------------------------------------------------

    def insert(self, oid_hex: str, site_path: str, address: ContactAddress) -> int:
        """Record *address* for *oid_hex* at *site_path*.

        Returns the number of tree nodes touched (the update cost).
        """
        site = self.site(site_path)
        site.addresses.setdefault(oid_hex, set()).add(address)
        touched = 1
        child, node = site, site.parent
        while node is not None:
            node.pointers.setdefault(oid_hex, set()).add(child.name)
            touched += 1
            child, node = node, node.parent
        return touched

    def delete(self, oid_hex: str, site_path: str, address: ContactAddress) -> int:
        """Remove one address; prune empty pointers up the chain."""
        site = self.site(site_path)
        addrs = site.addresses.get(oid_hex)
        if addrs is None or address not in addrs:
            raise ObjectNotFound(
                f"address {address} not recorded for {oid_hex[:12]}… at {site_path!r}"
            )
        addrs.discard(address)
        touched = 1
        if addrs:
            return touched
        del site.addresses[oid_hex]
        child, node = site, site.parent
        while node is not None:
            pointers = node.pointers.get(oid_hex)
            if pointers is None:
                break
            # Does the child still lead anywhere for this OID?
            if self._subtree_has(child, oid_hex):
                break
            pointers.discard(child.name)
            touched += 1
            if pointers:
                break
            del node.pointers[oid_hex]
            child, node = node, node.parent
        return touched

    def _subtree_has(self, node: DomainNode, oid_hex: str) -> bool:
        if node.is_site:
            return bool(node.addresses.get(oid_hex))
        return bool(node.pointers.get(oid_hex))

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------

    def lookup(self, oid_hex: str, origin_site: str) -> Tuple[List[ContactAddress], int]:
        """Expanding-ring search from *origin_site*.

        Starts at the origin site, then its region, then each higher
        domain up to the root; at the first level holding a record,
        follows pointers down to sites and collects addresses. Returns
        ``(addresses, nodes_visited)``; addresses found in the smallest
        enclosing domain come first (they are network-closest).
        """
        origin = self.site(origin_site)
        visited = 0
        excluded: Optional[DomainNode] = None
        node: Optional[DomainNode] = origin
        while node is not None:
            visited += 1
            found, down_visits = self._collect(node, oid_hex, excluded)
            visited += down_visits
            if found:
                return found, visited
            excluded, node = node, node.parent
        raise ObjectNotFound(f"no contact address for OID {oid_hex[:12]}…")

    def _collect(
        self,
        node: DomainNode,
        oid_hex: str,
        excluded: Optional[DomainNode],
    ) -> Tuple[List[ContactAddress], int]:
        """Gather all addresses under *node*, skipping the *excluded*
        child (already searched in the previous ring)."""
        if node.is_site:
            return sorted(node.addresses.get(oid_hex, ()), key=str), 0
        result: List[ContactAddress] = []
        visits = 0
        for child_name in sorted(node.pointers.get(oid_hex, ())):
            child = node.children.get(child_name)
            if child is None or child is excluded:
                continue
            visits += 1
            found, sub_visits = self._collect(child, oid_hex, None)
            visits += sub_visits
            result.extend(found)
        return result, visits

    def addresses_at(self, oid_hex: str, site_path: str) -> List[ContactAddress]:
        """Addresses recorded for *oid_hex* directly at *site_path*."""
        return sorted(self.site(site_path).addresses.get(oid_hex, ()), key=str)

    def all_addresses(self, oid_hex: str) -> List[ContactAddress]:
        """Every address recorded anywhere for *oid_hex*."""
        out: List[ContactAddress] = []
        for site in self._sites.values():
            out.extend(site.addresses.get(oid_hex, ()))
        return sorted(set(out), key=str)

    def total_records(self) -> int:
        """Total node-records in the tree (storage-cost metric)."""
        count = 0
        stack = [self.root]
        while stack:
            node = stack.pop()
            count += node.record_count()
            stack.extend(node.children.values())
        return count
