"""GlobeDoc — securely replicated Web documents.

A from-scratch Python reproduction of *"Securely Replicated Web
Documents"* (Popescu, Sacha, van Steen, Crispo, Tanenbaum, Kuz — Vrije
Universiteit Amsterdam, IPPS 2005): a Web-document object model that
combines data content, replication strategy, and security policy in one
distributed shared object, guaranteeing document integrity and secure
naming even when replicas live on untrusted hosts.

Quick tour (see ``examples/quickstart.py`` for the runnable version)::

    from repro.globedoc import DocumentOwner, PageElement
    from repro.harness import Testbed

    testbed = Testbed()         # repro.deployment on the paper's 4-host WAN
    owner = DocumentOwner("vu.nl/research")   # keys generated here
    owner.put_element(PageElement("index.html", b"<html>...</html>"))
    published = testbed.publish(owner)        # sign, place, register

    stack = testbed.client_stack("canardo.inria.fr")   # Paris client
    response = stack.proxy.handle(published.url("index.html"))
    assert response.ok                        # verified end to end

Package map:

=================  ====================================================
``repro.crypto``   keys, hashes, signatures, CAs, Merkle trees
``repro.globedoc`` the object model: elements, OIDs, integrity certs
``repro.naming``   DNSsec-style secure name service (name → OID)
``repro.location`` Globe location service (OID → contact addresses)
``repro.server``   object servers hosting replicas, admin + keystore
``repro.proxy``    the client proxy and its security pipeline
``repro.replication`` per-document strategies and the placement coordinator
``repro.baselines``   Apache/SSL/Gemini comparators
``repro.attacks``  adversaries: tampering, replay, swap, lying services
``repro.deployment`` the composition root: wires the stack, any transport
``repro.net``      RPC + simulated WAN + real TCP transports
``repro.sim``      clocks, seeded randomness
``repro.workloads`` the paper's objects, synthetic sites, traces
``repro.harness``  regenerates every table and figure of the paper
=================  ====================================================
"""

from repro.errors import (
    ReproError,
    SecurityError,
    AuthenticityError,
    FreshnessError,
    ConsistencyError,
)
from repro.globedoc import (
    DocumentOwner,
    PageElement,
    ObjectId,
    IntegrityCertificate,
    HybridUrl,
)
from repro.crypto import KeyPair, CertificateAuthority, TrustStore

__version__ = "1.0.0"

__all__ = [
    "ReproError",
    "SecurityError",
    "AuthenticityError",
    "FreshnessError",
    "ConsistencyError",
    "DocumentOwner",
    "PageElement",
    "ObjectId",
    "IntegrityCertificate",
    "HybridUrl",
    "KeyPair",
    "CertificateAuthority",
    "TrustStore",
    "__version__",
]
