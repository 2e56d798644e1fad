"""Object servers (§2.1.3, §4).

An object server hosts local representatives of GlobeDoc objects,
provides their contact points, and exposes a remotely accessible admin
interface for replica creation/destruction. Access control follows the
paper's model: the administrator configures a keystore listing the
public keys allowed to create replicas (document owners and peer object
servers, enabling dynamic replication), and each entity may manage only
the replicas it created.
"""

from repro.server.keystore import Keystore
from repro.server.localrep import ReplicaLR, ProxyLR
from repro.server.objectserver import ObjectServer, HostedReplica
from repro.server.admin import AdminClient, AdminCommand

__all__ = [
    "Keystore",
    "ReplicaLR",
    "ProxyLR",
    "ObjectServer",
    "HostedReplica",
    "AdminClient",
    "AdminCommand",
]
