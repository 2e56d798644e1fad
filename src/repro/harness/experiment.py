"""Testbed wiring: the paper's §4 setup, ready to run.

One :class:`Testbed` is the composition root
(:class:`repro.deployment.Deployment`) placed on the simulated Table-1
WAN, plus what is the paper testbed's alone: the Apache-style and
Apache+SSL-style baseline servers beside the object server on
**ginger** (mirrored on every publish), verification CPU charged to the
host that spends it, and the Fig. 4 measured access. The figure
experiments, the design-choice comparisons, the gated benches, the
attack tests and the examples all run on it.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.baselines.plainhttp import StaticHttpServer
from repro.baselines.ssl_channel import SslClient, SslServer
from repro.deployment import ClientStack, Deployment, PublishedObject
from repro.globedoc.owner import DocumentOwner
from repro.net.rpc import RpcClient
from repro.net.simnet import SimNetwork
from repro.net.topology import WanTopology, paper_testbed
from repro.obs import RingBufferSink
from repro.proxy.clientproxy import ProxyResponse
from repro.proxy.metrics import AccessMetrics
from repro.sim.clock import SimClock

__all__ = ["Testbed", "ClientStack", "PublishedObject", "HOST_SITE"]

#: Site of each Table-1 host in the location-service domain tree.
HOST_SITE = {
    "ginger.cs.vu.nl": "root/europe/vu",
    "sporty.cs.vu.nl": "root/europe/vu",
    "canardo.inria.fr": "root/europe/inria",
    "ensamble02.cornell.edu": "root/us/cornell",
}

SERVICES_HOST = "ginger.cs.vu.nl"

#: Where document owners push from (the secondary VU host).
OWNER_HOST = "sporty.cs.vu.nl"


class Testbed(Deployment):
    """The §4 experimental setup on the simulated WAN."""

    __test__ = False  # not a pytest test class, despite the name

    def __init__(
        self,
        clock: Optional[SimClock] = None,
        start_time: float = 0.0,
        tracer=None,
        data_dir: Optional[str] = None,
        storage_sync: bool = True,
        zone_keys: Optional[Dict[str, object]] = None,
    ) -> None:
        self.topology: WanTopology = paper_testbed(
            clock if clock is not None else SimClock(start_time)
        )
        self.network: SimNetwork = self.topology.network
        super().__init__(
            self.topology.clock,
            self.network.register,
            self.network.transport_for,
            SERVICES_HOST,
            HOST_SITE,
            OWNER_HOST,
            tracer=tracer,
            data_dir=data_dir,
            storage_sync=storage_sync,
            zone_keys=zone_keys,
            clock_for=self.network.host,
            # Fig. 3's per-zone walk: one naming round trip per zone.
            fig3_walk=True,
        )
        # The Fig. 5–7 baselines, on the same host as the object server.
        self.http_server = StaticHttpServer(host=SERVICES_HOST)
        self.ssl_server = SslServer(
            host=SERVICES_HOST, clock=self.network.host(SERVICES_HOST)
        )
        for server in (self.http_server, self.ssl_server):
            self.network.register(server.endpoint, server.rpc_server().handle_frame)

    def publish(
        self,
        owner: DocumentOwner,
        validity: float = 24 * 3600.0,
        ttl: float = 3600.0,
        per_element_expiry=None,
    ) -> PublishedObject:
        """:meth:`Deployment.publish`, then mirror the elements onto the
        HTTP and SSL baseline servers (same bytes, same host) so the
        Fig. 5–7 comparison is apples-to-apples."""
        published = super().publish(owner, validity, ttl, per_element_expiry)
        for name, element in published.document.elements.items():
            path = f"{owner.name}/{name}"
            self.http_server.put_file(path, element.content)
            self.ssl_server.put_file(path, element.content)
        return published

    def ssl_client(self, host_name: str) -> SslClient:
        """An HTTPS client on *host_name* against the ginger SSL server."""
        rpc = RpcClient(self.network.transport_for(host_name))
        return SslClient(
            rpc, self.ssl_server.endpoint, clock=self.network.host(host_name)
        )

    def charge_client_overhead(self) -> float:
        """The fixed browser→proxy cost per access (non-security).

        Advances the clock; returns the seconds charged.
        """
        overhead = self.topology.client_overhead
        self.clock.advance(overhead)
        return overhead

    def measured_access(
        self, proxy, url: str, sink: RingBufferSink
    ) -> Tuple[ProxyResponse, AccessMetrics]:
        """One §4-style access and its Fig. 4 decomposition.

        *proxy* must come from a :meth:`client_stack` built with a
        ``tracer=`` that delivers to *sink*. The browser→proxy charge is
        emitted as a ``client_processing`` span next to the
        ``proxy.handle`` root, and the decomposition is derived from
        exactly the spans this access produced.
        """
        sink.clear()
        with proxy.tracer.span("client_processing"):
            self.charge_client_overhead()
        response = proxy.handle(url)
        return response, AccessMetrics.from_spans(sink.spans)
