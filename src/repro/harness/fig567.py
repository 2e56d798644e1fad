"""Figures 5–7: GlobeDoc vs Apache-HTTP vs Apache-SSL retrieval times.

Three 11-element objects (15 KB / 105 KB / 1005 KB) hosted on the
Amsterdam primary three ways: as a GlobeDoc replica, as static files
behind plain HTTP, and behind an SSL channel. Each client (Amsterdam:
Fig. 5, Paris: Fig. 6, Ithaca: Fig. 7) downloads all 11 elements with
each scheme; we report the mean wall-clock per whole-object retrieval.

Scheme fidelity notes:

* GlobeDoc: one secure binding (key + certificate exchange, verified),
  then 11 element fetches each hash-checked — the proxy's real code
  path;
* HTTP: 11 independent GETs (wget, HTTP/1.0 era);
* SSL: 11 GETs each on a fresh connection → a full 2-round-trip
  handshake with a real RSA key exchange per element, plus record
  encryption/decryption on both ends.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from repro.baselines.plainhttp import PlainHttpClient
from repro.errors import ReproError
from repro.harness.experiment import Testbed
from repro.harness.fig4 import CLIENT_HOSTS
from repro.net.rpc import RpcClient
from repro.util.stats import summarize
from repro.workloads.generator import make_document_owner
from repro.workloads.sizes import ObjectSpec, fig567_objects

__all__ = ["Fig567Row", "run_fig567_for_client", "SCHEMES"]

SCHEMES = ("globedoc", "http", "ssl")

#: Paper figure number per client label.
FIGURE_OF_CLIENT = {"Amsterdam": 5, "Paris": 6, "Ithaca": 7}


@dataclass(frozen=True)
class Fig567Row:
    """One bar of Figures 5–7."""

    client: str
    object_label: str
    total_bytes: int
    scheme: str
    seconds: float
    repeats: int

    @property
    def figure(self) -> int:
        return FIGURE_OF_CLIENT.get(self.client, 0)


def _retrieve_globedoc(testbed: Testbed, host: str, published, spec: ObjectSpec) -> float:
    stack = testbed.client_stack(host)
    start = testbed.clock.now()
    testbed.charge_client_overhead()
    for element_name in spec.element_names:
        response = stack.proxy.handle(published.url(element_name))
        if not response.ok:
            raise ReproError(
                f"globedoc retrieval failed for {element_name!r}: {response.status}"
            )
    return testbed.clock.now() - start


def _retrieve_http(testbed: Testbed, host: str, published, spec: ObjectSpec) -> float:
    client = PlainHttpClient(
        RpcClient(testbed.network.transport_for(host)), testbed.http_server.endpoint
    )
    start = testbed.clock.now()
    testbed.charge_client_overhead()
    for element_name in spec.element_names:
        client.get(f"{published.name}/{element_name}")
    return testbed.clock.now() - start


def _retrieve_ssl(testbed: Testbed, host: str, published, spec: ObjectSpec) -> float:
    client = testbed.ssl_client(host)
    start = testbed.clock.now()
    testbed.charge_client_overhead()
    for element_name in spec.element_names:
        client.get(f"{published.name}/{element_name}", new_connection=True)
    return testbed.clock.now() - start


_RETRIEVERS = {
    "globedoc": _retrieve_globedoc,
    "http": _retrieve_http,
    "ssl": _retrieve_ssl,
}


def run_fig567_for_client(
    client_label: str,
    repeats: int = 3,
    schemes: Sequence[str] = SCHEMES,
    seed: int = 0,
) -> List[Fig567Row]:
    """One figure's data: every object × scheme for one client."""
    host = CLIENT_HOSTS.get(client_label)
    if host is None:
        raise ReproError(f"unknown client label {client_label!r}")
    testbed = Testbed()

    rows: List[Fig567Row] = []
    for spec in fig567_objects():
        published = testbed.publish(make_document_owner(spec, seed=seed, clock=testbed.clock))
        for scheme in schemes:
            retrieve = _RETRIEVERS.get(scheme)
            if retrieve is None:
                raise ReproError(f"unknown scheme {scheme!r}")
            samples = [
                retrieve(testbed, host, published, spec) for _ in range(repeats)
            ]
            rows.append(
                Fig567Row(
                    client=client_label,
                    object_label=spec.label,
                    total_bytes=spec.total_size,
                    scheme=scheme,
                    seconds=summarize(samples).mean,
                    repeats=repeats,
                )
            )
    return rows


