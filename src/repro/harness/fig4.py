"""Figure 4: security overhead (%) vs element size, per client site.

Methodology mirrors §4: single-element objects of 1 KB–1 MB, one
replica on the Amsterdam primary, accessed from the Amsterdam
secondary, Paris, and Ithaca; spans decompose each access into
security-specific operations (key fetch + OID check, certificate fetch
+ verify, element hash) and everything else (name resolution, location
lookup, element transfer, client processing). The paper averaged a 24 h
run at 6-minute intervals; we average ``repeats`` fresh accesses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.errors import ReproError
from repro.harness.experiment import Testbed
from repro.obs import RingBufferSink, Tracer
from repro.util.sizes import format_size
from repro.util.stats import summarize
from repro.workloads.generator import make_document_owner
from repro.workloads.sizes import FIG4_ELEMENT_SIZES, fig4_objects

__all__ = ["Fig4Row", "run_fig4", "CLIENT_HOSTS"]

#: Figure label → Table-1 host, matching the paper's three series.
CLIENT_HOSTS = {
    "Amsterdam": "sporty.cs.vu.nl",
    "Paris": "canardo.inria.fr",
    "Ithaca": "ensamble02.cornell.edu",
}


@dataclass(frozen=True)
class Fig4Row:
    """One point of Figure 4."""

    client: str
    size_bytes: int
    overhead_percent: float
    security_seconds: float
    total_seconds: float
    repeats: int

    @property
    def size_label(self) -> str:
        return format_size(self.size_bytes)


def run_fig4(
    repeats: int = 5,
    sizes: Optional[Sequence[int]] = None,
    clients: Optional[Dict[str, str]] = None,
    seed: int = 0,
) -> List[Fig4Row]:
    """Regenerate Figure 4's data. Returns one row per (client, size)."""
    if repeats < 1:
        raise ReproError("repeats must be at least 1")
    testbed = Testbed()
    sink = RingBufferSink()
    tracer = Tracer(clock=testbed.clock, sinks=(sink,))
    clients = dict(clients or CLIENT_HOSTS)
    wanted_sizes = set(sizes if sizes is not None else FIG4_ELEMENT_SIZES)

    specs = [s for s in fig4_objects() if s.elements[0][1] in wanted_sizes]
    published = {}
    for spec in specs:
        owner = make_document_owner(spec, seed=seed, clock=testbed.clock)
        published[spec.elements[0][1]] = testbed.publish(owner)

    rows: List[Fig4Row] = []
    for client_label, host_name in clients.items():
        for size in sorted(wanted_sizes):
            obj = published[size]
            overheads, totals, security = [], [], []
            for _ in range(repeats):
                # A fresh stack per access: the paper's wget runs were
                # independent accesses, each paying the full flow.
                stack = testbed.client_stack(host_name, tracer=tracer)
                response, metrics = testbed.measured_access(
                    stack.proxy, obj.url("image.png"), sink
                )
                if not response.ok:
                    raise ReproError(
                        f"fig4 access failed: {response.status} "
                        f"{response.security_failure}"
                    )
                overheads.append(metrics.overhead_percent)
                totals.append(metrics.total)
                security.append(metrics.security_time)
            rows.append(
                Fig4Row(
                    client=client_label,
                    size_bytes=size,
                    overhead_percent=summarize(overheads).mean,
                    security_seconds=summarize(security).mean,
                    total_seconds=summarize(totals).mean,
                    repeats=repeats,
                )
            )
    return rows


def rows_as_series(rows: List[Fig4Row]) -> Dict[str, List[Fig4Row]]:
    """Group rows by client, size-ascending — the figure's three curves."""
    series: Dict[str, List[Fig4Row]] = {}
    for row in rows:
        series.setdefault(row.client, []).append(row)
    for client_rows in series.values():
        client_rows.sort(key=lambda r: r.size_bytes)
    return series
