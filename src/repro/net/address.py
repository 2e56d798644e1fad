"""Contact addresses (§2.1.2).

The Globe Location Service maps OIDs onto *contact addresses* — where
and how to contact a GlobeDoc replica. An address names a host, an
endpoint on that host (an object server may host many replicas), and the
protocol spoken there. Addresses carry **no security**: they come from
an untrusted service and are only ever used to fetch data that is then
verified against the self-certifying OID.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping

from repro.errors import ReproError

__all__ = ["ContactAddress", "Endpoint"]


@dataclass(frozen=True)
class Endpoint:
    """A named service endpoint on a host (e.g. ``"objectserver"``)."""

    host: str
    service: str

    def __post_init__(self) -> None:
        if not self.host or not self.service:
            raise ReproError("endpoint host and service must be non-empty")

    def __str__(self) -> str:
        return f"{self.host}/{self.service}"


@dataclass(frozen=True)
class ContactAddress:
    """Where and how to contact a GlobeDoc replica.

    ``protocol`` names what is spoken at the endpoint; everything this
    code base registers is a full replica (``globedoc/replica``), where
    clients bind.
    """

    endpoint: Endpoint
    protocol: str = "globedoc/replica"
    replica_id: str = ""

    @property
    def host(self) -> str:
        return self.endpoint.host

    def to_dict(self) -> dict:
        return {
            "host": self.endpoint.host,
            "service": self.endpoint.service,
            "protocol": self.protocol,
            "replica_id": self.replica_id,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ContactAddress":
        try:
            return cls(
                endpoint=Endpoint(host=str(data["host"]), service=str(data["service"])),
                protocol=str(data.get("protocol", "globedoc/replica")),
                replica_id=str(data.get("replica_id", "")),
            )
        except KeyError as exc:
            raise ReproError(f"malformed contact address: missing {exc}") from exc

    def __str__(self) -> str:
        suffix = f"#{self.replica_id}" if self.replica_id else ""
        return f"{self.protocol}://{self.endpoint}{suffix}"
