"""A naming service that serves one fixed answer — genuine, forged or
malformed — in both shapes a :class:`~repro.naming.service.SecureResolver`
asks for: whole (``naming.resolve``) and one zone per query
(``naming.resolve_step``)."""

from __future__ import annotations

from repro.naming.service import SecureResolver
from repro.net.address import Endpoint
from repro.net.rpc import RpcClient, RpcServer, rpc_method
from repro.net.transport import LoopbackTransport

NAMING = Endpoint(host="ns", service="naming")


class StubNameService:
    """Answers every query for any name with *answer*, as it stands."""

    def __init__(self, answer) -> None:
        self.answer = answer

    @rpc_method("naming.resolve")
    def resolve(self, name: str):
        return self.answer

    @rpc_method("naming.resolve_step")
    def resolve_step(self, name: str, zone_path: str):
        """The answer cut into steps: from zone ``str(i)`` (the root is
        ``""``) the i-th link of its chain and the next zone ``str(i + 1)``,
        past the last link the record. An answer that cannot be cut is
        served whole, as a step."""
        answer = self.answer
        if not (
            isinstance(answer, dict)
            and isinstance(answer.get("chain"), list)
            and "record" in answer
        ):
            return answer
        index = int(zone_path or 0)
        if index < len(answer["chain"]):
            return {"delegation": answer["chain"][index], "next_zone": str(index + 1)}
        return {"record": answer["record"]}

    def rpc_server(self) -> RpcServer:
        server = RpcServer(name="naming")
        server.register_object(self)
        return server


def stub_resolver(answer, anchor, clock, iterative: bool) -> SecureResolver:
    """A resolver anchored at *anchor* whose naming service is a stub
    serving *answer*."""
    transport = LoopbackTransport()
    transport.register(NAMING, StubNameService(answer).rpc_server().handle_frame)
    return SecureResolver(RpcClient(transport), NAMING, anchor, clock=clock, iterative=iterative)
