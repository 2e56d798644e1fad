"""Seeded round-trips for RPC wire messages.

~200 random requests/responses per seed must survive
``from_bytes(to_bytes(x)) == x`` bit-exactly, and the encoded frame must
be independent of argument insertion order — the property that makes the
simulator's transfer-size accounting (and anything that signs or hashes
frames) deterministic.
"""

from __future__ import annotations

import pytest

from repro.net.message import Request, Response
from repro.sim.random import make_rng

SEEDS = [0, 3]
MESSAGES_PER_SEED = 200

OPS = ("globedoc.get_element", "naming.resolve", "location.lookup", "admin.execute")


def random_scalar(rng):
    kind = int(rng.integers(0, 5))
    if kind == 0:
        return int(rng.integers(-(2**40), 2**40))
    if kind == 1:
        return float(rng.normal())
    if kind == 2:
        return bool(rng.integers(0, 2))
    if kind == 3:
        return bytes(rng.integers(0, 256, size=int(rng.integers(0, 24))).tolist())
    return "arg-" + str(int(rng.integers(0, 10**9)))


def random_args(rng) -> dict:
    names = ["replica_id", "name", "oid", "origin_site", "payload", "n"]
    count = int(rng.integers(0, len(names) + 1))
    picked = list(rng.choice(names, size=count, replace=False))
    return {str(name): random_scalar(rng) for name in picked}


def random_request(rng) -> Request:
    return Request(op=OPS[int(rng.integers(0, len(OPS)))], args=random_args(rng))


def random_response(rng) -> Response:
    if rng.integers(0, 2):
        return Response.success(random_args(rng) or random_scalar(rng))
    return Response.failure(ValueError("err-" + str(int(rng.integers(0, 10**6)))))


@pytest.mark.parametrize("seed", SEEDS)
class TestMessageRoundTrip:
    def test_request_roundtrip(self, seed):
        rng = make_rng(seed)
        for _ in range(MESSAGES_PER_SEED):
            request = random_request(rng)
            decoded = Request.from_bytes(request.to_bytes())
            assert decoded.op == request.op
            assert dict(decoded.args) == dict(request.args)

    def test_response_roundtrip(self, seed):
        rng = make_rng(seed)
        for _ in range(MESSAGES_PER_SEED):
            response = random_response(rng)
            decoded = Response.from_bytes(response.to_bytes())
            assert decoded == response

    def test_request_bytes_order_independent(self, seed):
        rng = make_rng(seed)
        for _ in range(MESSAGES_PER_SEED):
            request = random_request(rng)
            reversed_args = dict(reversed(list(request.args.items())))
            twin = Request(op=request.op, args=reversed_args)
            assert twin.to_bytes() == request.to_bytes()

    def test_encoding_deterministic(self, seed):
        rng = make_rng(seed)
        for _ in range(MESSAGES_PER_SEED // 4):
            request = random_request(rng)
            assert request.to_bytes() == request.to_bytes()


class TestMessageEdgeCases:
    def test_failure_response_carries_error_type(self):
        response = Response.from_bytes(
            Response.failure(KeyError("missing")).to_bytes()
        )
        assert not response.ok
        assert response.error_type == "KeyError"

    def test_empty_args_request(self):
        request = Request(op="revocation.fetch")
        decoded = Request.from_bytes(request.to_bytes())
        assert decoded.op == "revocation.fetch"
        assert dict(decoded.args) == {}
