"""Seeded property-style round-trips for the canonical encoder.

~200 random documents per seed: decode(encode(x)) must equal x, the
canonical bytes must be identical regardless of dict insertion order,
and digests over the canonical form must be stable — the properties the
whole signature scheme rests on (§3.2.2 signs canonical bytes).
"""

from __future__ import annotations

import hashlib

import pytest

from repro.sim.random import make_rng
from repro.util.encoding import (
    canonical_bytes,
    canonical_json,
    from_canonical_bytes,
    from_wire,
    to_wire,
)

SEEDS = [0, 1, 7]
DOCS_PER_SEED = 200

#: A script-diverse alphabet so string escaping is exercised beyond ASCII.
ALPHABET = "abc XYZ 012 _-/.\"\\\n\t é ß λ Ж 漢 🙂"


def random_string(rng, max_len: int = 12) -> str:
    length = int(rng.integers(0, max_len))
    return "".join(
        ALPHABET[int(i)] for i in rng.integers(0, len(ALPHABET), size=length)
    )


def random_value(rng, depth: int = 0):
    """A random JSON-able document (bytes included via the tagged form)."""
    kinds = ["none", "bool", "int", "float", "str", "bytes"]
    if depth < 3:
        kinds += ["list", "dict"]
    kind = kinds[int(rng.integers(0, len(kinds)))]
    if kind == "none":
        return None
    if kind == "bool":
        return bool(rng.integers(0, 2))
    if kind == "int":
        return int(rng.integers(-(2**48), 2**48))
    if kind == "float":
        return float(rng.normal()) * 10 ** int(rng.integers(-6, 7))
    if kind == "str":
        return random_string(rng)
    if kind == "bytes":
        return bytes(rng.integers(0, 256, size=int(rng.integers(0, 16))).tolist())
    if kind == "list":
        return [random_value(rng, depth + 1) for _ in range(int(rng.integers(0, 5)))]
    keys = []
    for _ in range(int(rng.integers(0, 5))):
        key = random_string(rng) or "k"
        if key not in keys:  # dedup without set-iteration (hash-seed) order
            keys.append(key)
    return {key: random_value(rng, depth + 1) for key in keys}


def reordered(value, rng):
    """The same document with every dict's insertion order shuffled."""
    if isinstance(value, dict):
        keys = list(value)
        rng.shuffle(keys)
        return {key: reordered(value[key], rng) for key in keys}
    if isinstance(value, list):
        return [reordered(item, rng) for item in value]
    return value


@pytest.mark.parametrize("seed", SEEDS)
class TestCanonicalRoundTrip:
    def test_decode_encode_identity(self, seed):
        rng = make_rng(seed)
        for _ in range(DOCS_PER_SEED):
            value = random_value(rng)
            assert from_canonical_bytes(canonical_bytes(value)) == value

    def test_wire_roundtrip_matches_canonical(self, seed):
        rng = make_rng(seed)
        for _ in range(DOCS_PER_SEED):
            value = random_value(rng)
            assert from_wire(to_wire(value)) == value

    def test_insertion_order_invariance(self, seed):
        rng = make_rng(seed)
        for _ in range(DOCS_PER_SEED):
            value = random_value(rng)
            shuffled = reordered(value, rng)
            assert shuffled == value  # semantic equality…
            assert canonical_bytes(shuffled) == canonical_bytes(value)  # …and byte

    def test_frame_is_idempotent(self, seed):
        """The admin signature digests the frame of the args, and the
        server re-frames the args it decoded: a decoded frame, or the same
        value in another insertion order, must frame to the same bytes."""
        rng = make_rng(seed)
        for _ in range(DOCS_PER_SEED):
            value = random_value(rng)
            frame = to_wire(value)
            assert to_wire(from_wire(frame)) == frame
            assert to_wire(reordered(value, rng)) == frame

    def test_digest_stability_within_run(self, seed):
        """Hashing the canonical form twice gives the same digest — the
        signature-verification precondition."""
        rng = make_rng(seed)
        for _ in range(DOCS_PER_SEED):
            value = random_value(rng)
            first = hashlib.sha1(canonical_bytes(value)).hexdigest()
            again = hashlib.sha1(canonical_bytes(reordered(value, rng))).hexdigest()
            assert first == again


#: Values at the edges of what a frame carries: signed zero, the
#: smallest subnormal and a huge float, ints beyond 2**53, non-ASCII keys,
#: empty containers, and bytes-like leaves that decode as ``bytes``.
EDGE_VALUES = {
    "negative_zero": -0.0,
    "smallest_subnormal": 5e-324,
    "huge_float": 1e308,
    "int_2_62": 2**62,
    "int_minus_2_62": -(2**62),
    "non_ascii_keys": {"ключ": 1, "漢字": [2], "é": {"🙂": None}},
    "empty_dict": {},
    "empty_list": [],
    "empty_str": "",
    "empty_bytes": b"",
    "nested_empties": {"a": {}, "b": [], "c": [[]], "d": [{}]},
    "bytearray": bytearray(b"\x00\xffab"),
    "memoryview": memoryview(b"\x00\xffcd"),
    "mixed_leaves": {"ba": bytearray(b"x"), "mv": memoryview(b"yz"), "b": b"", "n": [-0.0, 5e-324]},
}


@pytest.mark.parametrize("name", EDGE_VALUES)
def test_edge_value_frame_is_idempotent(name):
    value = EDGE_VALUES[name]
    frame = to_wire(value)
    assert to_wire(from_wire(frame)) == frame
    assert to_wire(reordered(value, make_rng(0))) == frame


class TestCorpusDigest:
    """A golden digest over the whole seed-0 corpus: any change to the
    canonical encoding (key order, float formatting, bytes tagging,
    separators) breaks every existing signature in the world, so it must
    show up as a loud test failure, not a silent drift."""

    GOLDEN = "3d5292677bf921673f98d839ad9a14e82d13191fcd95a4f2664a2aad2a084338"

    def corpus_digest(self) -> str:
        rng = make_rng(0)
        h = hashlib.sha256()
        for _ in range(DOCS_PER_SEED):
            h.update(canonical_bytes(random_value(rng)))
        return h.hexdigest()

    def test_corpus_digest_pinned(self):
        assert self.corpus_digest() == self.GOLDEN

    def test_corpus_generation_deterministic(self):
        assert self.corpus_digest() == self.corpus_digest()


class TestCanonicalJson:
    def test_sorted_keys_and_compact(self):
        assert canonical_json({"b": 1, "a": [True, None]}) == '{"a":[true,null],"b":1}'

    def test_bytes_tagged(self):
        encoded = canonical_json({"blob": b"\x00\x01"})
        assert "__b64__" in encoded
        assert from_canonical_bytes(encoded.encode()) == {"blob": b"\x00\x01"}
