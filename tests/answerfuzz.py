"""Strategies for fuzzing an untrusted service's answers: JSON-shaped
values of any form, mutations of a genuine answer (a field dropped,
retyped or replaced at any depth), and mutations of one of its signed
records' ``signed`` bytes (flipped, cut short, retyped, or re-encoded
without a field the payload needs, never re-signed)."""

from __future__ import annotations

import copy
import os

from hypothesis import settings
from hypothesis import strategies as st

from repro.util.encoding import canonical_bytes, from_canonical_bytes

# Small inside tier-1; a requested profile (conftest's ``deep``) governs.
budget = (
    settings(deadline=None)
    if "HYPOTHESIS_PROFILE" in os.environ
    else settings(max_examples=40, deadline=None)
)

# No key near a frame's reserved ones (``__b64__``, ``__att__``): the
# stub could not send the answer at all.
_keys = st.text(max_size=8).filter(lambda k: "__" not in k)
_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**40), max_value=2**40),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=8),
    st.binary(max_size=16),
)
#: Any value a frame carries.
json_values = st.recursive(
    _scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4), st.dictionaries(_keys, inner, max_size=4)
    ),
    max_leaves=12,
)


def _retyped(value):
    """A value of another type carrying the same information, roughly."""
    if isinstance(value, dict):
        return list(value.values())
    if isinstance(value, list):
        return {str(i): item for i, item in enumerate(value)}
    if isinstance(value, bytes):
        return value.hex()
    if isinstance(value, str):
        return value.encode()
    if isinstance(value, bool) or value is None:
        return int(bool(value))
    return str(value)


@st.composite
def mutation(draw, genuine):
    """*genuine* with one field dropped, retyped or replaced, at any depth."""
    answer = copy.deepcopy(genuine)
    holder, key = None, None
    node = answer
    while isinstance(node, (dict, list)) and node:
        keys = sorted(node) if isinstance(node, dict) else list(range(len(node)))
        holder, key = node, draw(st.sampled_from(keys))
        node = node[key]
        if draw(st.booleans()):
            break
    if holder is None:
        return draw(json_values)
    how = draw(st.sampled_from(["drop", "retype", "replace"]))
    if how == "drop":
        del holder[key]
    elif how == "retype":
        holder[key] = _retyped(holder[key])
    else:
        holder[key] = draw(json_values)
    return answer


def _signed_holders(node):
    """Every mapping in *node* that carries a ``signed`` bytes leaf."""
    if isinstance(node, dict):
        if isinstance(node.get("signed"), bytes):
            yield node
        children = node.values()
    elif isinstance(node, list):
        children = node
    else:
        return
    for child in children:
        yield from _signed_holders(child)


def _without(signed: bytes, field: str) -> bytes:
    payload = from_canonical_bytes(signed)
    payload.pop(field, None)
    return canonical_bytes(payload)


@st.composite
def signed_mutation(draw, genuine):
    """*genuine* with one signed record's ``signed`` bytes attacked."""
    answer = copy.deepcopy(genuine)
    holder = draw(st.sampled_from(list(_signed_holders(answer))))
    signed = holder["signed"]
    how = draw(st.sampled_from(["flip", "truncate", "retype", "no_type", "no_body"]))
    if how == "flip":
        at = draw(st.integers(0, len(signed) - 1))
        bit = draw(st.integers(0, 7))
        holder["signed"] = signed[:at] + bytes([signed[at] ^ (1 << bit)]) + signed[at + 1 :]
    elif how == "truncate":
        holder["signed"] = signed[: draw(st.integers(0, len(signed) - 1))]
    elif how == "retype":
        not_bytes = json_values.filter(lambda value: not isinstance(value, bytes))
        holder["signed"] = draw(st.one_of(not_bytes, st.just(signed.decode("ascii"))))
    else:
        holder["signed"] = _without(signed, how[len("no_"):])
    return answer
