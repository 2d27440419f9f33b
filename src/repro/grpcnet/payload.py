"""Payload copying for the RPC send boundary.

The simulated fabric passes request/response objects by reference — the
in-process stand-in for serialization. Instead of copying payloads at
every hop (client, balancer, server, replica fan-out), a payload is
deep-copied exactly once, at the boundary of the server that owns the
data (``Server(copy_responses=True)``); everywhere else the reference
travels untouched. ``Network(debug_freeze=True)`` verifies the
contract that makes this safe: handlers must never mutate a request
in place.

Payloads are JSON-shaped: dicts, lists and tuples are copied
structurally, everything else (scalars, ObjectIds, frozen value
objects) passes through by reference.
"""


def deep_copy_payload(value):
    """Structural copy of a JSON-shaped payload (dict/list recursion)."""
    if isinstance(value, dict):
        return {key: deep_copy_payload(item) for key, item in value.items()}
    if isinstance(value, list):
        return [deep_copy_payload(item) for item in value]
    if isinstance(value, tuple):
        return tuple(deep_copy_payload(item) for item in value)
    return value
