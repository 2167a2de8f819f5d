"""Deterministic uniform hashing of join-attribute values into [0, 1].

Correlated sampling keeps a tuple when ``h(t[J]) <= p`` where ``h`` maps the
join-attribute value uniformly into ``[0, 1]``.  The hash must be deterministic
across instances (so matching join values survive together) and independent of
Python's per-process hash randomisation, so we use blake2b over a canonical
string encoding of the value, parameterised by a seed that selects the hash
family.
"""

from __future__ import annotations

import hashlib
import struct
from typing import Iterable

_MAX_64 = float(2**64 - 1)


def _canonical_bytes(value: object) -> bytes:
    """A canonical byte encoding: equal values encode equally across instances."""
    if value is None:
        return b"\x00none"
    if isinstance(value, bool):
        # True == 1 and False == 0 join (dict equality), so they hash as ints.
        return b"\x02int:" + (b"1" if value else b"0")
    if isinstance(value, int):
        return b"\x02int:" + str(value).encode()
    if isinstance(value, float):
        if value.is_integer():
            # 3.0 and 3 must hash identically or cross-typed join keys diverge.
            return b"\x02int:" + str(int(value)).encode()
        return b"\x03float:" + struct.pack(">d", value)
    if isinstance(value, str):
        return b"\x04str:" + value.encode("utf-8")
    if isinstance(value, tuple):
        parts = [b"\x05tuple:"]
        for item in value:
            encoded = _canonical_bytes(item)
            parts.append(struct.pack(">I", len(encoded)))
            parts.append(encoded)
        return b"".join(parts)
    return b"\x06repr:" + repr(value).encode("utf-8")


def uniform_hash(value: object, seed: int = 0) -> float:
    """Hash ``value`` uniformly into ``[0, 1]`` with a seed-selected hash family."""
    digest = hashlib.blake2b(
        _canonical_bytes(value), digest_size=8, key=seed.to_bytes(8, "big", signed=False)
    ).digest()
    return int.from_bytes(digest, "big") / _MAX_64


def uniform_hashes(values: Iterable[object], seed: int = 0) -> list[float]:
    """Vector form of :func:`uniform_hash`."""
    return [uniform_hash(value, seed) for value in values]
