"""Deterministic content hashing used for the block hash chain.

Blocks, transactions and messages in this library are plain Python objects
(dataclasses, tuples, dicts, strings, numbers).  :func:`content_hash`
canonicalises such an object into a byte string and hashes it with SHA-256, so
two structurally equal objects always hash identically regardless of dict
insertion order.
"""

from __future__ import annotations

import hashlib
from typing import Any, Iterable

GENESIS_HASH = "0" * 64


#: Memoised encodings of recurring strings (dict keys, node ids, message
#: kinds, record keys).  Bounded so pathological workloads with unbounded
#: distinct strings cannot grow it without limit; once full, new strings are
#: encoded without being cached.
_STR_CACHE: dict = {}
_STR_CACHE_MAX = 1 << 16


def _encode_str(value: str) -> bytes:
    cached = _STR_CACHE.get(value)
    if cached is None:
        encoded = value.encode("utf-8")
        cached = b"s%d:" % len(encoded) + encoded
        if len(_STR_CACHE) < _STR_CACHE_MAX:
            _STR_CACHE[value] = cached
    return cached


def _write_str(value: str, out: bytearray) -> None:
    out += _encode_str(value)


def _write_int(value: int, out: bytearray) -> None:
    out += b"i%d" % value


def _write_float(value: float, out: bytearray) -> None:
    out += b"f"
    out += repr(value).encode()


def _write_bool(value: bool, out: bytearray) -> None:
    out += b"T" if value else b"F"


def _write_none(value: None, out: bytearray) -> None:
    out += b"N"


def _write_bytes(value: bytes, out: bytearray) -> None:
    out += b"b%d:" % len(value)
    out += value


def _write_sequence(value: Any, out: bytearray) -> None:
    out += b"l%d:" % len(value)
    for item in value:
        _write(item, out)


def _write_set(value: Any, out: bytearray) -> None:
    # Sorting the encodings directly orders elements exactly as sorting the
    # elements by their encodings did.
    ordered = sorted(_canonical_bytes(v) for v in value)
    out += b"el%d:" % len(ordered)
    for encoded in ordered:
        out += encoded


def _key_bytes(key: Any) -> bytes:
    if type(key) is str:
        return _encode_str(key)
    return _canonical_bytes(key)


def _write_dict(value: dict, out: bytearray) -> None:
    encoded = [(_key_bytes(k), v) for k, v in value.items()]
    encoded.sort(key=lambda kv: kv[0])
    out += b"d%d:" % len(encoded)
    for key_bytes, item in encoded:
        out += key_bytes
        _write(item, out)


#: Exact-type dispatch for the hot serialisation path; subclasses (e.g.
#: ``str``-backed enums such as ``ConflictType``) fall through to
#: :func:`_write_slow`, which replicates the original ``isinstance`` chain
#: byte-for-byte.
_WRITERS = {
    str: _write_str,
    int: _write_int,
    float: _write_float,
    bool: _write_bool,
    type(None): _write_none,
    bytes: _write_bytes,
    list: _write_sequence,
    tuple: _write_sequence,
    set: _write_set,
    frozenset: _write_set,
    dict: _write_dict,
}


def _write_slow(value: Any, out: bytearray) -> None:
    """Encode values missed by exact-type dispatch (subclasses, protocols)."""
    if value is None:
        out += b"N"
    elif isinstance(value, bool):
        out += b"T" if value else b"F"
    elif isinstance(value, int):
        out += b"i%d" % value
    elif isinstance(value, float):
        out += b"f"
        out += repr(value).encode()
    elif isinstance(value, str):
        _write_str(value, out)
    elif isinstance(value, bytes):
        _write_bytes(value, out)
    else:
        cached = getattr(value, "canonical_bytes", None)
        if cached is not None:
            out += cached()
        elif hasattr(value, "canonical_tuple"):
            out += b"o"
            _write(value.canonical_tuple(), out)
        elif isinstance(value, (list, tuple)):
            _write_sequence(value, out)
        elif isinstance(value, (set, frozenset)):
            _write_set(value, out)
        elif isinstance(value, dict):
            _write_dict(value, out)
        else:
            raise TypeError(
                f"cannot canonically hash value of type {type(value).__name__}"
            )


def _write(value: Any, out: bytearray) -> None:
    writer = _WRITERS.get(type(value))
    if writer is not None:
        writer(value, out)
    else:
        _write_slow(value, out)


def _canonical_bytes(value: Any) -> bytes:
    """Serialise ``value`` into a canonical byte string.

    Supported values: ``None``, bools, ints, floats, strings, bytes, and
    (arbitrarily nested) lists/tuples, sets/frozensets and dicts of supported
    values.  Objects exposing a ``canonical_tuple()`` method (transactions,
    blocks) are serialised through it; immutable objects that additionally
    expose ``canonical_bytes()`` (returning their complete canonical
    encoding, typically memoised) short-circuit the recursion — that is how
    a transaction's encoding is computed once and reused by the Merkle leaf,
    the block hash, signatures and COMMIT matching.

    Internally this writes into a single ``bytearray`` accumulator (no
    intermediate ``bytes`` concatenation) with exact-type dispatch; the
    output encoding is unchanged.
    """
    out = bytearray()
    _write(value, out)
    return bytes(out)


def canonical_bytes(value: Any) -> bytes:
    """The canonical encoding of ``value`` (what :func:`content_hash` hashes).

    Objects can memoise this (see ``Transaction.canonical_bytes``) so the
    encoding of an immutable object is computed once, no matter how many
    hashes, signatures or Merkle leaves reference it.
    """
    return _canonical_bytes(value)


def encode_object_tuple(value: tuple) -> bytes:
    """Encode an object's ``canonical_tuple()`` with the object tag.

    Helper for classes implementing the ``canonical_bytes()`` memoisation
    protocol: the result is byte-identical to what :func:`canonical_bytes`
    would derive from the object via ``canonical_tuple()``.
    """
    return b"o" + _canonical_bytes(value)


def content_hash(value: Any) -> str:
    """Return the hex SHA-256 hash of the canonical encoding of ``value``."""
    return hashlib.sha256(_canonical_bytes(value)).hexdigest()


def hash_pair(left: str, right: str) -> str:
    """Hash two hex digests together (used by Merkle trees and the chain)."""
    return hashlib.sha256((left + right).encode("ascii")).hexdigest()


def hash_chain(previous_hash: str, value: Any) -> str:
    """Chain ``value`` onto ``previous_hash`` — the ledger's append operation."""
    return hash_pair(previous_hash, content_hash(value))


def combined_hash(values: Iterable[Any]) -> str:
    """Hash an iterable of values in order into a single digest."""
    running = GENESIS_HASH
    for value in values:
        running = hash_chain(running, value)
    return running
