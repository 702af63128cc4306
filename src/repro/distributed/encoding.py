"""Message-size estimation for CONGEST bandwidth accounting.

The CONGEST model allows O(log n) bits per edge per round.  Simulated
messages are ordinary Python objects; this module estimates how many bits a
reasonable binary encoding of such an object would need, so that the
simulator can (a) report total communication and (b) flag algorithms whose
messages exceed the CONGEST budget.

The estimate is intentionally simple and deterministic:

* ``None`` / booleans: 1 bit
* integers: ``bit_length`` (at least 1), plus a sign bit
* floats: 64 bits
* strings / bytes: 8 bits per character or byte
* tuples, lists, sets, frozensets, dicts: sum of the elements plus a small
  per-element framing overhead (2 bits) to account for delimiters.

These conventions are stable across runs and platforms, which is all the
benchmarks need.
"""

from __future__ import annotations

import hashlib
import struct
from collections.abc import Mapping, Sequence, Set
from fractions import Fraction

_FRAMING_BITS = 2


def estimate_bits(payload: object) -> int:
    """Estimated number of bits needed to encode ``payload``."""
    # Exact-type fast path for the payload shapes programs actually send.
    # Subclasses (``bool``, ``IntEnum``, ``OrderedDict``, named tuples) miss
    # it and take the generic chain below, which gives the same values.
    cls = type(payload)
    if cls is int:
        return max(1, payload.bit_length()) + 1
    if cls is str:
        return max(1, 8 * len(payload))
    if cls is dict:
        total = _FRAMING_BITS
        for key, value in payload.items():
            total += _FRAMING_BITS + estimate_bits(key) + estimate_bits(value)
        return total
    if cls is list or cls is tuple:
        # Exact-int items and exact-int pairs (vertex labels, edges) are
        # sized inline: the same sums the recursive calls would return.
        total = _FRAMING_BITS
        for item in payload:
            icls = type(item)
            if icls is int:
                total += _INT_ITEM_BITS + max(1, item.bit_length())
            elif (
                icls is tuple
                and len(item) == 2
                and type(item[0]) is int
                and type(item[1]) is int
            ):
                total += (
                    _PAIR_ITEM_BITS
                    + max(1, item[0].bit_length())
                    + max(1, item[1].bit_length())
                )
            else:
                total += _FRAMING_BITS + estimate_bits(item)
        return total
    if cls is Fraction:
        return (
            _FRACTION_BITS
            + max(1, payload.numerator.bit_length())
            + max(1, payload.denominator.bit_length())
        )
    if payload is None or isinstance(payload, bool):
        return 1
    if isinstance(payload, int):
        return max(1, payload.bit_length()) + 1
    if isinstance(payload, float):
        return 64
    if isinstance(payload, str):
        return max(1, 8 * len(payload))
    if isinstance(payload, (bytes, bytearray)):
        return max(1, 8 * len(payload))
    if isinstance(payload, Mapping):
        total = _FRAMING_BITS
        for key, value in payload.items():
            total += _FRAMING_BITS + estimate_bits(key) + estimate_bits(value)
        return total
    if isinstance(payload, (Sequence, Set, frozenset)):
        total = _FRAMING_BITS
        for item in payload:
            total += _FRAMING_BITS + estimate_bits(item)
        return total
    # Fallback for dataclass-like objects: encode their fields — both
    # ``__dict__`` entries and ``__slots__`` descriptors (a slotted payload
    # used to fall through to the flat 64-bit guess, under-billing CONGEST
    # accounting for anything larger than one machine word).
    fields = _object_fields(payload)
    if fields is not None:
        return estimate_bits(fields)
    return 64


def _object_fields(payload: object) -> dict[str, object] | None:
    """Field name -> value for dataclass-like payloads, else ``None``.

    Merges ``__dict__`` with every ``__slots__`` entry declared along the
    MRO (skipping the ``__dict__``/``__weakref__`` pseudo-slots and slots
    never assigned).  Returns ``None`` when the object has neither, so the
    caller can fall back to the opaque 64-bit estimate.
    """
    fields: dict[str, object] | None = None
    if hasattr(payload, "__dict__"):
        fields = dict(vars(payload))
    for klass in type(payload).__mro__:
        slots = klass.__dict__.get("__slots__", ())
        if isinstance(slots, str):
            slots = (slots,)
        for name in slots:
            if name in ("__dict__", "__weakref__"):
                continue
            if fields is None:
                fields = {}
            if name not in fields and hasattr(payload, name):
                fields[name] = getattr(payload, name)
    return fields


# Closed-form constants of ``estimate_bits``: each is the generic chain's
# result less the integers' magnitude bits (``max(1, bit_length)`` each).
#: An exact ``int`` list/tuple item: its framing plus the sign bit.
_INT_ITEM_BITS = _FRAMING_BITS + 1
#: An exact ``(int, int)`` list/tuple item: framings plus two sign bits.
_PAIR_ITEM_BITS = _FRAMING_BITS + _FRAMING_BITS + 2 * _INT_ITEM_BITS
#: A ``Fraction``, sized as the dict of its two slots (``_object_fields``).
_FRACTION_BITS = estimate_bits(_object_fields(Fraction(1))) - 2


class BitsMemo:
    """Identity-keyed memo for :func:`estimate_bits`, valid for one delivery pass.

    A broadcast enqueues the *same* payload object once per neighbour, so a
    delivery pass sees each distinct payload ``deg`` times; measuring it once
    turns the per-round estimation cost from O(sum of degrees) to O(number of
    distinct payloads).  Keying by ``id`` is sound only while the payloads are
    alive and unmodified, which holds between the end of a round (no program
    is running) and the delivery of its messages — the memo must be reset
    after every pass because ids may be reused once payloads are collected.
    """

    __slots__ = ("_memo",)

    def __init__(self) -> None:
        self._memo: dict[int, int] = {}

    def measure(self, payload: object) -> int:
        """Size of ``payload`` in bits, computed once per distinct object."""
        # Identity memo key within one delivery pass — never an ordering,
        # never persisted, reset before ids can recycle (class docstring).
        key = id(payload)  # reprolint: disable=REP003
        bits = self._memo.get(key)
        if bits is None:
            bits = self._memo[key] = estimate_bits(payload)
        return bits

    def reset(self) -> None:
        """Forget all measurements (ids may be reused once payloads die)."""
        self._memo.clear()


#: Exact payload types whose :func:`estimate_bits` result is a pure function
#: of ``(type, value)``.  ``bool`` precedes ``int`` deliberately: ``True == 1``
#: hashes like ``1`` but is 1 bit, not 2, so the cache key must carry the
#: exact type; similarly ``1 == 1.0`` (2 vs 64 bits).  Containers are
#: excluded because *their* equality does not imply element-type equality
#: (``(1,) == (True,)``) — they always fall through to a direct estimate.
_VALUE_KEYED_TYPES = frozenset((bool, int, float, str, bytes, type(None)))


class PayloadSizeTable:
    """Value-keyed, run-lifetime size cache: ``estimate_bits`` off the hot loop.

    :class:`BitsMemo` is identity-keyed and valid for one delivery pass only
    (object ids recycle).  This table is *value*-keyed and persistent for a
    whole run: the primitive payload classes broadcast workloads actually
    send (integer labels, strings, floats) are measured once per distinct
    ``(exact type, value)`` pair and afterwards cost one dict hit per
    *round*, not per message — the columnar engine's per-payload-class size
    table.  Exact-type keying is what makes value keying sound (see
    ``_VALUE_KEYED_TYPES``); any other payload shape (tuples, dataclass-like
    objects) is delegated to :func:`estimate_bits` directly, so the table
    agrees with it bit-for-bit on every input.  ``cap`` bounds the number of
    interned entries per table; once full, new values are measured directly
    instead of cached, so adversarial high-cardinality payload streams
    cannot grow the tables without bound.

    Exact ``int`` payloads — the dominant broadcast payload class (vertex
    labels, counters) — get a dedicated ``int_sizes`` dictionary keyed by
    the raw value: one dict probe, no key-tuple allocation.  ``bool`` never
    lands there (``True.__class__ is bool``), so the ``True == 1`` aliasing
    trap stays closed.
    """

    __slots__ = ("_table", "int_sizes", "cap")

    def __init__(self, cap: int = 1 << 20) -> None:
        self._table: dict[tuple[type, object], int] = {}
        #: exact-``int`` fast table, keyed by the payload value itself.
        self.int_sizes: dict[int, int] = {}
        #: max interned entries per table (read-only by convention).
        self.cap = cap

    def measure(self, payload: object) -> int:
        """Size of ``payload`` in bits; identical to ``estimate_bits(payload)``."""
        cls = payload.__class__
        if cls is int:
            table = self.int_sizes
            bits = table.get(payload)
            if bits is None:
                bits = estimate_bits(payload)
                if len(table) < self.cap:
                    table[payload] = bits
            return bits
        if cls in _VALUE_KEYED_TYPES:
            key = (cls, payload)
            table = self._table
            bits = table.get(key)
            if bits is None:
                bits = estimate_bits(payload)
                if len(table) < self.cap:
                    table[key] = bits
            return bits
        return estimate_bits(payload)

    def __len__(self) -> int:
        return len(self._table) + len(self.int_sizes)


class UnencodablePayloadError(TypeError):
    """The payload type has no canonical wire image (see :func:`encode_payload`)."""


class PayloadDecodeError(ValueError):
    """The wire image is not a valid canonical encoding."""


class CorruptedPayload:
    """Sentinel delivered when a corrupted wire image no longer decodes.

    Behaves like negative infinity under comparisons so max-style folds
    (flood-max, spanner elections) treat an undecodable message as "heard
    nothing useful" without special-casing.  Hash and repr are constants so
    the sentinel can live in decoded payload structures without introducing
    id-dependent behaviour.  Use the module-level :data:`CORRUPTED` instance;
    the class exists only to give it a type.
    """

    __slots__ = ()

    def __repr__(self) -> str:
        return "CORRUPTED"

    def __hash__(self) -> int:
        return 0x6C0221  # constant: never id-derived

    def __eq__(self, other: object) -> bool:
        return isinstance(other, CorruptedPayload)

    def __ne__(self, other: object) -> bool:
        return not isinstance(other, CorruptedPayload)

    def __lt__(self, other: object) -> bool:
        return not isinstance(other, CorruptedPayload)

    def __le__(self, other: object) -> bool:
        return True

    def __gt__(self, other: object) -> bool:
        return False

    def __ge__(self, other: object) -> bool:
        return isinstance(other, CorruptedPayload)


#: The one :class:`CorruptedPayload` instance programs ever see.
CORRUPTED = CorruptedPayload()

#: Recursion guard for nested containers in encode/decode.
_MAX_DEPTH = 32

#: A LEB128 varint of more than 10 bytes exceeds 64 bits of length — reject
#: early so a corrupted continuation bit cannot request absurd allocations.
_MAX_VARINT_BYTES = 10


def _write_varint(out: bytearray, value: int) -> None:
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return


def _read_varint(wire: bytes, pos: int) -> tuple[int, int]:
    value = 0
    shift = 0
    for count in range(_MAX_VARINT_BYTES):
        if pos >= len(wire):
            raise PayloadDecodeError("truncated varint")
        byte = wire[pos]
        pos += 1
        value |= (byte & 0x7F) << shift
        if not byte & 0x80:
            if byte == 0 and count:
                raise PayloadDecodeError("non-canonical varint padding")
            return value, pos
        shift += 7
    raise PayloadDecodeError("varint longer than 10 bytes")


def _encode_into(out: bytearray, payload: object, depth: int) -> None:
    if depth > _MAX_DEPTH:
        raise UnencodablePayloadError("payload nesting exceeds codec depth limit")
    if payload is None:
        out.append(ord("N"))
        return
    cls = payload.__class__
    if cls is bool:
        out.append(ord("T") if payload else ord("F"))
        return
    if cls is int:
        out.append(ord("i"))
        out.append(1 if payload < 0 else 0)
        magnitude = -payload if payload < 0 else payload
        image = magnitude.to_bytes((magnitude.bit_length() + 7) // 8 or 1, "big")
        _write_varint(out, len(image))
        out += image
        return
    if cls is float:
        out.append(ord("f"))
        out += struct.pack(">d", payload)
        return
    if cls is str:
        image = payload.encode("utf-8")
        out.append(ord("s"))
        _write_varint(out, len(image))
        out += image
        return
    if cls is bytes:
        out.append(ord("b"))
        _write_varint(out, len(payload))
        out += payload
        return
    if cls is tuple or cls is list:
        out.append(ord("t") if cls is tuple else ord("l"))
        _write_varint(out, len(payload))
        for item in payload:
            _encode_into(out, item, depth + 1)
        return
    raise UnencodablePayloadError(
        f"no canonical wire image for payload type {cls.__name__!r}"
    )


def encode_payload(payload: object) -> bytes:
    """Canonical tag-length-value wire image of ``payload``.

    Covers the payload vocabulary simulated programs actually send — ``None``,
    ``bool``, ``int``, ``float``, ``str``, ``bytes``, and tuples/lists thereof
    (exact types only, so ``True`` and ``1`` stay distinct on the wire).  The
    encoding is injective and platform-independent: equal values always share
    one image, so the corruption adversary's bit flips are a pure function of
    the value.  Raises :class:`UnencodablePayloadError` for anything else.
    """
    out = bytearray()
    _encode_into(out, payload, 0)
    return bytes(out)


def _decode_from(wire: bytes, pos: int, depth: int) -> tuple[object, int]:
    if depth > _MAX_DEPTH:
        raise PayloadDecodeError("wire image nesting exceeds codec depth limit")
    if pos >= len(wire):
        raise PayloadDecodeError("truncated wire image")
    tag = wire[pos]
    pos += 1
    if tag == ord("N"):
        return None, pos
    if tag == ord("T"):
        return True, pos
    if tag == ord("F"):
        return False, pos
    if tag == ord("i"):
        if pos >= len(wire):
            raise PayloadDecodeError("truncated int sign")
        sign = wire[pos]
        pos += 1
        if sign > 1:
            raise PayloadDecodeError("invalid int sign byte")
        length, pos = _read_varint(wire, pos)
        if length < 1 or pos + length > len(wire):
            raise PayloadDecodeError("truncated int magnitude")
        if length > 1 and wire[pos] == 0:
            raise PayloadDecodeError("non-canonical int padding")
        magnitude = int.from_bytes(wire[pos : pos + length], "big")
        if sign and not magnitude:
            raise PayloadDecodeError("negative zero is non-canonical")
        return -magnitude if sign else magnitude, pos + length
    if tag == ord("f"):
        if pos + 8 > len(wire):
            raise PayloadDecodeError("truncated float")
        return struct.unpack(">d", wire[pos : pos + 8])[0], pos + 8
    if tag == ord("s") or tag == ord("b"):
        length, pos = _read_varint(wire, pos)
        if pos + length > len(wire):
            raise PayloadDecodeError("truncated string/bytes body")
        body = wire[pos : pos + length]
        pos += length
        if tag == ord("b"):
            return body, pos
        try:
            return body.decode("utf-8"), pos
        except UnicodeDecodeError:
            raise PayloadDecodeError("invalid utf-8 in string body") from None
    if tag == ord("t") or tag == ord("l"):
        length, pos = _read_varint(wire, pos)
        if length > len(wire) - pos:
            # Each element needs at least one tag byte; guard before building.
            raise PayloadDecodeError("container length exceeds remaining bytes")
        items = []
        for _ in range(length):
            item, pos = _decode_from(wire, pos, depth + 1)
            items.append(item)
        return (tuple(items) if tag == ord("t") else items), pos
    raise PayloadDecodeError(f"unknown tag byte {tag:#04x}")


def decode_payload(wire: bytes) -> object:
    """Strict inverse of :func:`encode_payload`.

    Every byte must be consumed and every field canonical; any deviation
    raises :class:`PayloadDecodeError`, which the corruption pipeline maps
    to the :data:`CORRUPTED` sentinel.
    """
    value, pos = _decode_from(wire, 0, 0)
    if pos != len(wire):
        raise PayloadDecodeError("trailing bytes after wire image")
    return value


def corrupt_payload(payload: object, bit: int) -> object:
    """``payload`` with one bit flipped in its canonical wire image.

    ``bit`` is reduced modulo the image's bit length, so any 64-bit hash
    output picks a valid position.  If the payload has no wire image, or the
    damaged image no longer decodes, the result is the :data:`CORRUPTED`
    sentinel — corruption can forge values but never crash the transport.
    """
    try:
        wire = bytearray(encode_payload(payload))
    except UnencodablePayloadError:
        return CORRUPTED
    index = bit % (8 * len(wire))
    wire[index >> 3] ^= 1 << (index & 7)
    try:
        return decode_payload(bytes(wire))
    except PayloadDecodeError:
        return CORRUPTED


def payload_checksum(payload: object) -> int:
    """32-bit BLAKE2 checksum of the payload's canonical wire image.

    The coded workloads append this to their messages so a single corrupted
    bit is detected (converting corruption into an erasure) with probability
    ``1 - 2**-32`` per forged image.  Raises :class:`UnencodablePayloadError`
    when the payload has no wire image.
    """
    digest = hashlib.blake2b(encode_payload(payload), digest_size=4).digest()
    return int.from_bytes(digest, "big")


def congest_budget_bits(n: int, factor: int = 32) -> int:
    """The per-edge per-round budget ``factor * ceil(log2 n)`` bits.

    ``factor`` is the constant hidden in the model's O(log n); 32 matches the
    common convention that a CONGEST message carries a constant number of
    vertex identifiers and counters.
    """
    if n < 2:
        return factor
    return factor * max(1, (n - 1).bit_length())
