"""Binary container for encoder outputs.

Layout (little endian):

    magic "SMDC" | version u8 | length u8 | wiretap u8 | encoder u8
    | field u16 | source_count u8
    | source_count * symbols u32      (symbols this encoder holds per source)
    | source_count * byte_length u64  (original file size per source)
    | body, one byte per symbol, sources in order

The field id is the prime itself for GF(p) with p <= 251, or 0x0100 for
GF(2^8) with the default polynomial.  Symbols therefore always fit in
one body byte.  Prime fields carry each payload byte as the smallest
number of base-p digits that can hold 0..255; GF(2^8) stores bytes
directly.
"""

from __future__ import annotations

import os
import struct
import tempfile
from dataclasses import dataclass

import numpy as np

from .errors import (DecodeFailureError, ParameterError, ShareFormatError)
from .fields import (BINARY8, DEFAULT_BINARY8_POLY, FieldSpec, _is_prime,
                     binary8_field, prime_field)
from .multilevel import SmdcParams, decode, encode, plan

MAGIC = b"SMDC"
VERSION = 1
BINARY8_FIELD_ID = 0x0100
MAX_PRIME_FIELD_ID = 251

_HEAD = struct.Struct("<4sBBBBHB")


def field_to_id(field: FieldSpec) -> int:
    if field.kind == BINARY8:
        if field.modulus != DEFAULT_BINARY8_POLY:
            raise ParameterError(
                "share files only carry the default GF(2^8) polynomial")
        return BINARY8_FIELD_ID
    if field.modulus > MAX_PRIME_FIELD_ID:
        raise ParameterError(
            f"share files store one symbol per byte; GF({field.modulus}) "
            f"does not fit")
    return field.modulus


def field_from_id(fid: int) -> FieldSpec:
    if fid == BINARY8_FIELD_ID:
        return binary8_field()
    if 2 <= fid <= MAX_PRIME_FIELD_ID and _is_prime(fid):
        return prime_field(fid)
    raise ShareFormatError(f"unknown field id {fid:#06x}")


def symbols_per_byte(field: FieldSpec) -> int:
    if field.kind == BINARY8:
        return 1
    t, span = 1, field.modulus
    while span < 256:
        t += 1
        span *= field.modulus
    return t


def _digit_weights(field: FieldSpec) -> np.ndarray:
    """p^(t-1), ..., p, 1: big endian base-p digit weights of one byte.
    p^(t-1) < 256 by the choice of t, so the weights fit in uint8."""
    t = symbols_per_byte(field)
    return field.modulus ** np.arange(t - 1, -1, -1, dtype=np.uint32)


def bytes_to_symbols(field: FieldSpec, data: bytes) -> np.ndarray:
    """Big endian base-q digits, symbols_per_byte() of them per byte, as
    a uint8 array."""
    raw = np.frombuffer(data, dtype=np.uint8)
    if field.kind == BINARY8:
        return raw
    weights = _digit_weights(field).astype(np.uint8)
    return ((raw[:, None] // weights) % field.modulus).reshape(-1)


def symbols_to_bytes(field: FieldSpec, symbols, n_bytes: int) -> bytes:
    t = symbols_per_byte(field)
    digits = symbols if isinstance(symbols, np.ndarray) else np.asarray(
        symbols, dtype=np.int64)
    if len(digits) != n_bytes * t:
        raise DecodeFailureError(
            f"expected {n_bytes * t} recovered symbols, got {len(digits)}")
    if field.kind == BINARY8:
        values = digits
    else:
        # uint8 digits promote to the uint32 weights, int digits stay int64
        values = digits.reshape(n_bytes, t) @ _digit_weights(field)
    if values.size and (values.min() < 0 or values.max() > 255):
        raise DecodeFailureError("recovered symbols do not form bytes")
    return values.astype(np.uint8).tobytes()


@dataclass(frozen=True)
class ShareFile:
    """One encoder's full output: one payload per source, plus the
    geometry needed to rebuild the code at join time.

    A payload is bytes, one byte per symbol as in the file body; the
    constructor also accepts int sequences and uint8 arrays.
    """

    length: int
    wiretap: int
    encoder: int
    field: FieldSpec
    byte_lengths: tuple[int, ...]
    payloads: tuple[bytes, ...]

    def __post_init__(self):
        _check_geometry(self.length, self.wiretap)
        if not 1 <= self.encoder <= self.length:
            raise ParameterError(f"encoder {self.encoder} out of range")
        expected = self.length - self.wiretap
        if len(self.byte_lengths) != expected or len(self.payloads) != expected:
            raise ParameterError(f"need {expected} per-source entries")
        object.__setattr__(self, "byte_lengths",
                           tuple(int(v) for v in self.byte_lengths))
        object.__setattr__(self, "payloads",
                           tuple(_payload_bytes(p) for p in self.payloads))
        # the header stores u32 symbol counts and u64 byte lengths
        if any(len(p) > 0xFFFFFFFF for p in self.payloads):
            raise ParameterError("payload too large for a 4-byte symbol count")
        if any(not 0 <= n <= 0xFFFFFFFFFFFFFFFF for n in self.byte_lengths):
            raise ParameterError("byte length does not fit in 8 bytes")


def _check_geometry(length: int, wiretap: int) -> None:
    # the header stores L and N in one byte each
    if not 1 <= wiretap < length <= 255:
        raise ParameterError("need 1 <= wiretap < length <= 255")


def _payload_bytes(payload) -> bytes:
    if isinstance(payload, bytes):
        return payload
    if isinstance(payload, (bytearray, memoryview)):
        return bytes(payload)
    arr = np.asarray(payload)
    if arr.size and (arr.min() < 0 or arr.max() > 255):
        raise ParameterError("share symbols must fit in one byte")
    return arr.astype(np.uint8).tobytes()


def _largest_symbol(body: bytes, at: int = 0) -> int:
    return int(np.frombuffer(body, dtype=np.uint8, offset=at).max()) \
        if len(body) > at else 0


def dump_share(share: ShareFile) -> bytes:
    fid = field_to_id(share.field)
    order = share.field.order
    parts = [_HEAD.pack(MAGIC, VERSION, share.length, share.wiretap,
                        share.encoder, fid, len(share.payloads))]
    for payload in share.payloads:
        parts.append(struct.pack("<I", len(payload)))
    for n in share.byte_lengths:
        parts.append(struct.pack("<Q", n))
    body = b"".join(share.payloads)
    top = _largest_symbol(body)
    if top >= order:
        raise ParameterError(f"symbol {top} outside GF({order})")
    parts.append(body)
    return b"".join(parts)


def load_share(blob: bytes) -> ShareFile:
    if len(blob) < _HEAD.size:
        raise ShareFormatError("share file is truncated")
    magic, version, length, wiretap, encoder, fid, n_src = \
        _HEAD.unpack_from(blob)
    if magic != MAGIC:
        raise ShareFormatError("not a share file (bad magic)")
    if version != VERSION:
        raise ShareFormatError(f"unsupported share file version {version}")
    if not 1 <= wiretap < length:
        raise ShareFormatError(
            f"inconsistent geometry: length {length}, wiretap {wiretap}")
    if not 1 <= encoder <= length:
        raise ShareFormatError(f"encoder index {encoder} out of range")
    field = field_from_id(fid)
    if n_src != length - wiretap:
        raise ShareFormatError(
            f"expected {length - wiretap} sources, header says {n_src}")
    at = _HEAD.size
    need = n_src * 4 + n_src * 8
    if len(blob) < at + need:
        raise ShareFormatError("share file is truncated")
    counts = struct.unpack_from(f"<{n_src}I", blob, at)
    at += n_src * 4
    byte_lengths = struct.unpack_from(f"<{n_src}Q", blob, at)
    at += n_src * 8
    if len(blob) != at + sum(counts):
        raise ShareFormatError(
            f"body holds {len(blob) - at} bytes, header promises {sum(counts)}")
    order = field.order
    if _largest_symbol(blob, at) >= order:
        raise ShareFormatError(f"symbol outside GF({order}) in body")
    payloads = []
    for c in counts:
        payloads.append(blob[at:at + c])
        at += c
    return ShareFile(length, wiretap, encoder, field,
                     tuple(byte_lengths), tuple(payloads))


def write_share(path, share: ShareFile) -> None:
    _atomic_write(path, dump_share(share))


def read_share(path) -> ShareFile:
    with open(path, "rb") as fh:
        return load_share(fh.read())


def _atomic_write(path, data: bytes) -> None:
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-share-")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


# --- splitting and joining whole files ----------------------------------------------


def split_files(field: FieldSpec, length: int, wiretap: int,
                datas, source=None) -> list[ShareFile]:
    """Encode K = length - wiretap byte strings, priority order, into one
    ShareFile per encoder."""
    _check_geometry(length, wiretap)
    if length >= max(field.order, MAX_PRIME_FIELD_ID):  # no share-file prime > L
        raise ParameterError(f"{field} supports at most {field.order - 1} "
                             f"encoders; use gf256")
    datas = [bytes(d) for d in datas]
    sources = [bytes_to_symbols(field, d) for d in datas]
    params = SmdcParams(field, length, wiretap,
                        tuple(len(s) for s in sources))
    bundle = encode(plan(params), sources, source)
    byte_lengths = tuple(len(d) for d in datas)
    return [ShareFile(length, wiretap, l, field, byte_lengths,
                      tuple(p.tobytes() for p in bundle.payloads[l]))
            for l in range(1, length + 1)]


def join_files(shares) -> list[bytes]:
    """Recover the leading sources from any consistent set of shares.

    With u shares present, sources 1..(u - wiretap) come back
    byte-identical; fewer than wiretap + 1 shares raise
    InsufficientSharesError before anything is produced.
    """
    shares = list(shares)
    if not shares:
        raise ParameterError("no shares given")
    head = shares[0]
    for s in shares[1:]:
        if (s.length, s.wiretap, s.field, s.byte_lengths) != \
                (head.length, head.wiretap, head.field, head.byte_lengths):
            raise ShareFormatError("share headers disagree; these files "
                                   "do not belong to one split")
    encoders = [s.encoder for s in shares]
    if len(set(encoders)) != len(encoders):
        dup = sorted(l for l in set(encoders) if encoders.count(l) > 1)
        raise ShareFormatError(f"duplicate share for encoder {dup[0]}")
    field = head.field
    t = symbols_per_byte(field)
    params = SmdcParams(field, head.length, head.wiretap,
                        tuple(n * t for n in head.byte_lengths))
    layout = plan(params)
    for s in shares:
        for k, level in enumerate(layout.levels):
            want = level.emitted(s.encoder)
            if len(s.payloads[k]) != want:
                raise ShareFormatError(
                    f"encoder {s.encoder} carries {len(s.payloads[k])} "
                    f"symbols for source {k + 1}, geometry requires {want}")
    decoded = decode(layout, {s.encoder: s.payloads for s in shares})
    return [symbols_to_bytes(field, syms, head.byte_lengths[i])
            for i, syms in enumerate(decoded)]
