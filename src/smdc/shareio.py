"""Binary container for encoder outputs.

Layout (little endian):

    magic "SMDC" | version u8 | length u8 | wiretap u8 | encoder u8
    | field u16 | source_count u8
    | source_count * symbols u32      (symbols this encoder holds per source)
    | source_count * byte_length u64  (original file size per source)
    | body, one byte per symbol, sources in order

The field id is the field's order: the prime itself for GF(p) with
p <= 251, or 256 = 0x0100 for GF(2^8).  Symbols therefore always fit in
one body byte.  Prime fields carry each payload byte as the smallest
number of base-p digits that can hold 0..255; GF(2^8) stores bytes
directly.
"""

from __future__ import annotations

import os
import struct
import tempfile
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import (DecodeFailureError, ParameterError, ShareFormatError,
                     as_encoders, as_int)
from .fields import (BINARY8, GF256, FieldSpec, _is_prime, as_int_array,
                     as_symbols)
from .multilevel import SmdcParams, decode, encode, plan

MAGIC = b"SMDC"
VERSION = 1
BINARY8_FIELD_ID = 0x0100
MAX_PRIME_FIELD_ID = 251

_HEAD = struct.Struct("<4sBBBBHB")


def field_to_id(field: FieldSpec) -> int:
    if field.order > BINARY8_FIELD_ID:
        raise ParameterError(
            f"share files store one symbol per byte; {field} does not fit")
    return field.order


def field_from_id(fid: int) -> FieldSpec:
    if fid == BINARY8_FIELD_ID or (fid <= MAX_PRIME_FIELD_ID
                                   and _is_prime(fid)):
        return FieldSpec(fid)
    raise ShareFormatError(f"unknown field id {fid:#06x}")


def symbols_per_byte(field: FieldSpec) -> int:
    t, span = 1, field.order
    while span < 256:
        t += 1
        span *= field.order
    return t


@lru_cache(maxsize=None)  # 256 x t bytes per prime field
def _digit_table(field: FieldSpec) -> np.ndarray:
    """Row b holds the big endian base-p digits of the byte b: a
    read-only 256 x symbols_per_byte() uint8 array."""
    p = field.order
    weights = p ** np.arange(symbols_per_byte(field) - 1, -1, -1)
    table = (np.arange(256)[:, None] // weights % p).astype(np.uint8)
    table.flags.writeable = False
    return table


def bytes_to_symbols(field: FieldSpec, data: bytes) -> np.ndarray:
    """Big endian base-q digits, symbols_per_byte() of them per byte, as
    a uint8 array: one gather from the field's digit table."""
    raw = np.frombuffer(data, dtype=np.uint8)
    if field.kind == BINARY8:
        return raw
    return _digit_table(field).take(raw, axis=0).reshape(-1)


def symbols_to_bytes(field: FieldSpec, symbols, n_bytes: int) -> bytes:
    """Inverse of bytes_to_symbols; raises DecodeFailureError unless
    every group of digits names a byte.

    Each byte is rebuilt by Horner's rule, v = v p + d, in uint32 for
    uint8 digits (v < 255 (p^t - 1) / (p - 1) < 2^17) and in int64 for
    any other input.
    """
    t = symbols_per_byte(field)
    digits = as_int_array(symbols, "symbols")
    if len(digits) != n_bytes * t:
        raise DecodeFailureError(
            f"expected {n_bytes * t} recovered symbols, got {len(digits)}")
    if field.kind == BINARY8:
        values = digits
    else:
        groups = digits.reshape(n_bytes, t)
        wide = np.uint32 if digits.dtype == np.uint8 else np.int64
        values = groups[:, 0].astype(wide)
        for j in range(1, t):
            values *= field.order
            values += groups[:, j].astype(wide, copy=False)
    if values.size and (values.min() < 0 or values.max() > 255):
        raise DecodeFailureError("recovered symbols do not form bytes")
    return values.astype(np.uint8).tobytes()


@dataclass(frozen=True)
class ShareFile:
    """One encoder's full output: one payload per source, plus the
    geometry needed to rebuild the code at join time.

    A payload is bytes, one byte per symbol as in the file body; the
    constructor also accepts int sequences and uint8 arrays.  It is the
    one check of the header fields, which load_share relies on.
    """

    length: int
    wiretap: int
    encoder: int
    field: FieldSpec
    byte_lengths: tuple[int, ...]
    payloads: tuple[bytes, ...]

    def __post_init__(self):
        for name in ("length", "wiretap", "encoder"):
            object.__setattr__(self, name, as_int(getattr(self, name), name))
        _check_geometry(self.length, self.wiretap)
        as_encoders((self.encoder,), self.length)
        expected = self.length - self.wiretap
        if len(self.byte_lengths) != expected or len(self.payloads) != expected:
            raise ParameterError(f"need {expected} per-source entries")
        object.__setattr__(self, "byte_lengths", tuple(
            as_int(v, "byte length") for v in self.byte_lengths))
        object.__setattr__(self, "payloads",
                           tuple(_payload_bytes(p) for p in self.payloads))
        # the header stores u32 symbol counts and u64 byte lengths
        if any(len(p) > 0xFFFFFFFF for p in self.payloads):
            raise ParameterError("payload too large for a 4-byte symbol count")
        if any(not 0 <= n <= 0xFFFFFFFFFFFFFFFF for n in self.byte_lengths):
            raise ParameterError("byte length does not fit in 8 bytes")


def _check_geometry(length: int, wiretap: int) -> None:
    # the header stores L and N in one byte each
    if not 1 <= as_int(wiretap, "wiretap") < as_int(length, "length") <= 255:
        raise ParameterError("need 1 <= wiretap < length <= 255")


def _payload_bytes(payload) -> bytes:
    """One byte per symbol, each an element of GF(2^8), that is 0..255."""
    if isinstance(payload, bytes):
        return payload
    return as_symbols(GF256, payload).tobytes()


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
    field = field_from_id(fid)
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
    try:
        return ShareFile(length, wiretap, encoder, field, byte_lengths,
                         tuple(payloads))
    except ParameterError as exc:
        raise ShareFormatError(f"bad share header: {exc}") from None


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
    field_to_id(field)
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
