"""Share container format tests.

The byte-level oracle is a header assembled literally with int.to_bytes
below, independent of the writer.
"""

import os
import random
from dataclasses import replace

import numpy as np
import pytest

from smdc import coset
from smdc.errors import (DecodeFailureError, InsufficientSharesError,
                         ParameterError, ShareFormatError)
from smdc.fields import GF5, _is_prime, binary8_field, prime_field
from smdc.shareio import (BINARY8_FIELD_ID, MAX_PRIME_FIELD_ID, ShareFile,
                          bytes_to_symbols, dump_share, field_from_id,
                          field_to_id, join_files, load_share, read_share,
                          split_files, symbols_per_byte, symbols_to_bytes,
                          write_share)

HAND_BLOB = (
    b"SMDC"
    + bytes([1, 3, 1, 2])            # version, length, wiretap, encoder
    + (5).to_bytes(2, "little")      # GF(5)
    + bytes([2])                     # two sources
    + (1).to_bytes(4, "little") + (2).to_bytes(4, "little")
    + (7).to_bytes(8, "little") + (9).to_bytes(8, "little")
    + bytes([4]) + bytes([0, 3])
)

HAND_SHARE = ShareFile(3, 1, 2, GF5, (7, 9), ((4,), (0, 3)))


def test_dump_matches_hand_assembled_blob():
    assert dump_share(HAND_SHARE) == HAND_BLOB


def test_load_round_trips_the_hand_blob():
    share = load_share(HAND_BLOB)
    assert share == HAND_SHARE
    assert load_share(dump_share(share)) == share


@pytest.mark.parametrize("mangle,what", [
    (lambda b: b[:8], "truncated header"),
    (lambda b: b"XMDC" + b[4:], "bad magic"),
    (lambda b: b[:4] + bytes([9]) + b[5:], "bad version"),
    (lambda b: b[:5] + bytes([1, 1]) + b[7:], "wiretap >= length"),
    (lambda b: b[:7] + bytes([0]) + b[8:], "encoder zero"),
    (lambda b: b[:7] + bytes([4]) + b[8:], "encoder beyond length"),
    (lambda b: b[:8] + (4).to_bytes(2, "little") + b[10:], "field id 4"),
    (lambda b: b[:10] + bytes([3]) + b[11:], "source count mismatch"),
    (lambda b: b[:20], "truncated counts"),
    (lambda b: b + b"\x00", "trailing garbage"),
    (lambda b: b[:-1], "short body"),
    (lambda b: b[:-1] + bytes([5]), "symbol outside the field"),
])
def test_malformed_blobs_are_rejected(mangle, what):
    with pytest.raises(ShareFormatError):
        load_share(mangle(HAND_BLOB))


def test_field_id_mapping():
    assert field_to_id(GF5) == 5
    assert field_to_id(prime_field(251)) == 251
    assert field_to_id(binary8_field()) == BINARY8_FIELD_ID == 256
    assert field_from_id(5) == GF5
    assert field_from_id(BINARY8_FIELD_ID) == binary8_field()
    with pytest.raises(ParameterError):
        field_to_id(prime_field(257))          # symbol would not fit a byte
    for fid in (0, 1, 4, 255, 257, 0x0200):
        with pytest.raises(ShareFormatError):
            field_from_id(fid)


def test_symbols_per_byte_values():
    assert symbols_per_byte(binary8_field()) == 1
    assert symbols_per_byte(prime_field(251)) == 2
    assert symbols_per_byte(prime_field(17)) == 2
    assert symbols_per_byte(GF5) == 4
    assert symbols_per_byte(prime_field(3)) == 6
    assert symbols_per_byte(prime_field(2)) == 8


def test_byte_symbol_conversion_frozen_cases():
    # 255 = 1 * 251 + 4 and 104 = 4*25 + 4 in base 5
    assert bytes_to_symbols(prime_field(251), b"\xff").tolist() == [1, 4]
    assert bytes_to_symbols(GF5, b"h").tolist() == [0, 4, 0, 4]
    assert bytes_to_symbols(binary8_field(), b"\x00\xff").tolist() == [0, 255]
    assert symbols_to_bytes(GF5, [0, 4, 0, 4], 1) == b"h"


@pytest.mark.parametrize("symbols", [[1.5, 2, 3, 4], np.array([0., 4, 0, 4])])
def test_symbols_to_bytes_refuses_floats(symbols):
    # int() would truncate [1.5, 2, 3, 4] to the byte 0xc2
    with pytest.raises(ParameterError, match="symbols must be integers"):
        symbols_to_bytes(GF5, symbols, 1)


@pytest.mark.parametrize("p", [2, 3, 5, 17, 251])
def test_byte_symbol_round_trip(p):
    field = prime_field(p)
    rng = random.Random(p)
    data = bytes(rng.randrange(256) for _ in range(200))
    symbols = bytes_to_symbols(field, data)
    assert len(symbols) == 200 * symbols_per_byte(field)
    assert all(0 <= s < p for s in symbols)
    assert symbols_to_bytes(field, symbols, 200) == data


SHARE_FILE_PRIMES = [p for p in range(2, MAX_PRIME_FIELD_ID + 1)
                     if _is_prime(p)]


@pytest.mark.parametrize("field", [*map(prime_field, SHARE_FILE_PRIMES),
                                   binary8_field()], ids=repr)
def test_field_id_is_the_order(field):
    assert field_to_id(field) == field.order
    assert field_from_id(field_to_id(field)) == field


def digits_of(p, t, value, cap=None):
    """t big endian base-p digits summing to value, each at most `cap`
    (the top one unbounded if cap is None), greedily from the top; None
    if the cap leaves a remainder."""
    out = []
    for j in range(t - 1, -1, -1):
        d = value // p ** j if cap is None else min(cap, value // p ** j)
        out.append(d)
        value -= d * p ** j
    return out if value == 0 else None


def old_symbols_to_bytes(field, digits, n_bytes):
    """The weighted digit sum as one matrix product, as symbols_to_bytes
    computed it before Horner's rule: uint8 digits promote to uint32
    weights, int lists stay int64.  None where it refused."""
    t = symbols_per_byte(field)
    if not isinstance(digits, np.ndarray):
        digits = np.asarray(digits, dtype=np.int64)
    weights = field.order ** np.arange(t - 1, -1, -1, dtype=np.uint32)
    values = digits.reshape(n_bytes, t) @ weights
    if values.size and (values.min() < 0 or values.max() > 255):
        return None
    return values.astype(np.uint8).tobytes()


@pytest.mark.parametrize("p", SHARE_FILE_PRIMES)
def test_every_byte_round_trips_in_every_share_file_field(p):
    field = prime_field(p)
    t = symbols_per_byte(field)
    data = bytes(range(256))
    symbols = bytes_to_symbols(field, data)
    assert symbols.dtype == np.uint8
    assert symbols.tolist() == [d for b in data for d in digits_of(p, t, b)]
    assert symbols_to_bytes(field, symbols, 256) == data
    assert symbols_to_bytes(field, symbols.tolist(), 256) == data


@pytest.mark.parametrize("p", [2, 3, 5, 7, 17, 251])
def test_symbols_to_bytes_gives_the_weighted_sum_verdict(p):
    field = prime_field(p)
    t = symbols_per_byte(field)
    rng = np.random.default_rng(p)
    # groups worth more than a byte: 2^16 + x would wrap to x in a uint16
    # sum (over GF(3), t = 6 and uint8 digits reach 255 * 364 > 2^16),
    # as uint8 digits where they can and as int digits always
    groups = []
    for value in (256, 300, 1 << 16, (1 << 16) + 77, (1 << 32) + 5):
        groups += [digits_of(p, t, value, 255), digits_of(p, t, value)]
    groups += [[-1] + [0] * (t - 1), [0] * (t - 1) + [-p]]
    groups += [rng.integers(0, 256, size=t).tolist() for _ in range(40)]
    groups = [g for g in groups if g is not None]
    valid = [digits_of(p, t, b) for b in (0, 1, 255)]
    for group in groups:
        for n_bytes, digits in ((1, group), (4, [*valid[0], *group,
                                                 *valid[1], *valid[2]])):
            inputs = [digits]
            if all(0 <= d <= 255 for d in digits):
                inputs.append(np.array(digits, dtype=np.uint8))
            for given in inputs:
                want = old_symbols_to_bytes(field, given, n_bytes)
                if want is None:
                    with pytest.raises(DecodeFailureError):
                        symbols_to_bytes(field, given, n_bytes)
                else:
                    assert symbols_to_bytes(field, given, n_bytes) == want
    # over GF(3) the uint8 group worth 2^16 + 77 above would pass as the
    # byte 77 if the sum were taken in uint16
    if p == 3:
        wraps = np.array(digits_of(3, 6, (1 << 16) + 77, 255), np.uint8)
        assert (wraps.astype(np.uint16) @ (3 ** np.arange(5, -1, -1))
                .astype(np.uint16)) == 77
        with pytest.raises(DecodeFailureError):
            symbols_to_bytes(field, wraps, 1)


def test_symbols_to_bytes_rejects_bad_input():
    with pytest.raises(DecodeFailureError):
        symbols_to_bytes(prime_field(251), [250, 250], 1)   # 63000 > 255
    with pytest.raises(DecodeFailureError):
        symbols_to_bytes(GF5, [1, 2, 3], 1)                 # wrong count


def test_share_file_validation():
    with pytest.raises(ParameterError):
        ShareFile(1, 1, 1, GF5, (), ())
    with pytest.raises(ParameterError):
        ShareFile(3, 1, 4, GF5, (1, 1), ((0,), (0,)))
    with pytest.raises(ParameterError):
        ShareFile(3, 1, 1, GF5, (1,), ((0,),))      # needs two sources
    with pytest.raises(ParameterError):
        dump_share(ShareFile(3, 1, 1, GF5, (1, 1), ((7,), (0,))))


def test_split_join_round_trip_every_large_enough_subset():
    datas = [b"hi", b"world"]
    shares = split_files(GF5, 3, 1, datas, source=11)
    assert [s.encoder for s in shares] == [1, 2, 3]
    # 2 bytes -> 8 symbols at threshold 2; 5 bytes -> 20 symbols in pairs
    assert all(len(s.payloads[0]) == 8 and len(s.payloads[1]) == 10
               for s in shares)
    for drop in (None, 0, 1, 2):
        subset = [s for i, s in enumerate(shares) if i != drop]
        recovered = join_files(subset)
        if drop is None:
            assert recovered == datas
        else:
            assert recovered == [b"hi"]
    # share order must not matter
    assert join_files([shares[2], shares[0], shares[1]]) == datas


def test_join_needs_more_than_the_tap_tolerance():
    shares = split_files(GF5, 3, 1, [b"a", b"bc"], source=1)
    with pytest.raises(InsufficientSharesError):
        join_files(shares[:1])
    with pytest.raises(ParameterError):
        join_files([])


def test_join_rejects_foreign_and_duplicate_shares():
    shares = split_files(GF5, 3, 1, [b"a", b"bc"], source=1)
    other = split_files(GF5, 3, 1, [b"a", b"bcd"], source=1)
    with pytest.raises(ShareFormatError):
        join_files([shares[0], other[1]])
    with pytest.raises(ShareFormatError):
        join_files([shares[0], shares[0], shares[1]])


def test_split_shape_must_be_integers():
    for length, wiretap in [(3.0, 1), (3, 1.0)]:
        with pytest.raises(ParameterError, match="must be an integer"):
            split_files(binary8_field(), length, wiretap, [b"a", b"b"],
                        source=1)
    assert split_files(binary8_field(), np.int64(3), np.int64(1),
                       [b"a", b"b"], source=1) == \
        split_files(binary8_field(), 3, 1, [b"a", b"b"], source=1)


def test_join_rejects_wrong_geometry():
    shares = split_files(GF5, 3, 1, [b"a", b"bc"], source=1)
    chopped = ShareFile(3, 1, 1, GF5, shares[0].byte_lengths,
                        (shares[0].payloads[0][:-1], shares[0].payloads[1]))
    with pytest.raises(ShareFormatError):
        join_files([chopped, shares[1], shares[2]])


def test_join_detects_a_corrupted_symbol():
    shares = split_files(GF5, 3, 1, [b"a", b"bc"], source=1)
    p0 = shares[0].payloads
    flipped = (p0[0][:1] + bytes([(p0[0][1] + 1) % 5]) + p0[0][2:], p0[1])
    bad = ShareFile(3, 1, 1, GF5, shares[0].byte_lengths, flipped)
    with pytest.raises(DecodeFailureError):
        join_files([bad, shares[1], shares[2]])


def test_zero_length_sources_are_fine():
    shares = split_files(GF5, 3, 1, [b"", b""], source=1)
    assert join_files(shares) == [b"", b""]
    mixed = split_files(GF5, 3, 1, [b"", b"xy"], source=1)
    assert join_files(mixed[:2]) == [b""]


def test_binary8_split_join_full_byte_range():
    data1 = bytes(range(256))
    data2 = bytes(reversed(range(256)))
    shares = split_files(binary8_field(), 4, 2, [data1, data2], source=3)
    assert join_files(shares[1:]) == [data1]
    assert join_files(shares) == [data1, data2]


def test_disk_round_trip_is_atomic(tmp_path):
    path = tmp_path / "part.smdc"
    write_share(path, HAND_SHARE)
    assert read_share(path) == HAND_SHARE
    assert os.listdir(tmp_path) == ["part.smdc"]
    write_share(path, HAND_SHARE)    # overwrite through the tmp file
    assert read_share(path) == HAND_SHARE


def test_wide_split_and_join_of_one_byte_sources():
    # (L, N) = (24, 3): one set of decode rows per source level, up to
    # m = 24, and no C(24, 12)-row region anywhere on the path
    datas = [bytes([k]) for k in range(21)]
    shares = split_files(binary8_field(), 24, 3, datas, source=24)
    assert join_files(shares) == datas
    assert join_files(shares[::2]) == datas[:9]


def test_join_at_the_largest_length():
    # (255, 3), the widest split a share file holds: 252 levels, the
    # last one decoded from 255 nodes
    datas = [bytes([k]) for k in range(252)]
    shares = split_files(binary8_field(), 255, 3, datas, source=255)
    assert join_files(shares) == datas
    subset = sorted(random.Random(255).sample(range(255), 4))
    assert join_files([shares[i] for i in subset]) == datas[:1]


def test_every_level_of_a_join_decodes_through_one_matrix():
    # all ten shares of a (10,3) split: seven levels, one id set, so one
    # set of decode rows serves every level
    shares = split_files(binary8_field(), 10, 3,
                         [bytes([k, k + 1]) for k in range(7)], source=10)
    coset._decode_solver.cache_clear()
    assert len(join_files(shares)) == 7
    assert coset._decode_solver.cache_info().misses == 1


@pytest.mark.parametrize("level", range(1, 13))
def test_a_tampered_symbol_fails_the_join_at_every_checked_level(level):
    # (16,3): level k has threshold 3 + k, so all 16 shares leave
    # 13 - k redundant ones, and level 13 none (README says so)
    datas = [bytes([k, 2 * k + 1]) for k in range(13)]
    shares = split_files(binary8_field(), 16, 3, datas, source=16)
    rng = random.Random(level)
    victim = rng.randrange(16)
    payloads = list(shares[victim].payloads)
    body = bytearray(payloads[level - 1])
    body[rng.randrange(len(body))] ^= 1 + rng.randrange(255)
    payloads[level - 1] = bytes(body)
    shares[victim] = replace(shares[victim], payloads=tuple(payloads))
    with pytest.raises(DecodeFailureError):
        join_files(shares)
