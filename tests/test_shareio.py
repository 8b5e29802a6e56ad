"""Share container format tests.

The byte-level oracle is a header assembled literally with int.to_bytes
below, independent of the writer.
"""

import os
import random

import pytest

from smdc.errors import (DecodeFailureError, InsufficientSharesError,
                         ParameterError, ShareFormatError)
from smdc.fields import GF5, binary8_field, prime_field
from smdc.shareio import (BINARY8_FIELD_ID, ShareFile, bytes_to_symbols,
                          dump_share, field_from_id, field_to_id, join_files,
                          load_share, read_share, split_files,
                          symbols_per_byte, symbols_to_bytes, write_share)

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
    assert field_to_id(binary8_field()) == BINARY8_FIELD_ID
    assert field_from_id(5) == GF5
    assert field_from_id(BINARY8_FIELD_ID) == binary8_field()
    with pytest.raises(ParameterError):
        field_to_id(prime_field(257))          # symbol would not fit a byte
    with pytest.raises(ParameterError):
        field_to_id(binary8_field(0x11D))      # only the default polynomial
    with pytest.raises(ShareFormatError):
        field_from_id(4)
    with pytest.raises(ShareFormatError):
        field_from_id(0x0200)


def test_symbols_per_byte_values():
    assert symbols_per_byte(binary8_field()) == 1
    assert symbols_per_byte(prime_field(251)) == 2
    assert symbols_per_byte(prime_field(17)) == 2
    assert symbols_per_byte(GF5) == 4
    assert symbols_per_byte(prime_field(3)) == 6
    assert symbols_per_byte(prime_field(2)) == 8


def test_byte_symbol_conversion_frozen_cases():
    # 255 = 1 * 251 + 4 and 104 = 4*25 + 4 in base 5
    assert bytes_to_symbols(prime_field(251), b"\xff") == [1, 4]
    assert bytes_to_symbols(GF5, b"h") == [0, 4, 0, 4]
    assert bytes_to_symbols(binary8_field(), b"\x00\xff") == [0, 255]
    assert symbols_to_bytes(GF5, [0, 4, 0, 4], 1) == b"h"


@pytest.mark.parametrize("p", [2, 3, 5, 17, 251])
def test_byte_symbol_round_trip(p):
    field = prime_field(p)
    rng = random.Random(p)
    data = bytes(rng.randrange(256) for _ in range(200))
    symbols = bytes_to_symbols(field, data)
    assert len(symbols) == 200 * symbols_per_byte(field)
    assert all(0 <= s < p for s in symbols)
    assert symbols_to_bytes(field, symbols, 200) == data


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
    # (L, N) = (24, 3): one m x m inverse per source level, up to m = 24,
    # and no C(24, 12)-row region anywhere on the path
    datas = [bytes([k]) for k in range(21)]
    shares = split_files(binary8_field(), 24, 3, datas, source=24)
    assert join_files(shares) == datas
    assert join_files(shares[::2]) == datas[:9]
