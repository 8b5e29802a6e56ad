"""Coset-code tests: frozen shares, recoverability, per-share uniformity."""

from itertools import combinations, product

import numpy as np
import pytest

from smdc.coset import (
    CosetCodeSpec,
    decode,
    decode_blocks,
    encode,
    encode_blocks,
    generator_matrix,
    keygen,
)
from smdc.errors import (
    DecodeFailureError,
    InsufficientSharesError,
    ParameterError,
)
from smdc.fields import binary8_field, prime_field
from smdc.randomness import (SequenceSymbolSource, SystemSymbolSource,
                             as_symbol_source)

GF5 = prime_field(5)
GF7 = prime_field(7)
GF256 = binary8_field()


def spec_212():
    return CosetCodeSpec(GF5, length=2, wiretap=1, threshold=2)


def test_encode_frozen_values():
    # generator rows (1,1), (1,2); key 2, message 3
    assert generator_matrix(spec_212()) == ((1, 1), (1, 2))
    assert encode(spec_212(), [3], [2]) == (0, 3)
    s3 = CosetCodeSpec(GF5, length=3, wiretap=1, threshold=2)
    assert encode(s3, [3], [2]) == (0, 3, 1)


def test_decode_recovers_message_without_key():
    s3 = CosetCodeSpec(GF5, length=3, wiretap=1, threshold=2)
    shares = encode(s3, [3], [2])
    for ids in combinations(range(1, 4), 2):
        got = decode(s3, [(i, shares[i - 1]) for i in ids])
        assert got == (3,)


def test_decode_insufficient_and_duplicates():
    s = spec_212()
    shares = encode(s, [1], [4])
    with pytest.raises(InsufficientSharesError) as exc:
        decode(s, [(1, shares[0])])
    assert exc.value.shortfall == 1
    with pytest.raises(ParameterError):
        decode(s, [(1, shares[0]), (1, shares[0])])
    with pytest.raises(ParameterError):
        decode(s, [(1, shares[0]), (7, 0)])


def test_decode_flags_inconsistent_extra_share():
    s3 = CosetCodeSpec(GF5, length=3, wiretap=1, threshold=2)
    shares = list(encode(s3, [3], [2]))
    shares[2] = (shares[2] + 1) % 5
    with pytest.raises(DecodeFailureError):
        decode(s3, list(enumerate(shares, start=1)))


def test_spec_validation():
    with pytest.raises(ParameterError):
        CosetCodeSpec(GF5, length=2, wiretap=2, threshold=2)
    with pytest.raises(ParameterError):
        CosetCodeSpec(GF5, length=2, wiretap=0, threshold=2)
    with pytest.raises(ParameterError):
        CosetCodeSpec(GF5, length=3, wiretap=1, threshold=4)
    with pytest.raises(ParameterError):
        CosetCodeSpec(GF5, length=2, wiretap=1, threshold=2, nodes=(1, 1))
    with pytest.raises(ParameterError):
        CosetCodeSpec(GF5, length=2, wiretap=1, threshold=2, nodes=(1, 9))
    with pytest.raises(ParameterError):
        CosetCodeSpec(GF5, length=6, wiretap=1, threshold=2)  # nodes run out


@pytest.mark.parametrize("field", [GF7, GF256])
def test_round_trip_every_shape_and_subset(field):
    rng = np.random.default_rng(11)
    q = field.order
    for length in range(2, 6):
        for wiretap in range(1, length):
            for threshold in range(wiretap + 1, length + 1):
                spec = CosetCodeSpec(field, length, wiretap, threshold)
                msg = [int(v) for v in rng.integers(0, q, spec.k)]
                key = [int(v) for v in rng.integers(0, q, spec.wiretap)]
                shares = encode(spec, msg, key)
                for ids in combinations(range(1, length + 1), threshold):
                    got = decode(spec, [(i, shares[i - 1]) for i in ids])
                    assert got == tuple(msg)
                # over-complete decode sees consistent shares
                assert decode(spec, list(enumerate(shares, 1))) == tuple(msg)


def test_single_share_is_uniform_for_every_message():
    # exhaustively: fixing the message, each share cycles through the
    # whole field as the key varies (one-time-pad behaviour share-wise)
    spec = CosetCodeSpec(GF5, length=3, wiretap=1, threshold=3)
    for msg in product(range(5), repeat=2):
        for l in range(3):
            seen = {encode(spec, msg, [key])[l] for key in range(5)}
            assert seen == set(range(5))


def test_pair_of_shares_uniform_when_wiretap_two():
    spec = CosetCodeSpec(GF5, length=4, wiretap=2, threshold=3)
    for msg in range(5):
        for pair in combinations(range(4), 2):
            seen = {tuple(encode(spec, [msg], list(keys))[l] for l in pair)
                    for keys in product(range(5), repeat=2)}
            assert len(seen) == 25


def test_keygen_deterministic_and_balanced():
    spec = CosetCodeSpec(GF5, length=3, wiretap=2, threshold=3)
    a = [keygen(spec, source) for source in (np.random.default_rng(99),)]
    b = [keygen(spec, source) for source in (np.random.default_rng(99),)]
    assert a == b
    draws = 10_000
    src = np.random.default_rng(1234)
    counts = np.zeros(5)
    for _ in range(draws):
        for v in keygen(spec, src):
            counts[v] += 1
    total = counts.sum()
    expected = total / 5
    chi2 = float(((counts - expected) ** 2 / expected).sum())
    dof = 4
    assert chi2 < dof + 5 * (2 * dof) ** 0.5


def _chi2_ok(counts) -> bool:
    # the bound of test_keygen_deterministic_and_balanced
    expected = counts.sum() / len(counts)
    chi2 = float(((counts - expected) ** 2 / expected).sum())
    dof = len(counts) - 1
    return chi2 < dof + 5 * (2 * dof) ** 0.5


@pytest.mark.parametrize("q", [256, 5, 251, 257])
def test_system_source_bulk_draws_are_balanced(q):
    # 251 rejects the most bytes (5 of 256); 257 draws 16-bit words
    draws = SystemSymbolSource().draw(q, 200 * q)
    assert draws.shape == (200 * q,)
    assert draws.dtype == (np.uint8 if q <= 256 else np.uint16)
    assert _chi2_ok(np.bincount(draws, minlength=q))


@pytest.mark.parametrize("q,word_bytes", [(5, 1), (251, 1), (256, 1),
                                          (257, 2)])
def test_system_source_rejects_exactly_the_biased_tail(q, word_bytes,
                                                      monkeypatch):
    # feed every word value in turn: keeping only words below the largest
    # multiple of q leaves each residue exactly equally often
    span = 1 << (8 * word_bytes)
    words = np.arange(span, dtype="<u2" if word_bytes == 2 else np.uint8)
    stream = np.tile(words, 4).tobytes()
    position = 0

    def urandom(n):
        nonlocal position
        chunk = stream[position:position + n]
        position += n
        assert len(chunk) == n, "drew more than four full cycles"
        return chunk

    monkeypatch.setattr("smdc.randomness.os.urandom", urandom)
    kept = span - span % q
    draws = SystemSymbolSource().draw(q, 3 * kept)
    counts = np.bincount(draws, minlength=q)
    assert counts.tolist() == [3 * kept // q] * q


def test_keygen_sequence_source_exhaustion():
    spec = CosetCodeSpec(GF5, length=2, wiretap=1, threshold=2)
    src = SequenceSymbolSource([4])
    assert keygen(spec, src) == (4,)
    with pytest.raises(ParameterError):
        keygen(spec, src)


def test_seeds_must_be_non_negative():
    as_symbol_source(0)
    with pytest.raises(ParameterError, match="non-negative"):
        as_symbol_source(-1)


@pytest.mark.parametrize("field", [GF5, GF256])
def test_block_paths_match_scalar_paths(field):
    rng = np.random.default_rng(5150)
    spec = CosetCodeSpec(field, length=4, wiretap=1, threshold=3)
    n = 50
    q = field.order
    msgs = rng.integers(0, q, size=(n, spec.k))
    keys = rng.integers(0, q, size=(n, spec.wiretap))
    shares = encode_blocks(spec, msgs, keys)
    for i in range(n):
        assert tuple(shares[i].tolist()) == encode(
            spec, msgs[i].tolist(), keys[i].tolist())
    ids = (2, 4, 1)
    cols = shares[:, [1, 3, 0]]
    back = decode_blocks(spec, ids, cols)
    assert np.array_equal(back, msgs)
    # extra consistent column passes, corrupted one does not
    full = decode_blocks(spec, (1, 2, 3, 4), shares)
    assert np.array_equal(full, msgs)
    bad = shares.copy()
    bad[7, 3] = (int(bad[7, 3]) + 1) % q
    with pytest.raises(DecodeFailureError):
        decode_blocks(spec, (1, 2, 3, 4), bad)

