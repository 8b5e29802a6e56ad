"""Coset-code tests: frozen shares, recoverability, per-share uniformity."""

from itertools import combinations, product

import numpy as np
import pytest

from field_oracle import add, matrix_inverse, mul, power
from smdc.coset import CosetCodeSpec, decode_blocks, encode_blocks
from smdc.errors import (
    DecodeFailureError,
    InsufficientSharesError,
    ParameterError,
)
from smdc.fields import (array_matmul, binary8_field, lagrange_rows,
                         prime_field, vandermonde_array)
from smdc.randomness import (SequenceSymbolSource, SystemSymbolSource,
                             as_symbol_source)

GF5 = prime_field(5)
GF7 = prime_field(7)
GF256 = binary8_field()


def spec_212():
    return CosetCodeSpec(GF5, length=2, wiretap=1, threshold=2)


def encode(spec, message, key) -> tuple[int, ...]:
    """One block's L share symbols."""
    return tuple(encode_blocks(spec, np.array([message]),
                               np.array([key]))[0].tolist())


def decode(spec, observed) -> tuple[int, ...]:
    """One block's message from (share_index, value) pairs."""
    ids = [i for i, _ in observed]
    values = [v for _, v in observed]
    return tuple(decode_blocks(spec, ids, *np.array([values]).T)[0].tolist())


def test_encode_frozen_values():
    # generator rows (1,1), (1,2): the shares of key 1 are its first
    # column, those of message 1 its second; then key 2, message 3
    unit = encode_blocks(spec_212(), np.array([[0], [1]]), np.array([[1], [0]]))
    assert unit.T.tolist() == [[1, 1], [1, 2]]
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
        CosetCodeSpec(GF5, length=6, wiretap=1, threshold=2)  # nodes run out


def test_spec_shape_must_be_integers():
    for shape in [(4.0, 1, 3), (4, 1.0, 3), (4, 1, 2.5), ("4", 1, 3)]:
        with pytest.raises(ParameterError, match="must be an integer"):
            CosetCodeSpec(GF5, *shape)
    spec = CosetCodeSpec(GF5, np.int64(4), np.uint8(1), np.int32(3))
    assert spec == CosetCodeSpec(GF5, 4, 1, 3)
    assert {type(v) for v in (spec.length, spec.wiretap, spec.threshold)} \
        == {int}


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
    # one block's keys are one draw of `wiretap` symbols
    spec = CosetCodeSpec(GF5, length=3, wiretap=2, threshold=3)
    q = spec.field.order
    a = as_symbol_source(np.random.default_rng(99)).draw(q, spec.wiretap)
    b = as_symbol_source(np.random.default_rng(99)).draw(q, spec.wiretap)
    assert a.tolist() == b.tolist()
    src = as_symbol_source(np.random.default_rng(1234))
    keys = [src.draw(q, spec.wiretap) for _ in range(10_000)]
    assert _chi2_ok(np.bincount(np.concatenate(keys), minlength=q))


def _chi2_ok(counts) -> bool:
    # chi-square of a uniform histogram, within five standard deviations
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
    assert src.draw(spec.field.order, spec.wiretap).tolist() == [4]
    with pytest.raises(ParameterError):
        src.draw(spec.field.order, spec.wiretap)


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
    # share l of a block is sum_j x_j * node_l^j over x = (key, message),
    # in the field's scalar arithmetic
    for i in range(n):
        x = keys[i].tolist() + msgs[i].tolist()
        want = []
        for node in range(1, spec.length + 1):
            acc = 0
            for j, v in enumerate(x):
                acc = add(field, acc,
                          mul(field, int(v), power(field, node, j)))
            want.append(acc)
        assert shares[i].tolist() == want
    ids = (2, 4, 1)
    cols = shares[:, [1, 3, 0]]
    back = decode_blocks(spec, ids, *cols.T)
    assert np.array_equal(back, msgs)
    # extra consistent column passes, corrupted one does not
    full = decode_blocks(spec, (1, 2, 3, 4), *shares.T)
    assert np.array_equal(full, msgs)
    bad = shares.copy()
    bad[7, 3] = (int(bad[7, 3]) + 1) % q
    with pytest.raises(DecodeFailureError):
        decode_blocks(spec, (1, 2, 3, 4), *bad.T)



@pytest.mark.parametrize("field", [GF256, GF5, prime_field(251),
                                   prime_field(65521)])
def test_lagrange_rows_match_the_inverse(field):
    # the closed-form rows are the last rows of the Gauss-Jordan inverse
    # of the Vandermonde matrix on the nodes
    rng = np.random.default_rng(2024)
    q = field.order
    for _ in range(30):
        total = int(rng.integers(1, min(q, 12) + 1))
        m = int(rng.integers(1, total + 1))
        nodes = [int(v) for v in rng.choice(q, size=total, replace=False)]
        top = int(rng.integers(0, m + 1))
        inv = matrix_inverse(field, vandermonde_array(field, nodes[:m], m))
        got = lagrange_rows(field, nodes[:m], top)
        assert got.shape == (top, m)
        assert got.tolist() == inv[m - top:].tolist()


def _old_decode(spec, ids, shares):
    """The decoder this module had before: invert the threshold ids'
    generator rows, decode key and message, re-encode them at the extra
    ids and compare.  None when the comparison fails."""
    gen = vandermonde_array(spec.field, range(1, spec.length + 1),
                            spec.threshold)
    rows = [i - 1 for i in ids]
    m = spec.threshold
    inv = matrix_inverse(spec.field, gen[rows[:m]])
    x = array_matmul(spec.field, shares[:, :m].T, inv.T)
    redo = array_matmul(spec.field, x.T, gen[rows[m:]].T)
    if not np.array_equal(redo, shares[:, m:]):
        return None
    return x[:, spec.wiretap:]


@pytest.mark.parametrize("field", [GF256, GF7])
def test_tampered_extra_shares_fail_exactly_as_before(field):
    # tamper with 1..e extra share columns of random blocks, with deltas
    # that may be zero, and sometimes shift a whole block by a codeword
    # (consistent, so it must pass): the one-pass check must refuse
    # exactly the arrays, and the blocks, that the old two-step check did
    rng = np.random.default_rng(77)
    q = field.order
    spec = CosetCodeSpec(field, 6, 2, 3)
    n = 12
    verdicts = set()
    for _ in range(60):
        ids = tuple(int(i) + 1 for i in rng.permutation(6)[:int(
            rng.integers(4, 7))])
        e = len(ids) - spec.threshold
        msgs = rng.integers(0, q, size=(n, spec.k))
        keys = rng.integers(0, q, size=(n, spec.wiretap))
        shares = encode_blocks(spec, msgs, keys)[:, [i - 1 for i in ids]]
        shares = shares.astype(np.int64)
        for _ in range(int(rng.integers(1, 4))):
            block = int(rng.integers(0, n))
            cols = spec.threshold + rng.choice(
                e, size=int(rng.integers(1, e + 1)), replace=False)
            shares[block, cols] = (shares[block, cols]
                                   + rng.integers(0, 3, size=len(cols))) % q
        if rng.integers(0, 3) == 0:
            block = int(rng.integers(0, n))
            shift = encode_blocks(spec, rng.integers(0, q, (1, spec.k)),
                                  rng.integers(0, q, (1, spec.wiretap)))
            shift = shift[0, [i - 1 for i in ids]].astype(np.int64)
            if field is GF256:
                shares[block] ^= shift
            else:
                shares[block] = (shares[block] + shift) % q
        for rows in [slice(None)] + [slice(b, b + 1) for b in range(n)]:
            old = _old_decode(spec, ids, shares[rows])
            try:
                got = decode_blocks(spec, ids, *shares[rows].T)
            except DecodeFailureError:
                got = None
            assert (got is None) == (old is None)
            if old is not None:
                assert np.array_equal(got, old)
            verdicts.add(old is None)
    assert verdicts == {True, False}
