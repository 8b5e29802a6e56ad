"""Scheduler and single-source round-trip tests."""

from fractions import Fraction
from itertools import combinations
from math import ceil

import numpy as np
import pytest

from field_oracle import add, mul, power
from smdc.errors import (
    DecodeFailureError,
    InsufficientSharesError,
    ParameterError,
    RegionViolationError,
)
from smdc.coset import CosetCodeSpec
from smdc.fields import binary8_field, prime_field
from smdc.randomness import SequenceSymbolSource
from smdc.single_level import (
    BlockRun,
    decode,
    encode_with_layout,
    rate_layout,
    symmetric_layout,
)

F = Fraction
GF5 = prime_field(5)
GF7 = prime_field(7)


def symmetric_bundle(params, msg, source):
    return encode_with_layout(symmetric_layout(params, len(msg)), msg, source)


def decoded(bundle, ids=None):
    """The message decoded from the payloads of `ids` (all by default),
    as a list of ints."""
    ids = bundle.payloads if ids is None else ids
    return decode(bundle.layout,
                  {l: bundle.payloads[l] for l in ids}).tolist()


def test_frozen_minimal_example():
    params = CosetCodeSpec(GF5, length=2, wiretap=1, threshold=2)
    bundle = symmetric_bundle(params, [3], source=SequenceSymbolSource([2]))
    assert {l: p.tolist() for l, p in bundle.payloads.items()} == \
        {1: [0], 2: [3]}
    assert decoded(bundle) == [3]


def test_symmetric_layout_shape_and_padding():
    params = CosetCodeSpec(GF5, length=3, wiretap=1, threshold=3)  # k = 2
    layout = symmetric_layout(params, 3)
    assert layout.runs == (BlockRun((1, 2, 3), 2, 2),)
    assert layout.padded_symbols == 4
    assert layout.padding == 1
    assert layout.key_symbols == 2
    assert [layout.emitted(l) for l in (1, 2, 3)] == [2, 2, 2]


def test_padding_is_transparent_to_decode():
    params = CosetCodeSpec(GF5, length=3, wiretap=1, threshold=3)
    msg = [1, 4, 2]
    bundle = symmetric_bundle(params, msg, source=7)
    assert decoded(bundle) == msg


def test_uneven_rate_schedule_shape():
    params = CosetCodeSpec(GF5, length=4, wiretap=1, threshold=3)  # k = 2
    layout = rate_layout(params, 4, (1, F(1, 4), F(3, 4), 1))
    assert layout.runs == (BlockRun((1, 2, 3, 4), 2, 1),
                           BlockRun((1, 3, 4), 1, 2))
    assert layout.padding == 0
    assert layout.emitted(2) == 1
    assert layout.emitted(1) == 3


def test_uneven_runs_evaluate_at_encoder_ids():
    # encoder l evaluates every block at node l, also in a run that
    # leaves encoder 2 out: share l of a block is sum_j x_j * l^j over
    # x = (key, message), which is what a share file assumes
    params = CosetCodeSpec(GF5, length=4, wiretap=1, threshold=3)
    layout = rate_layout(params, 4, (1, F(1, 4), F(3, 4), 1))
    assert [run.active for run in layout.runs] == [(1, 2, 3, 4), (1, 3, 4)]
    msg, keys = [3, 1, 4, 2], [2, 0, 3]
    bundle = encode_with_layout(layout, msg, SequenceSymbolSource(keys))
    want = {l: [] for l in range(1, 5)}
    offset = block = 0
    for run in layout.runs:
        for _ in range(run.count):
            x = [keys[block]] + msg[offset:offset + run.size]
            for l in run.active:
                acc = 0
                for j, v in enumerate(x):
                    acc = add(GF5, acc, mul(GF5, v, power(GF5, l, j)))
                want[l].append(acc)
            offset += run.size
            block += 1
    assert {l: p.tolist() for l, p in bundle.payloads.items()} == want


def test_rate_layout_rejects_outside_region_with_witness():
    params = CosetCodeSpec(GF5, length=3, wiretap=1, threshold=2)  # k = 1
    h = 2
    with pytest.raises(RegionViolationError) as exc:
        rate_layout(params, h, (1, F(1, 2), 1))
    assert exc.value.subset == (2,)
    params2 = CosetCodeSpec(GF5, length=4, wiretap=1, threshold=3)
    with pytest.raises(RegionViolationError) as exc2:
        rate_layout(params2, h, (1, F(1, 3), F(1, 2), 1))
    assert exc2.value.subset == (2, 3)


def test_rate_layout_rejects_floats_and_bad_width():
    params = CosetCodeSpec(GF5, length=2, wiretap=1, threshold=2)
    with pytest.raises(ParameterError):
        rate_layout(params, 2, (1.0, 1.0))
    with pytest.raises(ParameterError):
        rate_layout(params, 2, (1,))


def test_message_length_must_be_an_integer():
    params = CosetCodeSpec(GF5, length=4, wiretap=1, threshold=3)
    with pytest.raises(ParameterError, match="message length must be"):
        symmetric_layout(params, 2.5)
    with pytest.raises(ParameterError, match="message length must be"):
        rate_layout(params, 2.0, (1, 1, 1, 1))
    assert symmetric_layout(params, np.int64(5)) == symmetric_layout(params, 5)


@pytest.mark.parametrize("shape", [(2, 1, 2), (3, 1, 2), (3, 1, 3),
                                   (4, 1, 3), (4, 2, 3), (5, 2, 4)])
def test_symmetric_round_trip_all_subsets(shape):
    length, wiretap, threshold = shape
    params = CosetCodeSpec(GF7, length, wiretap, threshold)
    rng = np.random.default_rng(31)
    msg = [int(v) for v in rng.integers(0, 7, size=5)]
    bundle = symmetric_bundle(params, msg, source=rng)
    for ids in combinations(range(1, length + 1), threshold):
        assert decoded(bundle, ids) == msg
    assert decoded(bundle) == msg


RATE_CASES = [
    ((3, 1, 3), (F(1, 2), F(1, 2), F(1, 2))),
    ((3, 1, 3), (1, 0, 1)),
    ((3, 1, 3), (1, F(1, 4), F(3, 4))),
    ((4, 1, 3), (1, F(1, 4), F(3, 4), 1)),
    ((4, 1, 3), (1, 1, 1, 0)),
    ((4, 2, 3), (1, 1, 1, 1)),
    ((4, 2, 4), (F(1, 2), F(1, 2), F(1, 2), 1)),
    ((5, 1, 4), (F(1, 3), F(1, 3), F(1, 3), F(2, 3), F(2, 3))),
]


@pytest.mark.parametrize("shape,rates", RATE_CASES)
def test_rated_round_trip_all_subsets(shape, rates):
    length, wiretap, threshold = shape
    params = CosetCodeSpec(GF7, length, wiretap, threshold)
    rng = np.random.default_rng(sum(shape))
    for h in (1, 2, 5, 8):
        msg = [int(v) for v in rng.integers(0, 7, size=h)]
        bundle = encode_with_layout(rate_layout(params, h, rates), msg,
                                    source=rng)
        for ids in combinations(range(1, length + 1), threshold):
            assert decoded(bundle, ids) == msg


@pytest.mark.parametrize("shape,rates", RATE_CASES)
def test_rate_accounting_within_block_slack(shape, rates):
    length, wiretap, threshold = shape
    params = CosetCodeSpec(GF7, length, wiretap, threshold)
    k = threshold - wiretap
    for h in (1, 3, 7, 20):
        layout = rate_layout(params, h, rates)
        assert 0 <= layout.padding < k
        for l in range(1, length + 1):
            declared = Fraction(rates[l - 1])
            assert layout.emitted(l) <= declared * h + k
        # the schedule never exceeds the k smallest budgets
        budgets = sorted(ceil(Fraction(r) * h) for r in rates)
        assert layout.padded_symbols <= sum(budgets[:k])


def test_corner_layout_matches_rate_path():
    # a corner of the region is rate_layout at corner rates: the encoders
    # at rate 0 stay silent and the rest share the message evenly
    params = CosetCodeSpec(GF5, length=3, wiretap=1, threshold=3)  # k = 2
    layout = rate_layout(params, 3, (1, 0, 1))
    assert layout.emitted(2) == 0
    assert layout.runs == (BlockRun((1, 3), 1, 3),)
    msg = [2, 0, 4]
    bundle = encode_with_layout(layout, msg, source=3)
    assert decode(layout, {l: bundle.payloads[l] for l in (1, 2, 3)}
                  ).tolist() == msg
    params = CosetCodeSpec(GF7, length=4, wiretap=1, threshold=4)  # k = 3
    for msg in ([1, 2, 3], [1, 2, 3, 4, 5]):
        rated = rate_layout(params, len(msg), (F(1, 2), F(1, 2), 0, F(1, 2)))
        assert rated.runs == (BlockRun((1, 2, 4), 2, ceil(len(msg) / 2)),)
        bundle = encode_with_layout(rated, msg, source=42)
        assert decoded(bundle) == msg


def test_decode_insufficient_outputs_names_shortfall():
    params = CosetCodeSpec(GF5, length=4, wiretap=1, threshold=3)
    bundle = symmetric_bundle(params, [1, 2, 3], source=0)
    with pytest.raises(InsufficientSharesError) as exc:
        decoded(bundle, (1, 4))
    assert exc.value.needed == 3 and exc.value.have == 2
    assert exc.value.shortfall == 1
    assert "1 short" in str(exc.value)


def test_decode_rejects_wrong_payload_length():
    params = CosetCodeSpec(GF5, length=3, wiretap=1, threshold=2)
    bundle = symmetric_bundle(params, [1, 2], source=0)
    broken = dict(bundle.payloads)
    broken[2] = broken[2][:-1]
    with pytest.raises(ParameterError):
        decode(bundle.layout, broken)


def test_decode_detects_corruption_with_extra_shares():
    params = CosetCodeSpec(GF5, length=3, wiretap=1, threshold=2)
    bundle = symmetric_bundle(params, [1, 2], source=0)
    tampered = dict(bundle.payloads)
    tampered[3] = (tampered[3] + 1) % 5
    with pytest.raises(DecodeFailureError):
        decode(bundle.layout, tampered)


def test_binary_field_round_trip():
    params = CosetCodeSpec(binary8_field(), length=4, wiretap=2, threshold=3)
    rng = np.random.default_rng(606)
    msg = [int(v) for v in rng.integers(0, 256, size=9)]
    bundle = symmetric_bundle(params, msg, source=rng)
    for ids in combinations(range(1, 5), 3):
        assert decoded(bundle, ids) == msg


def test_fresh_keys_differ_between_blocks():
    # two equal message blocks must not produce equal share blocks
    params = CosetCodeSpec(GF5, length=2, wiretap=1, threshold=2)
    bundle = symmetric_bundle(params, [3, 3, 3, 3],
                              source=SequenceSymbolSource([0, 1, 2, 3]))
    assert len(set(zip(bundle.payloads[1].tolist(),
                       bundle.payloads[2].tolist()))) == 4
