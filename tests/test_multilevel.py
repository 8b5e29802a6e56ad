"""Multilevel (superposition) codec tests."""

from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from smdc.errors import InsufficientSharesError, ParameterError, RegionViolationError
from smdc.fields import prime_field
from smdc.multilevel import SmdcParams, decode, encode, plan
from smdc.randomness import SequenceSymbolSource
from smdc.region import smdc_min_sum_rate

F = Fraction
GF5 = prime_field(5)
GF7 = prime_field(7)


def decoded(bundle, subset=None):
    """decode's sources from the payloads of a subset (all by default),
    as lists of ints."""
    held = bundle.payloads if subset is None else subset
    return [s.tolist() for s in decode(
        bundle.layout, {l: bundle.payloads[l] for l in held})]


def test_frozen_two_level_example():
    params = SmdcParams(GF5, length=3, wiretap=1, source_lengths=(1, 2))
    bundle = encode(plan(params), [[2], [0, 4]], source=SequenceSymbolSource([3, 1]))
    assert {l: [p.tolist() for p in parts]
            for l, parts in bundle.payloads.items()} == {
        1: [[0], [0]],
        2: [[2], [2]],
        3: [[4], [2]],
    }
    assert decoded(bundle) == [[2], [0, 4]]


def test_priority_peeling_by_subset_size():
    params = SmdcParams(GF7, length=4, wiretap=1, source_lengths=(2, 2, 3))
    rng = np.random.default_rng(17)
    sources = [[int(v) for v in rng.integers(0, 7, size=h)]
               for h in params.source_lengths]
    bundle = encode(plan(params), sources, source=rng)
    for size in range(2, 5):
        for ids in combinations(range(1, 5), size):
            got = decoded(bundle, ids)
            assert len(got) == size - 1
            for k, msg in enumerate(got):
                assert msg == sources[k]


def test_insufficient_outputs():
    params = SmdcParams(GF5, length=3, wiretap=2, source_lengths=(2,))
    bundle = encode(plan(params), [[1, 2]], source=0)
    with pytest.raises(InsufficientSharesError) as exc:
        decoded(bundle, (2, 3))
    assert exc.value.needed == 3 and exc.value.have == 2


def test_emitted_totals_match_closed_form_on_divisible_lengths():
    # with every h_k a multiple of k there is no padding anywhere, so the
    # default scheme lands exactly on the minimum total rate
    params = SmdcParams(GF7, length=4, wiretap=1, source_lengths=(1, 2, 3))
    layout = plan(params)
    bundle = encode(layout, [[1], [2, 3], [4, 5, 6]], source=1)
    rates = tuple(layout.emitted(l) for l in range(1, 5))
    assert rates == tuple(sum(len(p) for p in bundle.payloads[l])
                          for l in range(1, 5))
    assert sum(rates) == smdc_min_sum_rate(4, 1, [1, 2, 3])
    assert rates == (3, 3, 3, 3)


def test_custom_rates_flow_to_levels():
    params = SmdcParams(GF5, length=3, wiretap=1, source_lengths=(2, 2))
    custom = [(1, 1, 1), (1, 0, 1)]
    bundle = encode(plan(params, custom), [[1, 2], [3, 4]], source=2)
    assert bundle.payloads[2][1].size == 0  # silent in the second level
    for ids in combinations(range(1, 4), 3):
        assert decoded(bundle, ids) == [[1, 2], [3, 4]]
    assert decoded(bundle, (1, 3))[0] == [1, 2]
    with pytest.raises(RegionViolationError):
        plan(params, rates=[(1, 1, 1), (1, 0, F(1, 2))])


def test_plan_validates_shapes():
    params = SmdcParams(GF5, length=3, wiretap=1, source_lengths=(1, 1))
    with pytest.raises(ParameterError):
        plan(params, rates=[(1, 1, 1)])
    with pytest.raises(ParameterError):
        SmdcParams(GF5, length=3, wiretap=1, source_lengths=(1,))
    with pytest.raises(ParameterError):
        SmdcParams(GF5, length=3, wiretap=3, source_lengths=())
    with pytest.raises(ParameterError):
        encode(plan(params), [[1]], source=0)


def test_zero_length_source_is_allowed():
    params = SmdcParams(GF5, length=3, wiretap=1, source_lengths=(0, 2))
    bundle = encode(plan(params), [[], [1, 2]], source=9)
    assert decoded(bundle) == [[], [1, 2]]
    assert decoded(bundle, (1, 2))[0] == []


def test_round_trip_all_shapes_up_to_five():
    rng = np.random.default_rng(23)
    for length in range(2, 6):
        for wiretap in range(1, length):
            lengths = tuple(int(v) for v in
                            rng.integers(1, 5, size=length - wiretap))
            params = SmdcParams(GF7, length, wiretap, lengths)
            sources = [[int(v) for v in rng.integers(0, 7, size=h)]
                       for h in lengths]
            bundle = encode(plan(params), sources, source=rng)
            for size in range(wiretap + 1, length + 1):
                for ids in combinations(range(1, length + 1), size):
                    got = decoded(bundle, ids)
                    want = min(size - wiretap, length - wiretap)
                    assert len(got) == want
                    assert all(got[k] == sources[k] for k in range(want))
