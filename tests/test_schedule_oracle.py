"""The closed-form schedule and the sorted membership test against the
round-by-round reference they replaced.

The reference checks membership on the explicit region(L, k, 1) system
(all C(L, k) subset rows) and builds the schedule one round at a time.
"""

import random
from fractions import Fraction
from itertools import product
from math import ceil

import pytest

from smdc.coset import CosetCodeSpec
from smdc.errors import ParameterError, RegionViolationError, SmdcError
from smdc.fields import GF5, binary8_field
from smdc.region import region, violated_subsets
from smdc.single_level import (BlockRun, BundleLayout, _as_rates, rate_layout,
                               symmetric_layout)

F = Fraction

# criterion 1's instances: (length, wiretap, threshold, message symbols)
GRID_INSTANCES = [
    (2, 1, 2, 2),
    (3, 1, 2, 2),
    (3, 1, 3, 2),
    (4, 1, 3, 2),
    (4, 2, 3, 1),
]
GRID = [F(j, 4) for j in range(9)]


def reference_rate_layout(params, message_symbols, rates, system=None):
    """Membership on the explicit region, then one round per loop turn."""
    rates = _as_rates(params, rates)
    reg = system if system is not None else region(params.length, params.k, 1)
    if not reg.contains(rates):
        return violated_subsets(reg, rates)
    budgets = [ceil(r * message_symbols) for r in rates]
    floor_active = params.length - params.k
    runs = []
    covered = 0
    j = 1
    while covered < message_symbols:
        active = tuple(l for l in range(1, params.length + 1)
                       if budgets[l - 1] >= j)
        if len(active) <= floor_active:
            raise SmdcError("schedule ran out of capacity")
        size = len(active) - floor_active
        if runs and runs[-1].active == active:
            runs[-1] = BlockRun(active, size, runs[-1].count + 1)
        else:
            runs.append(BlockRun(active, size, 1))
        covered += size
        j += 1
    return BundleLayout(params, tuple(runs), message_symbols)


def k_smallest(rates, k):
    order = sorted(range(len(rates)), key=lambda i: (rates[i], i))
    return tuple(sorted(i + 1 for i in order[:k]))


def assert_same(params, h, rates, system=None):
    want = reference_rate_layout(params, h, rates, system)
    if isinstance(want, BundleLayout):
        assert rate_layout(params, h, rates) == want
        return True
    with pytest.raises(RegionViolationError) as exc:
        rate_layout(params, h, rates)
    witness = exc.value.subset
    assert witness == k_smallest(rates, params.k)
    assert witness in want  # one of the rows the explicit system rejects
    return False


def test_grid_of_criterion_1_matches_reference():
    accepted = rejected = 0
    for length, wiretap, threshold, h in GRID_INSTANCES:
        params = CosetCodeSpec(GF5, length, wiretap, threshold)
        system = region(length, params.k, 1)
        for point in product(GRID, repeat=length):
            if assert_same(params, h, point, system):
                accepted += 1
                # a longer message runs through more budget values
                assert_same(params, 13, point, system)
            else:
                rejected += 1
    assert accepted and rejected


def test_seeded_random_rates_up_to_L12_match_reference():
    rng = random.Random(2024)
    accepted = rejected = 0
    for _ in range(300):
        length = rng.randint(2, 12)
        wiretap = rng.randint(1, length - 1)
        threshold = rng.randint(wiretap + 1, length)
        params = CosetCodeSpec(binary8_field(), length, wiretap, threshold)
        k = params.k
        # rates near 1/k so that both sides of the boundary come up
        rates = [F(rng.randint(0, 3 * k), rng.randint(1, 3) * k)
                 for _ in range(length)]
        h = rng.randint(0, 40)
        if assert_same(params, h, rates):
            accepted += 1
        else:
            rejected += 1
    assert accepted > 30 and rejected > 30


def test_witness_breaks_ties_by_encoder_index():
    params = CosetCodeSpec(GF5, length=4, wiretap=1, threshold=3)  # k = 2
    with pytest.raises(RegionViolationError) as exc:
        rate_layout(params, 4, (F(1, 3), 1, F(1, 3), F(1, 3)))
    assert exc.value.subset == (1, 3)


def test_negative_rate_is_its_own_witness():
    params = CosetCodeSpec(GF5, length=3, wiretap=1, threshold=2)  # k = 1
    rates = (2, -1, 3)
    assert reference_rate_layout(params, 2, rates) == [(2,), (2,)]
    with pytest.raises(RegionViolationError) as exc:
        rate_layout(params, 2, rates)
    assert exc.value.subset == (2,)


def test_symmetric_layout_is_rate_layout_at_equal_rates():
    # rate_layout at rates 1/k is the reference for the closed form
    for length in range(2, 12):
        for wiretap in range(1, length):
            for threshold in range(wiretap + 1, length + 1):
                params = CosetCodeSpec(binary8_field(), length, wiretap,
                                       threshold)
                rates = (F(1, params.k),) * length
                for h in [*range(40), 1023, 1024, 1025, 65536]:
                    assert symmetric_layout(params, h) == \
                        rate_layout(params, h, rates)
                with pytest.raises(ParameterError):
                    symmetric_layout(params, -1)
