"""Exhaustive-verifier tests.

The anchor is a hand-enumerated code over GF(3): two encoders, one tap,
one message symbol, shares x1 = key + msg and x2 = key + 2*msg.  Its
full joint table is written out below and every verifier feature is
first exercised against that table.
"""

import dataclasses
import math
import time
from collections import Counter
from fractions import Fraction
from itertools import combinations, product

import numpy as np
import pytest

from smdc import single_level
from smdc.cli import EXIT_VERIFY_FAILED, entry
from smdc.coset import CosetCodeSpec
from smdc.errors import BudgetExceededError, ParameterError
from smdc.fields import GF5, prime_field
from smdc.multilevel import SmdcParams, plan as multilevel_plan, encode as multilevel_encode
from smdc.randomness import SequenceSymbolSource
from smdc.single_level import encode_with_layout, rate_layout, symmetric_layout
from smdc.verify import (DENSE_SPAN, CodeUnderTest, ExactLogSum,
                         VerifierBudget, _group, _rank,
                         check_perfect_secrecy, check_prop2_inequality,
                         check_reconstruction, code_for_layout,
                         code_for_multilevel, conditional_entropy,
                         enumerate_joint, source_entropy,
                         verification_report)

GF3 = prime_field(3)

# x1 = k + s, x2 = k + 2s over GF(3), enumerated by hand.
HAND_TABLE = {
    (((0,),), ((0,), (0,))): 1,
    (((0,),), ((1,), (1,))): 1,
    (((0,),), ((2,), (2,))): 1,
    (((1,),), ((1,), (2,))): 1,
    (((1,),), ((2,), (0,))): 1,
    (((1,),), ((0,), (1,))): 1,
    (((2,),), ((2,), (1,))): 1,
    (((2,),), ((0,), (2,))): 1,
    (((2,),), ((1,), (0,))): 1,
}


def rows(batch) -> list[tuple]:
    """Per-word tuples of Python ints from a (W, n) batch, or from a tuple
    nesting such batches (then each word gets the same nesting)."""
    if isinstance(batch, tuple):
        return list(zip(*map(rows, batch)))
    return list(map(tuple, np.asarray(batch).tolist()))


def joint_table(dist) -> dict:
    """Count of every (sources, shares) outcome among the enumerated words."""
    return dict(Counter(zip(rows(dist.sources), rows(dist.shares))))


def hand_code() -> CodeUnderTest:
    # batches: sources[0] and keys are (W, 1) arrays, one row per word
    def encode_fn(sources, keys):
        s, k = sources[0], keys
        return ((k + s) % 3, (k + 2 * s) % 3)

    def decode_fn(observed):
        if len(observed) < 2:
            return ()
        x1, x2 = observed[1], observed[2]
        s = (x2 - x1) % 3          # (x2 - x1) = s mod 3
        return (s,)

    return CodeUnderTest(q=3, length=2, wiretap=1, source_symbols=(1,),
                         key_symbols=1, encode_fn=encode_fn,
                         decode_fn=decode_fn,
                         expected_sources=lambda size: 1 if size >= 2 else 0)


def leaky_code() -> CodeUnderTest:
    # no key at all: every share is the message itself
    def encode_fn(sources, keys):
        return (sources[0], sources[0])

    return CodeUnderTest(q=5, length=2, wiretap=1, source_symbols=(1,),
                         key_symbols=0, encode_fn=encode_fn,
                         decode_fn=lambda observed: (),
                         expected_sources=lambda size: 1 if size >= 2 else 0)


def test_enumerate_joint_matches_hand_table():
    dist = enumerate_joint(hand_code())
    assert dist.total == 9
    assert joint_table(dist) == HAND_TABLE
    assert dist.q == 3 and dist.length == 2 and dist.wiretap == 1


def test_secrecy_holds_for_single_taps_and_breaks_for_pairs():
    dist = enumerate_joint(hand_code())
    assert check_perfect_secrecy(dist, (1,)).ok
    assert check_perfect_secrecy(dist, (2,)).ok
    rep = check_perfect_secrecy(dist, (1, 2))
    assert not rep.ok
    cell = rep.counterexample
    lhs = cell["count"] * cell["total"]
    rhs = cell["source_count"] * cell["observed_count"]
    assert lhs != rhs


def test_secrecy_counterexample_on_leaky_code():
    dist = enumerate_joint(leaky_code())
    rep = check_perfect_secrecy(dist, (1,))
    assert not rep.ok
    assert rep.counterexample is not None
    with pytest.raises(ParameterError):
        check_perfect_secrecy(dist, (0,))


def missing_cell_code() -> CodeUnderTest:
    # x1 = T[s][k], x2 = s + k over GF(3); row s = 0 of T is balanced, but
    # no key gives x1 = 0 for s = 1, so the first failing cell is empty
    table = np.array([[0, 1, 2], [1, 1, 2], [0, 0, 2]])
    return CodeUnderTest(q=3, length=2, wiretap=1, source_symbols=(1,),
                         key_symbols=1,
                         encode_fn=lambda sources, keys:
                             (table[sources[0], keys],
                              (sources[0] + keys) % 3),
                         decode_fn=lambda observed: (),
                         expected_sources=lambda size: 0)


def test_secrecy_counterexample_can_be_a_cell_that_never_occurs():
    rep = check_perfect_secrecy(enumerate_joint(missing_cell_code()), (1,))
    assert not rep.ok
    assert rep.counterexample == {
        "sources": ((1,),), "observed": ((0,),), "count": 0, "total": 9,
        "source_count": 3, "observed_count": 3}


def test_reconstruction_on_hand_code_and_failure_on_leaky():
    code = hand_code()
    dist = enumerate_joint(code)
    rep = check_reconstruction(code, dist, (1, 2))
    assert rep.ok and rep.expected_sources == 1
    broken = leaky_code()
    rep = check_reconstruction(broken, enumerate_joint(broken), (1, 2))
    assert not rep.ok
    assert rep.counterexample["decoded"] == ()


LOG3 = math.log2(3)


def test_entropies_on_hand_table():
    dist = enumerate_joint(hand_code())
    h_s = conditional_entropy(dist, ["S1"])
    assert abs(h_s.bits - LOG3) <= 1e-12 and h_s.float_agrees
    assert h_s.exact == ExactLogSum.of_log(3)
    assert abs(conditional_entropy(dist, ["X1"]).bits - LOG3) <= 1e-12
    # tapping one share tells nothing
    h_cond = conditional_entropy(dist, ["S1"], ["X1"])
    assert abs(h_cond.bits - LOG3) <= 1e-12 and h_cond.float_agrees
    # both shares determine the message
    assert conditional_entropy(dist, ["S1"], ["X1", "X2"]).bits == 0.0
    # the share pair is uniform over 9 values
    pair = conditional_entropy(dist, ["X1", "X2"])
    assert (pair.exact - ExactLogSum.of_log(3, Fraction(2))).sign() == 0
    assert source_entropy(dist, 1) == ExactLogSum.of_log(3)


def reference_entropy(table, total, targets, given):
    """H(targets | given) by a walk over an outcome table: the exact value
    and the float added cell by cell, in order of first appearance."""
    def value(outcome, label):
        sources, shares = outcome
        return (sources if label[0] == "S" else shares)[int(label[1:]) - 1]

    groups = {}
    for outcome, c in table.items():
        bucket = groups.setdefault(
            tuple(value(outcome, label) for label in given), {})
        t = tuple(value(outcome, label) for label in targets)
        bucket[t] = bucket.get(t, 0) + c
    exact, bits = ExactLogSum(), 0.0
    for bucket in groups.values():
        c_g = sum(bucket.values())
        for c in bucket.values():
            w = Fraction(c, total)
            exact += ExactLogSum.of_log(c_g, w) - ExactLogSum.of_log(c, w)
            bits += float(w) * math.log2(c_g / c)
    return exact, bits


def test_entropies_match_a_walk_over_the_outcome_table():
    dist = enumerate_joint(code_for_multilevel(
        multilevel_plan(SmdcParams(GF5, 3, 1, (1, 1)))))
    table = joint_table(dist)
    labels = ["S1", "S2", "X1", "X2", "X3"]
    for size in (1, 2):
        for targets in combinations(labels, size):
            for given in [()] + [(label,) for label in labels]:
                got = conditional_entropy(dist, targets, given)
                # the same float, to the last bit, not just a close one
                assert (got.exact, got.bits) == reference_entropy(
                    table, dist.total, targets, given), (targets, given)


def test_entropy_label_validation():
    dist = enumerate_joint(hand_code())
    with pytest.raises(ParameterError):
        conditional_entropy(dist, ["S2"])
    with pytest.raises(ParameterError):
        conditional_entropy(dist, ["X3"])
    with pytest.raises(ParameterError):
        conditional_entropy(dist, ["Z1"])


def test_exact_log_sum_arithmetic_and_sign():
    assert ExactLogSum.of_log(12).coeffs == ((2, Fraction(2)), (3, Fraction(1)))
    assert ExactLogSum.of_log(1) == ExactLogSum()
    assert ExactLogSum.of_log(6) - ExactLogSum.of_log(2) - ExactLogSum.of_log(3) == ExactLogSum()
    assert abs(ExactLogSum.of_log(8).to_float() - 3.0) <= 1e-15
    # log2(3) vs (3/2) log2(2): compare 3^2 against 2^3
    tight = ExactLogSum.of_log(3) - ExactLogSum.of_log(2, Fraction(3, 2))
    assert tight.sign() == 1
    assert (-tight).sign() == -1
    assert ExactLogSum().sign() == 0
    assert ExactLogSum.of_log(5).is_nonnegative()
    with pytest.raises(ParameterError):
        ExactLogSum.of_log(0)


def test_budget_refusal_happens_before_any_encoding():
    calls = []

    def encode_fn(sources, keys):
        calls.append(1)
        return (np.zeros((len(keys), 0)),) * 2

    big = CodeUnderTest(q=5, length=2, wiretap=1, source_symbols=(3,),
                        key_symbols=3, encode_fn=encode_fn,
                        decode_fn=lambda observed: (),
                        expected_sources=lambda size: 0)
    assert big.outcome_count == 5 ** 6
    with pytest.raises(BudgetExceededError):
        enumerate_joint(big, VerifierBudget(max_outcomes=1000))
    assert calls == []


def test_report_entry_refusal_happens_before_any_encoding():
    calls = []

    def encode_fn(sources, keys):
        calls.append(1)
        return (sources[0],) * 6

    # two outcomes, but 6 tap sets and 57 reconstruction subsets
    wide = CodeUnderTest(q=2, length=6, wiretap=1, source_symbols=(1,),
                         key_symbols=0, encode_fn=encode_fn,
                         decode_fn=lambda observed: (),
                         expected_sources=lambda size: 1)
    with pytest.raises(BudgetExceededError, match="63 report entries"):
        verification_report(wide, VerifierBudget(max_outcomes=62))
    assert calls == []
    verification_report(wide, VerifierBudget(max_outcomes=63))
    assert calls == [1]


def test_time_budget_interrupts_enumeration():
    big = CodeUnderTest(q=7, length=2, wiretap=1, source_symbols=(3,),
                        key_symbols=3,
                        encode_fn=lambda sources, keys:
                            (np.zeros((len(keys), 0)),) * 2,
                        decode_fn=lambda observed: (),
                        expected_sources=lambda size: 0)
    with pytest.raises(BudgetExceededError):
        enumerate_joint(big, VerifierBudget(max_outcomes=7 ** 6,
                                            max_seconds=0.0))


def test_time_budget_bounds_the_whole_report():
    # nine outcomes fit one encode_fn call, and the report's time goes
    # into decoding: the budget must still stop it
    code = hand_code()
    calls = []

    def slow_decode(observed):
        calls.append(sorted(observed))
        time.sleep(0.3)
        return code.decode_fn(observed)

    def slow_encode(sources, keys):
        time.sleep(0.3)
        return code.encode_fn(sources, keys)

    slow = dataclasses.replace(code, decode_fn=slow_decode)
    with pytest.raises(BudgetExceededError):
        verification_report(slow, VerifierBudget(max_seconds=0.2))
    assert calls == [[1, 2]]
    with pytest.raises(BudgetExceededError):
        enumerate_joint(dataclasses.replace(code, encode_fn=slow_encode),
                        VerifierBudget(max_seconds=0.2))
    assert verification_report(slow, VerifierBudget(max_seconds=60))["ok"]


def walk_groups(words: list) -> tuple[list[int], list[int]]:
    """Group ids by first appearance and each group's first word, by a
    dict walk over the words in order."""
    ids, first = {}, []
    for i, word in enumerate(words):
        if word not in ids:
            ids[word] = len(first)
            first.append(i)
    return [ids[word] for word in words], first


def assert_grouping(got, want):
    ids, first = got
    assert (ids.tolist(), first.tolist()) == want


@pytest.mark.parametrize("words", [1, 2, 7, 500])
def test_dense_and_sorted_grouping_agree_with_a_walk(words):
    rng = np.random.default_rng(words)
    for span in (DENSE_SPAN * words - 1, DENSE_SPAN * words,
                 DENSE_SPAN * words + 1):
        span = max(span, 1)
        key = rng.integers(0, span, words)
        key[0], key[-1] = 0, span - 1        # a column spanning exactly span
        want = walk_groups(key.tolist())
        assert_grouping(_group(key[:, None], words), want)
        # any span above the key's values is valid; past the bound, sorted
        assert_grouping(_rank(key, span), want)
        assert_grouping(_rank(key, DENSE_SPAN * words + 1), want)
    # several columns, a nested batch and repeated words
    batch = (rng.integers(0, 3, (words, 2)), (rng.integers(5, 7, (words, 1)),))
    rows = [tuple(r) for r in np.hstack([batch[0], batch[1][0]]).tolist()]
    assert_grouping(_group(batch, words), walk_groups(rows))
    # no columns at all: one group
    assert_grouping(_group(np.zeros((words, 0), dtype=np.int64), words),
                    ([0] * words, [0]))
    assert_grouping(_group((), words), ([0] * words, [0]))


def test_grouping_recompacts_wide_columns():
    # three columns of 2**31 values pass 2**62 once packed: the key is
    # re-compacted to group ids on the way
    rng = np.random.default_rng(7)
    pool = rng.integers(0, 1 << 31, (40, 3))
    pool[0], pool[1] = 0, (1 << 31) - 1
    rows = pool[rng.integers(0, len(pool), 300)]
    want = walk_groups([tuple(r) for r in rows.tolist()])
    assert_grouping(_group(rows, len(rows)), want)


# --- layout adapters ---------------------------------------------------------


def public_single_table(layout):
    params = layout.params
    q = params.field.order
    h = layout.message_symbols
    counts = {}
    for word in product(range(q), repeat=h + layout.key_symbols):
        bundle = encode_with_layout(layout, list(word[:h]),
                                    SequenceSymbolSource(word[h:]))
        shares = tuple(tuple(bundle.payloads[l].tolist())
                       for l in range(1, params.length + 1))
        outcome = ((word[:h],), shares)
        counts[outcome] = counts.get(outcome, 0) + 1
    return counts


def test_layout_adapter_reproduces_hand_table():
    layout = symmetric_layout(CosetCodeSpec(GF3, 2, 1, 2), 1)
    code = code_for_layout(layout)
    dist = enumerate_joint(code)
    assert joint_table(dist) == HAND_TABLE
    assert joint_table(dist) == public_single_table(layout)


@pytest.mark.parametrize("params,h,rates", [
    (CosetCodeSpec(GF5, 3, 1, 3), 2, None),
    (CosetCodeSpec(GF5, 3, 1, 2), 1, (1, 2, 1)),
    (CosetCodeSpec(GF5, 4, 1, 3), 2, (0, 1, 1, 1)),
])
def test_layout_adapter_matches_public_encoder(params, h, rates):
    if rates is None:
        layout = symmetric_layout(params, h)
    else:
        layout = rate_layout(params, h, [Fraction(r) for r in rates])
    code = code_for_layout(layout)
    dist = enumerate_joint(code)
    assert joint_table(dist) == public_single_table(layout)
    assert dist.total == code.q ** (h + layout.key_symbols)


def test_layout_adapter_full_verification():
    layout = rate_layout(CosetCodeSpec(GF5, 4, 1, 3), 2,
                         [Fraction(0), 1, 1, 1])
    code = code_for_layout(layout)
    dist = enumerate_joint(code)
    for tapped in range(1, 5):
        assert check_perfect_secrecy(dist, (tapped,)).ok
    for subset in combinations(range(1, 5), 3):
        assert check_reconstruction(code, dist, subset).ok
    assert check_reconstruction(code, dist, (1, 2, 3, 4)).ok
    # a full threshold-size tap set must see everything leak
    assert not check_perfect_secrecy(dist, (2, 3, 4)).ok


def public_multilevel_table(params, layout):
    q = params.field.order
    lengths = params.source_lengths
    total_src = sum(lengths)
    keys = sum(level.key_symbols for level in layout.levels)
    cuts = []
    at = 0
    for h in lengths:
        cuts.append((at, at + h))
        at += h
    counts = {}
    for word in product(range(q), repeat=total_src + keys):
        sources = [list(word[a:b]) for a, b in cuts]
        bundle = multilevel_encode(layout, sources,
                                   SequenceSymbolSource(word[total_src:]))
        shares = tuple(tuple(tuple(p.tolist()) for p in bundle.payloads[l])
                       for l in range(1, params.length + 1))
        outcome = (tuple(word[a:b] for a, b in cuts), shares)
        counts[outcome] = counts.get(outcome, 0) + 1
    return counts


def test_multilevel_adapter_matches_public_encoder():
    params = SmdcParams(GF5, 3, 1, (1, 1))
    layout = multilevel_plan(params)
    code = code_for_multilevel(layout)
    dist = enumerate_joint(code)
    assert joint_table(dist) == public_multilevel_table(params, layout)
    assert dist.total == 5 ** 4
    for l in (1, 2, 3):
        assert check_perfect_secrecy(dist, (l,)).ok
    # pairs decode the first source only, the full set decodes both
    for subset in combinations((1, 2, 3), 2):
        rep = check_reconstruction(code, dist, subset)
        assert rep.ok and rep.expected_sources == 1
    rep = check_reconstruction(code, dist, (1, 2, 3))
    assert rep.ok and rep.expected_sources == 2


def test_verifier_runs_the_plan_it_is_given(monkeypatch):
    # level 2 leaves encoder 2 silent: an uneven plan that a fresh
    # symmetric plan would not reproduce
    params = SmdcParams(GF5, 3, 1, (1, 2))
    layout = multilevel_plan(params, [(1, 1, 1), (1, 0, 1)])
    keys = sum(level.key_symbols for level in layout.levels)
    assert keys != sum(level.key_symbols
                       for level in multilevel_plan(params).levels)

    def no_plan(*args, **kwargs):
        raise AssertionError("the verifier planned again")

    monkeypatch.setattr("smdc.multilevel.plan", no_plan)
    report = verification_report(code_for_multilevel(layout))
    assert report["ok"]
    assert report["key_symbols"] == keys


def test_prop2_holds_with_zero_slack_on_mds_levels():
    params = SmdcParams(GF5, 3, 1, (1, 1))
    code = code_for_multilevel(multilevel_plan(params))
    dist = enumerate_joint(code)
    for a in (1, 2, 3):
        rest = [l for l in (1, 2, 3) if l != a]
        for d in rest:
            rep = check_prop2_inequality(dist, 1, (a,), (d,))
            assert rep.ok and rep.slack.sign() == 0
            assert abs(rep.slack_bits) <= 1e-12
        rep = check_prop2_inequality(dist, 2, (a,), tuple(rest))
        assert rep.ok and rep.slack.sign() == 0


def test_prop2_catches_a_leaky_code():
    dist = enumerate_joint(leaky_code())
    rep = check_prop2_inequality(dist, 1, (1,), (2,))
    assert not rep.ok
    assert rep.slack.sign() == -1
    assert abs(rep.slack_bits + math.log2(5)) <= 1e-12


def test_prop2_argument_validation():
    dist = enumerate_joint(code_for_multilevel(
        multilevel_plan(SmdcParams(GF5, 3, 1, (1, 1)))))
    with pytest.raises(ParameterError):
        check_prop2_inequality(dist, 1, (1, 2), (3,))     # tap set too big
    with pytest.raises(ParameterError):
        check_prop2_inequality(dist, 1, (1,), (2, 3))     # |D| != level
    with pytest.raises(ParameterError):
        check_prop2_inequality(dist, 2, (1,), (1, 2))     # overlap
    with pytest.raises(ParameterError):
        check_prop2_inequality(dist, 3, (1,), (2, 3))     # no third source
    with pytest.raises(ParameterError):
        check_prop2_inequality(dist, 1, (1,), (9,))       # unknown encoder


def product_code(code: CodeUnderTest, copies: int) -> CodeUnderTest:
    """Several independent uses of one code, keys drawn separately.

    Shares of each encoder are the concatenation across uses; sources
    are repeated per use.  Used to confirm that secrecy composes.
    """
    if copies < 1:
        raise ParameterError("need at least one copy")
    n_src = len(code.source_symbols)
    per_key = code.key_symbols

    def encode_fn(sources: tuple, keys: np.ndarray) -> tuple:
        uses = [code.encode_fn(sources[i * n_src:(i + 1) * n_src],
                               keys[:, i * per_key:(i + 1) * per_key])
                for i in range(copies)]
        return tuple(zip(*uses))

    def decode_fn(observed: dict) -> tuple:
        out = []
        for i in range(copies):
            got = code.decode_fn({l: sh[i] for l, sh in observed.items()})
            if len(got) != n_src:
                return ()
            out.extend(got)
        return tuple(out)

    def expected(size: int) -> int:
        per = code.expected_sources(size)
        return copies * n_src if per == n_src else 0

    return CodeUnderTest(
        q=code.q, length=code.length, wiretap=code.wiretap,
        source_symbols=code.source_symbols * copies,
        key_symbols=per_key * copies,
        encode_fn=encode_fn, decode_fn=decode_fn,
        expected_sources=expected)


def test_product_code_keeps_secrecy_across_uses():
    base = code_for_layout(symmetric_layout(CosetCodeSpec(GF3, 2, 1, 2), 1))
    twice = product_code(base, 2)
    assert twice.source_symbols == (1, 1)
    assert twice.key_symbols == 2
    dist = enumerate_joint(twice)
    assert dist.total == 81
    assert check_perfect_secrecy(dist, (1,)).ok
    assert check_perfect_secrecy(dist, (2,)).ok
    rep = check_reconstruction(twice, dist, (1, 2))
    assert rep.ok and rep.expected_sources == 2
    with pytest.raises(ParameterError):
        product_code(base, 0)


def test_verification_report_shape_and_verdict():
    layout = symmetric_layout(CosetCodeSpec(GF5, 3, 1, 2), 1)
    report = verification_report(code_for_layout(layout))
    assert report["ok"]
    assert report["outcomes"] == 25
    assert set(report["secrecy"]) == {"1", "2", "3"}
    assert set(report["reconstruction"]) == {"1,2", "1,3", "2,3", "1,2,3"}
    assert all(v["ok"] and v["counterexample"] is None
               for v in report["secrecy"].values())
    assert all(v["ok"] for v in report["reconstruction"].values())
    # perfect secrecy: conditioning on any tap keeps the full entropy
    h = report["source_entropy_bits"]
    assert h == pytest.approx(math.log2(5))
    for v in report["secrecy"].values():
        assert v["conditional_entropy_bits"] == pytest.approx(h)


def test_verification_report_multilevel():
    layout = multilevel_plan(SmdcParams(GF5, 3, 1, (1, 1)))
    report = verification_report(code_for_multilevel(layout))
    assert report["ok"]
    assert report["source_symbols"] == [1, 1]
    assert set(report["reconstruction"]) == {"1,2", "1,3", "2,3", "1,2,3"}


def test_verification_report_flags_a_leak():
    report = verification_report(leaky_code())
    assert not report["ok"]
    assert not report["secrecy"]["1"]["ok"]
    assert not report["secrecy"]["2"]["ok"]
    assert report["secrecy"]["1"]["counterexample"] is not None
    # the leak shows up as lost entropy
    assert (report["secrecy"]["1"]["conditional_entropy_bits"]
            < report["source_entropy_bits"])


def test_verdict_is_about_the_shipped_encoder(monkeypatch, capsys):
    # a leak injected into the codec that writes share files must show up
    # in the verdict: with every key zeroed, each share is a function of
    # the sources alone
    real = single_level.encode_blocks
    monkeypatch.setattr(single_level, "encode_blocks",
                        lambda spec, blocks, keys:
                            real(spec, blocks, np.zeros_like(keys)))
    layout = multilevel_plan(SmdcParams(GF5, 3, 1, (1, 1)))
    report = verification_report(code_for_multilevel(layout))
    assert not report["ok"]
    assert set(report["secrecy"]) == {"1", "2", "3"}
    assert all(not v["ok"] and v["counterexample"] is not None
               for v in report["secrecy"].values())
    # zero keys still give codewords, so every subset still decodes
    assert set(report["reconstruction"]) == {"1,2", "1,3", "2,3", "1,2,3"}
    assert all(v["ok"] for v in report["reconstruction"].values())
    code = entry(["verify", "--L", "3", "--N", "1",
                  "--source-lengths", "1,1", "--field", "5"])
    assert code == EXIT_VERIFY_FAILED
    assert '"ok": false' in capsys.readouterr().out


def golden_instance(length, wiretap, threshold=None, lengths=None):
    """The code `smdc verify --field 5` builds for these arguments."""
    if threshold is not None:
        return code_for_layout(symmetric_layout(
            CosetCodeSpec(GF5, length, wiretap, threshold),
            threshold - wiretap))
    return code_for_multilevel(
        multilevel_plan(SmdcParams(GF5, length, wiretap, lengths)))


def zero_key_leak(monkeypatch):
    real = single_level.encode_blocks
    monkeypatch.setattr(single_level, "encode_blocks",
                        lambda spec, blocks, keys:
                            real(spec, blocks, np.zeros_like(keys)))
    return golden_instance(3, 1, lengths=(1, 1))


# every instance behind tests/golden/verify/, and codes that fail
REPORT_CASES = {
    "L4_N2_s1_1": lambda mp: golden_instance(4, 2, lengths=(1, 1)),
    "L3_N1_m2": lambda mp: golden_instance(3, 1, threshold=2),
    "L4_N1_m3": lambda mp: golden_instance(4, 1, threshold=3),
    "L3_N1_s0_1": lambda mp: golden_instance(3, 1, lengths=(0, 1)),
    "L3_N1_s0_0": lambda mp: golden_instance(3, 1, lengths=(0, 0)),
    "L3_N1_s1_1": lambda mp: golden_instance(3, 1, lengths=(1, 1)),
    "L4_N1_s1_0_1": lambda mp: golden_instance(4, 1, lengths=(1, 0, 1)),
    "L3_N1_s1_1_zero_keys": zero_key_leak,
    "product_code": lambda mp: product_code(code_for_layout(
        symmetric_layout(CosetCodeSpec(GF3, 2, 1, 2), 1)), 2),
    "missing_cell": lambda mp: missing_cell_code(),
    "no_key": lambda mp: leaky_code(),
}


@pytest.mark.parametrize("name", sorted(REPORT_CASES))
def test_report_equals_fresh_one_at_a_time_checks(name, monkeypatch):
    # the report shares one distribution, and its groupings, across
    # checks; each check on a distribution of its own must agree with it
    code = REPORT_CASES[name](monkeypatch)
    report = verification_report(code)
    shared = enumerate_joint(code)
    sources = [f"S{k}" for k in range(1, len(code.source_symbols) + 1)]
    whole = conditional_entropy(enumerate_joint(code), sources)
    assert report["source_entropy_bits"] == whole.bits
    assert conditional_entropy(shared, sources) == whole
    assert report["secrecy"]
    for key, entry in report["secrecy"].items():
        tapped = tuple(int(l) for l in key.split(","))
        given = [f"X{l}" for l in tapped]
        rep = check_perfect_secrecy(enumerate_joint(code), tapped)
        ent = conditional_entropy(enumerate_joint(code), sources, given)
        assert entry["ok"] == rep.ok
        assert entry["counterexample"] == rep.counterexample
        assert entry["conditional_entropy_bits"] == ent.bits
        assert check_perfect_secrecy(shared, tapped) == rep
        assert conditional_entropy(shared, sources, given) == ent
