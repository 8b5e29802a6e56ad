"""Outside input: each kind has one check, and every public entry point
refuses what that check refuses with ParameterError (exit code 2).

Integers are Python or numpy integers, exact rationals are int or
Fraction (any numbers.Rational), encoder indices lie in 1..L, symbols
and a verified code's shares are integer arrays, and a time budget is
None or a non-negative real.  Floats, strings and None are refused
wherever one of these is asked for; nothing is truncated or read as
another encoder.  A fraction in a region's JSON is two integers over a
nonzero denominator, and a variable label is S or X and decimal digits.
"""

from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from smdc import single_level
from smdc.cli import EXIT_IO, entry
from smdc.coset import CosetCodeSpec, decode_blocks
from smdc.errors import (ParameterError, ShareFormatError, as_encoders,
                         as_fraction)
from smdc.fields import GF5, as_symbols, prime_field, vandermonde_array
from smdc.multilevel import SmdcParams, decode, encode, plan
from smdc.randomness import SequenceSymbolSource
from smdc.region import (InequalitySystem, LinExpr, corner_points,
                         min_sum_rate, region, smdc_min_sum_rate,
                         superposition_corner_points, superposition_region)
from smdc.shareio import (ShareFile, dump_share, join_files, load_share,
                          split_files)
from smdc.verify import (CodeUnderTest, VerifierBudget,
                         check_perfect_secrecy, check_prop2_inequality,
                         check_reconstruction, code_for_layout,
                         conditional_entropy, enumerate_joint,
                         verification_report)
from smdc.wiretap import (WiretapNetwork, admissible_by_separation,
                          mincut_to_user, mincut_to_wiretap)

SPEC = CosetCodeSpec(GF5, 3, 1, 2)
LAYOUT = single_level.symmetric_layout(SPEC, 2)
NET = WiretapNetwork(3, 1, 2, (1, 1, 1))


def hand_code(**changes) -> CodeUnderTest:
    """The README's code over GF(3): x1 = k + s, x2 = k + 2s."""
    def encode_fn(sources, keys):
        s = sources[0]
        return ((keys + s) % 3, (keys + 2 * s) % 3)

    def decode_fn(observed):
        if len(observed) < 2:
            return ()
        return ((observed[2] - observed[1]) % 3,)

    fields = dict(q=3, length=2, wiretap=1, source_symbols=(1,),
                  key_symbols=1, encode_fn=encode_fn, decode_fn=decode_fn,
                  expected_sources=lambda size: 1 if size >= 2 else 0)
    return CodeUnderTest(**{**fields, **changes})


HAND_DIST = enumerate_joint(hand_code())
LAYOUT_DIST = enumerate_joint(code_for_layout(LAYOUT))

BAD_RATES = [0.5, np.float32(0.5), None, "1/2", "x", Decimal(1)]
BAD_ENTROPIES = [0.5, np.float32(0.5), None]  # a string names a symbol
BAD_ENCODERS = [0, 4, 1.5]                    # L = 3 unless said
BAD_INTS = [3.0, 2.5, np.float64(3)]
BAD_FRACTIONS = [[0.5, 1], ["1", 2], [1, 0], [1], 3]
BAD_LABELS = ["X1.5", "S", " X1", "", "X+1", "X1 ", 1, None]


def _from_json(coeff=None, drop=None):
    """region(2, 1, 1) read back from its JSON, with the first row's
    first coefficient replaced by `coeff`, or its key `drop` removed."""
    data = region(2, 1, 1).to_json_dict()
    row = data["rows"][0]
    if coeff is not None:
        row["coeffs"][0] = coeff
    if drop is not None:
        del row[drop]
    return InequalitySystem.from_json_dict(data)


def _payloads(encoders):
    bundle = single_level.encode_with_layout(LAYOUT, [1, 2], source=1)
    return {e: bundle.payloads[2] for e in encoders}


ML_LAYOUT = plan(SmdcParams(GF5, 3, 1, (1, 2)))
ML_PAYLOADS = encode(ML_LAYOUT, ([1], [2, 3]), source=1).payloads


def _ml_observed(kind):
    """Every encoder's entry of a two-source (3,1) split cut to its first
    payload ("short"), or replaced by an integer ("int")."""
    return {l: ML_PAYLOADS[l][:1] if kind == "short" else l + 4
            for l in (1, 2, 3)}


CASES = {
    # exact rationals
    "rate_layout": (BAD_RATES, lambda v: single_level.rate_layout(
        SPEC, 2, (v, 1, 1))),
    "WiretapNetwork.rates": (BAD_RATES, lambda v: WiretapNetwork(
        3, 1, 2, (v, 1, 1))),
    "InequalitySystem.contains": (BAD_RATES, lambda v: region(3, 2, 1)
                                  .contains([v, 1, 1])),
    "admissible_by_separation": (BAD_RATES, lambda v:
                                 admissible_by_separation(NET, v)),
    "LinExpr.constant": (BAD_RATES, LinExpr.constant),
    "region.entropy": (BAD_ENTROPIES, lambda v: region(3, 2, v)),
    "superposition_region": (BAD_ENTROPIES, lambda v:
                             superposition_region(3, 1, [v, 1])),
    "smdc_min_sum_rate": (BAD_ENTROPIES, lambda v:
                          smdc_min_sum_rate(3, 1, [1, v])),
    "superposition_corner_points": (BAD_ENTROPIES, lambda v:
                                    superposition_corner_points(
                                        3, 1, [1, v])),
    "from_json_dict.coeffs": (BAD_FRACTIONS, lambda v: _from_json(coeff=v)),
    "from_json_dict.row": (["bound", "coeffs"], lambda v: _from_json(drop=v)),
    # encoder indices
    "decode_blocks": (BAD_ENCODERS, lambda v: decode_blocks(
        SPEC, [v, 2], np.zeros(1, np.uint8), np.zeros(1, np.uint8))),
    "single_level.decode": (BAD_ENCODERS, lambda v: single_level.decode(
        LAYOUT, {**_payloads([2]), v: _payloads([2])[2]})),
    "mincut_to_user": (BAD_ENCODERS, lambda v: mincut_to_user(NET, (v, 2))),
    "mincut_to_wiretap": (BAD_ENCODERS, lambda v:
                          mincut_to_wiretap(NET, (v,))),
    "check_perfect_secrecy": (BAD_ENCODERS, lambda v:
                              check_perfect_secrecy(LAYOUT_DIST, (v,))),
    "check_reconstruction": (BAD_ENCODERS, lambda v: check_reconstruction(
        code_for_layout(LAYOUT), LAYOUT_DIST, (v, 2))),
    "check_prop2_inequality": (BAD_ENCODERS, lambda v:
                               check_prop2_inequality(LAYOUT_DIST, 1,
                                                      (v,), (2,))),
    "ShareFile.encoder": (BAD_ENCODERS, lambda v: ShareFile(
        3, 1, v, GF5, (1, 1), (b"\x00", b"\x00"))),
    # one sequence of K payloads per encoder
    "smdc_decode": (["short", "int"], lambda v: decode(
        ML_LAYOUT, _ml_observed(v))),
    # integer shapes
    "region.length": (BAD_INTS, lambda v: region(v, 2, 1)),
    "min_sum_rate.k": (BAD_INTS, lambda v: min_sum_rate(4, v - 1, 1)),
    "corner_points.k": (BAD_INTS, lambda v: corner_points(4, v - 1, 1)),
    "superposition_region.length": (BAD_INTS, lambda v:
                                    superposition_region(v, 1, [1, 1])),
    "WiretapNetwork.length": (BAD_INTS, lambda v: WiretapNetwork(
        v, 1, 2, (1, 1, 1))),
    "WiretapNetwork.wiretap": (BAD_INTS, lambda v: WiretapNetwork(
        3, v - 2, 2, (1, 1, 1))),
    "CodeUnderTest.q": (BAD_INTS, lambda v: hand_code(q=v)),
    "CodeUnderTest.length": (BAD_INTS, lambda v: hand_code(length=v - 1)),
    "CodeUnderTest.key_symbols": (BAD_INTS, lambda v:
                                  hand_code(key_symbols=v - 2)),
    "CodeUnderTest.source_symbols": (BAD_INTS, lambda v: hand_code(
        source_symbols=(v - 2,))),
    "ShareFile.byte_lengths": (BAD_INTS, lambda v: ShareFile(
        3, 1, 1, GF5, (v - 1, 1), (b"ab", b"c"))),
    "VerifierBudget.max_outcomes": (["10", None, *BAD_INTS], lambda v:
                                    verification_report(hand_code(),
                                                        VerifierBudget(
                                                            max_outcomes=v))),
    # time budgets: None or a non-negative real
    "VerifierBudget.max_seconds": (["1", -1, float("nan"), 1j], lambda v:
                                   verification_report(hand_code(),
                                                       VerifierBudget(
                                                           max_seconds=v))),
    # symbols
    "as_symbols": (BAD_INTS, lambda v: as_symbols(GF5, [v - 1.5, 2])),
    "encode_with_layout": (BAD_INTS, lambda v:
                           single_level.encode_with_layout(
                               LAYOUT, [v - 1.5, 2], source=1)),
    "SequenceSymbolSource": (BAD_INTS, lambda v:
                             SequenceSymbolSource([v - 1.3, 2])),
    "vandermonde_array": (BAD_INTS, lambda v:
                          vandermonde_array(GF5, [v - 1.5, 2], 2)),
    # variable labels: S or X, then decimal digits
    "conditional_entropy.targets": (BAD_LABELS, lambda v:
                                    conditional_entropy(LAYOUT_DIST, [v])),
}


@pytest.mark.parametrize("entry_point,value", [
    pytest.param(name, value, id=f"{name}-{value!r}")
    for name, (values, _) in CASES.items() for value in values])
def test_every_entry_point_refuses_each_bad_kind(entry_point, value):
    with pytest.raises(ParameterError):
        CASES[entry_point][1](value)


def test_numpy_integers_pass_as_python_ints():
    v = as_fraction(np.int64(3), "rate")
    assert v == 3 and type(v.numerator) is int
    assert as_fraction(np.int32(-2), "rate") == -2
    assert as_encoders(np.array([3, 1]), 3) == (3, 1)
    assert all(type(l) is int for l in as_encoders(np.array([2]), 3))
    assert single_level.rate_layout(SPEC, 2, np.array([1, 1, 1])) == \
        single_level.rate_layout(SPEC, 2, (1, 1, 1))
    net = WiretapNetwork(np.int64(3), np.int8(1), 2, (1, 1, np.uint8(1)))
    assert net == NET and type(net.length) is int
    assert hand_code(q=np.int64(3)).q == 3
    budget = VerifierBudget(np.int64(9), np.float64(0.5))
    assert budget.max_outcomes == 9 and type(budget.max_outcomes) is int
    assert VerifierBudget(max_seconds=Fraction(1, 2)).max_seconds == 0.5
    assert _from_json(coeff=(np.int64(2), 4)).rows[0].coeffs[0] == \
        Fraction(1, 2)


def test_reconstruction_reads_no_encoder_outside_the_code():
    # encoder 0 must not be read as dist.shares[-1], the last encoder,
    # which failed a correct code with a counterexample
    code = hand_code()
    assert check_reconstruction(code, HAND_DIST, (1, 2)).ok
    for subset in [(0, 1), (1, 7)]:
        with pytest.raises(ParameterError, match="out of range 1..2"):
            check_reconstruction(code, HAND_DIST, subset)


def test_share_file_refuses_what_a_share_file_cannot_hold():
    with pytest.raises(ParameterError, match="encoder must be an integer"):
        ShareFile(3, 1, 1.5, GF5, (2, 1), (b"ab", b"c"))
    with pytest.raises(ParameterError, match="byte length"):
        ShareFile(3, 1, 1, GF5, (2.7, 1), (b"ab", b"c"))
    with pytest.raises(ParameterError, match="symbols must be integers"):
        ShareFile(3, 1, 1, GF5, (2, 1), ([1.5, 2], b"c"))
    share = ShareFile(np.int64(3), 1, np.uint8(2), GF5, (np.int64(2), 1),
                      (b"\x01\x02", b"\x03"))
    assert (share.length, share.encoder, share.byte_lengths) == (3, 2, (2, 1))
    assert load_share(dump_share(share)) == share


def test_split_refuses_a_field_no_share_file_carries_before_encoding():
    with pytest.raises(ParameterError, match="one symbol per byte"):
        split_files(prime_field(257), 3, 1, [b"ab", b"c"], source=1)


# header bytes: 5 length, 6 wiretap, 7 encoder
@pytest.mark.parametrize("offset,value", [(5, 1), (6, 0), (7, 0), (7, 4)],
                         ids=["length_is_wiretap", "wiretap_zero",
                              "encoder_zero", "encoder_beyond_length"])
def test_a_bad_header_is_a_malformed_file(tmp_path, capsys, offset, value):
    shares = split_files(GF5, 3, 1, [b"a", b"bc"], source=1)
    blob = bytearray(dump_share(shares[0]))
    blob[offset] = value
    with pytest.raises(ShareFormatError, match="bad share header"):
        load_share(bytes(blob))
    paths = [tmp_path / f"share_{k}.smdc" for k in (1, 2)]
    paths[0].write_bytes(bytes(blob))
    paths[1].write_bytes(dump_share(shares[1]))
    out = tmp_path / "out"
    assert entry(["join", "--out-dir", str(out), *map(str, paths)]) == EXIT_IO
    assert capsys.readouterr().err.startswith("error: bad share header")
    assert not out.exists()
    assert join_files(shares[1:]) == [b"a"]
