"""Command line behaviour, driven through entry() for speed."""

import json
import random
import time
from fractions import Fraction

import pytest

from smdc import cli, errors
from smdc.cli import (EXIT_INFEASIBLE, EXIT_IO, EXIT_OK, EXIT_USAGE,
                      EXIT_VERIFY_FAILED, entry)


def write(path, data: bytes):
    path.write_bytes(data)
    return str(path)


def test_split_then_join_round_trip(tmp_path, capsys):
    a = write(tmp_path / "a.txt", b"alpha")
    b = write(tmp_path / "b.txt", b"bravo-bytes")
    shares = tmp_path / "shares"
    code = entry(["split", "--length", "3", "--wiretap", "1",
                  "--seed", "7", "--out-dir", str(shares), a, b])
    assert code == EXIT_OK
    names = sorted(p.name for p in shares.iterdir())
    assert names == ["share_1.smdc", "share_2.smdc", "share_3.smdc"]

    out = tmp_path / "two"
    code = entry(["join", "--out-dir", str(out),
                  str(shares / "share_3.smdc"), str(shares / "share_1.smdc")])
    assert code == EXIT_OK
    assert (out / "source_1.bin").read_bytes() == b"alpha"
    assert not (out / "source_2.bin").exists()
    assert "lower priority" in capsys.readouterr().out

    full = tmp_path / "full"
    code = entry(["join", "--out-dir", str(full)]
                 + [str(shares / f"share_{l}.smdc") for l in (1, 2, 3)])
    assert code == EXIT_OK
    assert (full / "source_1.bin").read_bytes() == b"alpha"
    assert (full / "source_2.bin").read_bytes() == b"bravo-bytes"


def test_join_with_too_few_shares_writes_nothing(tmp_path, capsys):
    a = write(tmp_path / "a", b"x" * 10)
    b = write(tmp_path / "b", b"y" * 20)
    shares = tmp_path / "s"
    assert entry(["split", "--length", "3", "--wiretap", "1", "--seed", "1",
                  "--out-dir", str(shares), a, b]) == EXIT_OK
    out = tmp_path / "out"
    code = entry(["join", "--out-dir", str(out), str(shares / "share_2.smdc")])
    assert code == EXIT_INFEASIBLE
    assert not out.exists() or not list(out.iterdir())
    assert "error" in capsys.readouterr().err


def test_join_rejects_garbage_file(tmp_path, capsys):
    bad = write(tmp_path / "bad.smdc", b"not a share at all")
    assert entry(["join", "--out-dir", str(tmp_path), bad]) == EXIT_IO
    assert "error" in capsys.readouterr().err


def test_join_flags_a_corrupted_share(tmp_path, capsys):
    from dataclasses import replace

    from smdc.fields import prime_field
    from smdc.shareio import read_share, write_share

    a = write(tmp_path / "a", b"a")
    b = write(tmp_path / "b", b"bc")
    shares = tmp_path / "s"
    assert entry(["split", "--length", "3", "--wiretap", "1", "--field", "5",
                  "--seed", "1", "--out-dir", str(shares), a, b]) == EXIT_OK
    # flip one symbol of encoder 1's first payload, same as the library
    # level corruption test
    original = read_share(shares / "share_1.smdc")
    assert original.field == prime_field(5)
    p0 = original.payloads
    flipped = (p0[0][:1] + bytes([(p0[0][1] + 1) % 5]) + p0[0][2:],) + p0[1:]
    write_share(shares / "bad.smdc", replace(original, payloads=flipped))

    out = tmp_path / "out"
    code = entry(["join", "--out-dir", str(out), str(shares / "bad.smdc"),
                  str(shares / "share_2.smdc"), str(shares / "share_3.smdc")])
    assert code == EXIT_VERIFY_FAILED
    assert not out.exists() or not list(out.iterdir())
    assert "error" in capsys.readouterr().err


def test_split_names_the_encoder_limit_of_a_prime_field(tmp_path, capsys):
    sources = [write(tmp_path / f"s{k}", b"x") for k in range(6)]
    code = entry(["split", "--L", "7", "--N", "1", "--field", "5",
                  "--out-dir", str(tmp_path / "out"), *sources])
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    assert "GF(5) supports at most 4 encoders" in err
    assert "use gf256 or a prime above 7" in err
    assert not (tmp_path / "out").exists()


def test_split_names_only_gf256_when_no_share_file_prime_is_big_enough(
        tmp_path, capsys):
    # share files carry primes up to 251, so none is above L = 251
    sources = [write(tmp_path / f"s{k}", b"x") for k in range(250)]
    code = entry(["split", "--L", "251", "--N", "1", "--field", "251",
                  "--out-dir", str(tmp_path / "out"), *sources])
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    assert "GF(251) supports at most 250 encoders; use gf256" in err
    assert "prime above" not in err
    assert not (tmp_path / "out").exists()


def test_split_refuses_to_overwrite(tmp_path, capsys):
    a = write(tmp_path / "a", b"12345")
    b = write(tmp_path / "b", b"678")
    shares = tmp_path / "s"
    shares.mkdir()
    write(shares / "share_2.smdc", b"precious")
    code = entry(["split", "--length", "3", "--wiretap", "1", "--seed", "1",
                  "--out-dir", str(shares), a, b])
    assert code == EXIT_USAGE
    # nothing else written, the existing file untouched
    assert sorted(p.name for p in shares.iterdir()) == ["share_2.smdc"]
    assert (shares / "share_2.smdc").read_bytes() == b"precious"


def test_split_usage_errors(tmp_path, capsys):
    a = write(tmp_path / "a", b"12345")
    assert entry(["split", "--length", "3", "--wiretap", "1",
                  "--out-dir", str(tmp_path / "s"), a]) == EXIT_USAGE
    assert entry(["split", "--length", "3", "--wiretap", "1",
                  "--field", "123", "--out-dir", str(tmp_path / "s"),
                  a, a]) == EXIT_USAGE
    assert entry(["split", "--length", "3", "--wiretap", "1",
                  "--out-dir", str(tmp_path / "s"),
                  a, str(tmp_path / "missing")]) == EXIT_IO
    capsys.readouterr()


@pytest.mark.parametrize("field", ["4", "256", "257"])
def test_split_refuses_fields_a_share_file_cannot_carry(tmp_path, capsys,
                                                        field):
    a = write(tmp_path / "a", b"12345")
    b = write(tmp_path / "b", b"678")
    code = entry(["split", "--L", "3", "--N", "1", "--field", field,
                  "--out-dir", str(tmp_path / "s"), a, b])
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    if field == "4":
        assert "4 is not a usable prime" in err
    assert not (tmp_path / "s").exists()


def test_split_refuses_more_encoders_than_a_share_file_holds(tmp_path,
                                                             capsys):
    sources = [write(tmp_path / f"s{k}", b"x") for k in range(255)]
    code = entry(["split", "--L", "256", "--N", "1",
                  "--out-dir", str(tmp_path / "out"), *sources])
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    assert "need 1 <= wiretap < length <= 255" in err
    assert "prime above" not in err
    assert not (tmp_path / "out").exists()


def test_split_refuses_a_negative_seed(tmp_path, capsys):
    a = write(tmp_path / "a", b"12345")
    b = write(tmp_path / "b", b"678")
    code = entry(["split", "--L", "3", "--N", "1", "--seed", "-1",
                  "--out-dir", str(tmp_path / "s"), a, b])
    assert code == EXIT_USAGE
    assert "seed must be a non-negative integer" in capsys.readouterr().err
    assert not (tmp_path / "s").exists()


def test_prime_field_split(tmp_path):
    a = write(tmp_path / "a", bytes(range(256)))
    b = write(tmp_path / "b", b"tail")
    shares = tmp_path / "s"
    assert entry(["split", "--length", "4", "--wiretap", "2", "--field", "251",
                  "--seed", "9", "--out-dir", str(shares), a, b]) == EXIT_OK
    out = tmp_path / "o"
    assert entry(["join", "--out-dir", str(out)]
                 + [str(shares / f"share_{l}.smdc") for l in (4, 2, 1)]
                 ) == EXIT_OK
    assert (out / "source_1.bin").read_bytes() == bytes(range(256))


def test_region_command(capsys):
    assert entry(["region", "--length", "3", "--wiretap", "1",
                  "--threshold", "2"]) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["min_sum_rate"] == [3, 1]
    assert report["corner_points"] == [[[1, 1], [1, 1], [1, 1]]]
    assert report["parameters"]["threshold"] == 2

    assert entry(["region", "--length", "3", "--wiretap", "1", "--threshold",
                  "3", "--rates", "1/2,1/2,1/2"]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["membership"]["inside"]

    assert entry(["region", "--length", "3", "--wiretap", "1", "--threshold",
                  "3", "--rates", "1/2,1/4,1/2"]) == EXIT_INFEASIBLE
    membership = json.loads(capsys.readouterr().out)["membership"]
    assert not membership["inside"]
    assert [1, 2] in membership["violated_subsets"]

    assert entry(["region", "--length", "3", "--wiretap", "2",
                  "--threshold", "2"]) == EXIT_USAGE
    capsys.readouterr()


@pytest.mark.parametrize("wiretap,threshold,code", [
    ("3", "4", EXIT_USAGE), ("5", "6", EXIT_USAGE), ("-1", "1", EXIT_USAGE),
    ("0", "2", EXIT_OK)])
def test_region_single_level_refuses_the_shapes_wn_refuses(wiretap, threshold,
                                                             code, capsys):
    assert entry(["region", "--L", "3", "--N", wiretap,
                  "--m", threshold]) == code
    assert bool(capsys.readouterr().out) == (code == EXIT_OK)


def test_region_single_level_report_at_l_12(capsys):
    assert entry(["region", "--L", "12", "--N", "2", "--m", "10"]) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert len(report["inequalities"]) == 507
    assert len(report["corner_points"]) == 3302


def test_region_report_round_trips(capsys):
    from smdc.region import InequalitySystem, region

    assert entry(["region", "--length", "4", "--wiretap", "1",
                  "--threshold", "3", "--entropy", "3/2"]) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    rebuilt = InequalitySystem.from_json_dict(report["system"])
    assert rebuilt == region(4, 2, Fraction(3, 2)).canonical()


def test_region_combined_mode(capsys):
    assert entry(["region", "--L", "3", "--N", "1",
                  "--entropies", "1,1"]) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["min_sum_rate"] == [9, 2]
    assert len(report["inequalities"]) == 6
    assert report["corner_points"] is None
    assert report["parameters"]["entropies"] == [[1, 1], [1, 1]]

    assert entry(["region", "--L", "3", "--N", "1", "--entropies", "1,1",
                  "--corners"]) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    # symmetric point plus the three one-sided supports
    assert [[3, 2], [3, 2], [3, 2]] in report["corner_points"]

    assert entry(["region", "--L", "3", "--N", "1", "--entropies", "1,1",
                  "--rates", "1,1,3/2"]) == EXIT_INFEASIBLE
    assert entry(["region", "--L", "3", "--N", "1",
                  "--entropies", "1"]) == EXIT_USAGE
    assert entry(["region", "--L", "3", "--N", "1"]) == EXIT_USAGE
    capsys.readouterr()


def test_region_names_the_weighted_row_a_point_breaks(capsys):
    assert entry(["region", "--L", "4", "--N", "1", "--entropies", "1,1,1",
                  "--rates", "3,5/2,2,1"]) == EXIT_INFEASIBLE
    membership = json.loads(capsys.readouterr().out)["membership"]
    assert membership["violated_subsets"] == [[2, 3, 4]]
    assert membership["violated_inequalities"] == ["R2 + R3 + 2*R4 >= 7"]

    assert entry(["region", "--L", "3", "--N", "1", "--m", "3",
                  "--rates", "1/2,1/4,1/2"]) == EXIT_INFEASIBLE
    membership = json.loads(capsys.readouterr().out)["membership"]
    assert membership["violated_inequalities"] == [
        "R2 + R3 >= 1", "R1 + R2 >= 1"]


def test_region_evaluates_membership_once(capsys, monkeypatch):
    from smdc.region import InequalitySystem
    calls = []
    violated_rows = InequalitySystem.violated_rows

    def counted(self, *args, **kwargs):
        calls.append(args)
        return violated_rows(self, *args, **kwargs)

    monkeypatch.setattr(InequalitySystem, "violated_rows", counted)
    assert entry(["region", "--L", "4", "--N", "1", "--entropies", "1,1,1",
                  "--rates", "3,5/2,2,1"]) == EXIT_INFEASIBLE
    assert len(calls) == 1
    membership = json.loads(capsys.readouterr().out)["membership"]
    assert membership["violated_subsets"] == [[2, 3, 4]]


def test_wn_command(capsys):
    assert entry(["wn", "--length", "3", "--wiretap", "1", "--threshold", "2",
                  "--rates", "1,1,1", "--entropy", "1", "--flow",
                  "--edges"]) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["secrecy_rate"] == [1, 1]
    assert report["weakest_user_cut"] == [2, 1]
    assert report["strongest_wiretap_cut"] == [1, 1]
    assert report["user_cuts"] == {"1,2": [2, 1], "1,3": [2, 1],
                                   "2,3": [2, 1]}
    assert report["supports_entropy"] == {"entropy": [1, 1], "ok": True}
    assert "s e1 1" in report["edges"]

    assert entry(["wn", "--length", "3", "--wiretap", "1", "--threshold", "2",
                  "--rates", "1,1,1", "--entropy", "2"]) == EXIT_INFEASIBLE
    report = json.loads(capsys.readouterr().out)
    assert report["supports_entropy"] == {"entropy": [2, 1], "ok": False}

    assert entry(["wn", "--length", "3", "--wiretap", "1", "--threshold", "2",
                  "--rates", "1,1"]) == EXIT_USAGE
    capsys.readouterr()


@pytest.mark.parametrize("entropy", ["abc", "1/0"])
def test_wn_rejects_an_unreadable_entropy(capsys, entropy):
    code = entry(["wn", "--L", "3", "--N", "1", "--m", "2",
                  "--rates", "1,1,1", "--entropy", entropy])
    assert code == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: cannot read {entropy!r}")
    assert captured.out == ""


def test_wn_refuses_a_negative_entropy_as_region_does(capsys):
    argv = ["--L", "3", "--N", "1", "--m", "2", "--rates", "1,1,1"]
    for command, flag in (("wn", "--entropy=-1"), ("region", "--entropies=-1")):
        assert entry([command, *argv, flag]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.err == "error: entropies must be nonnegative\n"
        assert captured.out == ""


def test_flags_of_one_command_do_not_reach_the_next(capsys):
    # entry builds its parser once per process and parses every command
    # with it
    argv = ["wn", "--L", "3", "--N", "1", "--m", "2", "--rates", "1,1,1"]
    assert entry([*argv, "--edges", "--entropy", "1"]) == EXIT_OK
    assert "edges" in json.loads(capsys.readouterr().out)
    assert entry(argv) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert "edges" not in report and "supports_entropy" not in report


def test_verify_command(capsys):
    assert entry(["verify", "--length", "3", "--wiretap", "1",
                  "--source-lengths", "1,1"]) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["ok"]
    assert report["secrecy"]["1"]["ok"]

    assert entry(["verify", "--L", "3", "--N", "1", "--m", "2",
                  "--field", "5"]) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["ok"] and report["q"] == 5

    assert entry(["verify", "--length", "3", "--wiretap", "1",
                  "--source-lengths", "1,1", "--budget", "10"]) == EXIT_USAGE
    assert "error" in capsys.readouterr().err
    assert entry(["verify", "--length", "3", "--wiretap", "1"]) == EXIT_USAGE
    capsys.readouterr()


def test_verify_refuses_more_report_entries_than_the_budget(capsys):
    # 7^2 = 49 outcomes fit a budget of 50, but the report would have
    # 6 tap sets plus 57 reconstruction subsets
    argv = ["verify", "--L", "6", "--N", "1", "--m", "2", "--field", "7"]
    assert entry(argv + ["--budget", "50"]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "63 report entries exceed the budget of 50" in captured.err
    assert entry(argv + ["--budget", "63"]) == EXIT_OK
    assert len(json.loads(capsys.readouterr().out)["reconstruction"]) == 57


def test_verify_refuses_a_wide_instance_at_once(capsys):
    # 2^18 - 1 entries: refused before anything is enumerated
    start = time.monotonic()
    assert entry(["verify", "--L", "18", "--N", "1", "--m", "2"]) == EXIT_USAGE
    assert time.monotonic() - start < 1
    assert "262143 report entries" in capsys.readouterr().err


def test_verify_takes_a_prime_no_share_file_can_carry(capsys):
    # verify writes no share file, so GF(257) is fine there
    assert entry(["verify", "--L", "3", "--N", "1", "--m", "2",
                  "--field", "257"]) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["ok"]
    assert report["q"] == 257 and report["outcomes"] == 66049


def test_a_non_numeric_field_is_refused_without_a_share_file_limit(capsys):
    assert entry(["verify", "--L", "3", "--N", "1", "--m", "2",
                  "--field", "gf7"]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert "field must be 'gf256' or a prime, got 'gf7'" in err
    assert "251" not in err


# the exit codes the module docstring of smdc.cli documents
EXIT_CODES = [
    (errors.SmdcError("boom"), 2),
    (errors.ParameterError("boom"), 2),
    (errors.BudgetExceededError("boom"), 2),
    (errors.RegionViolationError("boom", subset=(1,)), 3),
    (errors.InsufficientSharesError("boom", needed=2, have=1), 3),
    (errors.DecodeFailureError("boom"), 4),
    (errors.ShareFormatError("boom"), 5),
    (OSError("boom"), 5),
]


def test_exit_code_table_names_every_error_class():
    classes = {v for v in vars(errors).values()
               if isinstance(v, type) and issubclass(v, errors.SmdcError)}
    assert classes == {type(e) for e, _ in EXIT_CODES} - {OSError}


@pytest.mark.parametrize("error,code", EXIT_CODES,
                         ids=[type(e).__name__ for e, _ in EXIT_CODES])
def test_every_error_exits_with_its_code(monkeypatch, capsys, error, code):
    def fail(args):
        raise error
    monkeypatch.setattr(cli, "_cmd_wn", fail)
    assert entry(["wn", "--L", "3", "--N", "1", "--m", "2",
                  "--rates", "1,1,1"]) == code
    out = capsys.readouterr()
    assert (out.out, out.err) == ("", "error: boom\n")


def test_missing_subcommand_is_a_usage_error():
    with pytest.raises(SystemExit) as exc:
        entry([])
    assert exc.value.code == EXIT_USAGE


def test_wn_takes_uneven_rates_that_region_accepts(capsys):
    # one rate of 1 carries a unit source at threshold 2 with one tap;
    # the weakest user cut (2) less the strongest tap (5) says otherwise
    argv = ["--L", "3", "--N", "1", "--m", "2", "--rates", "1,1,5"]
    assert entry(["wn", *argv, "--entropy", "1"]) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["secrecy_rate"] == [1, 1]
    assert report["weakest_user_cut"] == [2, 1]
    assert report["strongest_wiretap_cut"] == [5, 1]
    assert entry(["region", *argv, "--entropies", "1"]) == EXIT_OK
    assert entry(["wn", *argv, "--entropy", "11/10"]) == EXIT_INFEASIBLE
    capsys.readouterr()


def test_wn_region_and_rate_layout_agree_on_uneven_rates(capsys):
    from smdc.coset import CosetCodeSpec
    from smdc.errors import RegionViolationError
    from smdc.fields import binary8_field
    from smdc.single_level import rate_layout

    rng = random.Random(20261018)
    field = binary8_field()
    verdicts = set()
    for _ in range(120):
        length = rng.randrange(2, 8)
        threshold = rng.randrange(2, length + 1)
        wiretap = rng.randrange(1, threshold)
        rates = [Fraction(rng.randrange(0, 7), rng.randrange(1, 4))
                 for _ in range(length)]
        k = threshold - wiretap
        exact = sum(sorted(rates)[:k])
        entropy = rng.choice([exact, exact + Fraction(1, 6),
                              max(exact - Fraction(1, 6), Fraction(1, 6))])
        if entropy == 0:
            entropy = Fraction(1, 6)
        argv = ["--L", str(length), "--N", str(wiretap), "--m",
                str(threshold), "--rates", ",".join(map(str, rates))]
        wn_code = entry(["wn", *argv, "--entropy", str(entropy), "--flow"])
        report = json.loads(capsys.readouterr().out)
        region_code = entry(["region", *argv, "--entropies", str(entropy)])
        capsys.readouterr()
        spec = CosetCodeSpec(field, length, wiretap, threshold)
        try:
            rate_layout(spec, 6, [r / entropy for r in rates])
            layout_code = EXIT_OK
        except RegionViolationError:
            layout_code = EXIT_INFEASIBLE
        assert wn_code == region_code == layout_code, (argv, entropy)
        assert report["secrecy_rate"] == [exact.numerator, exact.denominator]
        # the exact rate is each user's cut less the strongest tap inside it
        cuts = {tuple(map(int, u.split(","))): Fraction(*v)
                for u, v in report["user_cuts"].items()}
        taps = {tuple(map(int, a.split(","))) if a else (): Fraction(*v)
                for a, v in report["wiretap_cuts"].items()}
        assert exact == min(c - max(v for a, v in taps.items()
                                    if set(a) <= set(u))
                            for u, c in cuts.items())
        verdicts.add(wn_code)
    assert verdicts == {EXIT_OK, EXIT_INFEASIBLE}
