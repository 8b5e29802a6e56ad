"""Golden verify reports: `smdc verify` output must stay byte-identical.

Each file under tests/golden/verify/ holds the stdout of one
`smdc verify --field 5` run.  The test runs the command again and
compares the exit code and the stdout byte for byte, so a change to the
verifier's internals cannot move a verdict, a counterexample, the order
of counterexamples or the last digit of a reported float.  The files
were written once and are never regenerated by the suite.
"""

from pathlib import Path

import numpy as np
import pytest

from smdc import single_level
from smdc.cli import EXIT_OK, EXIT_VERIFY_FAILED, entry

GOLDEN_VERIFY = Path(__file__).parent / "golden" / "verify"

# name: (arguments after --field 5, exit code, zero every key)
CASES = {
    # the instance of the benchmark's analysis workload
    "L4_N2_s1_1": (["--L", "4", "--N", "2", "--source-lengths", "1,1"],
                   EXIT_OK, False),
    "L3_N1_m2": (["--L", "3", "--N", "1", "--m", "2"], EXIT_OK, False),
    "L4_N1_m3": (["--L", "4", "--N", "1", "--m", "3"], EXIT_OK, False),
    # zero-width sources: one, both, and one between two non-empty ones
    "L3_N1_s0_1": (["--L", "3", "--N", "1", "--source-lengths", "0,1"],
                   EXIT_OK, False),
    "L3_N1_s0_0": (["--L", "3", "--N", "1", "--source-lengths", "0,0"],
                   EXIT_OK, False),
    "L3_N1_s1_1": (["--L", "3", "--N", "1", "--source-lengths", "1,1"],
                   EXIT_OK, False),
    "L4_N1_s1_0_1": (["--L", "4", "--N", "1", "--source-lengths", "1,0,1"],
                     EXIT_OK, False),
    # every key zeroed in the shipped codec: the counterexamples pin the
    # order in which secrecy cells are checked
    "L3_N1_s1_1_zero_keys": (["--L", "3", "--N", "1",
                              "--source-lengths", "1,1"],
                             EXIT_VERIFY_FAILED, True),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_verify_report_matches_golden(name, monkeypatch, capsys):
    argv, want_code, zero_keys = CASES[name]
    if zero_keys:
        real = single_level.encode_blocks
        monkeypatch.setattr(single_level, "encode_blocks",
                            lambda spec, blocks, keys:
                                real(spec, blocks, np.zeros_like(keys)))
    code = entry(["verify", *argv, "--field", "5"])
    out = capsys.readouterr().out
    assert code == want_code
    assert out == (GOLDEN_VERIFY / f"{name}.json").read_text()
