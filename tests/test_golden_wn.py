"""Golden wn reports: `smdc wn` output at equal rates stays byte-identical.

Each file under tests/golden/wn/ holds the stdout of one `smdc wn` run
at equal rates, where the separation bound and the secrecy rate agree:
the README example, the `wn` command of the benchmark's analysis
workload, and two more with the edge list and a refused entropy.
"""

from pathlib import Path

import pytest

from smdc.cli import EXIT_INFEASIBLE, EXIT_OK, entry

GOLDEN_WN = Path(__file__).parent / "golden" / "wn"

# name: (arguments after `wn`, exit code)
CASES = {
    "L3_N1_m2_readme": (["--L", "3", "--N", "1", "--m", "2",
                         "--rates", "1,1,1", "--entropy", "1"], EXIT_OK),
    "L7_N2_m5_flow": (["--L", "7", "--N", "2", "--m", "5",
                       "--rates", "1,1,1,1,1,1,1", "--entropy", "2",
                       "--flow"], EXIT_OK),
    "L4_N1_m3_edges": (["--L", "4", "--N", "1", "--m", "3",
                        "--rates", "1/2,1/2,1/2,1/2", "--entropy", "1",
                        "--edges"], EXIT_OK),
    "L5_N2_m4_refused": (["--L", "5", "--N", "2", "--m", "4",
                          "--rates", "2/3,2/3,2/3,2/3,2/3",
                          "--entropy", "3/2"], EXIT_INFEASIBLE),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_wn_report_matches_golden(name, capsys):
    argv, want_code = CASES[name]
    code = entry(["wn", *argv])
    out = capsys.readouterr().out
    assert code == want_code
    assert out == (GOLDEN_WN / f"{name}.json").read_text()
