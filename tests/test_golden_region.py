"""Golden region reports: `smdc region` output must stay byte-identical.

Each file under tests/golden/region/ holds the stdout of one
`smdc region` run: the three region commands of the benchmark's
analysis workload and combined regions at four more shapes.  The test
runs the command again and compares the exit code and the stdout byte
for byte, so a change to how regions are computed cannot move a row, a
bound, a corner point or the order in which they are printed.  The
files are never regenerated by the suite.
"""

from pathlib import Path

import pytest

from smdc.cli import EXIT_INFEASIBLE, EXIT_OK, entry

GOLDEN_REGION = Path(__file__).parent / "golden" / "region"

# name: (arguments after `region`, exit code)
CASES = {
    # the benchmark's analysis workload
    "L7_N2_m5_rates": (["--L", "7", "--N", "2", "--m", "5",
                        "--rates", "1,1,1,1,1,1,1"], EXIT_OK),
    "L4_N1": (["--L", "4", "--N", "1", "--entropies", "1,1,1"], EXIT_OK),
    "L3_N1_corners": (["--L", "3", "--N", "1", "--entropies", "1,1",
                       "--corners"], EXIT_OK),
    # combined regions; the (3,0) point breaks only a weighted row
    "L3_N0_corners_rates": (["--L", "3", "--N", "0", "--entropies", "1,1,1",
                             "--corners", "--rates", "11/4,2,1"],
                            EXIT_INFEASIBLE),
    "L3_N1_uneven": (["--L", "3", "--N", "1", "--entropies", "2,1/3"],
                     EXIT_OK),
    "L4_N2_corners": (["--L", "4", "--N", "2", "--entropies", "3/2,1",
                       "--corners"], EXIT_OK),
    "L5_N3_corners": (["--L", "5", "--N", "3", "--entropies", "1,2",
                       "--corners"], EXIT_OK),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_region_report_matches_golden(name, capsys):
    argv, want_code = CASES[name]
    code = entry(["region", *argv])
    out = capsys.readouterr().out
    assert code == want_code
    assert out == (GOLDEN_REGION / f"{name}.json").read_text()
