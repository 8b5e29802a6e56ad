"""Golden shares: seeded splits must stay byte-identical.

Each case directory under tests/golden/ holds the source files
(source_<k>.bin) and the share files a seeded split wrote from them
(share_<l>.smdc).  The test splits the sources again with the same seed
and compares every share byte for byte, then joins the stored shares
back.  The files were written once and are never regenerated by the
suite: a codec change that alters seeded output fails here.
"""

from pathlib import Path

import pytest

from smdc.fields import binary8_field, prime_field
from smdc.multilevel import SmdcParams, plan
from smdc.shareio import (dump_share, join_files, read_share, split_files,
                          symbols_per_byte)

GOLDEN = Path(__file__).parent / "golden"

# name: (field, L, N, seed); the sources are the files in the directory
CASES = {
    # 5 bytes at level k = 2: a byte length that k does not divide
    "gf5_L3_N1": (prime_field(5), 3, 1, 11),
    # 17 bytes at k = 2 over GF(2^8): one padding symbol
    "gf256_L4_N2": (binary8_field(), 4, 2, 12),
    # two symbols per byte; 10 symbols at k = 3: two padding symbols
    "gf251_L5_N2": (prime_field(251), 5, 2, 13),
    # an empty top-priority source next to a non-empty one
    "gf256_L3_N1_empty": (binary8_field(), 3, 1, 14),
}


def _sources(name):
    field, length, wiretap, _ = CASES[name]
    return [(GOLDEN / name / f"source_{k}.bin").read_bytes()
            for k in range(1, length - wiretap + 1)]


@pytest.mark.parametrize("name", sorted(CASES))
def test_seeded_split_matches_golden_shares(name):
    field, length, wiretap, seed = CASES[name]
    shares = split_files(field, length, wiretap, _sources(name), source=seed)
    assert len(shares) == length
    for share in shares:
        path = GOLDEN / name / f"share_{share.encoder}.smdc"
        assert dump_share(share) == path.read_bytes(), path.name


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_shares_join_back(name):
    field, length, wiretap, _ = CASES[name]
    stored = [read_share(GOLDEN / name / f"share_{l}.smdc")
              for l in range(1, length + 1)]
    assert join_files(stored) == _sources(name)


def test_golden_cases_cover_padding_and_an_empty_source():
    padded = 0
    empty = 0
    for name, (field, length, wiretap, _) in CASES.items():
        datas = _sources(name)
        t = symbols_per_byte(field)
        layout = plan(SmdcParams(field, length, wiretap,
                                 tuple(len(d) * t for d in datas)))
        padded += sum(level.padding > 0 for level in layout.levels)
        empty += sum(len(d) == 0 for d in datas)
    assert padded >= 2
    assert empty >= 1
