#!/usr/bin/env python3
"""Walk through the basic splitting story: one secret, L shares,
reconstruction from any m of them, nothing from any N.

Run: python3 demos/splitting.py
"""

from itertools import combinations, product

from smdc.coset import CosetCodeSpec
from smdc.errors import InsufficientSharesError
from smdc.fields import GF5, GF256
from smdc.randomness import SequenceSymbolSource
from smdc.shareio import join_files, split_files
from smdc.single_level import decode, encode_with_layout, symmetric_layout

passed = 0
failed = 0


def check(name, condition, detail=""):
    global passed, failed
    if condition:
        print(f"  ✅ {name}")
        passed += 1
    else:
        print(f"  ❌ {name}: {detail}")
        failed += 1


print("=" * 64)
print("Splitting a message across 4 encoders: any 3 rebuild it,")
print("any single tap sees pure noise.  (L, N, m) = (4, 1, 3), GF(5).")
print("=" * 64)

params = CosetCodeSpec(GF5, length=4, wiretap=1, threshold=3)
message = [2, 4, 1, 0]
layout = symmetric_layout(params, len(message))
bundle = encode_with_layout(layout, message, source=7)

print(f"\nmessage: {message}")
for l in range(1, 5):
    print(f"encoder {l} stores {tuple(bundle.payloads[l].tolist())}")

print("\n-- reconstruction from every 3-subset --")
for subset in combinations(range(1, 5), 3):
    observed = {l: bundle.payloads[l] for l in subset}
    check(f"decode from {subset}", decode(layout, observed).tolist() == message)

print("\n-- two shares are one too few --")
try:
    decode(layout, {1: bundle.payloads[1], 2: bundle.payloads[2]})
    check("short subset rejected", False, "decode should have refused")
except InsufficientSharesError as exc:
    check("short subset rejected", exc.shortfall == 1, str(exc))

print("\n-- a tap on one encoder learns nothing --")
# fix the observed share of encoder 1 and count which messages could
# have produced it: perfect secrecy means all of them, equally often
layout1 = symmetric_layout(CosetCodeSpec(GF5, 3, 1, 2), 1)
hits = {}
for msg, key in product(range(5), repeat=2):
    b = encode_with_layout(layout1, [msg], SequenceSymbolSource([key]))
    hits.setdefault(tuple(b.payloads[1].tolist()), set()).add(msg)
check("every observed value stays consistent with every message",
      all(consistent == set(range(5)) for consistent in hits.values()),
      f"{hits}")
check("observation values are uniform", len(hits) == 5, f"{sorted(hits)}")

print("\n" + "=" * 64)
print("Same story with real bytes: two files over GF(2^8), (3, 1).")
print("=" * 64)

urgent = b"launch code: 0000"
archive = b"meeting notes, 2026-08-19: nothing decided " * 3
shares = split_files(GF256, length=3, wiretap=1, datas=[urgent, archive])
print(f"\nfile sizes: {len(urgent)} and {len(archive)} bytes")
for s in shares:
    print(f"share {s.encoder}: {sum(len(p) for p in s.payloads)} symbols")

check("any 2 of 3 shares return the urgent file",
      all(join_files([shares[i], shares[j]])[0] == urgent
          for i, j in combinations(range(3), 2)))
check("all 3 shares return both files",
      join_files(shares) == [urgent, archive])
try:
    join_files(shares[:1])
    check("one share returns nothing", False, "join should have raised")
except InsufficientSharesError:
    check("one share returns nothing", True)

print("\n" + "=" * 64)
print(f"DONE: {passed}/{passed + failed} checks passed")
raise SystemExit(0 if failed == 0 else 1)
