#!/usr/bin/env python3
"""Priority encoding across 4 encoders with 1 tolerated tap: three
sources where source 1 survives the most failures and source 3 needs
everyone present.  More shares decode deeper into the stack.

Run: python3 demos/priority_levels.py
"""

from itertools import combinations

from smdc.errors import InsufficientSharesError
from smdc.fields import GF7
from smdc.multilevel import SmdcParams, decode, encode, plan

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


def as_tuples(arrays):
    """Symbol arrays as tuples of ints, one per source."""
    return tuple(tuple(a.tolist()) for a in arrays)


def decode_from(subset):
    """The sources the shares of `subset` recover."""
    return decode(layout, {l: bundle.payloads[l] for l in subset})


print("=" * 64)
print("Three sources on (L, N) = (4, 1): source k decodes from any")
print("N + k = 1 + k shares.  Field GF(7).")
print("=" * 64)

params = SmdcParams(GF7, length=4, wiretap=1, source_lengths=(1, 2, 3))
sources = [[6], [1, 2], [3, 4, 5]]
layout = plan(params)
bundle = encode(layout, sources, source=20260819)

print(f"\nsources: {sources}")
for l in range(1, 5):
    parts = as_tuples(bundle.payloads[l])
    print(f"encoder {l} carries {parts} "
          f"({sum(len(p) for p in parts)} symbols)")

rates = [layout.emitted(l) for l in range(1, 5)]
print(f"\nper-encoder symbol counts: {rates}")
# source 1 costs 1 symbol everywhere, source 2 costs 2/2 = 1,
# source 3 costs 3/3 = 1: three symbols per encoder in total
check("symmetric layout emits 3 symbols per encoder",
      all(r == 3 for r in rates), f"{rates}")

print("\n-- decoding depth grows with the subset --")
for size in (2, 3, 4):
    for subset in combinations(range(1, 5), size):
        got = as_tuples(decode_from(subset))
        want = tuple(tuple(s) for s in sources[:size - 1])
        check(f"{subset} recovers sources 1..{size - 1}", got == want,
              f"{got}")
        break  # one subset per size is enough for the walkthrough

print("\n-- every 3-subset, not just the first --")
check("all four 3-subsets agree",
      all(as_tuples(decode_from(s)) == ((6,), (1, 2))
          for s in combinations(range(1, 5), 3)))

print("\n-- one share is below the wiretap threshold --")
try:
    decode_from((2,))
    check("single share refused", False, "decode should have raised")
except InsufficientSharesError as exc:
    check("single share refused", exc.needed == 2, str(exc))

print("\n-- losing encoders in order --")
story = [
    ((1, 2, 3, 4), 3, "everything up"),
    ((1, 2, 4), 2, "encoder 3 offline"),
    ((2, 4), 1, "encoders 1 and 3 offline"),
]
for subset, depth, label in story:
    got = as_tuples(decode_from(subset))
    print(f"  {label}: shares {subset} -> "
          f"{['source ' + str(k + 1) for k in range(len(got))]}")
    check(f"{label} yields {depth} source(s)", len(got) == depth)
    check(f"{label} yields correct data",
          got == tuple(tuple(s) for s in sources[:depth]))

print()
print("=" * 64)
print(f"DONE: {passed}/{passed + failed} checks passed")
raise SystemExit(0 if failed == 0 else 1)
