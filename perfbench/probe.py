"""Child processes of the benchmark, one fresh interpreter each.

    probe.py setup WORKLOAD SEED DIR
        import smdc and run the workload's warm-up cycle; print the
        CLOCK_MONOTONIC time at which it ended, so the parent can time
        interpreter start to warm process.
    probe.py ladder KIND L DIR
        run one rung of a limits ladder and print how long it took.

Each prints one JSON object on stdout.
"""

from __future__ import annotations

import json
import os
import random
import sys
import time

import checkout

# The smallest L of each ladder and the command of one rung.
LADDER_START = {"single_level": 4, "region": 5, "region_combined": 2}


def ladder_commands(kind: str, length: int, directory: str):
    from workloads import Command, codec_cycle

    if kind == "single_level":
        # split of 1-byte sources at N=3, then join from all L shares
        rng = random.Random(length)
        return codec_cycle(rng, directory, "gf256", length, 3, 1,
                           [("join", length)])
    if kind == "region":
        return [Command("region_report", "region",
                        ["region", "--L", str(length), "--N", "2",
                         "--m", str(length - 2)])]
    if kind == "region_combined":
        return [Command("region_report", "region_combined",
                        ["region", "--L", str(length), "--N", "1",
                         "--entropies", ",".join(["1"] * (length - 1))])]
    raise SystemExit(f"unknown ladder {kind!r}")


def main(argv) -> None:
    checkout.import_smdc()
    from workloads import WORKLOADS, run_command, run_cycle

    mode, what, number, directory = argv
    if mode == "setup":
        rng = random.Random(f"{number}:warmup")
        outcomes = run_cycle(WORKLOADS[what].warmup, rng, directory)
        end = time.monotonic()
        print(json.dumps({"ok": all(o.ok for o in outcomes), "end": end}))
    elif mode == "ladder":
        os.makedirs(directory)
        cmds = ladder_commands(what, int(number), directory)
        start = time.perf_counter()
        ok = all(run_command(c).ok for c in cmds)
        print(json.dumps({"ok": ok,
                          "seconds": time.perf_counter() - start}))
    else:
        raise SystemExit(f"unknown probe mode {mode!r}")


if __name__ == "__main__":
    main(sys.argv[1:])
