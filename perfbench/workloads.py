"""The workloads: each is a cycle of `smdc` commands with their checks.

A cycle writes its seeded input files into a fresh directory, runs its
commands in order through `smdc.cli.entry` (the code path of the `smdc`
console script), and checks each command's exit code and output.  Only
the commands themselves are timed.  Keys always come from the operating
system's entropy pool: no command passes `--seed`.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable

import smdc.cli

EXIT_OK = 0
EXIT_INFEASIBLE = 3
VERIFY_OUTCOMES = 5 ** 6  # q^(symbols + keys) of the analysis verify


@dataclass
class Command:
    """One `smdc` invocation.  `check` gets the captured stdout and says
    whether the output is right; it runs after the timed call.  `kind`
    groups commands for the named metrics; `label` names the command's
    place in the cycle, the same in every cycle."""

    kind: str
    label: str
    argv: list[str]
    expect: int = EXIT_OK
    check: Callable[[str], bool] = lambda out: True
    nbytes: int = 0


@dataclass
class Outcome:
    kind: str
    label: str
    seconds: float
    ok: bool
    nbytes: int
    ref_seconds: float = 0.0
    ticks: list = field(default_factory=list, repr=False)


def run_command(cmd: Command, before=None, probe=None) -> Outcome:
    """Run one command in-process; a crash or a wrong result is a failed
    outcome, never an exception.  With a SpeedProbe, the outcome's
    `ticks` are the speed samples taken during the command."""
    out = io.StringIO()
    if before is not None:
        before(cmd)
    if probe is not None:
        first, spent = len(probe.ticks), probe.spent
    start = perf_counter()
    try:
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            code = smdc.cli.entry(cmd.argv)
    except SystemExit as exc:
        code = exc.code
    except Exception:
        code = None
    seconds = perf_counter() - start
    ticks = []
    if probe is not None:
        seconds -= probe.spent - spent
        ticks = probe.ticks[first:]
    try:
        ok = code == cmd.expect and cmd.check(out.getvalue())
    except (OSError, ValueError, KeyError, TypeError):
        ok = False
    return Outcome(cmd.kind, cmd.label, seconds, ok, cmd.nbytes, ticks=ticks)


# --- checks ------------------------------------------------------------------


def _recovered(out_dir: str, expected: list[bytes]) -> Callable[[str], bool]:
    """The join wrote exactly source_1..source_n, byte-identical."""
    def check(_stdout: str) -> bool:
        names = sorted(os.listdir(out_dir))
        want = sorted(f"source_{k}.bin" for k in range(1, len(expected) + 1))
        if names != want:
            return False
        for k, data in enumerate(expected, start=1):
            with open(os.path.join(out_dir, f"source_{k}.bin"), "rb") as fh:
                if fh.read() != data:
                    return False
        return True
    return check


def _wrote_nothing(out_dir: str) -> Callable[[str], bool]:
    def check(_stdout: str) -> bool:
        return not os.path.exists(out_dir) or not os.listdir(out_dir)
    return check


def _shares_written(share_dir: str, length: int) -> Callable[[str], bool]:
    def check(_stdout: str) -> bool:
        return sorted(os.listdir(share_dir)) == sorted(
            f"share_{l}.smdc" for l in range(1, length + 1))
    return check


def _json_report(predicate) -> Callable[[str], bool]:
    def check(stdout: str) -> bool:
        return bool(predicate(json.loads(stdout)))
    return check


# --- workloads ---------------------------------------------------------------


def _write_sources(directory: str, datas: list[bytes]) -> list[str]:
    paths = []
    for k, data in enumerate(datas, start=1):
        path = os.path.join(directory, f"input_{k}.bin")
        with open(path, "wb") as fh:
            fh.write(data)
        paths.append(path)
    return paths


def codec_cycle(rng: random.Random, directory: str, field_name: str,
                length: int, wiretap: int, size: int,
                join_sizes: list[tuple[str, int]]) -> list[Command]:
    """Split K = length - wiretap seeded sources of `size` bytes, then
    join from a seeded subset of each listed size."""
    datas = [rng.randbytes(size) for _ in range(length - wiretap)]
    paths = _write_sources(directory, datas)
    share_dir = os.path.join(directory, "shares")
    cmds = [Command("split", "split",
                    ["split", "--L", str(length), "--N", str(wiretap),
                     "--field", field_name, "--out-dir", share_dir, *paths],
                    check=_shares_written(share_dir, length),
                    nbytes=size * len(datas))]
    for i, (kind, count) in enumerate(join_sizes):
        subset = sorted(rng.sample(range(1, length + 1), count))
        out_dir = os.path.join(directory, f"join_{i}")
        shares = [os.path.join(share_dir, f"share_{l}.smdc") for l in subset]
        argv = ["join", "--out-dir", out_dir, *shares]
        depth = min(count - wiretap, len(datas))
        if depth < 1:
            cmds.append(Command(kind, f"join_{count}", argv,
                                expect=EXIT_INFEASIBLE,
                                check=_wrote_nothing(out_dir)))
        else:
            cmds.append(Command(kind, f"join_{count}", argv,
                                check=_recovered(out_dir, datas[:depth]),
                                nbytes=size * depth))
    return cmds


def _bulk(field_name: str, size: int):
    # (4, 2): all four shares recover both sources with cross-checks,
    # three recover source 1 with no redundancy, two must be refused.
    joins = [("join", 4), ("join_min", 3), ("join_refused", 2)]

    def cycle(rng, directory):
        return codec_cycle(rng, directory, field_name, 4, 2, size, joins)

    def warmup(rng, directory):
        return codec_cycle(rng, directory, field_name, 4, 2, 256, joins)
    return cycle, warmup


def _wide_cycle(rng, directory):
    joins = [("join", u) for u in range(4, 11)]
    return codec_cycle(rng, directory, "gf256", 10, 3, 1024, joins)


def _wide_warmup(rng, directory):
    return codec_cycle(rng, directory, "gf256", 10, 3, 16, [("join", 10)])


def _region_ok(report) -> bool:
    return "system" in report and "min_sum_rate" in report


ANALYSIS = (
    Command("region_report", "region_L7",
            ["region", "--L", "7", "--N", "2", "--m", "5",
             "--rates", "1,1,1,1,1,1,1"],
            check=_json_report(lambda r: _region_ok(r)
                               and r["membership"]["inside"]
                               and r["corner_points"])),
    Command("region_report", "region_combined_L4",
            ["region", "--L", "4", "--N", "1", "--entropies", "1,1,1"],
            check=_json_report(_region_ok)),
    Command("region_report", "region_corners_L3",
            ["region", "--L", "3", "--N", "1", "--entropies", "1,1",
             "--corners"],
            check=_json_report(lambda r: _region_ok(r) and r["corner_points"])),
    Command("region_report", "wn_L7",
            ["wn", "--L", "7", "--N", "2", "--m", "5",
             "--rates", "1,1,1,1,1,1,1", "--entropy", "2", "--flow"],
            check=_json_report(lambda r: r["supports_entropy"]["ok"])),
    Command("verify", "verify_L4",
            ["verify", "--L", "4", "--N", "2", "--source-lengths", "1,1",
             "--field", "5"],
            check=_json_report(lambda r: r["ok"] is True
                               and r["outcomes"] == VERIFY_OUTCOMES)),
)

ANALYSIS_WARMUP = (
    Command("region_report", "region_L3",
            ["region", "--L", "3", "--N", "1", "--m", "2",
             "--rates", "1,1,1"],
            check=_json_report(_region_ok)),
    Command("region_report", "wn_L3",
            ["wn", "--L", "3", "--N", "1", "--m", "2", "--rates", "1,1,1",
             "--flow"],
            check=_json_report(lambda r: "secrecy_rate" in r)),
    Command("verify", "verify_L3",
            ["verify", "--L", "3", "--N", "1", "--m", "2", "--field", "5"],
            check=_json_report(lambda r: r["ok"] is True)),
)


def _analysis_cycle(rng, directory):
    # The commands are fixed; the seed only rotates their order.
    cmds = list(ANALYSIS)
    rng.shuffle(cmds)
    return cmds


def _analysis_warmup(rng, directory):
    return list(ANALYSIS_WARMUP)


@dataclass(frozen=True)
class Workload:
    name: str
    cycle: Callable
    warmup: Callable


WORKLOADS = {w.name: w for w in (
    Workload("bulk_gf256", *_bulk("gf256", 256 * 1024)),
    Workload("bulk_gf5", *_bulk("5", 64 * 1024)),
    Workload("wide_L", _wide_cycle, _wide_warmup),
    Workload("analysis", _analysis_cycle, _analysis_warmup),
)}


def run_cycle(make, rng: random.Random, directory: str,
              before=None, probe=None) -> list[Outcome]:
    """Build one cycle's inputs in `directory` and run its commands.

    With a SpeedProbe, each outcome also gets `ref_seconds`, the mean
    reference chunk time around and during the command."""
    os.makedirs(directory)
    outcomes = []
    burst = probe.burst() if probe is not None else []
    for cmd in make(rng, directory):
        outcome = run_command(cmd, before, probe)
        if probe is not None:
            after = probe.burst()
            samples = burst + outcome.ticks + after
            outcome.ref_seconds = sum(samples) / len(samples)
            burst = after
        outcomes.append(outcome)
    return outcomes
