"""Benchmark of the smdc codec and its exact-math layers.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One client runs the workload's cycle of `smdc` commands in a closed loop
for S seconds, in this process, through `smdc.cli.entry`.  Inputs come
from the seed; keys come from the operating system.  Every command's
exit code and output are checked.

--trace 0 reports the end-to-end metrics, untraced.  --trace 1 runs the
loop untraced for S/2 seconds and traced for S, and reports per-layer
busy time, self time and calls per cycle, counts taken at the same
boundaries, the limits ladders, and the tracing overhead.

The last line of stdout is the result object; the line before it is the
full record (environment, repository shape and the workload's named
metrics).  A readable summary goes to stderr.  See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from fractions import Fraction

import checkout
from probe import LADDER_START
from spans import SPAN_NAMES, Tracer, span_cost
from speed import SpeedProbe

# `workloads` and `smdc` are imported inside functions: they can only be
# imported once checkout.import_smdc() has put the checkout's src/ first.

PROBE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "probe.py")
SETUP_REPEATS = 9
LADDER_LIMIT_S = 1.0  # a rung passes when its command finishes within this
LADDER_CAP_S = 2.5    # wall-clock cap of a rung, interpreter start included
MB = 2 ** 20


def percentile(values, pct: int) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


# --- running the loop ----------------------------------------------------------


class Runner:
    """Runs one workload's cycles in fresh directories under `work`."""

    def __init__(self, workload, seed: int, work: str):
        self.workload = workload
        self.seed = seed
        self.work = work
        self.attempted = 0
        self.failed = 0

    def _count(self, outcomes):
        self.attempted += len(outcomes)
        self.failed += sum(not o.ok for o in outcomes)
        return outcomes

    def warm(self):
        from workloads import run_cycle
        rng = random.Random(f"{self.seed}:warmup")
        directory = os.path.join(self.work, "warmup")
        self._count(run_cycle(self.workload.warmup, rng, directory))
        shutil.rmtree(directory)

    def loop(self, phase: str, seconds: float, before=None, probe=None):
        """Cycles until `seconds` have passed; returns their outcomes."""
        from workloads import run_cycle
        rng = random.Random(f"{self.seed}:{phase}")
        deadline = time.perf_counter() + seconds
        cycles = []
        while not cycles or time.perf_counter() < deadline:
            directory = os.path.join(self.work, f"{phase}_{len(cycles)}")
            cycles.append(self._count(run_cycle(
                self.workload.cycle, rng, directory, before, probe)))
            shutil.rmtree(directory)
        return cycles


def _child(args, timeout: float):
    """Run a probe; returns (parsed last stdout line or None, end time)."""
    try:
        proc = subprocess.run([sys.executable, PROBE, *args],
                              capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        return None, time.monotonic()
    end = time.monotonic()
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None, end
    return json.loads(lines[-1]), end


def measure_setup(runner: Runner) -> list[float]:
    """Fresh interpreter to the end of the workload's warm-up cycle."""
    times = []
    for i in range(SETUP_REPEATS):
        directory = os.path.join(runner.work, f"setup_{i}")
        start = time.monotonic()
        report, end = _child(["setup", runner.workload.name,
                              str(runner.seed), directory], timeout=30)
        ok = report is not None and report["ok"]
        runner.attempted += 1
        runner.failed += not ok
        times.append((report["end"] if ok else end) - start)
        shutil.rmtree(directory, ignore_errors=True)
    return times


def ladder(kind: str, work: str) -> int:
    """Largest L whose rung finishes within LADDER_LIMIT_S (0 if none).

    Each rung is its own process, killed at LADDER_CAP_S, so a hang or a
    slow refusal costs at most the cap."""
    best = 0
    for length in range(LADDER_START[kind], 256):
        directory = os.path.join(work, f"ladder_{kind}_{length}")
        report, _ = _child(["ladder", kind, str(length), directory],
                           timeout=LADDER_CAP_S)
        shutil.rmtree(directory, ignore_errors=True)
        if report is None or not report["ok"] \
                or report["seconds"] > LADDER_LIMIT_S:
            break
        best = length
    return best


# --- metrics -----------------------------------------------------------------------


def label_medians(cycles, value) -> dict[str, float]:
    """Median of `value(outcome)` per command label over the cycles."""
    by_label = defaultdict(list)
    for c in cycles:
        for o in c:
            by_label[o.label].append(value(o))
    return {label: statistics.median(v) for label, v in by_label.items()}


def end_to_end(runner: Runner, seconds: float, record: dict) -> dict:
    """Untraced: set-up time, then the loop under the speed probe.

    Command times are in reference units (see speed.py): per command of
    the cycle, the median over cycles, summed over the cycle or its
    slowest command.  Raw times go into the record."""
    setup_times = measure_setup(runner)
    runner.warm()
    with SpeedProbe() as probe:
        cycles = runner.loop("measure", seconds, probe=probe)
    refs = label_medians(cycles, lambda o: o.seconds / o.ref_seconds)
    raw = label_medians(cycles, lambda o: o.seconds)
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "cycle_ref": (sum(refs.values()), "ref"),
        "slowest_ref": (max(refs.values()), "ref"),
        "peak_rss_MB": (resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    named = named_metrics(cycles)
    named["cycle_s"] = (sum(raw.values()), "s")
    named["ref_us"] = (statistics.median(
        o.ref_seconds * 1e6 for c in cycles for o in c), "us")
    named["setup_s"] = metrics["setup_s"]
    named["peak_rss_MB"] = metrics["peak_rss_MB"]
    record.update(cycles=len(cycles), command_s=raw, command_ref=refs,
                  named_metrics=named)
    return metrics


def named_metrics(cycles) -> dict:
    """The workload's own metrics, for every command kind it ran."""
    from workloads import VERIFY_OUTCOMES
    by_kind = defaultdict(list)
    for c in cycles:
        for o in c:
            by_kind[o.kind].append(o)
    out = {}
    for kind in ("split", "join", "join_min"):
        runs = by_kind.get(kind)
        if runs:
            out[f"{kind}_MBps"] = (statistics.median(
                o.nbytes / o.seconds / MB for o in runs), "MB/s")
            ms = [o.seconds * 1e3 for o in runs]
            out[f"{kind}_ms_p50"] = (statistics.median(ms), "ms")
            out[f"{kind}_ms_p90"] = (percentile(ms, 90), "ms")
            out[f"{kind}_samples"] = (len(runs), "count")
    if by_kind.get("region_report"):
        out["region_report_s"] = (statistics.median(
            sum(o.seconds for o in c if o.kind == "region_report")
            for c in cycles), "s")
    if by_kind.get("verify"):
        out["verify_outcomes_per_s"] = (statistics.median(
            VERIFY_OUTCOMES / o.seconds for o in by_kind["verify"]), "1/s")
    return out


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def per_layer(runner: Runner, seconds: float, record: dict) -> dict:
    """Traced: per-cycle layer times and counts, the limits ladders and
    the tracing overhead."""
    from smdc.region import smdc_min_sum_rate

    runner.warm()
    untraced = runner.loop("untraced", seconds / 2)
    with Tracer() as tracer:
        requests = itertools.count()

        def tag(cmd):
            tracer.request = (next(requests), cmd.kind)
        traced = runner.loop("traced", seconds, before=tag)
    ladders = {kind: ladder(kind, runner.work)
               for kind in ("single_level", "region", "region_combined")}
    record.update(cycles=len(traced), named_metrics={})

    n = len(traced)
    out = {}
    totals = tracer.totals()
    for name in SPAN_NAMES:
        t = totals[name]
        out[f"{name}_s"] = (t["busy"] / n, "s/cycle")
        out[f"{name}_self_s"] = (t["self"] / n, "s/cycle")
        out[f"{name}_calls"] = (t["calls"] / n, "calls/cycle")

    notes = defaultdict(list)
    for span in tracer.spans:
        if span.note is not None:
            notes[span.name].append((span.request, span.note))

    enc = [note for _, note in notes["coset.encode_blocks"]]
    dec = [note for _, note in notes["coset.decode_blocks"]]
    blocks = sum(r for r, _ in enc) + sum(r for _, _, r in dec)
    symbols = sum(r * c for r, c in enc) + sum(i * r for _, i, r in dec)
    kernel_s = totals["coset.encode_blocks"]["busy"] \
        + totals["coset.decode_blocks"]["busy"]
    out["randomness.symbols_drawn"] = (
        sum(v for _, v in notes["randomness.draw"]) / n, "symbols/cycle")
    out["single_level.blocks"] = (blocks / n, "blocks/cycle")
    out["coset.symbols"] = (symbols / n, "symbols/cycle")
    out["coset.Msym_per_s"] = (
        symbols / kernel_s / 1e6 if kernel_s else 0.0, "Msym/s")
    out["region.rows_built"] = (
        sum(v for _, v in notes["region.region"]) / n, "rows/cycle")
    out["verify.outcomes"] = (
        sum(v for _, v in notes["verify.enumerate"]) / n, "outcomes/cycle")

    # layout counts, per split, from the plan each split encoded with
    layouts = [layout for _, layout in notes["multilevel.encode"]]
    out["single_level.padding_symbols"] = (_mean(
        sum(level.padding for level in lay.levels) for lay in layouts),
        "symbols/split")
    out["single_level.key_symbols"] = (_mean(
        sum(level.key_symbols for level in lay.levels) for lay in layouts),
        "symbols/split")

    def efficiency(lay):
        p = lay.params
        emitted = sum(lay.emitted(l) for l in range(1, p.length + 1))
        least = smdc_min_sum_rate(p.length, p.wiretap, p.source_lengths)
        return float(Fraction(emitted) / least) if least else 1.0
    out["multilevel.rate_efficiency"] = (
        _mean(efficiency(lay) for lay in layouts), "ratio")

    # redundant shares each join's decode compared, per source level
    per_join = defaultdict(dict)
    for request, (threshold, ids, _) in notes["coset.decode_blocks"]:
        if request[1].startswith("join"):
            spare = per_join[request]
            spare[threshold] = min(spare.get(threshold, ids), ids - threshold)
    out["coset.cross_checked_shares"] = (_mean(
        sum(levels.values()) for levels in per_join.values()), "shares/join")
    out["coset.unchecked_sources"] = (_mean(
        sum(v == 0 for v in levels.values()) for levels in per_join.values()),
        "sources/join")

    source_bytes = sum(v for _, v in notes["shareio.split_files"])
    share_bytes = sum(v for request, v in notes["shareio.write"]
                      if request[1] == "split")
    out["shareio.expansion"] = (
        share_bytes / source_bytes if source_bytes else 0.0, "bytes/byte")

    out["single_level.max_L_1s"] = (ladders["single_level"], "L")
    out["region.max_L_1s"] = (ladders["region"], "L")
    out["region.combined_max_L"] = (ladders["region_combined"], "L")

    plain = sum(label_medians(untraced, lambda o: o.seconds).values())
    with_spans = sum(label_medians(traced, lambda o: o.seconds).values())
    out["trace.overhead_s"] = (with_spans - plain, "s/cycle")
    out["trace.overhead_pct"] = (100 * (with_spans - plain) / plain, "%")
    out["trace.spans"] = (len(tracer.spans) / n, "spans/cycle")
    out["trace.span_cost_us"] = (span_cost() * 1e6, "us")
    out["trace.cycles"] = (n, "count")
    return out


# --- the record ------------------------------------------------------------------


def _git_sha():
    if not os.path.isdir(os.path.join(checkout.ROOT, ".git")):
        return None
    try:
        proc = subprocess.run(
            ["git", "-C", checkout.ROOT, "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def environment(smdc, seed: int) -> dict:
    import numpy
    digest = hashlib.sha256()
    lines = 0
    package = os.path.dirname(smdc.__file__)
    for base, dirs, files in os.walk(package):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            if name.endswith(".py"):
                with open(os.path.join(base, name), "rb") as fh:
                    data = fh.read()
                digest.update(name.encode() + b"\0" + data)
                lines += data.count(b"\n")
    return {
        "git_sha": _git_sha(),
        "source_sha256": digest.hexdigest(),
        "seed": seed,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "source_lines": lines,
        "all_count": len(smdc.__all__),
    }


def _as_json(metrics: dict) -> dict:
    return {name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()}


# --- main ----------------------------------------------------------------------------


def main(argv=None) -> int:
    smdc = checkout.import_smdc()
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    os.makedirs(checkout.WORK, exist_ok=True)
    work = tempfile.mkdtemp(dir=checkout.WORK)
    runner = Runner(WORKLOADS[args.workload], args.seed, work)
    record = {"workload": args.workload, "trace": args.trace,
              "seconds": args.seconds}
    try:
        if args.trace == 0:
            metrics = end_to_end(runner, args.seconds, record)
        else:
            metrics = per_layer(runner, args.seconds, record)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(checkout.WORK)
        except OSError:
            pass

    named = record.pop("named_metrics")
    named["fail_ratio"] = (runner.failed / runner.attempted, "ratio")
    record.update(environment(smdc, args.seed))
    record["named_metrics"] = _as_json(named)
    for name, (value, unit) in {**named, **metrics}.items():
        print(f"{args.workload:>11} {name:<34} {value:>14.6g} {unit}",
              file=sys.stderr)
    print(json.dumps({"record": record}))
    print(json.dumps({"correct": runner.failed == 0,
                      "attempted": runner.attempted,
                      "failed": runner.failed,
                      "metrics": _as_json(metrics)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
