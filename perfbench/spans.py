"""Span tracing from outside the package.

The tracer wraps public functions at the boundaries between smdc's
modules.  A function is patched in the namespace of the module that
calls it (``smdc.single_level.encode_blocks`` is what ``single_level``
looks up at call time), and a method is patched on its class.  Each call
records a span: its name, the command it belongs to, start, end and the
span that caused it.  Self time is a span's duration minus the time its
direct children cover.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import importlib
from time import perf_counter

# (module, attribute, span name).  An attribute "Class.method" patches
# the method on the class.  The module is the caller's namespace.
BOUNDARIES = (
    ("smdc.cli", "entry", "cli.entry"),
    ("smdc.cli", "split_files", "shareio.split_files"),
    ("smdc.cli", "join_files", "shareio.join_files"),
    ("smdc.cli", "read_share", "shareio.load"),
    ("smdc.cli", "_atomic_write", "shareio.write"),
    ("smdc.cli", "multilevel_plan", "multilevel.plan"),
    ("smdc.cli", "region", "region.region"),
    ("smdc.cli", "violated_subsets", "region.violated_subsets"),
    ("smdc.cli", "min_sum_rate", "region.min_sum_rate"),
    ("smdc.cli", "smdc_min_sum_rate", "region.min_sum_rate"),
    ("smdc.cli", "corner_points", "region.corner_points"),
    ("smdc.cli", "vertices_brute_force", "region.corner_points"),
    ("smdc.cli", "superposition_region", "region.superposition"),
    ("smdc.cli", "mincut_to_user", "wiretap.cut"),
    ("smdc.cli", "mincut_to_wiretap", "wiretap.cut"),
    ("smdc.cli", "achievable_secrecy_rate", "wiretap.cut"),
    ("smdc.cli", "admissible_by_separation", "wiretap.cut"),
    ("smdc.cli", "code_for_multilevel", "verify.compile"),
    ("smdc.cli", "verification_report", "verify.report"),
    ("smdc.shareio", "bytes_to_symbols", "shareio.bytes_to_symbols"),
    ("smdc.shareio", "symbols_to_bytes", "shareio.symbols_to_bytes"),
    ("smdc.shareio", "dump_share", "shareio.dump"),
    ("smdc.shareio", "_atomic_write", "shareio.write"),
    ("smdc.shareio", "plan", "multilevel.plan"),
    ("smdc.shareio", "encode", "multilevel.encode"),
    ("smdc.shareio", "decode", "multilevel.decode"),
    ("smdc.multilevel", "plan", "multilevel.plan"),
    ("smdc.multilevel", "symmetric_layout", "single_level.layout"),
    ("smdc.multilevel", "rate_layout", "single_level.layout"),
    ("smdc.multilevel", "encode_with_layout", "single_level.encode"),
    ("smdc.multilevel", "decode_single", "single_level.decode"),
    ("smdc.single_level", "region", "region.region"),
    ("smdc.single_level", "violated_subsets", "region.violated_subsets"),
    ("smdc.single_level", "encode_blocks", "coset.encode_blocks"),
    ("smdc.single_level", "decode_blocks", "coset.decode_blocks"),
    ("smdc.coset", "array_matmul", "fields.array_matmul"),
    ("smdc.region", "region", "region.region"),
    ("smdc.region", "solve_lp", "exactlp.solve_lp"),
    ("smdc.region", "InequalitySystem.contains", "region.contains"),
    ("smdc.randomness", "SystemSymbolSource.draw", "randomness.draw"),
    ("smdc.verify", "enumerate_joint", "verify.enumerate"),
    ("smdc.verify", "check_perfect_secrecy", "verify.secrecy"),
    ("smdc.verify", "check_reconstruction", "verify.reconstruction"),
    ("smdc.verify", "conditional_entropy", "verify.entropy"),
)

SPAN_NAMES = tuple(dict.fromkeys(name for _, _, name in BOUNDARIES))

# Small facts kept from a call's arguments and result, per span name, so
# counts come from the same boundaries as the times without keeping
# payloads alive.
NOTES = {
    "randomness.draw": lambda args, result: args[2],
    "coset.encode_blocks": lambda args, result: result.shape,
    "coset.decode_blocks":
        lambda args, result: (args[0].threshold, len(args[1]), len(args[2])),
    "region.region": lambda args, result: len(result.rows),
    "verify.enumerate": lambda args, result: result.total,
    "multilevel.encode": lambda args, result: result.layout,
    "shareio.split_files": lambda args, result: sum(len(d) for d in args[3]),
    "shareio.write": lambda args, result: len(args[1]),
}


class Span:
    __slots__ = ("name", "request", "parent", "start", "end", "child_time",
                 "note")

    def __init__(self, name, request, parent):
        self.name = name
        self.request = request
        self.parent = parent
        self.child_time = 0.0
        self.note = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.child_time

    def nested_in_same_name(self) -> bool:
        p = self.parent
        while p is not None:
            if p.name == self.name:
                return True
            p = p.parent
        return False


class Tracer:
    """Records spans for the functions listed in BOUNDARIES while active.

    Use as a context manager: entering patches, leaving restores the
    original functions.  ``request`` tags every span with the command
    that caused it; the caller sets it before each command.
    """

    def __init__(self, boundaries=BOUNDARIES):
        self.boundaries = boundaries
        self.spans: list[Span] = []
        self.request = None
        self._stack: list[Span] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn):
        tracer = self
        note = NOTES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = tracer._stack[-1] if tracer._stack else None
            span = Span(name, tracer.request, parent)
            tracer._stack.append(span)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                tracer._stack.pop()
                if parent is not None:
                    parent.child_time += span.end - span.start
                tracer.spans.append(span)
            if note is not None:
                span.note = note(args, result)
            return result
        return traced

    def __enter__(self):
        for module_name, attr, name in self.boundaries:
            owner = importlib.import_module(module_name)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = owner.__dict__[leaf]
            self._saved.append((owner, leaf, original))
            setattr(owner, leaf, self._wrap(name, original))
        return self

    def __exit__(self, *exc):
        for owner, leaf, original in reversed(self._saved):
            setattr(owner, leaf, original)
        self._saved.clear()
        return False

    def totals(self) -> dict[str, dict[str, float]]:
        """Busy time, self time and calls per span name.

        Busy time counts only the outermost of nested spans with the same
        name, so recursion is not counted twice.
        """
        out = {name: {"busy": 0.0, "self": 0.0, "calls": 0}
                for name in SPAN_NAMES}
        for span in self.spans:
            agg = out.setdefault(span.name,
                                 {"busy": 0.0, "self": 0.0, "calls": 0})
            agg["calls"] += 1
            agg["self"] += span.self_time
            if not span.nested_in_same_name():
                agg["busy"] += span.duration
        return out


def span_cost(calls: int = 20_000) -> float:
    """Seconds one traced call adds to the call, measured on a no-op."""
    def noop():
        return None
    traced = Tracer(())._wrap("noop", noop)
    start = perf_counter()
    for _ in range(calls):
        noop()
    plain = perf_counter() - start
    start = perf_counter()
    for _ in range(calls):
        traced()
    return (perf_counter() - start - plain) / calls
