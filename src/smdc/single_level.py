"""Single-source secure diversity coding across L encoders.

A message of h field symbols is spread over the encoders so that any
`threshold` of the L outputs reconstruct it while any `wiretap` of them
reveal nothing.  Uneven rate assignments are realized by a round
schedule: each encoder gets a symbol budget proportional to its rate,
and every round runs one coset-code block across the encoders whose
budget is still open.  A round with t active encoders can carry
t - (L - k) message symbols (k = threshold - wiretap), because an
adversary-chosen threshold subset misses at most L - t of the actives.
The usable capacity of the whole schedule equals the sum of the k
smallest budgets, so every rate tuple inside the admissible region
schedules successfully, and nothing outside it does.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import ceil
from typing import Mapping, Sequence

import numpy as np

from .coset import CosetCodeSpec, decode_blocks, default_nodes, encode_blocks
from .errors import (
    InfeasibleCornerError,
    InsufficientSharesError,
    ParameterError,
    RegionViolationError,
    SmdcError,
)
from .fields import FieldSpec, as_symbols, symbol_dtype
from .randomness import as_symbol_source
# Membership is decided by sorting (see _check_region); the explicit
# system stays importable here because perfbench/spans.py traces it.
from .region import region, violated_subsets  # noqa: F401


@dataclass(frozen=True)
class SsdcParams:
    """Problem shape: L encoders, reconstruct from any `threshold`,
    perfect secrecy against any `wiretap`."""

    field: FieldSpec
    length: int
    wiretap: int
    threshold: int
    nodes: tuple[int, ...] = ()

    def __post_init__(self):
        if not 1 <= self.wiretap < self.threshold <= self.length:
            raise ParameterError(
                f"need 1 <= wiretap < threshold <= length, got "
                f"({self.length}, {self.wiretap}, {self.threshold})")
        if not self.nodes:
            object.__setattr__(self, "nodes",
                               default_nodes(self.field, self.length))
        if len(self.nodes) != self.length or len(set(self.nodes)) != self.length:
            raise ParameterError("need one distinct node per encoder")
        for v in self.nodes:
            if not 0 <= v < self.field.order:
                raise ParameterError(f"node {v} outside {self.field}")

    @property
    def k(self) -> int:
        """Message symbols carried per full-width block."""
        return self.threshold - self.wiretap

    def run_spec(self, active: tuple[int, ...], size: int) -> CosetCodeSpec:
        nodes = tuple(self.nodes[l - 1] for l in active)
        return CosetCodeSpec(self.field, len(active), self.wiretap,
                             self.wiretap + size, nodes)


@dataclass(frozen=True)
class BlockRun:
    """`count` consecutive blocks over the same active encoder set."""

    active: tuple[int, ...]
    size: int
    count: int


@dataclass(frozen=True)
class BundleLayout:
    """Public description of how a message was scheduled.

    Everything here (including padding and key counts) is considered
    known to the adversary; only key values are secret.
    """

    params: SsdcParams
    runs: tuple[BlockRun, ...]
    message_symbols: int
    declared_rates: tuple[Fraction, ...]

    @property
    def padded_symbols(self) -> int:
        return sum(r.size * r.count for r in self.runs)

    @property
    def padding(self) -> int:
        return self.padded_symbols - self.message_symbols

    @property
    def key_symbols(self) -> int:
        return sum(r.count for r in self.runs) * self.params.wiretap

    def emitted(self, encoder: int) -> int:
        return sum(r.count for r in self.runs if encoder in r.active)

    def emitted_rate(self, encoder: int) -> Fraction:
        if self.message_symbols == 0:
            return Fraction(0)
        return Fraction(self.emitted(encoder), self.message_symbols)


@dataclass(frozen=True)
class SsdcShareBundle:
    """payloads[encoder] is that encoder's symbol sequence: a tuple from
    encode_with_layout, an array from encode_arrays."""

    layout: BundleLayout
    payloads: Mapping[int, Sequence[int]]


def _as_rates(params: SsdcParams, rates) -> tuple[Fraction, ...]:
    if len(rates) != params.length:
        raise ParameterError(f"need {params.length} rates")
    out = []
    for r in rates:
        if isinstance(r, float):
            raise ParameterError("rates must be exact (int/Fraction)")
        out.append(Fraction(r))
    return tuple(out)


def _check_region(params: SsdcParams, rates: tuple[Fraction, ...]) -> None:
    """Membership in region(L, k, 1) in O(L log L).

    The region is symmetric: every k-subset of the rates sums to at least
    1 exactly when the k smallest do, so those k encoders (ties broken by
    encoder index) are the witness of a violation.  A negative rate is
    its own witness, as its nonnegativity row is.
    """
    negative = [l for l, r in enumerate(rates, start=1) if r < 0]
    if negative:
        subset = (negative[0],)
    else:
        order = sorted(range(params.length), key=lambda i: (rates[i], i))
        smallest = order[:params.k]
        if sum(rates[i] for i in smallest) >= 1:
            return
        subset = tuple(sorted(i + 1 for i in smallest))
    raise RegionViolationError(
        f"rates {tuple(map(str, rates))} leave encoder subset "
        f"{subset} below the decoding requirement",
        subset=subset, rates=rates)


def rate_layout(params: SsdcParams, message_symbols: int, rates) -> BundleLayout:
    """Schedule `message_symbols` symbols at (per-symbol) rates.

    Rates are normalized to a unit-entropy message: admissible means
    every k-subset of them sums to at least 1.  Encoder l gets a budget
    of ceil(r_l * n) blocks and round j runs over the encoders whose
    budget is at least j, so the active set only changes at the distinct
    budget values: each one closes a run, and the last run stops as soon
    as the message is covered.
    """
    rates = _as_rates(params, rates)
    if message_symbols < 0:
        raise ParameterError("message length cannot be negative")
    _check_region(params, rates)

    budgets = [ceil(r * message_symbols) for r in rates]
    floor_active = params.length - params.k
    runs: list[BlockRun] = []
    covered = 0
    done = 0  # rounds scheduled so far
    for budget in sorted(set(budgets) - {0}):
        if covered >= message_symbols:
            break
        active = tuple(l for l in range(1, params.length + 1)
                       if budgets[l - 1] >= budget)
        size = len(active) - floor_active
        if size <= 0:
            break
        count = min(budget - done, -(-(message_symbols - covered) // size))
        runs.append(BlockRun(active, size, count))
        covered += count * size
        done = budget
    if covered < message_symbols:
        raise SmdcError("schedule ran out of capacity on admissible "
                        "rates; this is a bug")
    return BundleLayout(params, tuple(runs), message_symbols, rates)


def symmetric_layout(params: SsdcParams, message_symbols: int) -> BundleLayout:
    share = Fraction(1, params.k)
    return rate_layout(params, message_symbols, (share,) * params.length)


def corner_layout(params: SsdcParams, message_symbols: int,
                  zeros: Sequence[int]) -> BundleLayout:
    """Layout for a corner of the region: the encoders in `zeros` stay
    silent, the rest share the message evenly."""
    z = tuple(sorted(set(int(l) for l in zeros)))
    for l in z:
        if not 1 <= l <= params.length:
            raise ParameterError(f"encoder {l} out of range")
    if len(z) > params.k - 1:
        raise InfeasibleCornerError(
            f"at most {params.k - 1} encoders may be silent, got {len(z)}")
    share = Fraction(1, params.k - len(z))
    rates = tuple(Fraction(0) if l in z else share
                  for l in range(1, params.length + 1))
    return rate_layout(params, message_symbols, rates)


def encode_arrays(layout: BundleLayout, message, source=None
                  ) -> SsdcShareBundle:
    """Encode a message along its layout; payloads are symbol arrays.

    Each run is one block encode over all its blocks, with its keys drawn
    in one call.
    """
    params = layout.params
    field = params.field
    msg = as_symbols(field, message)
    if len(msg) != layout.message_symbols:
        raise ParameterError(
            f"layout expects {layout.message_symbols} symbols, "
            f"got {len(msg)}")
    dtype = symbol_dtype(field.order)
    if layout.padding:
        msg = np.concatenate([msg, np.zeros(layout.padding, dtype=dtype)])
    src = as_symbol_source(source)

    parts: dict[int, list[np.ndarray]] = {
        l: [] for l in range(1, params.length + 1)}
    offset = 0
    for run in layout.runs:
        spec = params.run_spec(run.active, run.size)
        take = run.count * run.size
        blocks = msg[offset:offset + take].reshape(run.count, run.size)
        keys = np.asarray(src.draw(field.order, run.count * params.wiretap),
                          dtype=dtype).reshape(run.count, params.wiretap)
        shares = encode_blocks(spec, blocks, keys)
        for pos, l in enumerate(run.active):
            parts[l].append(shares[:, pos])
        offset += take
    return SsdcShareBundle(layout, {
        l: np.concatenate(p) if p else np.zeros(0, dtype=dtype)
        for l, p in parts.items()})


def encode_with_layout(layout: BundleLayout, message: Sequence[int],
                       source=None) -> SsdcShareBundle:
    """encode_arrays with payloads as tuples of ints."""
    bundle = encode_arrays(layout, message, source)
    return SsdcShareBundle(layout, {l: tuple(p.tolist())
                                    for l, p in bundle.payloads.items()})


def encode_symmetric(params: SsdcParams, message: Sequence[int],
                     source=None) -> SsdcShareBundle:
    return encode_with_layout(symmetric_layout(params, len(message)),
                              message, source)


def encode_corner(params: SsdcParams, message: Sequence[int],
                  zeros: Sequence[int], source=None) -> SsdcShareBundle:
    return encode_with_layout(corner_layout(params, len(message), zeros),
                              message, source)


def encode_at_rate(params: SsdcParams, message: Sequence[int], rates,
                   source=None) -> SsdcShareBundle:
    return encode_with_layout(rate_layout(params, len(message), rates),
                              message, source)


def decode_arrays(layout: BundleLayout, observed: Mapping[int, Sequence[int]]
                  ) -> np.ndarray:
    """Reconstruct the message from any `threshold` encoder payloads.

    Payloads may be int sequences, arrays or bytes (one symbol per byte).
    Payloads beyond the threshold join the consistency check.  Each run
    is one block decode over columns sliced from the payloads.
    """
    params = layout.params
    present = sorted(int(l) for l in observed)
    for l in present:
        if not 1 <= l <= params.length:
            raise ParameterError(f"encoder {l} out of range")
    if len(present) < params.threshold:
        raise InsufficientSharesError(
            f"reconstruction needs any {params.threshold} encoder outputs, "
            f"got {len(present)} "
            f"({params.threshold - len(present)} short)",
            needed=params.threshold, have=len(present))
    payloads = {l: as_symbols(params.field, observed[l]) for l in present}
    for l, p in payloads.items():
        if len(p) != layout.emitted(l):
            raise ParameterError(
                f"encoder {l} payload has {len(p)} symbols, "
                f"layout says {layout.emitted(l)}")

    offsets = dict.fromkeys(present, 0)
    out = [np.zeros(0, dtype=symbol_dtype(params.field.order))]
    for run in layout.runs:
        spec = params.run_spec(run.active, run.size)
        avail = [l for l in run.active if l in payloads]
        local_ids = tuple(run.active.index(l) + 1 for l in avail)
        cols = np.stack([payloads[l][offsets[l]:offsets[l] + run.count]
                         for l in avail])
        blocks = decode_blocks(spec, local_ids, cols.T)
        out.append(blocks.reshape(-1))
        for l in avail:
            offsets[l] += run.count
    return np.concatenate(out)[:layout.message_symbols]


def decode(layout: BundleLayout, observed: Mapping[int, Sequence[int]]
           ) -> tuple[int, ...]:
    """decode_arrays, returning the message as a tuple of ints."""
    return tuple(decode_arrays(layout, observed).tolist())


def decode_bundle(bundle: SsdcShareBundle, subset: Sequence[int] | None = None
                  ) -> tuple[int, ...]:
    if subset is None:
        observed = bundle.payloads
    else:
        observed = {int(l): bundle.payloads[int(l)] for l in subset}
    return decode(bundle.layout, observed)
