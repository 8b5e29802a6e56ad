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

A layout fixes the rates once (symmetric_layout or rate_layout) and
keeps only the schedule they produce: its runs, message length and, from
them, the padding, key count and per-encoder output.  encode_with_layout
and decode run a layout on symbol arrays.  A run's blocks use the block
code of `params` at threshold wiretap + size, so encoder l evaluates at
node l in every run it takes part in.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property
from math import ceil
from typing import Mapping, Sequence

import numpy as np

from .coset import CosetCodeSpec, decode_blocks, encode_blocks
from .errors import (InsufficientSharesError, ParameterError,
                     RegionViolationError, SmdcError, as_encoders,
                     as_fraction, as_int)
from .fields import as_symbols, symbol_dtype
from .randomness import as_symbol_source
# Membership is decided by sorting (see _check_region); the explicit
# system stays importable here because perfbench/spans.py traces it.
from .region import region, violated_subsets  # noqa: F401


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

    params: CosetCodeSpec
    runs: tuple[BlockRun, ...]
    message_symbols: int

    @property
    def padded_symbols(self) -> int:
        return sum(r.size * r.count for r in self.runs)

    @property
    def padding(self) -> int:
        return self.padded_symbols - self.message_symbols

    @property
    def key_symbols(self) -> int:
        return sum(r.count for r in self.runs) * self.params.wiretap

    @cached_property
    def _emitted(self) -> dict[int, int]:
        counts = dict.fromkeys(range(1, self.params.length + 1), 0)
        for r in self.runs:
            for l in r.active:
                counts[l] += r.count
        return counts

    def emitted(self, encoder: int) -> int:
        return self._emitted.get(encoder, 0)


@dataclass(frozen=True)
class SsdcShareBundle:
    """payloads[encoder] is that encoder's symbol array."""

    layout: BundleLayout
    payloads: Mapping[int, np.ndarray]


def _as_rates(params: CosetCodeSpec, rates) -> tuple[Fraction, ...]:
    rates = tuple(as_fraction(r, "rate") for r in rates)
    if len(rates) != params.length:
        raise ParameterError(f"need {params.length} rates")
    return rates


def _check_region(params: CosetCodeSpec,
                  rates: tuple[Fraction, ...]) -> None:
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


def _message_length(n) -> int:
    n = as_int(n, "message length")
    if n < 0:
        raise ParameterError("message length cannot be negative")
    return n


def rate_layout(params: CosetCodeSpec, message_symbols: int,
                rates) -> BundleLayout:
    """Schedule `message_symbols` symbols at (per-symbol) rates.

    Rates are normalized to a unit-entropy message: admissible means
    every k-subset of them sums to at least 1.  Encoder l gets a budget
    of ceil(r_l * n) blocks and round j runs over the encoders whose
    budget is at least j, so the active set only changes at the distinct
    budget values: each one closes a run, and the last run stops as soon
    as the message is covered.
    """
    rates = _as_rates(params, rates)
    message_symbols = _message_length(message_symbols)
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
    return BundleLayout(params, tuple(runs), message_symbols)


def symmetric_layout(params: CosetCodeSpec,
                     message_symbols: int) -> BundleLayout:
    """rate_layout at every rate 1/k, in closed form: every encoder's
    budget is ceil(h/k) blocks, so the schedule is one run over all L
    encoders with k message symbols per block (none when h = 0)."""
    message_symbols = _message_length(message_symbols)
    blocks = -(-message_symbols // params.k)
    run = BlockRun(tuple(range(1, params.length + 1)), params.k, blocks)
    return BundleLayout(params, (run,) if blocks else (), message_symbols)


def encode_with_layout(layout: BundleLayout, message, source=None
                       ) -> SsdcShareBundle:
    """Encode a message along its layout; payloads are symbol arrays.

    `message` has shape (..., h): leading axes are a batch of messages
    encoded independently, and each payload has shape (..., emitted).
    Each run is one block encode over all its blocks of the whole batch,
    with its keys drawn in one call, word after word.
    """
    params = layout.params
    field = params.field
    msg = as_symbols(field, message)
    if msg.shape[-1] != layout.message_symbols:
        raise ParameterError(
            f"layout expects {layout.message_symbols} symbols, "
            f"got {msg.shape[-1]}")
    batch = msg.shape[:-1]
    dtype = symbol_dtype(field.order)
    if layout.padding:
        msg = np.concatenate(
            [msg, np.zeros(batch + (layout.padding,), dtype=dtype)], axis=-1)
    src = as_symbol_source(source)

    parts: dict[int, list[np.ndarray]] = {
        l: [] for l in range(1, params.length + 1)}
    offset = 0
    for run in layout.runs:
        spec = replace(params, threshold=params.wiretap + run.size)
        take = run.count * run.size
        blocks = msg[..., offset:offset + take].reshape(-1, run.size)
        keys = np.asarray(
            src.draw(field.order, len(blocks) * params.wiretap),
            dtype=dtype).reshape(-1, params.wiretap)
        shares = encode_blocks(spec, blocks, keys)
        for l in run.active:
            parts[l].append(shares[:, l - 1].reshape(batch + (run.count,)))
        offset += take
    return SsdcShareBundle(layout, {
        l: np.concatenate(p, axis=-1) if p
        else np.zeros(batch + (0,), dtype=dtype)
        for l, p in parts.items()})


def decode(layout: BundleLayout, observed: Mapping[int, Sequence[int]]
           ) -> np.ndarray:
    """Reconstruct the message from any `threshold` encoder payloads.

    Payloads may be int sequences, arrays or bytes (one symbol per byte),
    or batches of shape (..., emitted) that share their leading axes; the
    result then has shape (..., h).  Each run is one block decode over
    columns sliced from every payload present, beyond the threshold too:
    a block whose interpolated coefficients from the run's threshold up
    are not all zero lies on no codeword, and raises DecodeFailureError.
    """
    params = layout.params
    present = sorted(as_encoders(observed, params.length))
    if len(present) < params.threshold:
        raise InsufficientSharesError(
            f"reconstruction needs any {params.threshold} encoder outputs, "
            f"got {len(present)} "
            f"({params.threshold - len(present)} short)",
            needed=params.threshold, have=len(present))
    payloads = {l: as_symbols(params.field, observed[l]) for l in present}
    batch = payloads[present[0]].shape[:-1]
    for l, p in payloads.items():
        if p.shape[:-1] != batch:
            raise ParameterError("payload batches differ in shape")
        if p.shape[-1] != layout.emitted(l):
            raise ParameterError(
                f"encoder {l} payload has {p.shape[-1]} symbols, "
                f"layout says {layout.emitted(l)}")

    offsets = dict.fromkeys(present, 0)
    out = []
    for run in layout.runs:
        spec = replace(params, threshold=params.wiretap + run.size)
        avail = [l for l in run.active if l in payloads]
        # one column per share, the run's slice of its payload: a view
        # unless a batch of payloads holds more than this run
        blocks = decode_blocks(spec, avail, *(
            payloads[l][..., offsets[l]:offsets[l] + run.count].reshape(-1)
            for l in avail))
        out.append(blocks.reshape(batch + (-1,)))
        for l in avail:
            offsets[l] += run.count
    message = out[0] if len(out) == 1 else np.concatenate(
        [np.zeros(batch + (0,), dtype=symbol_dtype(params.field.order)),
         *out], axis=-1)
    return message[..., :layout.message_symbols]

