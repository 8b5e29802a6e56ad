"""Multilevel coding: K = L - N independent sources over L encoders.

Source k is worth protecting exactly to depth k: it must survive any
L - (N + k) erasures and stay hidden from any N taps.  Superposition
handles each source with its own single-source code at threshold N + k
and concatenates the per-source payloads on every encoder, drawing all
keys from one stream in source order.  A reader holding any N + j
outputs peels off sources 1..j.

plan is the one place that picks rates: it gives each source its own
single-source layout (symmetric, or at per-source rates).  encode and
decode run the SmdcLayout they are given and never plan again.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .coset import CosetCodeSpec, check_encoder_count
from .errors import InsufficientSharesError, ParameterError, as_int
from .fields import FieldSpec
from .randomness import as_symbol_source
from .single_level import (
    BundleLayout,
    decode as decode_single,
    encode_with_layout,
    rate_layout,
    symmetric_layout,
)


@dataclass(frozen=True)
class SmdcParams:
    """L encoders, N tolerated taps, and the K = L - N source lengths
    (in field symbols, priority order: source 1 is the most robust)."""

    field: FieldSpec
    length: int
    wiretap: int
    source_lengths: tuple[int, ...]

    def __post_init__(self):
        for name in ("length", "wiretap"):
            object.__setattr__(self, name, as_int(getattr(self, name), name))
        if not 1 <= self.wiretap < self.length:
            raise ParameterError(
                f"need 1 <= wiretap < length, got "
                f"({self.length}, {self.wiretap})")
        object.__setattr__(self, "source_lengths",
                           tuple(as_int(v, "source length")
                                 for v in self.source_lengths))
        if len(self.source_lengths) != self.source_count:
            raise ParameterError(
                f"need {self.source_count} source lengths, "
                f"got {len(self.source_lengths)}")
        if any(v < 0 for v in self.source_lengths):
            raise ParameterError("source lengths cannot be negative")
        check_encoder_count(self.field, self.length)

    @property
    def source_count(self) -> int:
        return self.length - self.wiretap

    def level_params(self, k: int) -> CosetCodeSpec:
        if not 1 <= k <= self.source_count:
            raise ParameterError(f"no source level {k}")
        return CosetCodeSpec(self.field, self.length, self.wiretap,
                             self.wiretap + k)


@dataclass(frozen=True)
class SmdcLayout:
    params: SmdcParams
    levels: tuple[BundleLayout, ...]

    def emitted(self, encoder: int) -> int:
        return sum(level.emitted(encoder) for level in self.levels)


@dataclass(frozen=True)
class SmdcShareBundle:
    """payloads[encoder] holds one symbol array per source, in order."""

    layout: SmdcLayout
    payloads: Mapping[int, tuple[Sequence[int], ...]]


def plan(params: SmdcParams, rates=None) -> SmdcLayout:
    """Per-source layouts; `rates` is an optional per-source sequence of
    L-tuples, validated against each source's own admissible region."""
    if rates is not None and len(rates) != params.source_count:
        raise ParameterError(f"need rate tuples for {params.source_count} sources")
    return SmdcLayout(params, tuple(
        symmetric_layout(params.level_params(k), h) if rates is None
        else rate_layout(params.level_params(k), h, rates[k - 1])
        for k, h in enumerate(params.source_lengths, start=1)))


def encode(layout: SmdcLayout, sources: Sequence[Sequence[int]],
           source=None) -> SmdcShareBundle:
    """Encode all K sources along the layout; keys are drawn sequentially
    in source order.  Payloads are symbol arrays."""
    params = layout.params
    if len(sources) != params.source_count:
        raise ParameterError(f"need {params.source_count} sources, "
                             f"got {len(sources)}")
    src = as_symbol_source(source)
    per_level = [encode_with_layout(level, message, src)
                 for level, message in zip(layout.levels, sources)]
    return SmdcShareBundle(layout, {
        l: tuple(bundle.payloads[l] for bundle in per_level)
        for l in range(1, params.length + 1)})


def decode(layout: SmdcLayout,
           observed: Mapping[int, Sequence[Sequence[int]]]
           ) -> tuple[np.ndarray, ...]:
    """Sources 1..(|U| - N) from the payloads of an encoder subset U:
    observed[encoder] holds one symbol sequence per source."""
    params = layout.params
    for l, parts in observed.items():
        if not hasattr(parts, "__len__") or len(parts) != params.source_count:
            raise ParameterError(f"encoder {l} needs {params.source_count} payloads")
    depth = min(len(observed) - params.wiretap, params.source_count)
    if depth < 1:
        raise InsufficientSharesError(
            f"recovering even the top source needs {params.wiretap + 1} "
            f"outputs, got {len(observed)}",
            needed=params.wiretap + 1, have=len(observed))
    return tuple(
        decode_single(layout.levels[k],
                      {l: parts[k] for l, parts in observed.items()})
        for k in range(depth))
