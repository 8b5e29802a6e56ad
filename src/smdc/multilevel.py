"""Multilevel coding: K = L - N independent sources over L encoders.

Source k is worth protecting exactly to depth k: it must survive any
L - (N + k) erasures and stay hidden from any N taps.  Superposition
handles each source with its own single-source code at threshold N + k
and concatenates the per-source payloads on every encoder, drawing all
keys from one stream in source order.  A reader holding any N + j
outputs peels off sources 1..j.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

import numpy as np

from .coset import default_nodes
from .errors import InsufficientSharesError, ParameterError
from .fields import FieldSpec
from .randomness import as_symbol_source
from .single_level import (
    BundleLayout,
    SsdcParams,
    decode_arrays as decode_single,
    encode_arrays as encode_single,
    rate_layout,
    symmetric_layout,
)
# Not called here: levels are encoded by the array core above.
# perfbench/spans.py traces this name in this module.
from .single_level import encode_with_layout  # noqa: F401


@dataclass(frozen=True)
class SmdcParams:
    """L encoders, N tolerated taps, and the K = L - N source lengths
    (in field symbols, priority order: source 1 is the most robust)."""

    field: FieldSpec
    length: int
    wiretap: int
    source_lengths: tuple[int, ...]
    nodes: tuple[int, ...] = ()

    def __post_init__(self):
        if not 1 <= self.wiretap < self.length:
            raise ParameterError(
                f"need 1 <= wiretap < length, got "
                f"({self.length}, {self.wiretap})")
        object.__setattr__(self, "source_lengths",
                           tuple(int(v) for v in self.source_lengths))
        if len(self.source_lengths) != self.source_count:
            raise ParameterError(
                f"need {self.source_count} source lengths, "
                f"got {len(self.source_lengths)}")
        if any(v < 0 for v in self.source_lengths):
            raise ParameterError("source lengths cannot be negative")
        if not self.nodes:
            object.__setattr__(self, "nodes",
                               default_nodes(self.field, self.length))

    @property
    def source_count(self) -> int:
        return self.length - self.wiretap

    def level_params(self, k: int) -> SsdcParams:
        if not 1 <= k <= self.source_count:
            raise ParameterError(f"no source level {k}")
        return SsdcParams(self.field, self.length, self.wiretap,
                          self.wiretap + k, self.nodes)


@dataclass(frozen=True)
class SmdcLayout:
    params: SmdcParams
    levels: tuple[BundleLayout, ...]

    def emitted(self, encoder: int) -> int:
        return sum(level.emitted(encoder) for level in self.levels)


@dataclass(frozen=True)
class SmdcShareBundle:
    """payloads[encoder] holds one symbol sequence per source, in order:
    tuples from encode, arrays from encode_arrays, bytes from share
    files."""

    layout: SmdcLayout
    payloads: Mapping[int, tuple[Sequence[int], ...]]


def plan(params: SmdcParams, rates=None) -> SmdcLayout:
    """Per-source layouts; `rates` is an optional per-source sequence of
    L-tuples, validated against each source's own admissible region."""
    levels = []
    if rates is not None and len(rates) != params.source_count:
        raise ParameterError(f"need rate tuples for {params.source_count} sources")
    for k in range(1, params.source_count + 1):
        level = params.level_params(k)
        h = params.source_lengths[k - 1]
        if rates is None:
            levels.append(symmetric_layout(level, h))
        else:
            levels.append(rate_layout(level, h, rates[k - 1]))
    return SmdcLayout(params, tuple(levels))


def encode_arrays(params: SmdcParams, sources: Sequence[Sequence[int]],
                  source=None, rates=None) -> SmdcShareBundle:
    """Encode all K sources; keys are drawn sequentially in source order.
    Payloads are symbol arrays."""
    if len(sources) != params.source_count:
        raise ParameterError(f"need {params.source_count} sources, "
                             f"got {len(sources)}")
    layout = plan(params, rates)
    src = as_symbol_source(source)
    per_level = [encode_single(layout.levels[k], sources[k], src)
                 for k in range(params.source_count)]
    payloads = {
        l: tuple(bundle.payloads[l] for bundle in per_level)
        for l in range(1, params.length + 1)
    }
    return SmdcShareBundle(layout, payloads)


def encode(params: SmdcParams, sources: Sequence[Sequence[int]],
           source=None, rates=None) -> SmdcShareBundle:
    """encode_arrays with every payload as a tuple of ints."""
    bundle = encode_arrays(params, sources, source, rates)
    return SmdcShareBundle(bundle.layout, {
        l: tuple(tuple(p.tolist()) for p in parts)
        for l, parts in bundle.payloads.items()})


def decode_arrays(bundle: SmdcShareBundle, subset: Sequence[int] | None = None
                  ) -> tuple[np.ndarray, ...]:
    """Sources 1..(|U| - N) from the encoder subset U (all by default)."""
    layout = bundle.layout
    params = layout.params
    present = sorted(bundle.payloads) if subset is None \
        else sorted(set(int(l) for l in subset))
    for l in present:
        if l not in bundle.payloads:
            raise ParameterError(f"no payload for encoder {l}")
    depth = min(len(present) - params.wiretap, params.source_count)
    if depth < 1:
        raise InsufficientSharesError(
            f"recovering even the top source needs {params.wiretap + 1} "
            f"outputs, got {len(present)}",
            needed=params.wiretap + 1, have=len(present))
    out = []
    for k in range(1, depth + 1):
        observed = {l: bundle.payloads[l][k - 1] for l in present}
        out.append(decode_single(layout.levels[k - 1], observed))
    return tuple(out)


def decode(bundle: SmdcShareBundle, subset: Sequence[int] | None = None
           ) -> tuple[tuple[int, ...], ...]:
    """decode_arrays with every source as a tuple of ints."""
    return tuple(tuple(a.tolist()) for a in decode_arrays(bundle, subset))


def rate_of(bundle: SmdcShareBundle, normalization=1) -> tuple[Fraction, ...]:
    """Per-encoder emitted symbols, divided by `normalization`."""
    norm = Fraction(normalization)
    if norm <= 0:
        raise ParameterError("normalization must be positive")
    layout = bundle.layout
    return tuple(Fraction(layout.emitted(l)) / norm
                 for l in range(1, layout.params.length + 1))
