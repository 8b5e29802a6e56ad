"""Coset coding on Vandermonde generators.

One code turns a block of message symbols plus fresh uniform key symbols
into L share symbols, one per encoder.  Any `threshold` shares recover
the message; any `wiretap` shares are statistically independent of it,
because the key columns of every such row subset have full row rank.

The generator is the L x threshold Vandermonde matrix on the
CosetCodeSpec nodes; columns 0..wiretap-1 multiply the key, the rest
the message.  encode_blocks and decode_blocks run it on arrays of
blocks, one block per row; one block is a one-row array.  The caller
draws the keys (single_level draws one stream per run of blocks).

Decoding wants the message, never the key.  For a list of share ids,
the first `threshold` of them fix the block: its coefficients are the
interpolating polynomial of their values.  The decoder keeps only the
k message rows of that interpolation, in closed form from the Lagrange
basis of their nodes, and below them one row per extra id: the basis
evaluated at the extra node, which predicts that share.  One kernel
pass yields the message and the predictions; a block whose extra shares
differ from their predictions raises DecodeFailureError, as
re-encoding its decoded key and message would.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import (
    DecodeFailureError,
    InsufficientSharesError,
    ParameterError,
)
from .fields import (FieldSpec, array_matmul, lagrange_rows, symbol_dtype,
                     vandermonde_array)


def default_nodes(field: FieldSpec, length: int) -> tuple[int, ...]:
    """Evaluation points 1..L, one nonzero field element per encoder."""
    if length >= field.order:
        other = "gf256 or " if length < 256 else ""
        raise ParameterError(
            f"{field} supports at most {field.order - 1} encoders; "
            f"use {other}a prime above {length}")
    return tuple(range(1, length + 1))


@dataclass(frozen=True)
class CosetCodeSpec:
    """Shape of one code: L outputs, `wiretap` tolerated taps, decode
    from any `threshold` outputs.  Nodes default to 1..L.

    The same type describes a whole single-source problem and each
    block code its schedule runs; a block carries `wiretap` key symbols
    and k = threshold - wiretap message symbols."""

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
        if len(self.nodes) != self.length:
            raise ParameterError("need one node per encoder")
        if len(set(self.nodes)) != self.length:
            raise ParameterError("nodes must be distinct")
        for v in self.nodes:
            if not 0 <= v < self.field.order:
                raise ParameterError(f"node {v} outside {self.field}")

    @property
    def k(self) -> int:
        """Message symbols per block."""
        return self.threshold - self.wiretap


# The caches below are bounded: a process that joins from many different
# share subsets would otherwise keep every decode matrix it ever built.  256
# entries hold one solver per source level of any L the container allows.

@lru_cache(maxsize=256)
def _generator_array(spec: CosetCodeSpec) -> np.ndarray:
    gen = vandermonde_array(spec.field, spec.nodes, spec.threshold).astype(
        symbol_dtype(spec.field.order))
    gen.flags.writeable = False
    return gen


@lru_cache(maxsize=256)
def _decode_solver(spec: CosetCodeSpec, ids: tuple[int, ...]) -> np.ndarray:
    """Transposed decode rows for ids: the message rows of the inverse of
    the first `threshold` ids' Vandermonde rows, then one prediction row
    per extra id, the Lagrange basis of the first ones at its node."""
    nodes = [spec.nodes[i - 1] for i in ids]
    m = spec.threshold
    rows = lagrange_rows(spec.field, nodes[:m], spec.k, nodes[m:]).T.astype(
        symbol_dtype(spec.field.order))
    rows.flags.writeable = False
    return rows


def encode_blocks(spec: CosetCodeSpec, messages: np.ndarray,
                  keys: np.ndarray) -> np.ndarray:
    """Vectorized encode: (n, msg) and (n, key) arrays to (n, L) shares.

    The key and message columns go to the kernel as they lie.  The
    result is a transposed view: column l is a contiguous array.
    """
    messages = np.asarray(messages)
    keys = np.asarray(keys)
    n = messages.shape[0]
    if messages.shape != (n, spec.k) or keys.shape != (n, spec.wiretap):
        raise ParameterError("block arrays have the wrong shape")
    return array_matmul(spec.field, (*keys.T, *messages.T),
                        _generator_array(spec).T)


def decode_blocks(spec: CosetCodeSpec, ids, shares: np.ndarray) -> np.ndarray:
    """Vectorized decode of (n, len(ids)) share columns back to messages.

    Share ids are 1-based.  The first `threshold` columns are decoded,
    and every column beyond them is predicted from the same ones, in the
    same kernel pass: a block whose extra shares differ from their
    predictions lies on no single codeword, and DecodeFailureError is
    raised.  The prediction rows are E.V^-1, so a block fails here
    exactly when re-encoding its decoded key and message misses an
    extra share.
    """
    ids = tuple(int(i) for i in ids)
    for i in ids:
        if not 1 <= i <= spec.length:
            raise ParameterError(f"share index {i} out of range 1..{spec.length}")
    if len(set(ids)) != len(ids):
        raise ParameterError("duplicate share indices")
    if len(ids) < spec.threshold:
        raise InsufficientSharesError(
            f"decoding needs {spec.threshold} distinct shares, got {len(ids)}",
            needed=spec.threshold, have=len(ids))
    shares = np.asarray(shares)
    if shares.ndim != 2 or shares.shape[1] != len(ids):
        raise ParameterError("share array does not match the id list")
    m, k = spec.threshold, spec.k
    out = array_matmul(spec.field, shares.T[:m], _decode_solver(spec, ids))
    if not np.array_equal(out[:, k:], shares[:, m:]):
        raise DecodeFailureError(
            "shares are inconsistent with any single codeword")
    return out[:, :k]
