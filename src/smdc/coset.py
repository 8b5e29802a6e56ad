"""Coset coding on Vandermonde generators.

One code turns a block of message symbols plus fresh uniform key symbols
into L share symbols, one per encoder.  Any `threshold` shares recover
the message; any `wiretap` shares are statistically independent of it,
because the key columns of every such row subset have full row rank.

The generator is the L x threshold Vandermonde matrix on the
CosetCodeSpec nodes; columns 0..wiretap-1 multiply the key, the rest
the message.
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
from .fields import (FieldSpec, array_matmul, matrix_inverse, symbol_dtype,
                     vandermonde_array)
from .randomness import as_symbol_source


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


def generator_matrix(spec: CosetCodeSpec) -> tuple[tuple[int, ...], ...]:
    return tuple(map(tuple, _generator_array(spec).tolist()))


# The caches below are bounded: a process that joins from many different
# share subsets would otherwise keep every inverse it ever computed.  256
# entries hold one solver per source level of any L the container allows.

@lru_cache(maxsize=256)
def _generator_array(spec: CosetCodeSpec) -> np.ndarray:
    gen = vandermonde_array(spec.field, spec.nodes, spec.threshold).astype(
        symbol_dtype(spec.field.order))
    gen.flags.writeable = False
    return gen


@lru_cache(maxsize=256)
def _decode_solver(spec: CosetCodeSpec, ids: tuple[int, ...]):
    """Inverse of the square submatrix for the first `threshold` of ids,
    plus the generator rows of any extra ids for consistency checking."""
    gen = _generator_array(spec)
    rows = [i - 1 for i in ids]
    m = spec.threshold
    inv = matrix_inverse(spec.field, gen[rows[:m]])
    extra = gen[rows[m:]]
    inv.flags.writeable = extra.flags.writeable = False
    return inv, extra


def _check_ids(spec: CosetCodeSpec, ids) -> tuple[int, ...]:
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
    return ids


def encode(spec: CosetCodeSpec, message, key) -> tuple[int, ...]:
    """One block: L share symbols from message and key symbols."""
    msg = [int(v) for v in message]
    keys = [int(v) for v in key]
    if len(msg) != spec.k:
        raise ParameterError(f"message block must have {spec.k} symbols")
    if len(keys) != spec.wiretap:
        raise ParameterError(f"key block must have {spec.wiretap} symbols")
    for v in keys + msg:
        spec.field._check(v)
    return tuple(encode_blocks(spec, np.array([msg]), np.array([keys]))[0]
                 .tolist())


def decode(spec: CosetCodeSpec, observed) -> tuple[int, ...]:
    """Message block from (share_index, value) pairs, indices 1-based.

    Extra shares beyond the threshold are checked against the decoded
    block; disagreement raises DecodeFailureError.
    """
    pairs = [(int(i), int(v)) for i, v in observed]
    ids = _check_ids(spec, [i for i, _ in pairs])
    vals = [spec.field._check(v) for _, v in pairs]
    return tuple(decode_blocks(spec, ids, np.array([vals]))[0].tolist())


def keygen(spec: CosetCodeSpec, source=None) -> tuple[int, ...]:
    """Fresh uniform key symbols for one block."""
    src = as_symbol_source(source)
    return tuple(int(v) for v in src.draw(spec.field.order, spec.wiretap))


# --- bulk block paths ---------------------------------------------------------

def encode_blocks(spec: CosetCodeSpec, messages: np.ndarray,
                  keys: np.ndarray) -> np.ndarray:
    """Vectorized encode: (n, msg) and (n, key) arrays to (n, L) shares.

    The result is a transposed view: column l is a contiguous array.
    """
    messages = np.asarray(messages)
    keys = np.asarray(keys)
    n = messages.shape[0]
    if messages.shape != (n, spec.k) or keys.shape != (n, spec.wiretap):
        raise ParameterError("block arrays have the wrong shape")
    x = np.concatenate([keys.T, messages.T]).T
    return array_matmul(spec.field, x, _generator_array(spec).T)


def decode_blocks(spec: CosetCodeSpec, ids, shares: np.ndarray) -> np.ndarray:
    """Vectorized decode of (n, len(ids)) share columns back to messages."""
    ids = _check_ids(spec, ids)
    shares = np.asarray(shares)
    if shares.ndim != 2 or shares.shape[1] != len(ids):
        raise ParameterError("share array does not match the id list")
    inv, extra = _decode_solver(spec, ids)
    m = spec.threshold
    x = array_matmul(spec.field, shares[:, :m], inv.T)
    if len(extra):
        redo = array_matmul(spec.field, x, extra.T)
        if not np.array_equal(redo, shares[:, m:]):
            raise DecodeFailureError(
                "shares are inconsistent with any single codeword")
    return x[:, spec.wiretap:]
