"""Arithmetic over the small finite fields used by the coding layers.

A field is named by its order q: a prime p <= 2^16, for GF(p), or 256,
for GF(2^8) reduced by x^8 + x^4 + x^3 + x + 1 (0x11B).  All fields of
one order are isomorphic, and a code's guarantees depend on q alone.
Scalar arithmetic on plain ints goes through :class:`FieldSpec`, and all
bulk block math uses the numpy helpers at the bottom of the module.
The block kernel `array_matmul` reduces GF(p) sums by floor division,
x - (x // p) p: numpy divides 8- to 32-bit words by a scalar as a
vectorized multiply and shift, but takes x % p one division per entry,
and divides uint64 words one entry at a time too.  Over GF(2^8) it
gathers each input symbol once, from a 256-entry table whose words pack
the products for up to 8 outputs, one byte lane each (the split-table
method of Plank, Greenan and Miller, FAST 2013, with the tables of all
outputs packed side by side); a handful of rows is looked up directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .errors import ParameterError, as_int

PRIME = "prime"
BINARY8 = "binary8"

MAX_PRIME = 1 << 16
BINARY8_ORDER = 256


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def _check_prime(p: int) -> None:
    if not (p <= MAX_PRIME and _is_prime(p)):
        raise ParameterError(f"{p} is not a usable prime modulus")


@dataclass(frozen=True)
class FieldSpec:
    """Identifies one finite field by its order and implements its
    scalar arithmetic.

    ``order`` is a prime p <= 2^16, or 256 for GF(2^8); ``kind`` ("prime"
    or "binary8") follows from it.  Instances are value objects: two
    specs compare equal iff they describe the same field.
    """

    order: int

    def __post_init__(self):
        object.__setattr__(self, "order", as_int(self.order, "field order"))
        if self.order != BINARY8_ORDER:
            _check_prime(self.order)

    @property
    def kind(self) -> str:
        return BINARY8 if self.order == BINARY8_ORDER else PRIME

    def add(self, a: int, b: int) -> int:
        if self.kind == PRIME:
            return (a + b) % self.order
        return a ^ b

    def neg(self, a: int) -> int:
        if self.kind == PRIME:
            return (-a) % self.order
        return a

    def sub(self, a: int, b: int) -> int:
        if self.kind == PRIME:
            return (a - b) % self.order
        return a ^ b

    def mul(self, a: int, b: int) -> int:
        if self.kind == PRIME:
            return (a * b) % self.order
        if a == 0 or b == 0:
            return 0
        exp, log = _binary8_tables()
        return exp[log[a] + log[b]]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("0 has no multiplicative inverse")
        if self.kind == PRIME:
            return pow(a, -1, self.order)
        exp, log = _binary8_tables()
        return exp[255 - log[a]]

    def pow(self, a: int, e: int) -> int:
        if e < 0:
            return self.pow(self.inv(a), -e)
        out = 1
        base = a
        while e:
            if e & 1:
                out = self.mul(out, base)
            base = self.mul(base, base)
            e >>= 1
        return out

    def __repr__(self):
        if self.kind == PRIME:
            return f"GF({self.order})"
        return "GF(2^8/0x11B)"


@lru_cache(maxsize=None)
def _binary8_tables() -> tuple[tuple[int, ...], tuple[int, ...]]:
    # exp/log tables over the generator x + 1 (3) of the multiplicative
    # group; exp runs twice round so a sum of two logs needs no reduction
    exp = [0] * 510
    log = [0] * 256
    x = 1
    for i in range(255):
        exp[i] = exp[i + 255] = x
        log[x] = i
        x ^= x << 1
        if x & 0x100:
            x ^= 0x11B
    return tuple(exp), tuple(log)


@lru_cache(maxsize=None)
def _binary8_log_exp() -> tuple[np.ndarray, np.ndarray]:
    """The log and exp tables as int64 arrays."""
    exp, log = _binary8_tables()
    return np.array(log, dtype=np.int64), np.array(exp, dtype=np.int64)


@lru_cache(maxsize=None)
def _binary8_mul_table() -> np.ndarray:
    """256 x 256 product table; row g is the split-table row for
    multiplying by the constant g."""
    log, exp = _binary8_log_exp()
    table = exp[log[:, None] + log[None, :]].astype(np.uint8)
    table[0, :] = 0
    table[:, 0] = 0
    table.flags.writeable = False
    return table


def prime_field(p: int) -> FieldSpec:
    _check_prime(p)
    return FieldSpec(p)


def binary8_field() -> FieldSpec:
    return FieldSpec(BINARY8_ORDER)


GF5 = prime_field(5)
GF7 = prime_field(7)
GF256 = binary8_field()


def vandermonde_array(spec: FieldSpec, nodes: Sequence[int], width: int) -> np.ndarray:
    """Vandermonde matrix as an int64 array, entry (i, j) = nodes[i] ** j,
    built one column at a time."""
    column = as_symbols(spec, nodes).astype(np.int64)
    if len(set(column.tolist())) != len(column):
        raise ParameterError("vandermonde nodes must be distinct")
    if width < 0:
        raise ParameterError("width must be nonnegative")
    out = np.ones((len(column), width), dtype=np.int64)
    for j in range(1, width):
        out[:, j] = _array_mul(spec, out[:, j - 1], column)
    return out


# ---------------------------------------------------------------------------
# bulk numpy paths (exact; used for multi-block encoding and file splitting)

@lru_cache(maxsize=256)  # field orders, and array_matmul's sum bounds
def symbol_dtype(order: int) -> type:
    """Narrowest unsigned dtype that holds 0..order-1."""
    for t in (np.uint8, np.uint16, np.uint32, np.uint64):
        if order - 1 <= np.iinfo(t).max:
            return t
    raise ParameterError(f"no unsigned dtype holds symbols below {order}")


def as_int_array(values, what: str) -> np.ndarray:
    """np.asarray(values) if it holds integers or nothing (an empty list
    is a float array); anything else raises ParameterError."""
    arr = np.asarray(values)
    if arr.size and arr.dtype.kind not in "biu":
        raise ParameterError(f"{what} must be integers, got {arr.dtype}")
    return arr


def as_symbols(spec: FieldSpec, values) -> np.ndarray:
    """An array (1-D, or a batch of them) of field elements in the
    field's symbol dtype.

    Bytes-like input is read one symbol per byte without copying; any
    other sequence must hold integers, range-checked in one pass unless
    its dtype holds nothing but field elements (bytes over GF(2^8)).
    """
    if isinstance(values, (bytes, bytearray, memoryview)):
        arr = np.frombuffer(values, dtype=np.uint8)
    else:
        arr = as_int_array(values, "symbols")
    if arr.ndim < 1:
        raise ParameterError("expected a sequence of symbols")
    if arr.size and not (arr.dtype.kind == "u"
                         and (1 << 8 * arr.dtype.itemsize) <= spec.order):
        lo, hi = arr.min(), arr.max()
        if lo < 0 or hi >= spec.order:
            raise ParameterError(
                f"{lo if lo < 0 else hi} is not an element of {spec}")
    return arr.astype(symbol_dtype(spec.order), copy=False)


def _array_mul(spec: FieldSpec, x, y) -> np.ndarray:
    """Elementwise field product of broadcastable int64 arrays."""
    if spec.kind == PRIME:
        return (x * y) % spec.order
    return _binary8_mul_table()[x, y].astype(np.int64)


def _array_add(spec: FieldSpec, x, y) -> np.ndarray:
    """Elementwise field sum of broadcastable int64 arrays."""
    if spec.kind == PRIME:
        return (x + y) % spec.order
    return x ^ y


def _array_sub(spec: FieldSpec, x, y) -> np.ndarray:
    """Elementwise field difference of broadcastable int64 arrays."""
    if spec.kind == PRIME:
        return (x - y) % spec.order
    return x ^ y


def _nonzero_prod(spec: FieldSpec, x: np.ndarray) -> np.ndarray:
    """Field product along the last axis of int64 nonzero elements."""
    if spec.kind == PRIME:
        out = np.ones(x.shape[:-1], dtype=np.int64)
        for column in np.moveaxis(x, -1, 0):
            out = out * column % spec.order
        return out
    log, exp = _binary8_log_exp()
    return exp[log[x].sum(axis=-1) % 255]


def _nonzero_inv(spec: FieldSpec, x: np.ndarray) -> np.ndarray:
    """Elementwise inverse of int64 nonzero elements."""
    if spec.kind == PRIME:
        p = spec.order  # x^(p-2); every product stays below p^2 < 2^32
        out, base, e = np.ones_like(x), x % p, p - 2
        while e:
            if e & 1:
                out = out * base % p
            base = base * base % p
            e >>= 1
        return out
    log, exp = _binary8_log_exp()
    return exp[255 - log[x]]


def lagrange_rows(spec: FieldSpec, nodes: Sequence[int], top: int,
                  points: Sequence[int] = ()) -> np.ndarray:
    """Interpolation on distinct `nodes` x_0..x_{m-1}, in closed form.

    Returns a (top + len(points), m) int64 array.  Its first `top` rows
    are the last rows of V^-1, V the m x m Vandermonde matrix on the
    nodes: row r maps the values at the nodes to the coefficient of
    t^(m - top + r) of the interpolating polynomial.  The remaining rows
    are E.V^-1 for the Vandermonde rows E of `points` (none a node): they
    map the same values to the polynomial's values at the points.

    Column i of V^-1 holds the coefficients of the Lagrange basis
    polynomial P(t) / ((t - x_i) P'(x_i)), P(t) = prod (t - x_r)
    (Traub 1966).  Synthetic division from the top gives the quotient's
    coefficients a_j + x_i q_j one degree down, so the top rows need
    only the top coefficients a_j of P: O(top.m) products.  The weights
    1 / P'(x_i), and P(y) / (y - x_i) at each point y, are products of
    node differences, vectorized over the nodes: sums of logs over
    GF(2^8), running products and Fermat inverses over GF(p).
    """
    x = np.array(nodes, dtype=np.int64)
    y = np.array(points, dtype=np.int64)
    m = len(x)
    if not 0 <= top <= m:
        raise ParameterError("lagrange_rows takes 0..m top rows")
    diff = _array_sub(spec, x[:, None], x[None, :])
    np.fill_diagonal(diff, 1)
    weights = _nonzero_inv(spec, _nonzero_prod(spec, diff))
    # a[s] is the coefficient of t^(m - s) of P, for s < top
    a = np.zeros(top, dtype=np.int64)
    a[:1] = 1
    for v in x:
        a[1:] = _array_sub(spec, a[1:], _array_mul(spec, a[:-1], v))
    rows = np.empty((top + len(y), m), dtype=np.int64)
    q = np.ones(m, dtype=np.int64)  # quotient coefficient of t^(m-1)
    for r in range(top - 1, -1, -1):
        rows[r] = _array_mul(spec, q, weights)
        if r:
            q = _array_add(spec, _array_mul(spec, q, x), a[top - r])
    if len(y):
        at = _array_sub(spec, y[:, None], x[None, :])
        rows[top:] = _array_mul(spec, _nonzero_prod(spec, at)[:, None],
                                _array_mul(spec, _nonzero_inv(spec, at),
                                           weights))
    return rows


# The GF(2^8) kernel of array_matmul looks products up one by one below
# this many rows, and through packed lane tables from it on.
_DIRECT_ROWS = 128
# Rows per pass of the packed-lane kernel: with up to 8 outputs, one
# pass's index, lookup and accumulator buffers (at most 24 bytes a row)
# stay within a 2 MiB L2 cache; wider rows take proportionally more.
_LANE_CHUNK = 1 << 15
_LANE_WORDS = {1: np.uint8, 2: np.uint16, 4: np.uint32, 8: np.uint64}


def array_matmul(spec: FieldSpec, columns, b: np.ndarray) -> np.ndarray:
    """Exact field product of an (n, k) matrix, given as its k columns,
    and a (k, m) matrix `b` of constants: an (n, m) array in the field's
    symbol dtype.

    `columns` is a sequence of k length-n integer arrays, taken as they
    lie: a (k, n) array, or strided column views of several arrays.  A
    row of `b` that is all zeros adds nothing.

    Over GF(2^8) (see _binary8_matmul) the result is row-major, possibly
    a view of rows padded to whole lane words.  Over GF(p) the product
    is built as its (m, n) transpose, one inner index at a time, and the
    result is a transposed view: column l is contiguous.  It accumulates
    in the narrowest unsigned dtype that holds the sum of products, and
    reduces the sum once at the end by floor division, x - (x // p) p,
    in that same dtype.  Where that sum would need uint64, the running
    sum is reduced after each product is added instead, so it stays in
    uint32: numpy divides uint64 one entry at a time.  An all-ones row
    adds its column as it is.
    """
    dtype = symbol_dtype(spec.order)
    b = np.asarray(b, dtype=np.int64)
    inner = len(columns)
    if inner == 0 or b.ndim != 2 or b.shape[0] != inner:
        raise ParameterError("array_matmul shapes do not align")
    columns = [np.asarray(c).astype(dtype, copy=False) for c in columns]
    if spec.kind == BINARY8:
        return _binary8_matmul(columns, b)
    n = len(columns[0])
    p = spec.order
    wide = symbol_dtype((p - 1) ** 2 * inner + 1)
    fold = wide == np.uint64
    if fold:  # p - 1 + (p - 1)^2 = p (p - 1) < 2^32
        wide = np.uint32
    acc = np.zeros((b.shape[1], n), dtype=wide)
    for column, row, zero, one in zip(columns, b, ~b.any(axis=1),
                                      (b == 1).all(axis=1)):
        if zero:
            continue
        acc += column if one else row.astype(wide)[:, None] * column
        if fold:
            acc -= acc // p * p
    if not fold:
        acc -= acc // p * p  # not %: see the module docstring
    return acc.astype(dtype, copy=False).T


def _binary8_matmul(columns: list, b: np.ndarray) -> np.ndarray:
    """array_matmul over GF(2^8), on uint8 columns: one table gather per
    input symbol.

    Below _DIRECT_ROWS rows every product is looked up on its own in the
    product table, n.k.m entries, and XOR-reduced.  From there on, each
    inner index j gets a 256-entry lane table whose entry x packs the
    products x.b[j, l] of all m outputs, one byte lane each, in uint8,
    uint16, uint32 or uint64 words (groups of 8 outputs past 8).  One
    gather of column j into that table then yields all m products of a
    row, XORed into an (n, width) uint8 accumulator viewed as words.
    The tables cost 256.k.m entries, as many as n = 256 direct lookups;
    measured, the two cost the same near 130-180 rows for k.m up to 20,
    90-120 rows for k.m near 100 and 50-90 rows for k.m in the
    thousands, and 128 lies between (2-vCPU Xeon, numpy 2.4).  The lane
    kernel runs in passes of _LANE_CHUNK rows, gathering into reused
    buffers; an all-ones row of `b` multiplies its column by 0x0101..
    instead of gathering it.  The result is a row-major (n, m) view of
    the accumulator, whose rows are padded to whole words.
    """
    table = _binary8_mul_table()
    inner, m = b.shape
    n = len(columns[0])
    if n < _DIRECT_ROWS:
        rows = np.stack(columns, axis=1)
        return np.bitwise_xor.reduce(
            table.ravel()[(b << 8) + rows[:, :, None]], axis=1)
    nonzero = b.any(axis=1)
    ones = nonzero & (b == 1).all(axis=1)
    look = np.flatnonzero(nonzero & ~ones)
    terms = [*look, *np.flatnonzero(ones)]
    if not terms:
        return np.zeros((n, m), dtype=np.uint8)
    word, width, words, unit = _lane_layout(m)
    tables = np.zeros((len(look), 256, width), dtype=np.uint8)
    tables[:, :, :m] = table[b[look]].transpose(0, 2, 1)
    tables = tables.view(word).reshape(len(look), 256, *words)
    out = np.empty((n, width), dtype=np.uint8)
    acc = out.view(word).reshape(n, *words)
    index = np.empty(min(n, _LANE_CHUNK), dtype=np.intp)
    looked = np.empty((len(index), *words), dtype=word)
    for start in range(0, n, _LANE_CHUNK):
        part = slice(start, start + _LANE_CHUNK)
        into = acc[part]
        at, spare = index[:len(into)], looked[:len(into)]
        for t, j in enumerate(terms):
            dest = spare if t else into
            if t < len(look):
                at[...] = columns[j][part]
                tables[t].take(at, axis=0, out=dest, mode="clip")
            else:
                np.multiply.outer(columns[j][part], unit, out=dest)
            if t:
                into ^= dest
    return out[:, :m]


@lru_cache(maxsize=256)
def _lane_layout(m: int) -> tuple[type, int, tuple[int, ...], np.ndarray]:
    """How m outputs pack into lane words: the word dtype, the row width
    in bytes (whole words), the shape of one row's words (() for one
    word), and the word(s) holding a 1 in each of the m lanes."""
    lanes = 1 << (m - 1).bit_length() if m <= 8 else 8
    width = -(-m // lanes) * lanes
    words = (width // lanes,) if width > lanes else ()
    unit = np.zeros(width, dtype=np.uint8)
    unit[:m] = 1
    unit = unit.view(_LANE_WORDS[lanes]).reshape(words)
    unit.flags.writeable = False
    return _LANE_WORDS[lanes], width, words, unit
