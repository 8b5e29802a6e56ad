"""Arithmetic over the small finite fields used by the coding layers.

Two kinds of field are supported: prime fields GF(p) with p <= 2^16, and
the 256-element binary field GF(2^8) built from a degree-8 reduction
polynomial (given as a 9-bit mask, default 0x11B).  Scalar arithmetic on
plain ints goes through :class:`FieldSpec`, and all bulk block math uses
the numpy helpers at the bottom of the module.
The block kernel `array_matmul` reduces GF(p) sums by floor division,
x - (x // p) p: numpy divides 8- to 32-bit words by a scalar as a
vectorized multiply and shift, but takes x % p one division per entry.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .errors import ParameterError

PRIME = "prime"
BINARY8 = "binary8"

MAX_PRIME = 1 << 16
DEFAULT_BINARY8_POLY = 0x11B


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


def _poly_mul(a: int, b: int) -> int:
    # carry-less product of GF(2) polynomials
    out = 0
    while b:
        if b & 1:
            out ^= a
        a <<= 1
        b >>= 1
    return out


def _poly_mod(a: int, mod: int) -> int:
    md = mod.bit_length() - 1
    while a.bit_length() - 1 >= md:
        a ^= mod << (a.bit_length() - 1 - md)
    return a


def _is_irreducible_deg8(poly: int) -> bool:
    return poly.bit_length() - 1 == 8 and _has_no_small_factor(poly)


@lru_cache(maxsize=None)  # at most the 256 degree-8 masks
def _has_no_small_factor(poly: int) -> bool:
    # a degree-8 polynomial over GF(2) is irreducible iff it has no
    # factor of degree 1..4
    return all(_poly_mod(poly, d) != 0 for d in range(2, 1 << 5))


@dataclass(frozen=True)
class FieldSpec:
    """Identifies one finite field and implements its scalar arithmetic.

    ``kind`` is "prime" or "binary8"; ``modulus`` is the prime p or the
    9-bit reduction polynomial mask.  Instances are value objects: two
    specs compare equal iff they describe the same field.
    """

    kind: str
    modulus: int

    def __post_init__(self):
        if self.kind == PRIME:
            if not (self.modulus <= MAX_PRIME and _is_prime(self.modulus)):
                raise ParameterError(f"{self.modulus} is not a usable prime modulus")
        elif self.kind == BINARY8:
            if not _is_irreducible_deg8(self.modulus):
                raise ParameterError(
                    f"0x{self.modulus:X} is not an irreducible degree-8 polynomial"
                )
        else:
            raise ParameterError(f"unknown field kind {self.kind!r}")

    @property
    def order(self) -> int:
        return self.modulus if self.kind == PRIME else 256

    def _check(self, a: int) -> int:
        if not 0 <= a < self.order:
            raise ParameterError(f"{a} is not an element of {self}")
        return a

    def add(self, a: int, b: int) -> int:
        if self.kind == PRIME:
            return (a + b) % self.modulus
        return a ^ b

    def neg(self, a: int) -> int:
        if self.kind == PRIME:
            return (-a) % self.modulus
        return a

    def sub(self, a: int, b: int) -> int:
        if self.kind == PRIME:
            return (a - b) % self.modulus
        return a ^ b

    def mul(self, a: int, b: int) -> int:
        if self.kind == PRIME:
            return (a * b) % self.modulus
        if a == 0 or b == 0:
            return 0
        exp, log = _binary8_tables(self.modulus)
        return exp[log[a] + log[b]]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("0 has no multiplicative inverse")
        if self.kind == PRIME:
            return pow(a, -1, self.modulus)
        exp, log = _binary8_tables(self.modulus)
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
            return f"GF({self.modulus})"
        return f"GF(2^8/0x{self.modulus:X})"


@lru_cache(maxsize=None)
def _binary8_tables(poly: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    # log/exp tables over a generator of the multiplicative group
    def raw_mul(a, b):
        return _poly_mod(_poly_mul(a, b), poly)

    for g in range(2, 256):
        exp = [0] * 510
        log = [0] * 256
        x = 1
        ok = True
        for i in range(255):
            if i > 0 and x == 1:
                ok = False  # cycle shorter than 255, not a generator
                break
            exp[i] = x
            log[x] = i
            x = raw_mul(x, g)
        if ok and x == 1:
            for i in range(255, 510):
                exp[i] = exp[i - 255]
            return tuple(exp), tuple(log)
    raise AssertionError("no multiplicative generator found")  # pragma: no cover


@lru_cache(maxsize=None)
def _binary8_log_exp(poly: int) -> tuple[np.ndarray, np.ndarray]:
    """The log and exp tables as int64 arrays."""
    exp, log = _binary8_tables(poly)
    return np.array(log, dtype=np.int64), np.array(exp, dtype=np.int64)


@lru_cache(maxsize=None)
def _binary8_mul_table(poly: int) -> np.ndarray:
    """256 x 256 product table; row g is the split-table row for
    multiplying by the constant g."""
    log, exp = _binary8_log_exp(poly)
    table = exp[log[:, None] + log[None, :]].astype(np.uint8)
    table[0, :] = 0
    table[:, 0] = 0
    table.flags.writeable = False
    return table


def prime_field(p: int) -> FieldSpec:
    return FieldSpec(PRIME, p)


def binary8_field(poly: int = DEFAULT_BINARY8_POLY) -> FieldSpec:
    return FieldSpec(BINARY8, poly)


GF5 = prime_field(5)
GF7 = prime_field(7)
GF256 = binary8_field()


def vandermonde_array(spec: FieldSpec, nodes: Sequence[int], width: int) -> np.ndarray:
    """Vandermonde matrix as an int64 array, entry (i, j) = nodes[i] ** j,
    built one column at a time."""
    vals = [spec._check(int(v)) for v in nodes]
    if len(set(vals)) != len(vals):
        raise ParameterError("vandermonde nodes must be distinct")
    if width < 0:
        raise ParameterError("width must be nonnegative")
    column = np.array(vals, dtype=np.int64)
    out = np.ones((len(vals), width), dtype=np.int64)
    for j in range(1, width):
        out[:, j] = _array_mul(spec, out[:, j - 1], column)
    return out


# ---------------------------------------------------------------------------
# bulk numpy paths (exact; used for multi-block encoding and file splitting)

def symbol_dtype(order: int) -> type:
    """Narrowest unsigned dtype that holds 0..order-1."""
    for t in (np.uint8, np.uint16, np.uint32, np.uint64):
        if order - 1 <= np.iinfo(t).max:
            return t
    raise ParameterError(f"no unsigned dtype holds symbols below {order}")


def as_symbols(spec: FieldSpec, values) -> np.ndarray:
    """An array (1-D, or a batch of them) of field elements in the
    field's symbol dtype.

    Bytes-like input is read one symbol per byte without copying; any
    other sequence is range-checked in one pass, unless its dtype holds
    nothing but field elements (bytes over GF(2^8)).
    """
    if isinstance(values, (bytes, bytearray, memoryview)):
        arr = np.frombuffer(values, dtype=np.uint8)
    else:
        arr = np.asarray(values)
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
        return (x * y) % spec.modulus
    return _binary8_mul_table(spec.modulus)[x, y].astype(np.int64)


def _array_add(spec: FieldSpec, x, y) -> np.ndarray:
    """Elementwise field sum of broadcastable int64 arrays."""
    if spec.kind == PRIME:
        return (x + y) % spec.modulus
    return x ^ y


def _array_sub(spec: FieldSpec, x, y) -> np.ndarray:
    """Elementwise field difference of broadcastable int64 arrays."""
    if spec.kind == PRIME:
        return (x - y) % spec.modulus
    return x ^ y


def _nonzero_prod(spec: FieldSpec, x: np.ndarray) -> np.ndarray:
    """Field product along the last axis of int64 nonzero elements."""
    if spec.kind == PRIME:
        out = np.ones(x.shape[:-1], dtype=np.int64)
        for column in np.moveaxis(x, -1, 0):
            out = out * column % spec.modulus
        return out
    log, exp = _binary8_log_exp(spec.modulus)
    return exp[log[x].sum(axis=-1) % 255]


def _nonzero_inv(spec: FieldSpec, x: np.ndarray) -> np.ndarray:
    """Elementwise inverse of int64 nonzero elements."""
    if spec.kind == PRIME:
        p = spec.modulus  # x^(p-2); every product stays below p^2 < 2^32
        out, base, e = np.ones_like(x), x % p, p - 2
        while e:
            if e & 1:
                out = out * base % p
            base = base * base % p
            e >>= 1
        return out
    log, exp = _binary8_log_exp(spec.modulus)
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


def array_matmul(spec: FieldSpec, columns, b: np.ndarray) -> np.ndarray:
    """Exact field product of an (n, k) matrix, given as its k columns,
    and a (k, m) matrix `b` of constants: an (n, m) array.

    `columns` is a sequence of k length-n integer arrays, taken as they
    lie: a (k, n) array, or strided column views of several arrays.  The
    product is built as its (m, n) transpose, one inner index at a time.
    A row of `b` that is all zeros adds nothing and one that is all ones
    adds its column as it is.  Any other row, over GF(2^8), looks its
    column up in the product-table rows of its constants (the
    split-table method); over GF(p) it accumulates in the narrowest
    unsigned dtype that holds the sum of products, and reduces the sum
    once at the end by floor division, x - (x // p) p, in that same
    dtype.  Returns an (n, m) view in the field's symbol dtype.
    """
    dtype = symbol_dtype(spec.order)
    b = np.asarray(b, dtype=np.int64)
    inner = len(columns)
    if inner == 0 or b.ndim != 2 or b.shape[0] != inner:
        raise ParameterError("array_matmul shapes do not align")
    n = len(columns[0])
    zeros = ~b.any(axis=1)
    ones = (b == 1).all(axis=1)
    if spec.kind == PRIME:
        p = spec.modulus
        wide = symbol_dtype((p - 1) ** 2 * inner + 1)
        acc = np.zeros((b.shape[1], n), dtype=wide)
    else:
        table = _binary8_mul_table(spec.modulus)
        acc = np.zeros((b.shape[1], n), dtype=dtype)
    for column, row, zero, one in zip(columns, b, zeros, ones):
        if zero:
            continue
        column = np.asarray(column).astype(dtype, copy=False)
        if spec.kind == PRIME:
            acc += column if one else row.astype(wide)[:, None] * column
        elif one:
            acc ^= column
        else:
            acc ^= np.take(table[row], column, axis=1)
    if spec.kind == PRIME:
        acc -= acc // p * p  # not %: see the module docstring
        acc = acc.astype(dtype, copy=False)
    return acc.T
