"""Arithmetic over the small finite fields used by the coding layers.

Two kinds of field are supported: prime fields GF(p) with p <= 2^16, and
the 256-element binary field GF(2^8) built from a degree-8 reduction
polynomial (given as a 9-bit mask, default 0x11B).  Scalar arithmetic on
plain ints goes through :class:`FieldSpec`; the scalar linear algebra
(`solve_linear_int`, `matrix_rank`) is kept as a reference for tests, and
all bulk block math uses the numpy helpers at the bottom of the module.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .errors import ParameterError, SingularMatrixError

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
    # a degree-8 polynomial over GF(2) is irreducible iff it has no
    # factor of degree 1..4
    if poly.bit_length() - 1 != 8:
        return False
    for d in range(2, 1 << 5):
        if _poly_mod(poly, d) == 0:
            return False
    return True


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
def _binary8_mul_table(poly: int) -> np.ndarray:
    """256 x 256 product table; row g is the split-table row for
    multiplying by the constant g."""
    exp, log = _binary8_tables(poly)
    exp = np.array(exp, dtype=np.uint8)
    log = np.array(log, dtype=np.intp)
    table = exp[log[:, None] + log[None, :]]
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


def solve_linear_int(spec: FieldSpec, a: Sequence[Sequence[int]],
                     y: Sequence[int]) -> list[int]:
    """Solve the square system a.x = y over the field, on plain ints.

    Raises SingularMatrixError when the matrix has no inverse.
    """
    n = len(a)
    if n == 0:
        return []
    if any(len(row) != n for row in a) or len(y) != n:
        raise ParameterError("solve_linear expects a square system")
    # augmented Gaussian elimination with partial (first nonzero) pivoting
    m = [list(row) + [yv] for row, yv in zip(a, y)]
    for col in range(n):
        pivot = None
        for r in range(col, n):
            if m[r][col] != 0:
                pivot = r
                break
        if pivot is None:
            raise SingularMatrixError(f"matrix is singular at column {col}")
        m[col], m[pivot] = m[pivot], m[col]
        inv = spec.inv(m[col][col])
        m[col] = [spec.mul(inv, v) for v in m[col]]
        for r in range(n):
            if r != col and m[r][col] != 0:
                f = m[r][col]
                m[r] = [spec.sub(v, spec.mul(f, w)) for v, w in zip(m[r], m[col])]
    return [m[r][n] for r in range(n)]


def matrix_rank(spec: FieldSpec, a: Sequence[Sequence[int]]) -> int:
    """Row rank of an arbitrary matrix over the field."""
    m = [list(row) for row in a]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    rank = 0
    for col in range(cols):
        pivot = None
        for r in range(rank, rows):
            if m[r][col] != 0:
                pivot = r
                break
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        inv = spec.inv(m[rank][col])
        m[rank] = [spec.mul(inv, v) for v in m[rank]]
        for r in range(rows):
            if r != rank and m[r][col] != 0:
                f = m[r][col]
                m[r] = [spec.sub(v, spec.mul(f, w)) for v, w in zip(m[r], m[rank])]
        rank += 1
        if rank == rows:
            break
    return rank


def vandermonde_int(spec: FieldSpec, nodes: Sequence[int], width: int) -> list[list[int]]:
    """Vandermonde matrix on ints: entry (i, j) = nodes[i] ** j."""
    return vandermonde_array(spec, nodes, width).tolist()


def vandermonde_array(spec: FieldSpec, nodes: Sequence[int], width: int) -> np.ndarray:
    """vandermonde_int as an int64 array, built one column at a time."""
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
    other sequence is range-checked in one pass.
    """
    if isinstance(values, (bytes, bytearray, memoryview)):
        arr = np.frombuffer(values, dtype=np.uint8)
    else:
        arr = np.asarray(values)
    if arr.ndim < 1:
        raise ParameterError("expected a sequence of symbols")
    if arr.size:
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


def matrix_inverse(spec: FieldSpec, a) -> np.ndarray:
    """Inverse of a square matrix by one Gauss-Jordan elimination on
    [A | I], each pivot step one vectorized row operation.

    Raises SingularMatrixError when the matrix has no inverse.
    """
    m = np.array(a, dtype=np.int64)
    n = m.shape[0]
    if m.ndim != 2 or m.shape[1] != n:
        raise ParameterError("matrix_inverse expects a square matrix")
    m = np.concatenate([m, np.eye(n, dtype=np.int64)], axis=1)
    for col in range(n):
        nonzero = np.flatnonzero(m[col:, col])
        if nonzero.size == 0:
            raise SingularMatrixError(f"matrix is singular at column {col}")
        pivot = col + int(nonzero[0])
        m[[col, pivot]] = m[[pivot, col]]
        m[col] = _array_mul(spec, m[col], spec.inv(int(m[col, col])))
        factors = m[:, col].copy()
        factors[col] = 0
        if spec.kind == PRIME:
            m = (m - np.outer(factors, m[col])) % spec.modulus
        else:
            table = _binary8_mul_table(spec.modulus)
            m ^= np.take(table[factors], m[col], axis=1)
    return m[:, n:].astype(symbol_dtype(spec.order))


def array_matmul(spec: FieldSpec, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Exact field matrix product of (n, k) and (k, m) integer arrays.

    `b` is a small matrix of constants.  The product is built as its
    (m, n) transpose, one inner index at a time, so every step streams a
    contiguous row of `a.T`: over GF(2^8) each step looks its row up in
    the product-table rows of that inner index's constants (the
    split-table method), over GF(p) it accumulates in the narrowest
    unsigned dtype that holds the sum of products.  Returns an (n, m)
    view in the field's symbol dtype.
    """
    dtype = symbol_dtype(spec.order)
    rows = np.asarray(a).T.astype(dtype, copy=False)
    b = np.asarray(b, dtype=np.int64)
    inner, n = rows.shape
    if b.shape[0] != inner:
        raise ParameterError("array_matmul shapes do not align")
    if spec.kind == PRIME:
        p = spec.modulus
        wide = symbol_dtype((p - 1) ** 2 * inner + 1)
        acc = np.zeros((b.shape[1], n), dtype=wide)
        for j in range(inner):
            acc += b[j].astype(wide)[:, None] * rows[j]
        out = (acc % p).astype(dtype)
    else:
        table = _binary8_mul_table(spec.modulus)
        out = np.zeros((b.shape[1], n), dtype=dtype)
        for j in range(inner):
            out ^= np.take(table[b[j]], rows[j], axis=1)
    return out.T
