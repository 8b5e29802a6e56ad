"""Test oracles for the field's linear algebra, which knows nothing of
Vandermonde structure.

`coset` decodes through `smdc.fields.lagrange_rows`, which builds only
the rows of a Vandermonde inverse that it needs.  The tests compare those
rows with the ones taken from the Gauss-Jordan inverse here, and check
the threshold property of the generators with the scalar solver and rank
on plain ints.
"""

from typing import Sequence

import numpy as np

from smdc.errors import ParameterError
from smdc.fields import (PRIME, FieldSpec, _array_mul, _binary8_mul_table,
                         symbol_dtype)


class SingularMatrixError(ArithmeticError):
    """A linear system has no unique solution."""


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
            m = (m - np.outer(factors, m[col])) % spec.order
        else:
            table = _binary8_mul_table()
            m ^= np.take(table[factors], m[col], axis=1)
    return m[:, n:].astype(symbol_dtype(spec.order))
