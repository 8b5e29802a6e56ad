"""Test oracle for the closed-form decoder: a general matrix inverse.

`coset` decodes through `smdc.fields.lagrange_rows`, which builds only
the rows of a Vandermonde inverse that it needs.  The tests compare those
rows with the ones taken from this Gauss-Jordan inverse, which knows
nothing of Vandermonde structure.
"""

import numpy as np

from smdc.errors import ParameterError, SingularMatrixError
from smdc.fields import (PRIME, FieldSpec, _array_mul, _binary8_mul_table,
                         symbol_dtype)


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
