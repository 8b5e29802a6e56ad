"""Field arithmetic tests: frozen oracle values, axioms, Vandermonde minors."""

from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from field_oracle import (SingularMatrixError, matrix_inverse, matrix_rank,
                          solve_linear_int)
from smdc import fields
from smdc.errors import ParameterError
from smdc.fields import (
    FieldSpec,
    array_matmul,
    binary8_field,
    prime_field,
    vandermonde_array,
)

SMALL_PRIMES = [2, 3, 5, 7, 11, 13, 17]


def ref_gf256_mul(a: int, b: int, poly: int = 0x11B) -> int:
    # independent shift-and-reduce reference, no shared code with the module
    r = 0
    for i in range(8):
        if (b >> i) & 1:
            r ^= a << i
    for bit in range(15, 7, -1):
        if r & (1 << bit):
            r ^= poly << (bit - 8)
    return r


def frac_det(rows) -> Fraction:
    # exact determinant by fraction-free-ish Gaussian elimination
    m = [[Fraction(v) for v in row] for row in rows]
    n = len(m)
    det = Fraction(1)
    for c in range(n):
        piv = next((r for r in range(c, n) if m[r][c] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            det = -det
        det *= m[c][c]
        inv = 1 / m[c][c]
        for r in range(c + 1, n):
            f = m[r][c] * inv
            if f:
                m[r] = [x - f * y for x, y in zip(m[r], m[c])]
    return det


# --- frozen scalar values ---------------------------------------------------

def test_prime_scalar_oracles():
    f5 = prime_field(5)
    assert f5.add(3, 4) == 2
    assert f5.mul(3, 4) == 2
    assert f5.sub(1, 3) == 3
    f7 = prime_field(7)
    assert f7.inv(3) == 5
    assert f7.mul(3, 5) == 1


def test_binary8_scalar_oracles():
    f = binary8_field()
    assert f.add(0x53, 0xCA) == 0x99
    # 0xCA is the multiplicative inverse of 0x53 under 0x11B
    assert f.mul(0x53, 0xCA) == 0x01
    assert f.inv(0x53) == 0xCA
    assert f.mul(0x02, 0x80) == 0x1B


def test_prime_inverse_matches_exhaustive_search():
    f = prime_field(11)
    for a in range(1, 11):
        brute = next(b for b in range(1, 11) if (a * b) % 11 == 1)
        assert f.inv(a) == brute


# --- constructors and validation --------------------------------------------

def test_field_spec_rejects_bad_moduli():
    with pytest.raises(ParameterError):
        prime_field(4)
    with pytest.raises(ParameterError):
        prime_field(1)
    with pytest.raises(ParameterError):
        prime_field((1 << 16) + 1)
    with pytest.raises(ParameterError,
                       match=r"^256 is not a usable prime modulus$"):
        prime_field(256)  # GF(2^8) is binary8_field(), not a prime field
    with pytest.raises(ParameterError):
        FieldSpec("ternary")


@pytest.mark.parametrize("order", [0, 1, 4, 255, (1 << 16) + 1])
def test_field_spec_refuses_orders_of_no_supported_field(order):
    with pytest.raises(ParameterError,
                       match=rf"^{order} is not a usable prime modulus$"):
        FieldSpec(order)


def test_specs_are_value_objects():
    assert prime_field(5) == prime_field(5) == FieldSpec(5)
    assert prime_field(5) != prime_field(7)
    assert binary8_field() == FieldSpec(256)
    assert binary8_field() != prime_field(257)
    assert (prime_field(5).kind, binary8_field().kind) == ("prime", "binary8")
    assert (repr(prime_field(5)), repr(binary8_field())) == \
        ("GF(5)", "GF(2^8/0x11B)")


# --- axioms ------------------------------------------------------------------

@pytest.mark.parametrize("p", SMALL_PRIMES)
def test_prime_field_axioms_exhaustive(p):
    f = prime_field(p)
    els = range(p)
    for a in els:
        assert f.add(a, 0) == a
        assert f.mul(a, 1) == a
        assert f.add(a, f.neg(a)) == 0
        if a:
            assert f.mul(a, f.inv(a)) == 1
        for b in els:
            assert f.add(a, b) == f.add(b, a)
            assert f.mul(a, b) == f.mul(b, a)
            for c in els:
                assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))
                assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
                assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))


def test_binary8_mul_matches_reference_and_axioms():
    f = binary8_field()
    rng = np.random.default_rng(1001)
    trips = rng.integers(0, 256, size=(10_000, 3))
    for a, b, c in trips.tolist():
        ab = f.mul(a, b)
        assert ab == ref_gf256_mul(a, b)
        assert f.mul(ab, c) == f.mul(a, f.mul(b, c))
        assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))


def test_binary8_inverses_exhaustive():
    f = binary8_field()
    for a in range(1, 256):
        assert f.mul(a, f.inv(a)) == 1
    with pytest.raises(ZeroDivisionError):
        f.inv(0)


def test_pow_matches_repeated_multiplication():
    f = prime_field(13)
    for a in range(1, 13):
        acc = 1
        for e in range(1, 6):
            acc = f.mul(acc, a)
            assert f.pow(a, e) == acc
        assert f.mul(f.pow(a, -2), f.pow(a, 2)) == 1


# --- linear solving -----------------------------------------------------------

def test_solve_linear_frozen_case():
    f = prime_field(5)
    v = vandermonde_array(f, [1, 2], 2).tolist()
    assert v == [[1, 1], [1, 2]]
    assert solve_linear_int(f, v, [0, 3]) == [2, 3]


def test_solve_linear_singular_raises():
    f = prime_field(5)
    with pytest.raises(SingularMatrixError):
        solve_linear_int(f, [[1, 2], [2, 4]], [1, 0])


def test_solve_linear_random_round_trip():
    rng = np.random.default_rng(7)
    f = prime_field(13)
    for _ in range(200):
        n = int(rng.integers(1, 5))
        a = rng.integers(0, 13, size=(n, n)).tolist()
        x = rng.integers(0, 13, size=n).tolist()
        if matrix_rank(f, a) < n:
            with pytest.raises(SingularMatrixError):
                solve_linear_int(f, a, x)
            continue
        y = [0] * n
        for i in range(n):
            acc = 0
            for j in range(n):
                acc = f.add(acc, f.mul(a[i][j], x[j]))
            y[i] = acc
        assert solve_linear_int(f, a, y) == x


def test_vandermonde_rejects_duplicates():
    with pytest.raises(ParameterError):
        vandermonde_array(prime_field(5), [1, 1], 2)


# --- Vandermonde minors ---------------------------------------------------------

@pytest.mark.parametrize("p", [7, 11, 13])
def test_vandermonde_leading_minors_nonsingular_exhaustive(p):
    # decodability everywhere rests on this: any k rows x first k columns
    # of a Vandermonde on distinct nodes form an invertible matrix
    f = prime_field(p)
    top = min(6, p - 1)
    nodes = list(range(1, top + 1))
    v = vandermonde_array(f, nodes, top).tolist()
    for k in range(1, top + 1):
        for rows in combinations(range(top), k):
            sub = [v[r][:k] for r in rows]
            assert matrix_rank(f, sub) == k
            det = frac_det(sub)
            assert det % p != 0  # independent exact-integer oracle


def test_vandermonde_minors_nonsingular_binary8():
    f = binary8_field()
    nodes = list(range(1, 7))
    v = vandermonde_array(f, nodes, 6).tolist()
    for k in range(1, 7):
        for rows in combinations(range(6), k):
            assert matrix_rank(f, [v[r][:k] for r in rows]) == k


# --- bulk numpy path -------------------------------------------------------------

@pytest.mark.parametrize("field", [prime_field(5), prime_field(251), binary8_field()])
def test_array_matmul_matches_scalar_loop(field):
    rng = np.random.default_rng(42)
    q = field.order
    for trial in range(40):
        n, k, m = (int(v) for v in rng.integers(1, 6, size=3))
        a = rng.integers(0, q, size=(n, k))
        b = rng.integers(0, q, size=(k, m))
        # the kernel adds an all-ones row's column without a lookup and
        # skips an all-zeros row; random rows are almost never either
        for j in rng.choice(k, size=int(rng.integers(0, k + 1)),
                            replace=False):
            b[j] = int(rng.integers(0, 2))
        if trial % 2:
            got = array_matmul(field, a.T, b)
        else:
            # columns as they lie in an (n, k) array of symbols: strided
            # views, one of them taken from a second array
            sym = a.astype(np.uint8 if q <= 256 else np.uint16)
            other = np.ascontiguousarray(sym[:, ::-1])
            got = array_matmul(field, (*sym.T[:-1], other[:, 0]), b)
        for i in range(n):
            for j in range(m):
                acc = 0
                for t in range(k):
                    acc = field.add(acc, field.mul(int(a[i, t]), int(b[t, j])))
                assert got[i, j] == acc


@pytest.fixture(scope="module")
def gf256_products():
    # every product by the shift-and-reduce reference, no shared code
    return np.array([[ref_gf256_mul(x, y) for y in range(256)]
                     for x in range(256)], dtype=np.uint8)


# row counts on both sides of the switch to packed lanes and of each edge
# of the lane kernel's passes
DIRECT, CHUNK = fields._DIRECT_ROWS, fields._LANE_CHUNK


@pytest.mark.parametrize("n", [1, DIRECT - 1, DIRECT, DIRECT + 1, CHUNK - 1,
                               CHUNK, CHUNK + 1, 3 * CHUNK + 7])
def test_gf256_kernel_matches_the_products_at_every_lane_width(
        n, gf256_products):
    # m = 1..9, 16, 17 and 255 reach every lane word (uint8..uint64) and
    # every remainder of a group of 8 outputs
    field = binary8_field()
    rng = np.random.default_rng(n)
    for case, m in enumerate([*range(1, 10), 16, 17, 255]):
        a = rng.integers(0, 256, size=(n, 3), dtype=np.uint8)
        b = rng.integers(0, 256, size=(3, m))
        # rows that skip the lookup: all ones, all zeros, or both
        pattern = [None, (1, None, 0), (1, 0, 1), (0, 0, 0)][case % 4]
        for j, value in enumerate(pattern or ()):
            if value is not None:
                b[j] = value
        if case % 2:
            columns = a.T  # strided views into one (n, 3) array
        else:
            columns = [np.ascontiguousarray(c) for c in a.T]
        got = array_matmul(field, columns, b)
        assert got.dtype == np.uint8 and got.shape == (n, m)
        want = np.zeros((n, m), dtype=np.uint8)
        for j in range(3):
            want ^= gf256_products[a[:, j][:, None], b[j][None, :]]
        assert np.array_equal(got, want), (n, m)


# inner widths on both sides of each switch of the GF(p) accumulator
# dtype: (p - 1)^2 * inner first exceeds 255 at inner 256 over GF(2) and
# 16 over GF(5), 65535 at inner 2 over GF(251), and 2^32 - 1 at inner 2
# over GF(65521)
@pytest.mark.parametrize("p, inner, wide", [
    (2, 255, np.uint8), (2, 256, np.uint16),
    (5, 15, np.uint8), (5, 16, np.uint16),
    (251, 1, np.uint16), (251, 2, np.uint32),
    (65521, 1, np.uint32), (65521, 2, np.uint64)])
def test_array_matmul_at_the_accumulator_edges(p, inner, wide):
    field = prime_field(p)
    assert fields.symbol_dtype((p - 1) ** 2 * inner + 1) is wide
    n, m = 3, 2
    top = np.full((inner, n), p - 1, dtype=fields.symbol_dtype(p))
    got = array_matmul(field, top, np.full((inner, m), p - 1))
    assert got.dtype == fields.symbol_dtype(p)
    assert got.tolist() == [[(p - 1) ** 2 * inner % p] * m] * n


@pytest.mark.parametrize("field", [prime_field(5), prime_field(251),
                                   prime_field(65521), binary8_field()])
def test_matrix_inverse_matches_column_solves(field):
    rng = np.random.default_rng(7)
    n = min(6, field.order - 1)
    nodes = [int(v) for v in rng.choice(range(1, min(field.order, 200)),
                                        size=n, replace=False)]
    a = vandermonde_array(field, nodes, n).tolist()
    inv = matrix_inverse(field, a)
    for j in range(n):
        e = [0] * n
        e[j] = 1
        assert inv[:, j].tolist() == solve_linear_int(field, a, e)
    # a zero row is singular
    with pytest.raises(SingularMatrixError):
        matrix_inverse(field, [[1, 2], [0, 0]])
