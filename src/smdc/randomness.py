"""Symbol sources for key material.

Encoders only ever ask for "n uniform symbols from {0..q-1}", so the
interface is a single draw method, which returns an array in the
field's symbol dtype.  Unseeded encoding draws from the operating system
entropy pool; the numpy generator gives seeded determinism for tests and
the CLI; SequenceSymbolSource replays preset symbols, which the exhaustive
verifier uses to push every key outcome through the encoder.
"""

from __future__ import annotations

import os

import numpy as np

from .errors import ParameterError
from .fields import as_int_array, symbol_dtype


def _check_draw(q: int, n: int) -> None:
    if q < 2 or n < 0:
        raise ParameterError("need q >= 2 and n >= 0")


class SystemSymbolSource:
    """Uniform symbols from the OS entropy pool, suitable for real keys.

    Reads bulk random words of the symbol dtype (bytes up to q = 256,
    little-endian 16-bit words up to 65536, and so on) and
    rejection-samples them: only words below the largest multiple of q
    that the word range holds are kept, so the residue
    word - (word // q) q has no modulo bias.  Each kept word gives one
    symbol; for q = 256 every byte is a symbol.
    """

    def draw(self, q: int, n: int) -> np.ndarray:
        _check_draw(q, n)
        word = np.dtype(symbol_dtype(q)).newbyteorder("<")
        span = 1 << (8 * word.itemsize)
        limit = span - span % q
        out = np.empty(n, dtype=symbol_dtype(q))
        have = 0
        while have < n:
            want = n - have
            # the expected number of words plus a margin, so that one read
            # almost always suffices
            count = want * span // limit + want // 32 + 64
            raw = np.frombuffer(os.urandom(count * word.itemsize), dtype=word)
            if limit < span:
                raw = raw[raw < limit]
            raw = raw[:want]
            out[have:have + raw.size] = raw if q == span else raw - raw // q * q
            have += raw.size
        return out


class RandomSymbolSource:
    """Uniform symbols from a numpy Generator (optionally seeded).

    PCG64 is not a cryptographic generator: use this for tests and
    reproducible runs, never for keys that must stay secret.
    """

    def __init__(self, seed=None):
        if isinstance(seed, np.random.Generator):
            self._rng = seed
        else:
            self._rng = np.random.default_rng(seed)

    def draw(self, q: int, n: int) -> np.ndarray:
        _check_draw(q, n)
        return self._rng.integers(0, q, size=n).astype(symbol_dtype(q))


class SequenceSymbolSource:
    """Replays fixed symbols; raises when they run dry.

    Takes one sequence, or a (W, k) array of W sequences replayed side by
    side: a draw of W*m symbols returns the next m of every row, row
    after row, so a batch of W encodes sees row i exactly as a single
    encode of word i would see it.
    """

    def __init__(self, symbols):
        arr = as_int_array(symbols, "symbols").astype(np.int64, copy=False)
        self._symbols = arr if arr.ndim == 2 else arr.reshape(1, -1)
        self._pos = 0

    def draw(self, q: int, n: int) -> np.ndarray:
        rows, cols = self._symbols.shape
        if n % rows:
            raise ParameterError(
                f"cannot split a draw of {n} over {rows} sequences")
        m = n // rows
        if self._pos + m > cols:
            raise ParameterError(
                f"symbol sequence exhausted: wanted {n}, "
                f"have {self.remaining}"
            )
        out = self._symbols[:, self._pos:self._pos + m].reshape(-1)
        self._pos += m
        bad = out[(out < 0) | (out >= q)]
        if bad.size:
            raise ParameterError(
                f"preset symbol {bad[0]} outside range(0, {q})")
        return out.astype(symbol_dtype(q))

    @property
    def remaining(self) -> int:
        rows, cols = self._symbols.shape
        return rows * (cols - self._pos)


def as_symbol_source(source):
    """Accept None, an int seed, a numpy Generator, or a ready source.

    None means fresh system entropy; a non-negative int or a Generator
    selects the reproducible path.
    """
    if source is None:
        return SystemSymbolSource()
    # ready sources first: naming np.random imports it (about 17 ms)
    if hasattr(source, "draw"):
        return source
    if isinstance(source, int) and source < 0:
        raise ParameterError(f"seed must be a non-negative integer, "
                             f"got {source}")
    if isinstance(source, (int, np.random.Generator)):
        return RandomSymbolSource(source)
    raise ParameterError(f"cannot interpret {source!r} as a symbol source")
