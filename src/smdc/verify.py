"""Exhaustive verification of small code instances.

The verifier enumerates every (source, key) combination of a code,
pushing them through its encoder in chunks of words (for the package's
own codes, the shipped array codec that writes share files), and keeps
the batches in word order as the exact joint distribution.  Each
variable, a source or a share, is packed once into one int64 key per
word; a set of variables is the mixed-radix product of its members'
keys, and a pair of sets is one table of integer counts over a common
denominator, counted in a span-sized array where the keys are dense and
by a sort elsewhere.  Statements about the distribution are decided with
no floating point in the decision path:

* perfect secrecy against a tap subset is exact factorization of the
  joint distribution of (sources, tapped shares), read off the count
  table that the tap set's conditional entropy then reuses;
* reconstruction is decode equality on every outcome;
* entropy inequalities are decided by comparing products of prime
  powers, since every entropy here is a rational combination of logs
  of integers.

Floats appear only as reporting conveniences, each carrying a flag that
the float agrees with the exact value to 1e-12.  Word order (first
appearance) is computed only where an output reads it: a secrecy
counterexample, and the float of an entropy whose cells add unequal
terms.
"""

from __future__ import annotations

import numbers
import re
import time
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, combinations, product
from math import comb, lcm, log2
from typing import Callable, Mapping, Sequence

import numpy as np

from . import multilevel, single_level
from .errors import (BudgetExceededError, DecodeFailureError, ParameterError,
                     as_encoders, as_int)
from .fields import as_int_array
from .randomness import SequenceSymbolSource

# --- exact log-combination values ---------------------------------------------


@lru_cache(maxsize=None)
def _factorize(n: int) -> tuple[tuple[int, int], ...]:
    if n < 1:
        raise ParameterError("can only factorize positive integers")
    out = []
    d = 2
    while d * d <= n:
        e = 0
        while n % d == 0:
            n //= d
            e += 1
        if e:
            out.append((d, e))
        d += 1 if d == 2 else 2
    if n > 1:
        out.append((n, 1))
    return tuple(out)


@dataclass(frozen=True)
class ExactLogSum:
    """A value sum_p c_p * log2(p) over primes p with Fraction weights.

    Closed under the arithmetic needed for entropies of rational
    distributions, and its sign is decidable exactly.
    """

    coeffs: tuple[tuple[int, Fraction], ...] = ()

    @staticmethod
    def of_log(n: int, weight: Fraction = Fraction(1)) -> "ExactLogSum":
        acc: dict[int, Fraction] = {}
        for p, e in _factorize(n):
            acc[p] = acc.get(p, Fraction(0)) + weight * e
        return ExactLogSum._from_map(acc)

    @staticmethod
    def _from_map(acc: Mapping[int, Fraction]) -> "ExactLogSum":
        return ExactLogSum(tuple(sorted((p, c) for p, c in acc.items() if c)))

    def __add__(self, other: "ExactLogSum") -> "ExactLogSum":
        acc = dict(self.coeffs)
        for p, c in other.coeffs:
            acc[p] = acc.get(p, Fraction(0)) + c
        return ExactLogSum._from_map(acc)

    def __sub__(self, other: "ExactLogSum") -> "ExactLogSum":
        return self + (-other)

    def __neg__(self) -> "ExactLogSum":
        return ExactLogSum(tuple((p, -c) for p, c in self.coeffs))

    def to_float(self) -> float:
        return sum(float(c) * log2(p) for p, c in self.coeffs)

    def sign(self) -> int:
        """-1, 0 or +1, decided on big integers."""
        if not self.coeffs:
            return 0
        denom = lcm(*(c.denominator for _, c in self.coeffs))
        up, down = 1, 1
        for p, c in self.coeffs:
            e = int(c * denom)
            if e > 0:
                up *= p ** e
            elif e < 0:
                down *= p ** (-e)
        if up == down:
            return 0
        return 1 if up > down else -1

    def is_nonnegative(self) -> bool:
        return self.sign() >= 0


# --- joint distributions --------------------------------------------------------


@dataclass(frozen=True)
class VerifierBudget:
    """max_outcomes bounds both the words enumerated and the entries of a
    report (one per tap set and per reconstruction subset, about 2**L);
    max_seconds bounds the time of a whole report."""

    max_outcomes: int = 250_000
    max_seconds: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "max_outcomes",
                           as_int(self.max_outcomes, "max_outcomes"))
        seconds = self.max_seconds
        if seconds is not None and not (isinstance(seconds, numbers.Real)
                                        and seconds >= 0):
            raise ParameterError(
                f"max_seconds must be None or a non-negative real, "
                f"got {seconds!r}")


@dataclass(frozen=True)
class CodeUnderTest:
    """Deterministic code the verifier can enumerate, one batch of words
    at a time.

    encode_fn(sources, keys) takes a tuple of (W, h_k) source arrays and
    a (W, key_symbols) key array, row i being word i, and returns one
    (W, n) share array per encoder (or, for a multilevel code, one tuple
    of per-level arrays per encoder).  decode_fn takes {encoder: batch}
    and returns the decodable leading sources as (W, h_k) batches.
    expected_sources says how many leading sources a subset of a given
    size must deliver.
    """

    q: int
    length: int
    wiretap: int
    source_symbols: tuple[int, ...]
    key_symbols: int
    encode_fn: Callable[[tuple, np.ndarray], tuple]
    decode_fn: Callable[[dict], tuple]
    expected_sources: Callable[[int], int]

    def __post_init__(self):
        for name in ("q", "length", "wiretap", "key_symbols"):
            object.__setattr__(self, name, as_int(getattr(self, name), name))
        object.__setattr__(self, "source_symbols", tuple(
            as_int(v, "source symbols") for v in self.source_symbols))

    @property
    def outcome_count(self) -> int:
        return self.q ** (sum(self.source_symbols) + self.key_symbols)


@dataclass(frozen=True)
class JointDistribution:
    """Every (source, key) word once, so total = q ** (symbols + keys).

    `sources` and `shares` keep the batches of every word, in word
    order, in the shapes encode_fn takes and returns; an outcome's count
    is the number of words that carry it.  Each variable is packed once,
    on construction, into one int64 key per word (_pack).
    """

    q: int
    length: int
    wiretap: int
    source_symbols: tuple[int, ...]
    total: int
    sources: tuple
    shares: tuple
    # (key, span) of every variable, by label: S1.., then X1..
    _keys: dict = field(init=False, repr=False, compare=False)
    # one slot: the last _Table counted, with its (given, targets) sets
    _last_table: list = field(default_factory=lambda: [(None, None)],
                              init=False, repr=False, compare=False)

    def __post_init__(self):
        keys = {}
        for kind, batches in (("S", self.sources), ("X", self.shares)):
            for i, batch in enumerate(batches, 1):
                label = f"{kind}{i}"
                keys[label] = _pack(batch, self.total, f"variable {label}")
        object.__setattr__(self, "_keys", keys)


# Words per encode_fn call at most, unless q alone is larger: a chunk is
# q ** j words for the largest such j, at least 1.  Big enough that a
# call costs little per word, small enough that the digits and the
# codec's temporaries stay a few MB.
CHUNK_WORDS = 1 << 16


def _word(batch, i: int):
    """Word i of a batch, as tuples of Python ints nested like the batch."""
    if isinstance(batch, tuple):
        return tuple(_word(part, i) for part in batch)
    return tuple(np.asarray(batch)[i].tolist())


def _concat(chunks: list):
    """Join chunk batches that share one nesting of tuples and arrays."""
    if isinstance(chunks[0], tuple):
        return tuple(_concat(list(parts)) for parts in zip(*chunks))
    return np.concatenate(chunks)


def _columns(batch, words: int, what: str) -> list:
    """The (words,) int64 columns of a (words, n) batch or of a tuple
    nesting such; any other shape, or anything but integers, raises
    ParameterError."""
    if isinstance(batch, tuple):
        return [column for part in batch
                for column in _columns(part, words, what)]
    arr = as_int_array(batch, what)
    if arr.ndim != 2 or len(arr) != words:
        raise ParameterError(
            f"{what} must be a ({words}, n) batch, got shape {arr.shape}")
    return list(arr.astype(np.int64, copy=False).T)


# A key spanning at most this many values per word is ranked or counted
# through a span-sized table; wider keys are sorted.
DENSE_SPAN = 4


def _rank(key: np.ndarray, span: int) -> tuple[np.ndarray, np.ndarray]:
    """Group words by an int64 key in [0, span): a group id per word, ids
    numbered by first appearance in word order, and each group's first
    word.  A dense key finds first words in a span-sized table, with no
    sort; a sparse one goes through np.unique.  Both give the same ids."""
    words = len(key)
    if span > DENSE_SPAN * words:
        _, first, inverse = np.unique(key, return_index=True,
                                      return_inverse=True)
        order = np.argsort(first)
        return np.argsort(order)[inverse], first[order]
    index = np.arange(words)
    first = np.full(span, words)
    np.minimum.at(first, key, index)
    first = np.flatnonzero(first[key] == index)
    ids = np.zeros(span, dtype=np.int64)
    ids[key[first]] = np.arange(len(first))
    return ids[key], first


def _narrow(key: np.ndarray, span: int) -> tuple[np.ndarray, int]:
    """A key and its span, re-compacted to group ids (_rank) if it spans
    more than DENSE_SPAN values per word."""
    if span <= DENSE_SPAN * len(key):
        return key, span
    ids, first = _rank(key, span)
    return ids, len(first)


def _mixed_radix(parts, words: int) -> tuple[np.ndarray, int]:
    """One int64 key per word from (key, span) parts, the first part most
    significant.  Before the span could pass 2**62, the key so far and
    the part are narrowed, which leaves at most (DENSE_SPAN * words)**2."""
    key, span = np.zeros(words, dtype=np.int64), 1
    for part, radix in parts:
        if span * radix > 1 << 62:
            key, span = _narrow(key, span)
            part, radix = _narrow(part, radix)
        # a span-1 key is all zeros: the first part is the key
        key, span = key * radix + part if span > 1 else part, span * radix
    return key, span


def _pack(batch, words: int, what: str) -> tuple[np.ndarray, int]:
    """A variable's key: its columns in mixed radix, each from its least
    value, narrowed, so that keys of a few variables multiply into a
    dense span."""
    parts = []
    for column in _columns(batch, words, what):
        low = column.min()
        parts.append((column - low, int(column.max()) - int(low) + 1))
    return _narrow(*_mixed_radix(parts, words))


def _deadline(budget: VerifierBudget) -> Callable[[], None]:
    """A check that raises once budget.max_seconds have passed since now."""
    if budget.max_seconds is None:
        return lambda: None
    end = time.monotonic() + budget.max_seconds

    def check() -> None:
        if time.monotonic() > end:
            raise BudgetExceededError("verification time budget exhausted")

    return check


def enumerate_joint(code: CodeUnderTest,
                    budget: VerifierBudget = VerifierBudget()) -> JointDistribution:
    """Push every (source, key) word through the code in lexicographic
    order, one chunk of CHUNK_WORDS words or fewer per encode_fn call,
    checking the time budget after each call.  A chunk is every word
    with one prefix: the prefix digits come from itertools.product and
    the rest from one grid, built once, so no word is divided into
    digits."""
    n_outcomes = code.outcome_count
    if n_outcomes > budget.max_outcomes:
        raise BudgetExceededError(
            f"{n_outcomes} outcomes exceed the budget of "
            f"{budget.max_outcomes}; refusing to enumerate")
    check_deadline = _deadline(budget)
    src_total = sum(code.source_symbols)
    ends = list(accumulate(code.source_symbols, initial=0))
    digits = src_total + code.key_symbols
    tail = min(digits, 1)
    while tail < digits and code.q ** (tail + 1) <= CHUNK_WORDS:
        tail += 1
    # the last `tail` digits of a chunk's words, lexicographic
    chunk = code.q ** tail
    grid = np.indices((code.q,) * tail, dtype=np.int64).reshape(tail, chunk).T
    chunks = []
    for prefix in product(range(code.q), repeat=digits - tail):
        words = np.empty((chunk, digits), dtype=np.int64)
        words[:, :digits - tail] = prefix
        words[:, digits - tail:] = grid
        sources = tuple(words[:, a:b] for a, b in zip(ends, ends[1:]))
        shares = code.encode_fn(sources, words[:, src_total:])
        chunks.append((sources, shares))
        check_deadline()
    sources, shares = _concat(chunks)
    return JointDistribution(code.q, code.length, code.wiretap,
                             code.source_symbols, n_outcomes,
                             sources, shares)


_LABEL = re.compile(r"([SX])([0-9]+)")


def _label(dist: JointDistribution, label: str) -> str:
    """Variable S<k> or X<l>, k and l decimal, as its key's label."""
    match = _LABEL.fullmatch(label) if isinstance(label, str) else None
    if match is None:
        raise ParameterError(f"unknown variable {label!r}")
    kind, idx = match[1], int(match[2])
    if kind == "S":
        if not 1 <= idx <= len(dist.source_symbols):
            raise ParameterError(f"no source {label}")
        return f"S{idx}"
    return f"X{as_encoders((idx,), dist.length)[0]}"


@dataclass(frozen=True)
class _Table:
    """Word counts of a (given, targets) pair of variable sets.  Each
    part and their cells have one int64 key per word, with its span;
    `count` holds the count of each cell that occurs, in no given order,
    `word_count` the count of each word's cell, and `given_counts` and
    `target_counts` the count of each value by key, 0 where it does not
    occur.  Outputs that need word order rank the keys (_rank)."""

    given: tuple[np.ndarray, int]
    target: tuple[np.ndarray, int]
    cell: tuple[np.ndarray, int]
    count: np.ndarray
    word_count: np.ndarray
    given_counts: np.ndarray
    target_counts: np.ndarray


def _table(dist: JointDistribution, given: Sequence[str],
           targets: Sequence[str]) -> _Table:
    """The count table of (given, targets); the last one is memoized on
    dist, so a secrecy check and the entropy of the same tap set share
    it."""
    given = [_label(dist, label) for label in given]
    targets = [_label(dist, label) for label in targets]
    sets = (frozenset(given), frozenset(targets))
    last_sets, last = dist._last_table[0]
    if last_sets == sets:
        return last
    # each part narrowed, so that its counts fit a table and the product
    # of the two spans stays far below 2**62
    (g, g_span), (t, t_span) = [
        _narrow(*_mixed_radix((dist._keys[label] for label in labels),
                              dist.total))
        for labels in (given, targets)]
    cell, span = g * t_span + t, g_span * t_span
    if span <= DENSE_SPAN * dist.total:
        count = np.bincount(cell, minlength=span)
        word_count = count[cell]
        count = count[count > 0]
    else:
        _, inverse, count = np.unique(cell, return_inverse=True,
                                      return_counts=True)
        word_count = count[inverse]
    table = _Table((g, g_span), (t, t_span), (cell, span), count, word_count,
                   np.bincount(g, minlength=g_span),
                   np.bincount(t, minlength=t_span))
    dist._last_table[0] = sets, table
    return table


# --- secrecy and reconstruction ----------------------------------------------------


@dataclass(frozen=True)
class SecrecyReport:
    tapped: tuple[int, ...]
    ok: bool
    counterexample: dict | None = None


def check_perfect_secrecy(dist: JointDistribution, tapped) -> SecrecyReport:
    """Exact independence of (all sources) from the tapped share tuple.

    Checks count(s, o) * total == count(s) * count(o) for every cell of
    the product support, zero cells included: with n_s source values
    and n_o observations occurring, that is n_s * n_o cells occurring
    and the equation in each.  For the counterexample, sources and
    observations each run in order of first appearance, and the first
    failing cell in row-major order is reported.
    """
    tapped = tuple(sorted(set(as_encoders(tapped, dist.length))))
    sources = [f"S{k}" for k in range(1, len(dist.source_symbols) + 1)]
    table = _table(dist, [f"X{l}" for l in tapped], sources)
    (obs, _), (src, _) = table.given, table.target
    m_obs, m_src = table.given_counts, table.target_counts
    if (len(table.count) == np.count_nonzero(m_obs) * np.count_nonzero(m_src)
            and (table.word_count * dist.total
                 == m_obs[obs] * m_src[src]).all()):
        return SecrecyReport(tapped, True)
    return SecrecyReport(tapped, False,
                         _first_failing_cell(dist, tapped, table))


def _first_failing_cell(dist: JointDistribution, tapped: tuple[int, ...],
                        table: _Table) -> dict:
    """The counterexample of a failed secrecy check: the first cell, in
    row-major order of sources and observations each ranked by first
    appearance, whose count breaks the factorization."""
    src, src_first = _rank(*table.target)
    obs, obs_first = _rank(*table.given)
    n_obs = len(obs_first)
    # row-major cells s * n_obs + o that occur, ascending: the first
    # missing one is the first position i that does not hold cell i
    cells, count = np.unique(src * n_obs + obs, return_counts=True)
    m_src, m_obs = np.bincount(src), np.bincount(obs)
    s_of, o_of = np.divmod(cells, n_obs)
    wrong = ((cells != np.arange(len(cells)))
             | (count * dist.total != m_src[s_of] * m_obs[o_of]))
    first_wrong = int(np.argmax(np.append(wrong, True)))
    s, o = divmod(first_wrong, n_obs)
    occurs = first_wrong < len(cells) and cells[first_wrong] == first_wrong
    return {
        "sources": _word(dist.sources, src_first[s]),
        "observed": _word(tuple(dist.shares[l - 1] for l in tapped),
                          obs_first[o]),
        "count": int(count[first_wrong]) if occurs else 0,
        "total": dist.total,
        "source_count": int(m_src[s]),
        "observed_count": int(m_obs[o]),
    }


@dataclass(frozen=True)
class ReconstructionReport:
    subset: tuple[int, ...]
    expected_sources: int
    ok: bool
    counterexample: dict | None = None


def check_reconstruction(code: CodeUnderTest, dist: JointDistribution,
                         subset, expected: int | None = None) -> ReconstructionReport:
    """Decode every word from `subset` in one call; report the first
    word, in word order, whose leading sources come back wrong."""
    subset = tuple(sorted(set(as_encoders(subset, dist.length))))
    if expected is None:
        expected = code.expected_sources(len(subset))
    try:
        got = code.decode_fn({l: dist.shares[l - 1] for l in subset})
    except DecodeFailureError as exc:
        return ReconstructionReport(subset, expected, False,
                                    {"error": str(exc)})
    wrong = np.full(dist.total, len(got) < expected)
    for decoded, sources in zip(got[:expected], dist.sources):
        wrong |= (np.asarray(decoded) != sources).any(axis=1)
    if not wrong.any():
        return ReconstructionReport(subset, expected, True)
    first = int(np.argmax(wrong))
    return ReconstructionReport(subset, expected, False, {
        "sources": _word(dist.sources, first),
        "decoded": _word(tuple(got), first)})


# --- entropies ------------------------------------------------------------------


@dataclass(frozen=True)
class EntropyResult:
    bits: float
    exact: ExactLogSum
    float_agrees: bool


def _multiplicities(counts: np.ndarray) -> list[tuple[int, int]]:
    """(count, how many times it occurs) for each distinct count."""
    if (counts == counts[0]).all():
        return [(int(counts[0]), len(counts))]
    times = np.bincount(counts)
    values = np.flatnonzero(times)
    return list(zip(values.tolist(), times[values].tolist()))


def conditional_entropy(dist: JointDistribution, targets: Sequence[str],
                        given: Sequence[str] = ()) -> EntropyResult:
    """H(targets | given) in bits: a float plus the exact value.

    float_agrees records whether the independently accumulated float
    matches the exact form within 1e-12.  With c_g words in a group of
    `given` values and c in a cell of (given, targets) values, the exact
    value is (sum_g c_g log c_g - sum_cells c log c) / total; the float
    adds (c / total) * log2(c_g / c) over groups, then cells, in order
    of first appearance.  When every cell adds the same term, any order
    adds the same floats, and the word order is not computed.
    """
    table = _table(dist, given, targets)
    groups = _multiplicities(table.given_counts[table.given_counts > 0])
    cells = _multiplicities(table.count)
    exact = ExactLogSum()
    for pairs, sign in ((groups, 1), (cells, -1)):
        for v, times in pairs:
            exact += ExactLogSum.of_log(v, Fraction(sign * times * v,
                                                    dist.total))
    if len(groups) == len(cells) == 1:
        (c_g, _), (c, n) = groups[0], cells[0]
        terms = np.full(n, c / dist.total * log2(c_g / c))
    else:
        group, _ = _rank(*table.given)
        cell, cell_first = _rank(*table.cell)
        # cells by group, stably; group ids below 2**16 take a radix sort
        order = np.argsort(
            group[cell_first].astype(np.min_scalar_type(len(cell_first))),
            kind="stable")
        c = np.bincount(cell)[order]
        c_g = np.bincount(group)[group[cell_first[order]]]
        # math.log2 once per distinct (c_g, c) pair (np.log2 may differ in
        # the last ulp), summed sequentially by np.add.accumulate
        pair, first = _rank(c_g * (c.max() + 1) + c,
                            (c_g.max() + 1) * (c.max() + 1))
        logs = np.array([log2(v) for v in
                         (c_g[first] / c[first]).tolist()])[pair]
        terms = c / dist.total * logs
    bits = float(np.add.accumulate(terms)[-1])
    return EntropyResult(bits, exact, abs(bits - exact.to_float()) <= 1e-12)


def source_entropy(dist: JointDistribution, k: int) -> ExactLogSum:
    """H(S_k): exact, from the marginal (uniform by construction)."""
    return conditional_entropy(dist, [f"S{k}"]).exact


@dataclass(frozen=True)
class Prop2Report:
    level: int
    tapped: tuple[int, ...]
    checked: tuple[int, ...]
    slack: ExactLogSum
    slack_bits: float
    ok: bool


def check_prop2_inequality(dist: JointDistribution, level: int,
                           tapped, checked) -> Prop2Report:
    """Exact test of the chain step used by the converse argument:

        H(X_D | S_<level, X_A) >= H(S_level) + H(X_D | S_<=level, X_A)

    with A the tapped set (size N) and D disjoint from A (size `level`).
    """
    tapped = tuple(sorted(set(as_encoders(tapped, dist.length))))
    checked = tuple(sorted(set(as_encoders(checked, dist.length))))
    if len(tapped) != dist.wiretap:
        raise ParameterError(
            f"tapped set must have exactly {dist.wiretap} encoders")
    if not 1 <= level <= len(dist.source_symbols):
        raise ParameterError(f"no source level {level}")
    if len(checked) != level:
        raise ParameterError(
            f"checked set must have exactly {level} encoders for level {level}")
    if set(tapped) & set(checked):
        raise ParameterError("tapped and checked sets must be disjoint")

    d_labels = [f"X{l}" for l in checked]
    a_labels = [f"X{l}" for l in tapped]
    below = [f"S{k}" for k in range(1, level)]
    upto = below + [f"S{level}"]
    lhs = conditional_entropy(dist, d_labels, below + a_labels)
    rhs_tail = conditional_entropy(dist, d_labels, upto + a_labels)
    slack = lhs.exact - source_entropy(dist, level) - rhs_tail.exact
    return Prop2Report(level, tapped, checked, slack, slack.to_float(),
                       slack.is_nonnegative())


# --- code adapters -------------------------------------------------------------


def code_for_layout(layout: single_level.BundleLayout) -> CodeUnderTest:
    """A single-source layout, run through the shipped array codec."""
    params = layout.params

    def encode_fn(sources: tuple, keys: np.ndarray) -> tuple:
        bundle = single_level.encode_with_layout(layout, sources[0],
                                                 SequenceSymbolSource(keys))
        return tuple(bundle.payloads[l] for l in range(1, params.length + 1))

    def decode_fn(observed: dict) -> tuple:
        if len(observed) < params.threshold:
            return ()
        return (single_level.decode(layout, observed),)

    return CodeUnderTest(
        q=params.field.order, length=params.length, wiretap=params.wiretap,
        source_symbols=(layout.message_symbols,),
        key_symbols=layout.key_symbols,
        encode_fn=encode_fn, decode_fn=decode_fn,
        expected_sources=lambda size: 1 if size >= params.threshold else 0)


def code_for_multilevel(layout: multilevel.SmdcLayout) -> CodeUnderTest:
    """A multilevel layout, run through the shipped multilevel codec."""
    params = layout.params

    def encode_fn(sources: tuple, keys: np.ndarray) -> tuple:
        bundle = multilevel.encode(layout, sources, SequenceSymbolSource(keys))
        return tuple(bundle.payloads[l] for l in range(1, params.length + 1))

    def decode_fn(observed: dict) -> tuple:
        if len(observed) <= params.wiretap:
            return ()
        return multilevel.decode(layout, observed)

    return CodeUnderTest(
        q=params.field.order, length=params.length, wiretap=params.wiretap,
        source_symbols=params.source_lengths,
        key_symbols=sum(level.key_symbols for level in layout.levels),
        encode_fn=encode_fn, decode_fn=decode_fn,
        expected_sources=lambda size: max(
            0, min(size - params.wiretap, params.source_count)))


# --- whole-code reports -----------------------------------------------------------


def verification_report(code: CodeUnderTest,
                        budget: VerifierBudget = VerifierBudget()) -> dict:
    """Enumerate the code once and check secrecy for every tap set up to
    the wiretap size, and reconstruction for every usable subset.

    Each entry carries the verdict, a counterexample when one exists,
    and the conditional source entropy in bits for tap sets.  A report
    with more entries than budget.max_outcomes is refused before any
    word is encoded.  The time budget covers the whole report: it is
    checked after every encode_fn call, tap set and reconstruction
    subset.
    """
    encoders = range(1, code.length + 1)
    entries = sum(comb(code.length, size) for size in encoders
                  if size <= code.wiretap or code.expected_sources(size) >= 1)
    if entries > budget.max_outcomes:
        raise BudgetExceededError(
            f"{entries} report entries exceed the budget of "
            f"{budget.max_outcomes}; refusing to enumerate")
    check_deadline = _deadline(budget)
    dist = enumerate_joint(code, budget)
    sources = [f"S{k}" for k in range(1, len(code.source_symbols) + 1)]
    report: dict = {
        "q": code.q,
        "length": code.length,
        "wiretap": code.wiretap,
        "source_symbols": list(code.source_symbols),
        "key_symbols": code.key_symbols,
        "outcomes": dist.total,
        "source_entropy_bits": conditional_entropy(dist, sources).bits,
        "secrecy": {},
        "reconstruction": {},
    }
    ok = True
    for size in range(1, code.wiretap + 1):
        for tapped in combinations(encoders, size):
            rep = check_perfect_secrecy(dist, tapped)
            given = [f"X{l}" for l in tapped]
            report["secrecy"][",".join(map(str, tapped))] = {
                "ok": rep.ok,
                "conditional_entropy_bits":
                    conditional_entropy(dist, sources, given).bits,
                "counterexample": rep.counterexample,
            }
            ok = ok and rep.ok
            check_deadline()
    for size in range(code.wiretap + 1, code.length + 1):
        expected = code.expected_sources(size)
        if expected < 1:
            continue
        for subset in combinations(encoders, size):
            rep = check_reconstruction(code, dist, subset, expected)
            report["reconstruction"][",".join(map(str, subset))] = {
                "ok": rep.ok,
                "expected_sources": expected,
                "counterexample": rep.counterexample,
            }
            ok = ok and rep.ok
            check_deadline()
    report["ok"] = ok
    return report
