"""Exhaustive verification of small code instances.

The verifier enumerates every (source, key) combination of a code,
pushing them through its encoder in batches of words (for the package's
own codes, the shipped array codec that writes share files), keeps the
batches in word order as the exact joint distribution, takes integer
counts over a common denominator by grouping words of equal value, and
then decides statements about it with no floating point in the decision
path.  Each variable set is grouped once per distribution and memoized;
a compound set is grouped from its parts' group ids, and wherever the
packed values are dense the grouping is a table lookup, with no sort:

* perfect secrecy against a tap subset is exact factorization of the
  joint distribution of (sources, tapped shares);
* reconstruction is decode equality on every outcome;
* entropy inequalities are decided by comparing products of prime
  powers, since every entropy here is a rational combination of logs
  of integers.

Floats appear only as reporting conveniences, each carrying a flag that
the float agrees with the exact value to 1e-12.
"""

from __future__ import annotations

import re
import time
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, combinations
from math import comb, lcm, log2
from typing import Callable, Mapping, Sequence

import numpy as np

from . import multilevel, single_level
from .errors import (BudgetExceededError, DecodeFailureError, ParameterError,
                     as_encoders, as_int)
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
    is the number of words that carry it.
    """

    q: int
    length: int
    wiretap: int
    source_symbols: tuple[int, ...]
    total: int
    sources: tuple
    shares: tuple
    # groupings of recently used variable sets, by label set (_grouping)
    _groupings: dict = field(default_factory=dict, init=False, repr=False,
                             compare=False)


# Words per encode_fn call: big enough that a call costs little per word,
# small enough that the codec's temporaries stay a few MB.
CHUNK_WORDS = 4096


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


def _columns(batch) -> list:
    """The (W,) columns of a (W, n) batch or of a tuple nesting such."""
    if isinstance(batch, tuple):
        return [column for part in batch for column in _columns(part)]
    return list(np.asarray(batch, dtype=np.int64).T)


# A key spanning at most this many values per word is ranked through a
# span-sized table; wider keys are sorted.
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


def _group(batch, words: int) -> tuple[np.ndarray, np.ndarray]:
    """Group the `words` words of a batch by value: a group id per word,
    ids numbered by first appearance in word order, and each group's
    first word.  Columns pack into one int64 key per word with mixed
    radix, re-compacted to group ids before the span could pass 2**62;
    _rank groups a dense key with no sort.  The verifier's checks reach
    this through _grouping, which memoizes it per variable set."""
    key, span = np.zeros(words, dtype=np.int64), 1
    for column in _columns(batch):
        low = column.min()
        radix = int(column.max() - low) + 1
        if span * radix > 1 << 62:
            key, first = _rank(key, span)
            span = len(first)
        key, span = key * radix + (column - low), span * radix
    return _rank(key, span)


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
    order, CHUNK_WORDS words per encode_fn call, checking the time budget
    after each call."""
    n_outcomes = code.outcome_count
    if n_outcomes > budget.max_outcomes:
        raise BudgetExceededError(
            f"{n_outcomes} outcomes exceed the budget of "
            f"{budget.max_outcomes}; refusing to enumerate")
    check_deadline = _deadline(budget)
    src_total = sum(code.source_symbols)
    ends = list(accumulate(code.source_symbols, initial=0))
    # digit weights of a word's index, most significant first: the order
    # of itertools.product (np.unravel_index refuses the empty word)
    weights = code.q ** np.arange(src_total + code.key_symbols - 1, -1, -1,
                                  dtype=np.int64)
    chunks = []
    for start in range(0, n_outcomes, CHUNK_WORDS):
        index = np.arange(start, min(start + CHUNK_WORDS, n_outcomes))
        words = index[:, None] // weights % code.q
        sources = tuple(words[:, a:b] for a, b in zip(ends, ends[1:]))
        shares = code.encode_fn(sources, words[:, src_total:])
        chunks.append((sources, shares))
        check_deadline()
    sources, shares = _concat(chunks)
    return JointDistribution(code.q, code.length, code.wiretap,
                             code.source_symbols, n_outcomes,
                             sources, shares)


# Groupings a distribution keeps: the sources plus the last few tap sets.
GROUPINGS_KEPT = 4


def _grouping(dist: JointDistribution, labels: Sequence[str],
              more: Sequence[str] = ()) -> tuple[np.ndarray, np.ndarray]:
    """The grouping (ids, first words) of the variables in labels and more,
    as _group gives it, memoized on dist by label set.  Given both, the
    words are grouped by the pair of the two parts' memoized ids."""
    key = frozenset(labels) | frozenset(more)
    memo = dist._groupings
    if key in memo:
        memo[key] = memo.pop(key)
        return memo[key]
    if not labels or not more:
        grouping = _group(tuple(_batch(dist, label)
                                for label in (*labels, *more)), dist.total)
    else:
        a, a_first = _grouping(dist, labels)
        b, b_first = _grouping(dist, more)
        grouping = _rank(a * len(b_first) + b, len(a_first) * len(b_first))
    memo[key] = grouping
    if len(memo) > GROUPINGS_KEPT:
        del memo[next(iter(memo))]
    return grouping


# --- secrecy and reconstruction ----------------------------------------------------


@dataclass(frozen=True)
class SecrecyReport:
    tapped: tuple[int, ...]
    ok: bool
    counterexample: dict | None = None


def check_perfect_secrecy(dist: JointDistribution, tapped) -> SecrecyReport:
    """Exact independence of (all sources) from the tapped share tuple.

    Checks count(s, o) * total == count(s) * count(o) for every cell of
    the product support, zero cells included; sources and observations
    each run in order of first appearance, and the first failing cell in
    row-major order is the counterexample.
    """
    tapped = tuple(sorted(set(as_encoders(tapped, dist.length))))
    sources = [f"S{k}" for k in range(1, len(dist.source_symbols) + 1)]
    taps = [f"X{l}" for l in tapped]
    src, src_first = _grouping(dist, sources)
    obs, obs_first = _grouping(dist, taps)
    cell, cell_first = _grouping(dist, taps, sources)
    m_src, m_obs, count = np.bincount(src), np.bincount(obs), np.bincount(cell)
    n_obs = len(obs_first)
    # the row-major index s * n_obs + o of each cell that occurs; the first
    # cell that does not occur is at most len(cells), the pigeonhole bound
    s_of, o_of = src[cell_first], obs[cell_first]
    cells = s_of * n_obs + o_of
    wrong = cells[count * dist.total != m_src[s_of] * m_obs[o_of]]
    seen = np.zeros(len(cells) + 1, dtype=bool)
    seen[cells[cells <= len(cells)]] = True
    first_wrong = int(np.argmin(seen))
    if len(wrong):
        first_wrong = min(first_wrong, int(wrong.min()))
    if first_wrong == len(src_first) * n_obs:
        return SecrecyReport(tapped, True)
    s, o = divmod(first_wrong, n_obs)
    at = np.flatnonzero(cells == first_wrong)
    return SecrecyReport(tapped, False, {
        "sources": _word(dist.sources, src_first[s]),
        "observed": _word(tuple(dist.shares[l - 1] for l in tapped),
                          obs_first[o]),
        "count": int(count[at[0]]) if len(at) else 0,
        "total": dist.total,
        "source_count": int(m_src[s]),
        "observed_count": int(m_obs[o]),
    })


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


_LABEL = re.compile(r"([SX])([0-9]+)")


def _batch(dist: JointDistribution, label: str):
    """The word-order batch of variable S<k> or X<l>, k and l decimal."""
    match = _LABEL.fullmatch(label) if isinstance(label, str) else None
    if match is None:
        raise ParameterError(f"unknown variable {label!r}")
    kind, idx = match[1], int(match[2])
    if kind == "S":
        if not 1 <= idx <= len(dist.source_symbols):
            raise ParameterError(f"no source {label}")
        return dist.sources[idx - 1]
    return dist.shares[as_encoders((idx,), dist.length)[0] - 1]


@dataclass(frozen=True)
class EntropyResult:
    bits: float
    exact: ExactLogSum
    float_agrees: bool


def conditional_entropy(dist: JointDistribution, targets: Sequence[str],
                        given: Sequence[str] = ()) -> EntropyResult:
    """H(targets | given) in bits: a float plus the exact value.

    float_agrees records whether the independently accumulated float
    matches the exact form within 1e-12.  With c_g words in a group of
    `given` values and c in a cell of (given, targets) values, the exact
    value is (sum_g c_g log c_g - sum_cells c log c) / total; the float
    adds (c / total) * log2(c_g / c) over groups, then cells, in order
    of first appearance.
    """
    group, _ = _grouping(dist, given)
    cell, cell_first = _grouping(dist, given, targets)
    c_g, c = np.bincount(group), np.bincount(cell)
    exact = ExactLogSum()
    for counts, sign in ((c_g, 1), (c, -1)):
        times = np.bincount(counts)
        for v in np.flatnonzero(times).tolist():
            exact += ExactLogSum.of_log(
                v, Fraction(sign * int(times[v]) * v, dist.total))
    # cells by group, stably; group ids below 2**16 take a radix sort
    order = np.argsort(group[cell_first].astype(np.min_scalar_type(len(c_g))),
                       kind="stable")
    c, c_g = c[order], c_g[group[cell_first[order]]]
    # math.log2 once per distinct (c_g, c) pair (np.log2 may differ in the
    # last ulp), summed sequentially by np.add.accumulate
    pair, first = _rank(c_g * (c.max() + 1) + c, (c_g.max() + 1) * (c.max() + 1))
    logs = np.array([log2(v) for v in (c_g[first] / c[first]).tolist()])[pair]
    bits = float(np.add.accumulate(c / dist.total * logs)[-1])
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
