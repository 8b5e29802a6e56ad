"""Admissible rate regions as systems of exact linear inequalities.

A region lives over named rate variables and is cut out by rows of the
form ``coeffs . x >= bound``.  Bounds are rational linear expressions in
named nonnegative parameters (source entropies), so one system can be
manipulated symbolically and later evaluated at concrete values.  All
arithmetic is exact, on integers where it can be: the combined region's
rows keep its integer facet normals, and membership puts the point over
one common denominator first.

One source with L encoders and threshold k (any k outputs decode it after
key removal) admits the rates whose every k-subset covers its entropy H:
region(L, k, H).  The layered scheme's total-rate region is the Minkowski
sum of region(L, k, H_k) over its levels k = 1..L-N, and one source is its
one-level case (H on level k, 0 elsewhere).  It comes from the support
function h(alpha) = sum_k H_k * min_{z<k} S_{L-z}(alpha) / (k-z), where
S_j sums the j smallest weights: each facet is a sorted alpha around
which h is not linear, and gives one row per distinct ordering (cf.
Yeung and Zhang, IEEE Trans. IT 45(2), 1999, for the non-secure case).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, combinations, product
from math import gcd, lcm
from operator import mul
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import ParameterError, as_fraction, as_int
# bound only so that perfbench/spans.py can trace it; no runtime caller
from .exactlp import solve_lp  # noqa: F401

_ZERO = Fraction(0)


def _frac(v) -> Fraction:
    return as_fraction(v, "rates and entropies")


@dataclass(frozen=True)
class LinExpr:
    """Rational affine expression over named nonnegative parameters."""

    const: Fraction = _ZERO
    terms: tuple[tuple[str, Fraction], ...] = ()

    @staticmethod
    def make(const=0, term_map: Mapping[str, Fraction] | None = None) -> "LinExpr":
        terms = tuple(sorted((n, _frac(c)) for n, c in (term_map or {}).items()
                             if _frac(c) != 0))
        return LinExpr(_frac(const), terms)

    @staticmethod
    def constant(v) -> "LinExpr":
        return LinExpr.make(v)

    @staticmethod
    def param(name: str, coeff=1) -> "LinExpr":
        return LinExpr.make(0, {name: coeff})

    @staticmethod
    def coerce(v) -> "LinExpr":
        if isinstance(v, LinExpr):
            return v
        if isinstance(v, str):
            return LinExpr.param(v)
        return LinExpr.constant(v)

    @property
    def is_constant(self) -> bool:
        return not self.terms

    def constant_value(self) -> Fraction:
        if self.terms:
            raise ParameterError(f"{self} is symbolic, not a constant")
        return self.const

    def _term_map(self) -> dict[str, Fraction]:
        return dict(self.terms)

    def __add__(self, other) -> "LinExpr":
        other = LinExpr.coerce(other)
        tm = self._term_map()
        for n, c in other.terms:
            tm[n] = tm.get(n, _ZERO) + c
        return LinExpr.make(self.const + other.const, tm)

    __radd__ = __add__

    def __sub__(self, other) -> "LinExpr":
        return self + (-LinExpr.coerce(other))

    def __rsub__(self, other) -> "LinExpr":
        return LinExpr.coerce(other) + (-self)

    def __neg__(self) -> "LinExpr":
        return LinExpr(-self.const, tuple((n, -c) for n, c in self.terms))

    def __mul__(self, scalar) -> "LinExpr":
        s = _frac(scalar)
        if s == 0:
            return LinExpr()
        return LinExpr(self.const * s, tuple((n, c * s) for n, c in self.terms))

    __rmul__ = __mul__

    def evaluate(self, values: Mapping[str, object]) -> Fraction:
        out = self.const
        for n, c in self.terms:
            if n not in values:
                raise ParameterError(f"no value given for parameter {n}")
            out += c * _frac(values[n])
        return out

    def provably_nonneg(self) -> bool:
        """True when nonnegativity follows from the parameters being >= 0."""
        return self.const >= 0 and all(c >= 0 for _, c in self.terms)

    def provably_le(self, other) -> bool:
        return (LinExpr.coerce(other) - self).provably_nonneg()

    def sort_key(self):
        return (self.const, self.terms)

    def __str__(self):
        parts = [f"{c}*{n}" if c != 1 else n for n, c in self.terms]
        if self.const or not parts:
            parts.append(str(self.const))
        return " + ".join(parts)


@dataclass(frozen=True)
class Inequality:
    """One row: coeffs . x >= bound.  Coefficients are exact rationals:
    Fractions, or ints in the rows of superposition_region."""

    coeffs: tuple[Fraction | int, ...]
    bound: LinExpr

    @staticmethod
    def make(coeffs: Iterable, bound) -> "Inequality":
        return Inequality(tuple(_frac(c) for c in coeffs), LinExpr.coerce(bound))

    def scaled_canonical(self) -> "Inequality":
        # normalize on the coefficient vector so parallel rows coincide;
        # zero-coefficient rows normalize on the bound instead
        nums = [c for c in self.coeffs if c != 0]
        if not nums:
            nums = [self.bound.const] + [c for _, c in self.bound.terms]
            nums = [v for v in nums if v != 0]
        if not nums:
            return self
        mult = lcm(*(v.denominator for v in nums))
        g = 0
        for v in nums:
            g = gcd(g, int(v * mult))
        scale = Fraction(mult, g if g else 1)
        return Inequality(tuple(c * scale for c in self.coeffs), self.bound * scale)

    @property
    def is_vacuous(self) -> bool:
        return all(c == 0 for c in self.coeffs) and self.bound.provably_le(0)

    def satisfied_by(self, point: Sequence, params: Mapping | None = None) -> bool:
        lhs = sum((c * _frac(x) for c, x in zip(self.coeffs, point)), _ZERO)
        return lhs >= self.bound.evaluate(params or {})

    def support(self) -> tuple[int, ...]:
        """0-based indices of the variables this row involves."""
        return tuple(i for i, c in enumerate(self.coeffs) if c != 0)

    def sort_key(self):
        return (self.coeffs, self.bound.sort_key())

    def render(self, var_names: Sequence[str]) -> str:
        lhs = " + ".join(
            (f"{c}*{n}" if c != 1 else n)
            for c, n in zip(self.coeffs, var_names) if c != 0)
        return f"{lhs or '0'} >= {self.bound}"


def _dominates(a: Inequality, b: Inequality, guaranteed: frozenset[int]) -> bool:
    """Does row a imply row b, given x_j >= 0 for j in `guaranteed`?"""
    for j, (ca, cb) in enumerate(zip(a.coeffs, b.coeffs)):
        if ca > cb:
            return False
        if ca < cb and j not in guaranteed:
            return False
    return b.bound.provably_le(a.bound)


@dataclass(frozen=True)
class InequalitySystem:
    """A conjunction of >= rows over named variables."""

    var_names: tuple[str, ...]
    rows: tuple[Inequality, ...]

    @staticmethod
    def make(var_names: Sequence[str], rows: Iterable[Inequality]) -> "InequalitySystem":
        names = tuple(var_names)
        rows = tuple(rows)
        for r in rows:
            if len(r.coeffs) != len(names):
                raise ParameterError("row width does not match variable count")
        return InequalitySystem(names, rows)

    @property
    def dim(self) -> int:
        return len(self.var_names)

    def _guaranteed_nonneg(self, rows: Sequence[Inequality]) -> frozenset[int]:
        out = set()
        for r in rows:
            sup = r.support()
            if len(sup) == 1 and r.coeffs[sup[0]] > 0 and r.bound.provably_nonneg():
                out.add(sup[0])
        return frozenset(out)

    def canonical(self) -> "InequalitySystem":
        """Scale rows to primitive integers, drop duplicates, vacuous rows,
        and rows implied by a single other row; sort the rest."""
        scaled = []
        seen = set()
        for r in self.rows:
            s = r.scaled_canonical()
            if s.is_vacuous:
                continue
            if s.sort_key() not in seen:
                seen.add(s.sort_key())
                scaled.append(s)
        guaranteed = self._guaranteed_nonneg(scaled)
        kept = []
        for i, r in enumerate(scaled):
            if any(j != i and _dominates(other, r, guaranteed)
                   for j, other in enumerate(scaled)):
                continue
            kept.append(r)
        kept.sort(key=Inequality.sort_key)
        return InequalitySystem(self.var_names, tuple(kept))

    def contains(self, point: Sequence, params: Mapping | None = None) -> bool:
        return not self.violated_rows(point, params)

    def violated_rows(self, point: Sequence, params: Mapping | None = None) -> list[Inequality]:
        """The rows the point breaks, in order.  The point is put over one
        common denominator once, so an integer row is tested by an integer
        dot product; Fraction coefficients keep Fraction sums."""
        if len(point) != self.dim:
            raise ParameterError(f"point has {len(point)} coordinates, need {self.dim}")
        x = [_frac(v) for v in point]
        scale = lcm(*(v.denominator for v in x))
        x = [v.numerator * (scale // v.denominator) for v in x]
        params = params or {}
        out = []
        for r in self.rows:
            bound = r.bound.evaluate(params)
            if sum(map(mul, r.coeffs, x)) * bound.denominator < bound.numerator * scale:
                out.append(r)
        return out

    def evaluate(self, params: Mapping) -> "InequalitySystem":
        rows = [Inequality(r.coeffs, LinExpr.constant(r.bound.evaluate(params)))
                for r in self.rows]
        return InequalitySystem(self.var_names, tuple(rows))

    def render(self) -> str:
        return "\n".join(r.render(self.var_names) for r in self.rows)

    def to_json_dict(self) -> dict:
        def frac(v: Fraction):
            return [v.numerator, v.denominator]

        return {
            "variables": list(self.var_names),
            "rows": [
                {
                    "coeffs": [frac(c) for c in r.coeffs],
                    "bound": {
                        "const": frac(r.bound.const),
                        "terms": {n: frac(c) for n, c in r.bound.terms},
                    },
                }
                for r in self.rows
            ],
        }

    @staticmethod
    def from_json_dict(data: dict) -> "InequalitySystem":
        """The system that to_json_dict wrote.  Any other shape, or a
        fraction that is not two integers over a nonzero denominator,
        raises ParameterError."""
        def frac(v):
            if not isinstance(v, (list, tuple)) or len(v) != 2:
                raise ParameterError(f"a fraction is a [numerator, "
                                     f"denominator] pair, got {v!r}")
            num, den = as_int(v[0], "numerator"), as_int(v[1], "denominator")
            if den == 0:
                raise ParameterError(f"fraction {v!r} has a zero denominator")
            return Fraction(num, den)

        try:
            rows = [Inequality(tuple(frac(c) for c in row["coeffs"]),
                               LinExpr.make(frac(row["bound"]["const"]),
                                            {n: frac(c) for n, c in
                                             row["bound"]["terms"].items()}))
                    for row in data["rows"]]
            return InequalitySystem.make(data["variables"], rows)
        except (KeyError, TypeError, AttributeError) as exc:
            raise ParameterError(
                f"malformed inequality system: {exc!r}") from None


# --- single-code regions ------------------------------------------------------

def _check_lk(length: int, k: int) -> tuple[int, int]:
    length, k = as_int(length, "length"), as_int(k, "k")
    if not 1 <= k <= length:
        raise ParameterError(f"need 1 <= k <= L, got k={k}, L={length}")
    return length, k


def rate_var_names(length: int, prefix: str = "R") -> tuple[str, ...]:
    return tuple(f"{prefix}{l}" for l in range(1, length + 1))


def region(length: int, k: int, entropy) -> InequalitySystem:
    """Rates admissible for one threshold code: every k-subset covers the
    source entropy, all rates nonnegative."""
    length, k = _check_lk(length, k)
    h = LinExpr.coerce(entropy)
    rows = []
    for i in range(length):
        coeffs = [_ZERO] * length
        coeffs[i] = Fraction(1)
        rows.append(Inequality(tuple(coeffs), LinExpr.constant(0)))
    for subset in combinations(range(length), k):
        coeffs = [_ZERO] * length
        for i in subset:
            coeffs[i] = Fraction(1)
        rows.append(Inequality(tuple(coeffs), h))
    return InequalitySystem.make(rate_var_names(length), rows)


def violated_subsets(system: InequalitySystem, point: Sequence,
                     params: Mapping | None = None) -> list[tuple[int, ...]]:
    """1-based encoder subsets whose sum-rate rows fail at the point."""
    return [tuple(i + 1 for i in r.support())
            for r in system.violated_rows(point, params)]


def min_sum_rate(length: int, k: int, entropy):
    """Smallest achievable total rate, (L/k) * H: the combined region's
    minimum with entropy H on level k alone."""
    length, k = _check_lk(length, k)
    return smdc_min_sum_rate(length, length - k, _one_level(k, k, entropy))


def corner_points(length: int, k: int, entropy) -> tuple[tuple[Fraction, ...], ...]:
    """Extreme points of region(L, k, H): the combined region's corners with
    entropy H on level k alone."""
    length, k = _check_lk(length, k)
    return superposition_corner_points(length, length - k, _one_level(k, k, entropy))


def vertices_brute_force(system: InequalitySystem,
                         params: Mapping | None = None) -> tuple[tuple[Fraction, ...], ...]:
    """All extreme points of a (numeric) system, by solving every full-rank
    combination of dim tight rows and keeping the feasible solutions."""
    n = system.dim
    rows = [(list(r.coeffs), r.bound.evaluate(params or {})) for r in system.rows]
    found = set()
    for combo in combinations(range(len(rows)), n):
        reduced, pivots = _echelon([rows[i][0] + [rows[i][1]] for i in combo])
        if pivots != list(range(n)):
            continue
        x = [Fraction(row[n], row[i]) for i, row in enumerate(reduced)]
        if all(sum(c * v for c, v in zip(coeffs, x)) >= bound
               for coeffs, bound in rows):
            found.add(tuple(x))
    return tuple(sorted(found))


def _echelon(rows) -> tuple[list[list[int]], list[int]]:
    """Reduced row echelon form over the rationals, kept fraction-free: the
    nonzero rows as primitive integer rows, and their pivot columns."""
    m = [_integer_row(row) for row in rows]
    pivots: list[int] = []
    for c in range(len(m[0]) if m else 0):
        r = len(pivots)
        piv = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        p = m[r]
        m = [_integer_row([v * p[c] - row[c] * w for v, w in zip(row, p)])
             if i != r and row[c] else row for i, row in enumerate(m)]
        pivots.append(c)
    return m[:len(pivots)], pivots


def _integer_row(vec) -> list[int]:
    scale = lcm(*(v.denominator for v in vec))
    row = [v.numerator * (scale // v.denominator) for v in vec]
    g = gcd(*row) or 1
    return [v // g for v in row]


# --- multilevel (superposed) regions ----------------------------------------------

def _level_entropies(length: int, n_wiretap: int, entropies):
    """L, and each level's nonnegative entropy (symbols by default)."""
    length, n_wiretap = as_int(length, "length"), as_int(n_wiretap, "wiretap")
    if not 0 <= n_wiretap < length:
        raise ParameterError(f"need 0 <= N < L, got N={n_wiretap}, L={length}")
    k_count = length - n_wiretap
    if entropies is None:
        entropies = [f"H{k}" for k in range(1, k_count + 1)]
    hs = [LinExpr.coerce(h) for h in entropies]
    if len(hs) != k_count:
        raise ParameterError(f"need {k_count} entropies, got {len(hs)}")
    if not all(h.provably_nonneg() for h in hs):
        raise ParameterError("entropies must be nonnegative")
    return length, hs


def _one_level(count: int, k: int, entropy) -> list:
    """Entropies of `count` levels with `entropy` on level k alone."""
    if not 1 <= k <= count:
        raise ParameterError(f"need 0 < m - N <= L - N, got m - N = {k}, L - N = {count}")
    return [_ZERO] * (k - 1) + [entropy] + [_ZERO] * (count - k)


def _orderings(values: Sequence) -> Iterator[tuple]:
    """Each distinct ordering of values once, in lexicographic order
    (Knuth's Algorithm L), instead of every permutation deduplicated."""
    a = sorted(values)
    while True:
        yield tuple(a)
        i = next((i for i in range(len(a) - 2, -1, -1) if a[i] < a[i + 1]), None)
        if i is None:
            return
        j = next(j for j in range(len(a) - 1, i, -1) if a[j] > a[i])
        a[i], a[j] = a[j], a[i]
        a[i + 1:] = a[:i:-1]


def _swaps(base: Sequence, block: Sequence[int]) -> Iterator[list]:
    """base with each position of block swapped with the first unlike entry:
    with base, they span every rearrangement of base within the block."""
    for j in block:
        i = next((i for i in block if base[i] != base[j]), None)
        if i is not None:
            v = list(base)
            v[i], v[j] = v[j], v[i]
            yield v


def _level_support(alpha: Sequence[Fraction], k: int) -> list[Fraction]:
    """S_{L-z}(alpha) / (k - z) for z = 0..k-1, alpha sorted ascending:
    what alpha costs at each kind of level-k corner per unit entropy."""
    s = [_ZERO, *accumulate(alpha)]
    return [s[len(alpha) - z] / (k - z) for z in range(k)]


def _chamber_rays(length: int, levels: tuple[int, ...]) -> set[tuple[Fraction, ...]]:
    """Rays of the sorted chamber 0 <= a_1 <= ... <= a_L cut by every
    level's breakpoints, scaled so the first nonzero entry is 1.

    Level k's cost S_{L-z}/(k-z) is unimodal in z, so its linear pieces
    meet only where neighbouring z tie, on c*a_p = a_1 + ... + a_{p-1} with
    c = k-1-z and p = L-z.  Such a form, like a chamber wall a_p = a_{p-1},
    ends at position p, and two tight forms ending at one position combine
    into tight forms ending earlier.  So a ray is fixed by one tight form at
    each position after its first nonzero entry: the rays are the leaves of
    a walk that picks, position by position, the wall or a breakpoint that
    keeps the entries ascending.
    """
    slopes = [[p - (length - k) for k in levels if 1 <= p - (length - k) < k]
              for p in range(length)]
    rays = set()

    def extend(alpha: list[Fraction], total: Fraction):
        if len(alpha) == length:
            rays.add(tuple(alpha))
            return
        extend(alpha + [alpha[-1]], total + alpha[-1])
        for a in (total / c for c in slopes[len(alpha)]):
            if a > alpha[-1]:
                extend(alpha + [a], total + a)

    for first in range(length):
        extend([_ZERO] * first + [Fraction(1)], Fraction(1))
    return rays


def _exposed_face_rank(alpha: Sequence[Fraction], levels: tuple[int, ...]) -> int:
    """Dimension of the face of the combined region that alpha exposes:
    the sum of each level's cheapest corners, with zeros on the largest
    entries of alpha (ties in any order), plus e_i wherever alpha_i = 0."""
    length = len(alpha)
    spread = [[Fraction(i == j) for j in range(length)]
              for i in range(length) if alpha[i] == 0]
    for k in levels:
        cost = _level_support(alpha, k)
        points = []
        for z in (z for z in range(k) if cost[z] == min(cost)):
            base = [Fraction(1, k - z) if i < length - z else _ZERO
                    for i in range(length)]
            ties = [i for i in range(length) if z and alpha[i] == alpha[-z]]
            points += [base, *_swaps(base, ties)]
        spread.extend([a - b for a, b in zip(p, points[0])] for p in points[1:])
    return len(_echelon(spread)[1])


@lru_cache(maxsize=64)
def _facet_orbits(length: int, levels: tuple[int, ...]):
    """Sorted primitive integer facet normals of the combined region with
    entropy on `levels`, each with the per-level weights g_k of its bound."""
    out = []
    for ray in _chamber_rays(length, levels):
        if _exposed_face_rank(ray, levels) == length - 1:
            scale = Fraction(lcm(*(a.denominator for a in ray)))
            scale /= gcd(*(int(a * scale) for a in ray))
            out.append((tuple(int(a * scale) for a in ray),
                        tuple(min(_level_support(ray, k)) * scale for k in levels)))
    return tuple(sorted(out))


def superposition_region(length: int, n_wiretap: int, entropies=None) -> InequalitySystem:
    """Total-rate region of the layered scheme, where source k has its own
    threshold-k code: for each facet normal alpha, one row per distinct
    permutation of alpha with bound sum_k g_k(alpha) * H_k."""
    length, hs = _level_entropies(length, n_wiretap, entropies)
    levels = tuple(k for k, h in enumerate(hs, start=1) if h != LinExpr())
    rows = []
    for alpha, weights in _facet_orbits(length, levels):
        bound = sum((hs[k - 1] * w for k, w in zip(levels, weights)), LinExpr())
        rows.extend(Inequality(perm, bound) for perm in _orderings(alpha))
    # facets never imply one another, so this is already canonical();
    # sorting gives its row order without its pairwise dominance scan
    rows.sort(key=Inequality.sort_key)
    return InequalitySystem.make(rate_var_names(length), rows)


def superposition_corner_points(length: int, n_wiretap: int,
                                entropies) -> tuple[tuple[Fraction, ...], ...]:
    """Extreme points of the combined region (numeric entropies): sums of
    one corner per level, all zeroing the largest coordinates of one order
    (level k zeroes z_k < k and spreads H_k / (k - z_k) over the rest),
    kept when the facets tight at them have full rank."""
    try:
        hs = [_frac(h) for h in entropies]
    except (TypeError, ParameterError):
        raise ParameterError("corner points need exact numeric entropies") from None
    length = _level_entropies(length, n_wiretap, hs)[0]
    levels = tuple(k for k, h in enumerate(hs, start=1) if h)
    orbits = [(alpha, sum(hs[k - 1] * w for k, w in zip(levels, weights)))
              for alpha, weights in _facet_orbits(length, levels)]
    spread = {(k, z): hs[k - 1] / (k - z) for k in levels for z in range(k)}
    # one common denominator keeps candidates, bounds and every tightness
    # test in integer arithmetic
    scale = lcm(*(v.denominator for v in spread.values()),
                *(bound.denominator for _, bound in orbits))
    spread = {kz: int(v * scale) for kz, v in spread.items()}
    orbits = [(alpha, int(bound * scale)) for alpha, bound in orbits]
    candidates = {tuple(sum(spread[k, z] for k, z in zip(levels, zs)
                            if i < length - z) for i in range(length))
                  for zs in product(*(range(k) for k in levels))}
    # each candidate is non-increasing, so their orderings never overlap
    corners = sorted(c for x in candidates
                     if len(_echelon(_tight_rows(x, orbits))[1]) == length
                     for c in _orderings(x))
    # orderings only permute a candidate, so few distinct values occur
    values = {v: Fraction(v, scale) for x in candidates for v in x}
    return tuple(tuple(map(values.__getitem__, c)) for c in corners)


def _tight_rows(x: Sequence[int], orbits) -> list[Sequence[int]]:
    """Rows spanning the facets tight at a non-increasing integer point x,
    given integer bounds.  An orbit touches x when its ascending normal
    does; its tight rows then give each block of equal entries of x the
    same slice of that normal, in any order."""
    blocks = [[i for i, w in enumerate(x) if w == v] for v in set(x)]
    tight = []
    for alpha, bound in orbits:
        if sum(a * v for a, v in zip(alpha, x)) == bound:
            tight += [alpha, *(v for b in blocks for v in _swaps(alpha, b))]
    return tight


def smdc_min_sum_rate(length: int, n_wiretap: int, entropies):
    """Minimum total rate of the layered scheme: sum over sources of
    (L/k) * H_k."""
    length, hs = _level_entropies(length, n_wiretap, entropies)
    total = sum((h * Fraction(length, k) for k, h in enumerate(hs, start=1)), LinExpr())
    return total.constant_value() if total.is_constant else total
