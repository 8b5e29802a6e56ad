"""Admissible rate regions as systems of exact linear inequalities.

A region lives over named rate variables and is cut out by rows of the
form ``coeffs . x >= bound``.  Bounds are rational linear expressions in
named nonnegative parameters (source entropies), so one system can be
manipulated symbolically and later evaluated at concrete values.  All
arithmetic is Fraction-exact.

The single-code region for L encoders with reconstruction threshold k
(decode from any k of the L outputs after key removal) is every k-subset
of rates summing to at least the source entropy, plus nonnegativity.
Superposed multilevel regions are obtained from layered copies of those
systems by Fourier-Motzkin elimination of the per-layer rates.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import gcd, lcm
from typing import Iterable, Mapping, Sequence

from .errors import ParameterError, RowBudgetError
from .exactlp import LpResult, solve_lp

_ZERO = Fraction(0)


def _frac(v) -> Fraction:
    if isinstance(v, float):
        raise ParameterError("rates and entropies must be exact (int/Fraction)")
    return Fraction(v)


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
        return LinExpr.make(0, {name: Fraction(coeff)})

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

    def provably_positive(self) -> bool:
        return self.const > 0 and all(c >= 0 for _, c in self.terms)

    def sort_key(self):
        return (self.const, self.terms)

    def __str__(self):
        parts = [f"{c}*{n}" if c != 1 else n for n, c in self.terms]
        if self.const or not parts:
            parts.append(str(self.const))
        return " + ".join(parts)


@dataclass(frozen=True)
class Inequality:
    """One row: coeffs . x >= bound."""

    coeffs: tuple[Fraction, ...]
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

    @property
    def is_impossible(self) -> bool:
        return all(c == 0 for c in self.coeffs) and self.bound.provably_positive()

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

    def param_names(self) -> tuple[str, ...]:
        seen = set()
        for r in self.rows:
            seen.update(n for n, _ in r.bound.terms)
        return tuple(sorted(seen))

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

    @property
    def is_trivially_infeasible(self) -> bool:
        return any(r.is_impossible for r in self.rows)

    def contains(self, point: Sequence, params: Mapping | None = None) -> bool:
        if len(point) != self.dim:
            raise ParameterError(f"point has {len(point)} coordinates, need {self.dim}")
        return all(r.satisfied_by(point, params) for r in self.rows)

    def violated_rows(self, point: Sequence, params: Mapping | None = None) -> list[Inequality]:
        if len(point) != self.dim:
            raise ParameterError(f"point has {len(point)} coordinates, need {self.dim}")
        return [r for r in self.rows if not r.satisfied_by(point, params)]

    def evaluate(self, params: Mapping) -> "InequalitySystem":
        rows = [Inequality(r.coeffs, LinExpr.constant(r.bound.evaluate(params)))
                for r in self.rows]
        return InequalitySystem(self.var_names, tuple(rows))

    def lp_minimum(self, objective: Sequence, params: Mapping | None = None) -> LpResult:
        """Exact LP: minimize objective . x over this system plus x >= 0."""
        a_ge = [list(r.coeffs) for r in self.rows]
        b_ge = [r.bound.evaluate(params or {}) for r in self.rows]
        for i in range(self.dim):
            row = [_ZERO] * self.dim
            row[i] = Fraction(1)
            a_ge.append(row)
            b_ge.append(_ZERO)
        return solve_lp([_frac(v) for v in objective], a_ge=a_ge, b_ge=b_ge)

    def zero_slice(self, var) -> "InequalitySystem":
        """Substitute variable = 0 and drop its column."""
        j = self._var_index(var)
        names = self.var_names[:j] + self.var_names[j + 1:]
        rows = [Inequality(r.coeffs[:j] + r.coeffs[j + 1:], r.bound)
                for r in self.rows]
        return InequalitySystem(names, tuple(rows)).canonical()

    def _var_index(self, var) -> int:
        if isinstance(var, str):
            try:
                return self.var_names.index(var)
            except ValueError:
                raise ParameterError(f"no variable named {var!r}") from None
        j = int(var)
        if not 0 <= j < self.dim:
            raise ParameterError(f"variable index {j} out of range")
        return j

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

    def to_json(self, indent=None) -> str:
        return json.dumps(self.to_json_dict(), indent=indent, sort_keys=True)

    @staticmethod
    def from_json_dict(data: dict) -> "InequalitySystem":
        def frac(v):
            return Fraction(v[0], v[1])

        rows = []
        for row in data["rows"]:
            bound = LinExpr.make(frac(row["bound"]["const"]),
                                 {n: frac(c) for n, c in row["bound"]["terms"].items()})
            rows.append(Inequality(tuple(frac(c) for c in row["coeffs"]), bound))
        return InequalitySystem.make(data["variables"], rows)

    @staticmethod
    def from_json(text: str) -> "InequalitySystem":
        return InequalitySystem.from_json_dict(json.loads(text))


# --- single-code regions ------------------------------------------------------

def _check_lk(length: int, k: int):
    if not 1 <= k <= length:
        raise ParameterError(f"need 1 <= k <= L, got k={k}, L={length}")


def rate_var_names(length: int, prefix: str = "R") -> tuple[str, ...]:
    return tuple(f"{prefix}{l}" for l in range(1, length + 1))


def region(length: int, k: int, entropy) -> InequalitySystem:
    """Rates admissible for one threshold code: every k-subset covers the
    source entropy, all rates nonnegative."""
    _check_lk(length, k)
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
    out = []
    for r in system.violated_rows(point, params):
        out.append(tuple(i + 1 for i in r.support()))
    return out


def min_sum_rate(length: int, k: int, entropy):
    """Smallest achievable total rate, (L/k) * H.

    The closed form; tests compare it against the LP over region(L, k, H).
    """
    _check_lk(length, k)
    h = LinExpr.coerce(entropy)
    value = h * Fraction(length, k)
    return value.constant_value() if h.is_constant else value


def corner_points(length: int, k: int, entropy) -> tuple[tuple[Fraction, ...], ...]:
    """Extreme points of region(L, k, H), built recursively: the all-equal
    point (when it is extreme) plus a zero coordinate prepended to every
    corner of the one-smaller region."""
    _check_lk(length, k)
    h = _frac(entropy)
    if h < 0:
        raise ParameterError("entropy must be nonnegative")
    pts: set[tuple[Fraction, ...]] = set()
    if k < length or length == 1:
        pts.add((Fraction(h, k),) * length)
    if k >= 2:
        for sub in corner_points(length - 1, k - 1, h):
            for pos in range(length):
                pts.add(sub[:pos] + (_ZERO,) + sub[pos:])
    return tuple(sorted(pts))


def vertices_brute_force(system: InequalitySystem,
                         params: Mapping | None = None) -> tuple[tuple[Fraction, ...], ...]:
    """All extreme points of a (numeric) system, by solving every full-rank
    combination of dim tight rows and keeping the feasible solutions."""
    n = system.dim
    rows = [(list(r.coeffs), r.bound.evaluate(params or {})) for r in system.rows]
    found = set()
    for combo in combinations(range(len(rows)), n):
        a = [rows[i][0] for i in combo]
        b = [rows[i][1] for i in combo]
        x = _solve_exact(a, b)
        if x is None:
            continue
        if all(sum(c * v for c, v in zip(coeffs, x)) >= bound
               for coeffs, bound in rows):
            found.add(tuple(x))
    return tuple(sorted(found))


def _solve_exact(a, b):
    """Fraction Gaussian elimination; None when the matrix is singular."""
    n = len(a)
    m = [[Fraction(v) for v in row] + [Fraction(bv)] for row, bv in zip(a, b)]
    for c in range(n):
        piv = next((r for r in range(c, n) if m[r][c] != 0), None)
        if piv is None:
            return None
        m[c], m[piv] = m[piv], m[c]
        inv = 1 / m[c][c]
        m[c] = [v * inv for v in m[c]]
        for r in range(n):
            if r != c and m[r][c]:
                f = m[r][c]
                m[r] = [v - f * w for v, w in zip(m[r], m[c])]
    return [m[r][n] for r in range(n)]


# --- Fourier-Motzkin ------------------------------------------------------------

def fm_eliminate(system: InequalitySystem, targets: Sequence,
                 max_rows: int = 50_000) -> InequalitySystem:
    """Project out the target variables one at a time.

    Each elimination pairs every row where the variable appears positively
    with every row where it appears negatively; max_rows bounds the row
    count a single step may produce before pruning.
    """
    current = system.canonical()
    for target in targets:
        j = current._var_index(target)
        pos, neg, rest = [], [], []
        for r in current.rows:
            c = r.coeffs[j]
            if c > 0:
                pos.append(r)
            elif c < 0:
                neg.append(r)
            else:
                rest.append(r)
        produced = len(rest) + len(pos) * len(neg)
        if produced > max_rows:
            raise RowBudgetError(
                f"eliminating {current.var_names[j]} would produce "
                f"{produced} rows (budget {max_rows})")
        new_rows = list(rest)
        for p in pos:
            sp = 1 / p.coeffs[j]
            for q in neg:
                sq = -1 / q.coeffs[j]
                coeffs = tuple(cp * sp + cq * sq
                               for cp, cq in zip(p.coeffs, q.coeffs))
                bound = p.bound * sp + q.bound * sq
                new_rows.append(Inequality(coeffs, bound))
        names = current.var_names[:j] + current.var_names[j + 1:]
        trimmed = [Inequality(r.coeffs[:j] + r.coeffs[j + 1:], r.bound)
                   for r in new_rows]
        current = InequalitySystem(names, tuple(trimmed)).canonical()
    return current


# --- multilevel (superposed) regions ----------------------------------------------

def default_entropy_names(count: int) -> tuple[str, ...]:
    return tuple(f"H{k}" for k in range(1, count + 1))


def superposition_extended_system(length: int, n_wiretap: int,
                                  entropies=None) -> InequalitySystem:
    """Layered-scheme constraints before projection.

    Variables are the encoder totals R1..RL followed by the per-layer
    rates Yk_l for layers 1..K-1 (layer K's rate is the total minus the
    rest, so it needs no variable of its own).  Source k's layer must sit
    inside region(L, k, H_k)."""
    if not 0 <= n_wiretap < length:
        raise ParameterError(f"need 0 <= N < L, got N={n_wiretap}, L={length}")
    k_count = length - n_wiretap
    if entropies is None:
        entropies = default_entropy_names(k_count)
    hs = [LinExpr.coerce(h) for h in entropies]
    if len(hs) != k_count:
        raise ParameterError(f"need {k_count} entropies, got {len(hs)}")

    totals = rate_var_names(length)
    layer_vars = [tuple(f"Y{k}_{l}" for l in range(1, length + 1))
                  for k in range(1, k_count)]
    names = totals + tuple(v for layer in layer_vars for v in layer)
    dim = len(names)
    idx = {name: i for i, name in enumerate(names)}

    def row(weights: dict[str, Fraction], bound) -> Inequality:
        coeffs = [_ZERO] * dim
        for nm, w in weights.items():
            coeffs[idx[nm]] = Fraction(w)
        return Inequality(tuple(coeffs), LinExpr.coerce(bound))

    def last_layer_weight(l: int) -> dict[str, Fraction]:
        w = {totals[l]: Fraction(1)}
        for layer in layer_vars:
            w[layer[l]] = Fraction(-1)
        return w

    rows = []
    for l in range(length):
        rows.append(row({totals[l]: Fraction(1)}, 0))
        rows.append(row(last_layer_weight(l), 0))
        for layer in layer_vars:
            rows.append(row({layer[l]: Fraction(1)}, 0))
    for k in range(1, k_count):
        layer = layer_vars[k - 1]
        for subset in combinations(range(length), k):
            rows.append(row({layer[l]: Fraction(1) for l in subset}, hs[k - 1]))
    for subset in combinations(range(length), k_count):
        weights: dict[str, Fraction] = {}
        for l in subset:
            for nm, w in last_layer_weight(l).items():
                weights[nm] = weights.get(nm, _ZERO) + w
        rows.append(row(weights, hs[k_count - 1]))

    return InequalitySystem.make(names, rows)


def superposition_region(length: int, n_wiretap: int, entropies=None,
                         max_rows: int = 50_000) -> InequalitySystem:
    """Total-rate region of the layered scheme: source k is protected by
    its own threshold-k code, and each encoder's rate is split across the
    layers.  The per-layer rates are projected out by Fourier-Motzkin."""
    extended = superposition_extended_system(length, n_wiretap, entropies)
    eliminate = [v for v in extended.var_names if v.startswith("Y")]
    return fm_eliminate(extended, eliminate, max_rows=max_rows)


def smdc_min_sum_rate(length: int, n_wiretap: int, entropies):
    """Minimum total rate of the layered scheme: sum over sources of
    (L/k) * H_k."""
    if not 0 <= n_wiretap < length:
        raise ParameterError(f"need 0 <= N < L, got N={n_wiretap}, L={length}")
    k_count = length - n_wiretap
    hs = [LinExpr.coerce(h) for h in entropies]
    if len(hs) != k_count:
        raise ParameterError(f"need {k_count} entropies, got {len(hs)}")
    total = LinExpr()
    for k, h in enumerate(hs, start=1):
        total = total + h * Fraction(length, k)
    return total.constant_value() if total.is_constant else total
