"""Reference constructions for the combined rate region, used only by tests.

The layered scheme gives every level k its own rate vector inside
region(L, k, H_k), and the encoder totals are their sum.  Projecting the
per-level rates out of that lifted system by Fourier-Motzkin elimination
gives the combined region the slow, obvious way; `smdc.region` computes
it from its support function instead.  The chamber-ray enumeration here
tries every (L-1)-subset of the sorted chamber's walls and of every
pairwise breakpoint of every level.
"""

from fractions import Fraction
from itertools import combinations
from typing import Sequence

from smdc.errors import ParameterError, SmdcError
from smdc.region import Inequality, InequalitySystem, LinExpr, rate_var_names

_ZERO = Fraction(0)


class RowBudgetError(SmdcError):
    """An elimination step would produce more rows than its budget."""


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
        entropies = [f"H{k}" for k in range(1, k_count + 1)]
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


def fm_superposition_region(length: int, n_wiretap: int, entropies=None,
                            max_rows: int = 50_000) -> InequalitySystem:
    """The combined region by projecting the lifted system: every row FM
    keeps, redundant ones included."""
    extended = superposition_extended_system(length, n_wiretap, entropies)
    eliminate = [v for v in extended.var_names if v.startswith("Y")]
    return fm_eliminate(extended, eliminate, max_rows=max_rows)


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


def chamber_rays_by_subsets(length: int, levels) -> set[tuple[Fraction, ...]]:
    """Rays of the sorted chamber cut by every pairwise breakpoint
    (k-z') S_{L-z} = (k-z) S_{L-z'} of every level, from every (L-1)-subset
    of those hyperplanes and the walls; first nonzero entry scaled to 1."""
    def prefix(j):
        return [Fraction(1) if i < j else _ZERO for i in range(length)]

    forms = [[Fraction(1)] + [_ZERO] * (length - 1)]
    for p in range(1, length):
        forms.append([Fraction(1) if i == p else Fraction(-1) if i == p - 1
                      else _ZERO for i in range(length)])
    for k in levels:
        for z, z2 in combinations(range(k), 2):
            forms.append([(k - z2) * a - (k - z) * b for a, b in
                          zip(prefix(length - z), prefix(length - z2))])
    rays = set()
    for subset in combinations(forms, length - 1):
        for j in range(length):
            unit = [Fraction(i == j) for i in range(length)]
            x = _solve_exact(list(subset) + [unit],
                             [_ZERO] * (length - 1) + [Fraction(1)])
            if x is None:
                continue
            lead = next(v for v in x if v != 0)
            x = [v / lead for v in x]
            if x[0] >= 0 and all(a <= b for a, b in zip(x, x[1:])):
                rays.add(tuple(x))
            break
    return rays
