"""Rate-region tests: frozen geometry, the combined region against its
Fourier-Motzkin projection, LP cross-checks."""

import json
import random
from fractions import Fraction
from itertools import permutations, product

import pytest

from region_oracle import (RowBudgetError, chamber_rays_by_subsets,
                           exposed_face_rank_by_arrangements, fm_eliminate,
                           fm_superposition_region, is_impossible,
                           is_trivially_infeasible, lp_minimum, rank_by_fractions,
                           superposition_extended_system,
                           tight_rows_by_arrangements, zero_slice)
from smdc.errors import ParameterError
from smdc.exactlp import OPTIMAL, solve_lp
from smdc.region import (
    Inequality,
    InequalitySystem,
    LinExpr,
    _chamber_rays,
    _echelon,
    _exposed_face_rank,
    _facet_orbits,
    _one_level,
    _tight_rows,
    corner_points,
    min_sum_rate,
    region,
    smdc_min_sum_rate,
    superposition_corner_points,
    superposition_region,
    vertices_brute_force,
    violated_subsets,
)

F = Fraction


# --- symbolic expressions ----------------------------------------------------

def test_linexpr_algebra():
    h1, h2 = LinExpr.param("H1"), LinExpr.param("H2")
    e = 2 * h1 + h2 - h1 + F(1, 2)
    assert e.evaluate({"H1": 3, "H2": F(1, 3)}) == 3 + F(1, 3) + F(1, 2)
    assert (h1 - h1).is_constant
    assert str(2 * h1 + h2) == "2*H1 + H2"


def test_linexpr_order_certificates():
    h1, h2 = LinExpr.param("H1"), LinExpr.param("H2")
    assert h2.provably_le(h1 + h2)
    assert LinExpr.constant(0).provably_le(h1)
    assert not (h1 + h2).provably_le(2 * h1)  # H2 > 2 H1 is possible
    # 0 >= H1 + 1 fails for every entropy, 0 >= H1 not at H1 = 0
    assert is_impossible(Inequality.make([0], h1 + 1))
    assert not is_impossible(Inequality.make([0], h1))


def test_linexpr_rejects_floats():
    with pytest.raises(ParameterError):
        LinExpr.constant(0.5)


# --- single-code regions -------------------------------------------------------

def test_region_membership_and_witnesses():
    r = region(3, 2, 1)
    assert r.contains([F(1, 2), F(1, 2), F(1, 2)])
    assert r.contains([1, 1, 0])
    assert not r.contains([1, F(1, 4), F(1, 2)])
    assert violated_subsets(r, [1, F(1, 4), F(1, 2)]) == [(2, 3)]


def test_region_witness_for_single_threshold():
    # one source over three encoders, decodable from any single output:
    # halving one rate breaks exactly that encoder's subset row
    h = F(7, 3)
    r = region(3, 1, h)
    bad = [h, h / 2, h]
    assert violated_subsets(r, bad) == [(2,)]


def test_region_symbolic_membership():
    r = region(2, 1, "H")
    assert r.contains([3, 5], params={"H": 3})
    assert not r.contains([3, 5], params={"H": 4})


def test_min_sum_rate_formula_and_lp_agree():
    for length, k, h in ((3, 2, F(5, 4)), (6, 4, 1), (4, 1, F(2, 7))):
        res = lp_minimum(region(length, k, h), [1] * length)
        assert res.status == OPTIMAL
        assert min_sum_rate(length, k, h) == res.objective
    assert min_sum_rate(3, 2, F(5, 4)) == F(3, 2) * F(5, 4)
    assert min_sum_rate(6, 4, 1) == F(3, 2)
    assert min_sum_rate(4, 1, F(2, 7)) == F(8, 7)
    sym = min_sum_rate(5, 3, "H")
    assert sym == LinExpr.param("H") * F(5, 3)


def test_min_sum_rate_rejects_bad_threshold():
    with pytest.raises(ParameterError):
        min_sum_rate(3, 4, 1)
    with pytest.raises(ParameterError):
        region(3, 0, 1)


# --- corner points ---------------------------------------------------------------

def test_corner_points_frozen_cases():
    h = F(1)
    assert corner_points(3, 1, h) == (((1, 1, 1)),)
    assert corner_points(2, 2, h) == ((0, 1), (1, 0))
    assert set(corner_points(3, 2, h)) == {
        (0, 1, 1), (1, 0, 1), (1, 1, 0), (F(1, 2), F(1, 2), F(1, 2))}
    assert set(corner_points(3, 3, h)) == {(0, 0, 1), (0, 1, 0), (1, 0, 0)}


@pytest.mark.parametrize("length,k", [(2, 1), (2, 2), (3, 2), (3, 3),
                                      (4, 2), (4, 3), (4, 4), (5, 3)])
def test_corner_points_match_brute_force(length, k):
    h = F(3, 2)
    got = corner_points(length, k, h)
    want = vertices_brute_force(region(length, k, h))
    assert got == want


def test_corner_points_all_in_region_and_hit_min_sum():
    h = F(2)
    for length, k in [(3, 2), (4, 3), (5, 2)]:
        r = region(length, k, h)
        pts = corner_points(length, k, h)
        assert all(r.contains(p) for p in pts)
        assert min(sum(p) for p in pts) == min_sum_rate(length, k, h)


@pytest.mark.parametrize("corners", [
    lambda: superposition_corner_points(3, 1, ["H1", "H2"]),
    lambda: corner_points(3, 2, "H"),
    lambda: superposition_corner_points(3, 1, None),
], ids=["symbolic", "one_level_symbolic", "none"])
def test_corners_need_numeric_entropies(corners):
    with pytest.raises(ParameterError, match="numeric entropies"):
        corners()


# --- canonicalization and slices ---------------------------------------------------

def test_canonical_scales_and_dedupes():
    rows = [Inequality.make([F(1, 2), F(1, 2)], F(1, 2)),
            Inequality.make([1, 1], 1),
            Inequality.make([2, 0], 0),
            Inequality.make([1, 0], 0)]
    sys_ = InequalitySystem.make(("R1", "R2"), rows).canonical()
    assert len(sys_.rows) == 2
    assert sys_.rows[1].coeffs == (1, 1)


def test_canonical_drops_dominated_subset_rows():
    # a looser bound on the same coefficients is implied
    rows = [Inequality.make([1, 1], 2), Inequality.make([1, 1], 1)]
    sys_ = InequalitySystem.make(("R1", "R2"), rows).canonical()
    assert len(sys_.rows) == 1
    assert sys_.rows[0].bound.constant_value() == 2


@pytest.mark.parametrize("length,k", [(3, 2), (4, 2), (4, 3), (5, 3)])
def test_zero_slice_is_one_smaller_region(length, k):
    h = F(5, 2)
    big = region(length, k, h)
    small = region(length - 1, k - 1, h).canonical()
    for var in big.var_names:
        assert zero_slice(big, var).rows == small.rows


def test_zero_slice_of_threshold_one_region_is_infeasible():
    sliced = zero_slice(region(3, 1, 1), "R2")
    assert is_trivially_infeasible(sliced)


def test_zero_slice_symbolic_keeps_condition_row():
    sliced = zero_slice(region(3, 1, "H"), "R1")
    # 0 >= H survives as a condition; it is not provably impossible since
    # H = 0 satisfies it
    assert not is_trivially_infeasible(sliced)
    assert any(not r.coeffs or all(c == 0 for c in r.coeffs) for r in sliced.rows)


# --- Fourier-Motzkin ------------------------------------------------------------

def test_fm_textbook_elimination():
    rows = [Inequality.make([1, 1], 1),      # x + y >= 1
            Inequality.make([0, -1], -1),    # y <= 1
            Inequality.make([0, 1], 0)]      # y >= 0
    sys_ = InequalitySystem.make(("x", "y"), rows)
    out = fm_eliminate(sys_, ["y"])
    assert out.var_names == ("x",)
    assert out.rows == (Inequality.make([1], 0),)


def test_fm_row_budget():
    rows = [Inequality.make([1, 1], 1), Inequality.make([-1, 1], 0),
            Inequality.make([2, 1], 1), Inequality.make([-3, 1], 0)]
    sys_ = InequalitySystem.make(("x", "y"), rows)
    with pytest.raises(RowBudgetError):
        fm_eliminate(sys_, ["x"], max_rows=1)


def test_fm_projection_preserves_membership():
    # project region(3,2) onto two coordinates and compare against the
    # definition of a shadow: a point is in the projection iff some
    # completion of it lies in the full region
    r = region(3, 2, 1)
    proj = fm_eliminate(r, ["R3"])
    step = F(1, 2)
    for i in range(5):
        for j in range(5):
            p = (i * step, j * step)
            direct = any(r.contains(p + (t * step,)) for t in range(9))
            assert proj.contains(p) == direct


# --- superposed multilevel regions ---------------------------------------------

SIX_ROWS_3_1 = {
    ((1, 0, 0), "H1"), ((0, 1, 0), "H1"), ((0, 0, 1), "H1"),
    ((1, 1, 0), "2*H1 + H2"), ((1, 0, 1), "2*H1 + H2"), ((0, 1, 1), "2*H1 + H2"),
}


def test_superposition_region_3_1_symbolic():
    got = superposition_region(3, 1)
    rows = {(tuple(int(c) for c in r.coeffs), str(r.bound)) for r in got.rows}
    assert rows == SIX_ROWS_3_1


def test_superposition_region_3_1_numeric_matches_evaluated_symbolic():
    sym = superposition_region(3, 1)
    for h1, h2 in [(1, 1), (F(3, 2), F(1, 3)), (2, 5)]:
        num = superposition_region(3, 1, [h1, h2])
        assert num.rows == sym.evaluate({"H1": h1, "H2": h2}).canonical().rows


def test_superposition_single_source_collapses():
    got = superposition_region(2, 1, ["H1"])
    want = region(2, 1, "H1").canonical()
    assert got.rows == want.rows


@pytest.mark.parametrize("length,n", [(3, 1), (4, 2), (4, 1), (5, 2)])
def test_smdc_min_sum_rate_matches_extended_lp(length, n):
    k_count = length - n
    hs = [F(2 * k + 1, k + 2) for k in range(1, k_count + 1)]
    ext = superposition_extended_system(length, n, hs)
    objective = [1] * length + [0] * (ext.dim - length)
    res = lp_minimum(ext, objective)
    assert res.status == OPTIMAL
    assert res.objective == smdc_min_sum_rate(length, n, hs)


def test_smdc_min_sum_rate_symbolic():
    got = smdc_min_sum_rate(3, 1, ["H1", "H2"])
    assert got == 3 * LinExpr.param("H1") + F(3, 2) * LinExpr.param("H2")


# --- serialization -----------------------------------------------------------------

def test_json_round_trip():
    sys_ = superposition_region(3, 1)
    def round_trip(system):
        text = json.dumps(system.to_json_dict())
        return InequalitySystem.from_json_dict(json.loads(text))

    assert round_trip(sys_) == sys_
    num = region(4, 2, F(7, 5)).canonical()
    assert round_trip(num) == num


# --- the combined region against Fourier-Motzkin ---------------------------------

def _implied(rows, coeffs, bound) -> bool:
    """Exact LP: does coeffs . x >= bound follow from rows, x free?"""
    split = [list(r.coeffs) + [-c for c in r.coeffs] for r in rows]
    res = solve_lp(list(coeffs) + [-c for c in coeffs], a_ge=split,
                   b_ge=[r.bound.constant_value() for r in rows])
    return res.status == OPTIMAL and res.objective >= bound


# (L, N, entropies): every shape where the projection finishes quickly,
# with entropies that differ per level, and two with an empty level
FM_SHAPES = [
    (2, 1, [F(3, 2)]),
    (3, 0, [F(1), F(2, 3), F(5, 4)]),
    (3, 1, [F(2), F(1, 3)]),
    (3, 2, [F(7, 5)]),
    (4, 1, [F(1), F(1), F(1)]),
    (4, 2, [F(3, 2), F(1)]),
    (4, 3, [F(2)]),
    (3, 0, [F(1), F(0), F(2)]),
    (4, 2, [F(0), F(1)]),
]


@pytest.mark.parametrize("length,n,hs", FM_SHAPES)
def test_facets_equal_fm_rows_after_lp_pruning(length, n, hs):
    new = superposition_region(length, n, hs)
    fm = fm_superposition_region(length, n, hs)
    # every facet is a row of any description of the same region ...
    assert set(new.rows) <= set(fm.rows)
    # ... the facets alone cut out the projection: each corner of the new
    # system (brute force) satisfies every projected row, whose
    # coefficients are nonnegative like the facets' ...
    assert all(c >= 0 for r in fm.rows for c in r.coeffs)
    assert all(fm.contains(x) for x in vertices_brute_force(new))
    # ... and no facet follows from the others, so exact-LP pruning of the
    # projection leaves exactly the facets.  The rows are closed under
    # permuting the encoders, so one row per orbit is enough.
    rows = set(new.rows)
    assert rows == {Inequality(tuple(r.coeffs[i] for i in perm), r.bound)
                    for r in rows for perm in permutations(range(length))}
    for r in rows:
        if list(r.coeffs) == sorted(r.coeffs):
            others = [o for o in new.rows if o != r]
            assert not _implied(others, r.coeffs, r.bound.constant_value())


@pytest.mark.parametrize("length,n", [(3, 0), (3, 1), (3, 2), (4, 2), (4, 3),
                                      (5, 3)])
def test_membership_agrees_with_fm_on_random_points(length, n):
    rng = random.Random(1000 * length + n)
    for _ in range(3):
        hs = [F(rng.randrange(0, 7), rng.randrange(1, 4))
              for _ in range(length - n)]
        new = superposition_region(length, n, hs)
        fm = fm_superposition_region(length, n, hs)
        top = sum(hs) + 1
        for _ in range(40):
            point = [F(rng.randrange(0, 4 * int(top) + 1), 4)
                     for _ in range(length)]
            assert new.contains(point) == fm.contains(point), (hs, point)


def test_symbolic_rows_evaluate_to_numeric_rows():
    sym = superposition_region(4, 1)
    for hs in ([1, 1, 1], [F(1, 2), 3, F(2, 7)]):
        values = dict(zip(("H1", "H2", "H3"), hs))
        assert superposition_region(4, 1, hs).rows == sym.evaluate(values).rows


@pytest.mark.parametrize("length,n", [(2, 1), (3, 0), (3, 1), (4, 0), (4, 1),
                                      (4, 2), (5, 1), (5, 3), (6, 3)])
def test_combined_system_is_already_canonical(length, n):
    got = superposition_region(length, n, [1] * (length - n))
    assert got == got.canonical()


def test_combined_region_reaches_where_fm_stops():
    # the projection runs past its row budget at (4,0) and (6,3)
    for length, n, rows in ((4, 0, 53), (6, 3, 101)):
        hs = [F(k + 1, 3) for k in range(length - n)]
        got = superposition_region(length, n, hs)
        assert len(got.rows) == rows
        corners = superposition_corner_points(length, n, hs)
        assert all(got.contains(x) for x in corners)
        assert min(sum(x) for x in corners) == smdc_min_sum_rate(length, n, hs)


@pytest.mark.parametrize("length,n", [(2, 0), (3, 0), (3, 1), (4, 0), (4, 1),
                                      (4, 2), (5, 1), (5, 2), (5, 3), (6, 3),
                                      (6, 4)])
def test_chamber_walk_finds_every_facet_of_the_subset_search(length, n):
    levels = tuple(range(1, length - n + 1))
    want = set()
    for ray in chamber_rays_by_subsets(length, levels):
        if _exposed_face_rank(ray, levels) == length - 1:
            scale = 1 / min(a for a in ray if a != 0)
            want.add(tuple(a * scale for a in ray))
    got = {tuple(F(a, min(v for v in alpha if v)) for a in alpha)
           for alpha, _ in _facet_orbits(length, levels)}
    assert got == want


@pytest.mark.parametrize("length,n", [(length, n) for length in range(1, 7)
                                      for n in range(length)])
def test_spanning_swaps_give_the_rank_of_every_arrangement(length, n):
    # the rank of a face or of the rows tight at a corner candidate, from a
    # base arrangement plus one swap per tied position, against every
    # arrangement of the ties ranked over Fractions
    levels = tuple(range(1, length - n + 1))
    for ray in _chamber_rays(length, levels):
        want = exposed_face_rank_by_arrangements(ray, levels)
        assert _exposed_face_rank(ray, levels) == want, ray
    orbits = [(alpha, sum(weights))
              for alpha, weights in _facet_orbits(length, levels)]
    for zs in product(*(range(k) for k in levels)):
        x = tuple(sum((F(1, k - z) for k, z in zip(levels, zs) if i < length - z),
                      F(0)) for i in range(length))
        want = rank_by_fractions(tight_rows_by_arrangements(x, orbits))
        assert len(_echelon(_tight_rows(x, orbits))[1]) == want, x


@pytest.mark.parametrize("length", range(1, 9))
def test_single_level_rows_are_the_one_level_combined_rows(length):
    for k in range(1, length + 1):
        for n in {0, length - k}:
            for h in (F(0), F(1), F(3, 2)):
                got = superposition_region(length, n, _one_level(length - n, k, h))
                assert got == region(length, k, h).canonical(), (k, n, h)


def test_one_level_refuses_a_level_beyond_l_minus_n():
    assert _one_level(3, 2, F(1)) == [0, F(1), 0]
    for count, k in ((0, 1), (-2, 1), (2, 3), (2, 0)):
        with pytest.raises(ParameterError):
            _one_level(count, k, F(1))


def test_one_level_rows_are_distinct_orderings():
    # 12 rows from the orderings of each facet normal, not 12! permutations
    assert len(superposition_region(12, 11, [1]).rows) == 12


CORNER_SHAPES = [(3, 0, [1, 1, 1]), (3, 1, [1, 1]), (3, 1, [2, F(1, 3)]),
                 (4, 2, [F(3, 2), 1]), (5, 3, [1, 2]), (3, 0, [1, 0, 2])]


@pytest.mark.parametrize("length,n,hs", CORNER_SHAPES)
def test_combined_corners_match_brute_force_of_fm(length, n, hs):
    got = superposition_corner_points(length, n, hs)
    fm = fm_superposition_region(length, n, hs)
    assert got == vertices_brute_force(fm)
    new = superposition_region(length, n, hs)
    if new != fm:
        assert got == vertices_brute_force(new)


def test_combined_region_rejects_negative_entropy():
    with pytest.raises(ParameterError):
        superposition_region(3, 1, [1, -1])


# --- integer rows and the integer membership test ---------------------------------

def _probe_points(rng, system, corners, params=None):
    """Boundary points (corners), points pushed inside or outside from
    them, random points and points with a negative coordinate."""
    dim = system.dim
    points = [list(c) for c in corners]
    for c in corners:
        step = F(rng.randrange(1, 50), rng.choice([1, 3, 7, 1_000_003]))
        points.append([v + step for v in c])
        points.append([v - step for v in c])
        points.append([v - step if i == rng.randrange(dim) else v
                       for i, v in enumerate(c)])
    for _ in range(30):
        points.append([F(rng.randrange(-5, 40), rng.choice([1, 2, 9, 2 ** 61 - 1]))
                       for _ in range(dim)])
    points.append([rng.randrange(0, 5) for _ in range(dim - 1)] + [-1])
    return points


def _assert_rows_agree(system, points, params=None):
    verdicts = set()
    for point in points:
        want = [r for r in system.rows if not r.satisfied_by(point, params)]
        assert system.violated_rows(point, params) == want, point
        assert system.contains(point, params) == (not want)
        verdicts.add(not want)
    assert verdicts == {True, False}


@pytest.mark.parametrize("length,n,hs", CORNER_SHAPES + [
    (5, 1, [F(1, 3), 0, F(5, 2), 1]), (6, 2, [1, F(2, 5), 0, 3])])
def test_violated_rows_match_satisfied_by_on_combined_regions(length, n, hs):
    rng = random.Random(length * 10 + n)
    system = superposition_region(length, n, hs)
    corners = superposition_corner_points(length, n, hs)
    _assert_rows_agree(system, _probe_points(rng, system, corners))


@pytest.mark.parametrize("length,k,h", [(3, 2, F(1)), (4, 1, F(7, 3)),
                                        (5, 3, F(2, 1_000_003))])
def test_violated_rows_match_satisfied_by_on_single_code_regions(length, k, h):
    rng = random.Random(length * 10 + k)
    system = region(length, k, h)
    _assert_rows_agree(system, _probe_points(rng, system,
                                             corner_points(length, k, h)))


def test_violated_rows_match_satisfied_by_on_symbolic_bounds():
    rng = random.Random(3)
    system = superposition_region(4, 1)
    for hs in ([1, 1, 1], [F(1, 2), 3, F(2, 7)], [0, F(5, 3), 0]):
        params = dict(zip(("H1", "H2", "H3"), hs))
        corners = superposition_corner_points(4, 1, hs)
        _assert_rows_agree(system, _probe_points(rng, system, corners),
                           params)
    with pytest.raises(ParameterError):
        system.violated_rows([1, 1, 1, 1], {"H1": 1})


def test_violated_rows_match_satisfied_by_on_fractional_rows():
    # rows read back from JSON, each scaled by its own positive fraction,
    # keep the Fraction path and the region
    rng = random.Random(4)
    data = superposition_region(4, 1, [1, F(1, 2), 2]).to_json_dict()
    for row in data["rows"]:
        a, d = rng.randrange(1, 5), rng.choice([3, 10 ** 9 + 7])
        row["coeffs"] = [[n * a, den * d] for n, den in row["coeffs"]]
        n, den = row["bound"]["const"]
        row["bound"]["const"] = [n * a, den * d]
    system = InequalitySystem.from_json_dict(data)
    assert any(type(c) is F and c.denominator > 1
               for r in system.rows for c in r.coeffs)
    corners = superposition_corner_points(4, 1, [1, F(1, 2), 2])
    _assert_rows_agree(system, _probe_points(rng, system, corners))


@pytest.mark.parametrize("length,n,hs", [(3, 0, [1, 1, 1]), (4, 1, None),
                                         (5, 2, [F(1, 2), 0, 3]),
                                         (6, 3, [1, 1, 1])])
def test_integer_rows_act_like_their_fraction_twins(length, n, hs):
    system = superposition_region(length, n, hs)
    assert all(type(c) is int for r in system.rows for c in r.coeffs)
    twins = InequalitySystem(system.var_names, tuple(
        Inequality(tuple(map(F, r.coeffs)), r.bound) for r in system.rows))
    assert all(type(c) is F for r in twins.rows for c in r.coeffs)
    assert twins == system and hash(twins) == hash(system)
    for r, t in zip(system.rows, twins.rows):
        assert r == t and hash(r) == hash(t)
        assert r.sort_key() == t.sort_key()
        assert r.render(system.var_names) == t.render(system.var_names)
    assert twins.render() == system.render()
    assert twins.to_json_dict() == system.to_json_dict()
    assert json.dumps(twins.to_json_dict()) == json.dumps(system.to_json_dict())
    assert sorted(twins.rows, key=Inequality.sort_key) == list(system.rows)
    assert InequalitySystem.from_json_dict(system.to_json_dict()) == system
