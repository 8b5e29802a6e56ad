"""End-to-end acceptance checks, one per numbered criterion.

Everything here is exact rational or exhaustive-combinatorial; the only
tolerances anywhere are the keygen chi-square (tested with the field
arithmetic) and the 1e-12 float-vs-exact entropy agreement flag.  Each
test appends a one-line verdict that pytest prints in its summary.
"""

import random
from fractions import Fraction
from itertools import combinations, product
from time import monotonic

from region_oracle import superposition_extended_system
from smdc.cli import EXIT_INFEASIBLE, EXIT_OK, entry
from smdc.coset import CosetCodeSpec
from smdc.errors import RegionViolationError
from smdc.exactlp import OPTIMAL
from smdc.fields import GF5, binary8_field, prime_field
from smdc.multilevel import SmdcParams, encode as smdc_encode, plan, rate_of
from smdc.region import (min_sum_rate, rate_var_names, region,
                         smdc_min_sum_rate, superposition_region,
                         corner_points, vertices_brute_force)
from smdc.single_level import encode_with_layout, rate_layout, symmetric_layout
from smdc.verify import (check_perfect_secrecy, check_prop2_inequality,
                         check_reconstruction, code_for_layout,
                         code_for_multilevel, enumerate_joint)
from smdc.wiretap import (WiretapNetwork, achievable_secrecy_rate,
                          mincut_to_user, mincut_to_wiretap)

F = Fraction

SINGLE_LEVEL_INSTANCES = [
    # (length, wiretap, threshold, message symbols), all over GF(5)
    (2, 1, 2, 2),
    (3, 1, 2, 2),
    (3, 1, 3, 2),
    (4, 1, 3, 2),
    (4, 2, 3, 1),
]

MULTILEVEL_INSTANCES = [
    # (length, wiretap, source symbol counts), q = 5
    (3, 1, (1, 2)),
    (4, 2, (1, 2)),
]

_multilevel_cache = {}


def _multilevel_dist(length, wiretap, lengths):
    key = (length, wiretap, lengths)
    if key not in _multilevel_cache:
        params = SmdcParams(GF5, length, wiretap, lengths)
        code = code_for_multilevel(plan(params))
        _multilevel_cache[key] = (code, enumerate_joint(code))
    return _multilevel_cache[key]


def _run(num, report, body, cap_seconds=None):
    t0 = monotonic()
    try:
        detail, failures = body()
    except Exception as exc:
        line = f"criterion {num}: FAIL ({type(exc).__name__}: {exc})"
        report(line)
        print(line)
        raise
    elapsed = monotonic() - t0
    if cap_seconds is not None and elapsed > cap_seconds:
        failures.append(f"runtime {elapsed:.1f}s over the {cap_seconds}s cap")
    verdict = "PASS" if not failures else "FAIL"
    line = f"criterion {num}: {verdict} ({detail}; {elapsed:.1f}s)"
    report(line)
    print(line)
    assert not failures, f"criterion {num}: " + "; ".join(failures[:5])


def _exhaustive_layout_check(layout):
    """Secrecy for every tap set up to N, reconstruction from every
    subset of at least threshold outputs."""
    code = code_for_layout(layout)
    dist = enumerate_joint(code)
    length, wiretap = code.length, code.wiretap
    threshold = layout.params.threshold
    encoders = range(1, length + 1)
    for size in range(1, wiretap + 1):
        for tapped in combinations(encoders, size):
            if not check_perfect_secrecy(dist, tapped).ok:
                return f"secrecy fails for taps {tapped}"
    for size in range(threshold, length + 1):
        for subset in combinations(encoders, size):
            if not check_reconstruction(code, dist, subset, 1).ok:
                return f"reconstruction fails from {subset}"
    return None


def test_criterion_1_rate_acceptance_matches_region(criterion_report):
    def body():
        failures = []
        accepted_total = 0
        verified = 0
        grid = [F(j, 4) for j in range(9)]
        for length, wiretap, threshold, h in SINGLE_LEVEL_INSTANCES:
            k = threshold - wiretap
            params = CosetCodeSpec(GF5, length, wiretap, threshold)
            unit = region(length, k, 1)
            scaled = region(length, k, F(3, 2))
            message = list(range(1, h + 1))
            checked_layouts = {}
            for point in product(grid, repeat=length):
                member = unit.contains(point)
                bigger = tuple(r * F(3, 2) for r in point)
                if scaled.contains(bigger) != member:
                    failures.append(f"{point} scales inconsistently")
                try:
                    bundle = encode_with_layout(
                        rate_layout(params, len(message), point), message,
                        source=0)
                    ok = True
                except RegionViolationError:
                    ok = False
                if ok != member:
                    failures.append(
                        f"({length},{wiretap},{threshold}) at {point}: "
                        f"encoder {'accepted' if ok else 'rejected'}, region "
                        f"says {'inside' if member else 'outside'}")
                    continue
                if not ok:
                    continue
                accepted_total += 1
                layout = bundle.layout
                key = (layout.runs, layout.padded_symbols, layout.key_symbols)
                if key not in checked_layouts:
                    checked_layouts[key] = _exhaustive_layout_check(layout)
                    verified += 1
                if checked_layouts[key] is not None:
                    failures.append(
                        f"({length},{wiretap},{threshold}) at {point}: "
                        + checked_layouts[key])
            del checked_layouts
        detail = (f"{accepted_total} grid points accepted, "
                  f"{verified} distinct layouts verified exhaustively")
        return detail, failures

    _run(1, criterion_report, body, cap_seconds=120)


def test_criterion_2_min_sum_rate_formula_equals_lp(criterion_report):
    def body():
        failures = []
        checked = 0
        for length in range(1, 7):
            for k in range(1, length + 1):
                for entropy in (F(1), F(7, 3)):
                    want = F(length, k) * entropy
                    got = min_sum_rate(length, k, entropy)
                    if got != want:
                        failures.append(f"formula ({length},{k},{entropy})")
                    res = region(length, k, entropy).lp_minimum([1] * length)
                    if res.status != OPTIMAL or res.objective != want:
                        failures.append(f"lp ({length},{k},{entropy})")
                    checked += 1
        return f"{checked} (L,k,H) cases, formula == LP exactly", failures

    _run(2, criterion_report, body)


def test_criterion_3_corners_and_slices(criterion_report):
    def body():
        failures = []
        shapes = 0
        for entropy in (F(1), F(3, 2)):
            for length in range(1, 6):
                for k in range(1, length + 1):
                    sys_ = region(length, k, entropy)
                    brute = set(vertices_brute_force(sys_))
                    recursive = set(corner_points(length, k, entropy))
                    if brute != recursive:
                        failures.append(f"corners ({length},{k},{entropy})")
                    shapes += 1
                    if k >= 2:
                        sliced = sys_.zero_slice(f"R{length}")
                        smaller = region(length - 1, k - 1, entropy).canonical()
                        if sliced.rows != smaller.rows:
                            failures.append(f"slice ({length},{k},{entropy})")
            for var in rate_var_names(3):
                if not region(3, 1, entropy).zero_slice(var).is_trivially_infeasible:
                    failures.append(f"slice of (3,1,{entropy}) at {var} "
                                    f"should be infeasible")
        return f"{shapes} corner sets match brute force, slices check out", failures

    _run(3, criterion_report, body)


def test_criterion_4_wiretap_network_cuts(criterion_report):
    def body():
        failures = []
        networks = 0
        for length in range(2, 7):
            for threshold in range(2, length + 1):
                for wiretap in range(1, threshold):
                    k = threshold - wiretap
                    for entropy in (F(1), F(3, 2)):
                        rate = entropy / k
                        net = WiretapNetwork(length, wiretap, threshold,
                                             (rate,) * length)
                        flow = entropy == F(3, 2)
                        user_want = F(threshold, k) * entropy
                        tap_want = F(wiretap, k) * entropy
                        for u in net.users():
                            if mincut_to_user(net, u, via_flow=flow) != user_want:
                                failures.append(
                                    f"user cut ({length},{wiretap},{threshold})")
                        for a in net.wiretap_sets():
                            if mincut_to_wiretap(net, a, via_flow=flow) != tap_want:
                                failures.append(
                                    f"tap cut ({length},{wiretap},{threshold})")
                        if achievable_secrecy_rate(net, via_flow=flow) != entropy:
                            failures.append(
                                f"secrecy ({length},{wiretap},{threshold})")
                        networks += 1
        return f"{networks} symmetric networks, cuts and flows agree", failures

    _run(4, criterion_report, body)


def test_criterion_5_multilevel_sum_rate(criterion_report):
    def body():
        failures = []
        rng = random.Random(20260515)
        lp_checked = 0
        for length in range(2, 7):
            for wiretap in range(1, length):
                k_count = length - wiretap
                hs = [F(rng.randrange(0, 10), rng.randrange(1, 7))
                      for _ in range(k_count)]
                want = sum(F(length, k) * h for k, h in enumerate(hs, 1))
                if smdc_min_sum_rate(length, wiretap, hs) != want:
                    failures.append(f"formula ({length},{wiretap})")
                ext = superposition_extended_system(length, wiretap, hs)
                res = ext.lp_minimum([1] * length + [0] * (ext.dim - length))
                if res.status != OPTIMAL or res.objective != want:
                    failures.append(f"lp ({length},{wiretap}) got {res.objective}")
                lp_checked += 1

                # achievability: encode sources whose symbol counts divide
                # evenly and measure the emitted totals
                lengths = tuple(k * rng.randrange(0, 4)
                                for k in range(1, k_count + 1))
                params = SmdcParams(prime_field(7), length, wiretap, lengths)
                sources = [[rng.randrange(7) for _ in range(n)]
                           for n in lengths]
                bundle = smdc_encode(params, sources, source=rng.randrange(999))
                emitted = sum(len(part) for payload in bundle.payloads.values()
                              for part in payload)
                want_symbols = smdc_min_sum_rate(length, wiretap, lengths)
                if emitted != want_symbols:
                    failures.append(
                        f"measured ({length},{wiretap}) emitted {emitted}, "
                        f"minimum is {want_symbols}")
                if sum(rate_of(bundle)) != want_symbols:
                    failures.append(f"rate_of ({length},{wiretap})")

        # the projected (3,1) region supports exactly the same minimum
        for _ in range(3):
            h1 = F(rng.randrange(1, 9), rng.randrange(1, 5))
            h2 = F(rng.randrange(1, 9), rng.randrange(1, 5))
            projected = superposition_region(3, 1, [h1, h2])
            res = projected.lp_minimum([1, 1, 1])
            if res.objective != 3 * h1 + F(3, 2) * h2:
                failures.append(f"projected lp at ({h1},{h2})")
        return (f"{lp_checked} shapes: formula == LP == measured encoding",
                failures)

    _run(5, criterion_report, body)


def test_criterion_6_three_encoder_region_is_six_inequalities(criterion_report):
    SIX = {
        ((1, 0, 0), "H1"), ((0, 1, 0), "H1"), ((0, 0, 1), "H1"),
        ((1, 1, 0), "2*H1 + H2"), ((1, 0, 1), "2*H1 + H2"),
        ((0, 1, 1), "2*H1 + H2"),
    }

    def body():
        failures = []
        sym = superposition_region(3, 1)
        rows = {(tuple(int(c) for c in r.coeffs), str(r.bound))
                for r in sym.rows}
        if rows != SIX:
            failures.append(f"symbolic rows differ: {rows ^ SIX}")
        rng = random.Random(31)
        for _ in range(5):
            h1 = F(rng.randrange(1, 12), rng.randrange(1, 7))
            h2 = F(rng.randrange(1, 12), rng.randrange(1, 7))
            num = superposition_region(3, 1, [h1, h2])
            got = {(tuple(int(c) for c in r.coeffs), r.bound.evaluate({}))
                   for r in num.rows}
            want = {((1, 0, 0), h1), ((0, 1, 0), h1), ((0, 0, 1), h1),
                    ((1, 1, 0), 2 * h1 + h2), ((1, 0, 1), 2 * h1 + h2),
                    ((0, 1, 1), 2 * h1 + h2)}
            if got != want:
                failures.append(f"numeric rows differ at ({h1},{h2})")
        return "six inequalities, symbolic and five numeric instances", failures

    _run(6, criterion_report, body)


def test_criterion_7_exhaustive_secrecy(criterion_report):
    def body():
        failures = []
        passes, leaks = 0, 0
        for length, wiretap, threshold, h in SINGLE_LEVEL_INSTANCES:
            params = CosetCodeSpec(GF5, length, wiretap, threshold)
            code = code_for_layout(symmetric_layout(params, h))
            dist = enumerate_joint(code)
            encoders = range(1, length + 1)
            for size in range(1, wiretap + 1):
                for tapped in combinations(encoders, size):
                    if not check_perfect_secrecy(dist, tapped).ok:
                        failures.append(
                            f"({length},{wiretap},{threshold}) leaks to {tapped}")
                    passes += 1
            for tapped in combinations(encoders, threshold):
                rep = check_perfect_secrecy(dist, tapped)
                if rep.ok or rep.counterexample is None:
                    failures.append(
                        f"({length},{wiretap},{threshold}) taps {tapped} "
                        f"should reveal the message")
                leaks += 1
        for length, wiretap, lengths in MULTILEVEL_INSTANCES:
            code, dist = _multilevel_dist(length, wiretap, lengths)
            encoders = range(1, length + 1)
            for size in range(1, wiretap + 1):
                for tapped in combinations(encoders, size):
                    if not check_perfect_secrecy(dist, tapped).ok:
                        failures.append(
                            f"multilevel ({length},{wiretap}) leaks to {tapped}")
                    passes += 1
            for tapped in combinations(encoders, wiretap + 1):
                rep = check_perfect_secrecy(dist, tapped)
                if rep.ok or rep.counterexample is None:
                    failures.append(
                        f"multilevel ({length},{wiretap}) taps {tapped} "
                        f"should reveal the top source")
                leaks += 1
        return (f"{passes} tap sets perfectly secret, "
                f"{leaks} oversized tap sets leak as they must"), failures

    _run(7, criterion_report, body, cap_seconds=300)


def test_criterion_8_chain_inequality_nonnegative_slack(criterion_report):
    def body():
        failures = []
        checked = 0
        for length, wiretap, lengths in MULTILEVEL_INSTANCES:
            code, dist = _multilevel_dist(length, wiretap, lengths)
            encoders = range(1, length + 1)
            for tapped in combinations(encoders, wiretap):
                rest = [l for l in encoders if l not in tapped]
                for level in range(1, len(lengths) + 1):
                    for checked_set in combinations(rest, level):
                        rep = check_prop2_inequality(dist, level, tapped,
                                                     checked_set)
                        if not rep.ok:
                            failures.append(
                                f"({length},{wiretap}) level {level} "
                                f"A={tapped} D={checked_set} slack "
                                f"{rep.slack_bits:.3f}")
                        checked += 1
        return f"{checked} (level, taps, checked-set) combinations", failures

    _run(8, criterion_report, body)


def test_criterion_9_cli_round_trip(criterion_report, tmp_path):
    def body():
        failures = []
        rng = random.Random(90125)
        files_used = 0
        joins = 0
        for case in range(50):
            length, wiretap = (3, 1) if case % 2 == 0 else (4, 2)
            datas = [bytes(rng.randrange(256)
                           for _ in range(rng.randrange(65537)))
                     for _ in range(length - wiretap)]
            files_used += len(datas)
            base = tmp_path / f"case_{case}"
            base.mkdir()
            inputs = []
            for i, data in enumerate(datas):
                path = base / f"in_{i}"
                path.write_bytes(data)
                inputs.append(str(path))
            share_dir = base / "shares"
            code = entry(["split", "--length", str(length),
                          "--wiretap", str(wiretap),
                          "--seed", str(rng.randrange(2 ** 32)),
                          "--out-dir", str(share_dir)] + inputs)
            if code != EXIT_OK:
                failures.append(f"case {case}: split exited {code}")
                continue
            share_paths = {l: str(share_dir / f"share_{l}.smdc")
                           for l in range(1, length + 1)}
            for size in range(wiretap + 1, length + 1):
                for subset in combinations(range(1, length + 1), size):
                    out_dir = base / ("out_" + "".join(map(str, subset)))
                    code = entry(["join", "--out-dir", str(out_dir)]
                                 + [share_paths[l] for l in subset])
                    joins += 1
                    if code != EXIT_OK:
                        failures.append(f"case {case} {subset}: exit {code}")
                        continue
                    depth = min(size - wiretap, length - wiretap)
                    got = sorted(p.name for p in out_dir.iterdir())
                    if got != [f"source_{j + 1}.bin" for j in range(depth)]:
                        failures.append(f"case {case} {subset}: wrote {got}")
                        continue
                    for j in range(depth):
                        back = (out_dir / f"source_{j + 1}.bin").read_bytes()
                        if back != datas[j]:
                            failures.append(
                                f"case {case} {subset}: source {j + 1} differs")
            # a tap-sized subset must produce exit 3 and no files
            short = list(range(1, wiretap + 1))
            out_dir = base / "out_short"
            code = entry(["join", "--out-dir", str(out_dir)]
                         + [share_paths[l] for l in short])
            if code != EXIT_INFEASIBLE:
                failures.append(f"case {case}: short join exited {code}")
            if out_dir.exists() and any(out_dir.iterdir()):
                failures.append(f"case {case}: short join left files behind")
        detail = (f"{files_used} files split, {joins} joins byte-identical, "
                  f"short subsets refused")
        return detail, failures

    _run(9, criterion_report, body)
