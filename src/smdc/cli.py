"""Command line front end.

Exit codes: 0 success, 2 usage error, 3 infeasible (not enough shares,
rates outside the region, entropy beyond the secrecy rate; nothing is
written), 4 verification failure (a leak or inconsistent shares),
5 unreadable or malformed files.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from functools import lru_cache

from .coset import CosetCodeSpec
from .errors import (BudgetExceededError, DecodeFailureError,
                     InsufficientSharesError, ParameterError,
                     RegionViolationError, ShareFormatError, SmdcError)
from .fields import FieldSpec, _is_prime, binary8_field, prime_field
from .multilevel import SmdcParams, plan as multilevel_plan
from .region import (_one_level, smdc_min_sum_rate, superposition_corner_points,
                     superposition_region)
from .region import (corner_points, min_sum_rate, region,  # noqa: F401
                     vertices_brute_force,  # bound only for perfbench spans
                     violated_subsets)
from .shareio import (field_to_id, join_files, read_share, split_files,
                      symbols_per_byte, write_share, _atomic_write)
from .single_level import symmetric_layout
from .verify import (VerifierBudget, code_for_layout, code_for_multilevel,
                     verification_report)
from .wiretap import (WiretapNetwork, export_edge_list, mincut_to_user,
                      mincut_to_wiretap, secrecy_rate)
from .wiretap import (achievable_secrecy_rate,  # noqa: F401  (perfbench spans)
                      admissible_by_separation)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INFEASIBLE = 3
EXIT_VERIFY_FAILED = 4
EXIT_IO = 5


def _parse_field(text: str) -> FieldSpec:
    """gf256 (or binary8), or a prime."""
    if text in ("gf256", "binary8"):
        return binary8_field()
    try:
        p = int(text)
    except ValueError:
        raise ParameterError(
            f"field must be 'gf256' or a prime, got {text!r}")
    return prime_field(p)


def _parse_fractions(text: str) -> list[Fraction]:
    try:
        return [Fraction(part.strip()) for part in text.split(",") if part.strip()]
    except (ValueError, ZeroDivisionError):
        raise ParameterError(f"cannot read {text!r} as a list of rationals")


def _parse_ints(text: str) -> list[int]:
    try:
        return [int(part.strip()) for part in text.split(",") if part.strip()]
    except ValueError:
        raise ParameterError(f"cannot read {text!r} as a list of integers")


def _smallest_prime_above(n: int) -> int:
    p = max(2, n + 1)
    while not _is_prime(p):
        p += 1
    return p


def _refuse_existing(paths) -> None:
    for path in paths:
        if os.path.exists(path):
            raise ParameterError(
                f"{path} already exists; refusing to overwrite")


def _pair(v: Fraction) -> list[int]:
    """Exact rational as [numerator, denominator] for JSON reports."""
    v = Fraction(v)
    return [v.numerator, v.denominator]


@lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The `smdc` parser, built once per process: parsing leaves it as it
    was, and building it costs some twenty times a parse."""
    parser = argparse.ArgumentParser(
        prog="smdc",
        description="Split files into shares that survive erasures and "
                    "reveal nothing to a bounded set of taps.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_split = sub.add_parser(
        "split", help="encode source files into one share per encoder")
    p_split.add_argument("--length", "--L", type=int, required=True,
                         help="number of encoders L")
    p_split.add_argument("--wiretap", "--N", type=int, required=True,
                         help="tap tolerance N; expects L-N source files")
    p_split.add_argument("--field", default="gf256",
                         help="gf256 (default) or a prime up to 251")
    p_split.add_argument("--seed", type=int, default=None,
                         help="fix the key stream; ONLY for reproducible "
                              "tests, deterministic keys void all secrecy")
    p_split.add_argument("--out-dir", default=".",
                         help="where share files go")
    p_split.add_argument("sources", nargs="+",
                         help="source files, most important first")

    p_join = sub.add_parser(
        "join", help="recover the leading sources from share files")
    p_join.add_argument("--out-dir", default=".",
                        help="where recovered files go")
    p_join.add_argument("shares", nargs="+", help="share files")

    p_region = sub.add_parser(
        "region", help="admissible rate region as a JSON report")
    p_region.add_argument("--length", "--L", type=int, required=True)
    p_region.add_argument("--wiretap", "--N", type=int, required=True)
    p_region.add_argument("--threshold", "--m", type=int, default=None,
                          help="single level: outputs needed to reconstruct; "
                               "omit for the combined multi-source region")
    p_region.add_argument("--entropies", "--entropy", default=None,
                          help="comma separated source entropies (rationals); "
                               "one value with --threshold (default 1), "
                               "L - N values without")
    p_region.add_argument("--rates", default=None,
                          help="comma separated rates to test for membership")
    p_region.add_argument("--corners", action="store_true",
                          help="enumerate extreme points in the combined "
                               "region (single level reports them always)")

    p_wn = sub.add_parser(
        "wn", help="cut and secrecy analysis of the induced network, as JSON")
    p_wn.add_argument("--length", "--L", type=int, required=True)
    p_wn.add_argument("--wiretap", "--N", type=int, required=True)
    p_wn.add_argument("--threshold", "--m", type=int, required=True)
    p_wn.add_argument("--rates", required=True,
                      help="comma separated edge rates")
    p_wn.add_argument("--entropy", default=None,
                      help="test whether this source entropy is supportable")
    p_wn.add_argument("--flow", action="store_true",
                      help="cross-check every cut with an explicit max flow")
    p_wn.add_argument("--edges", action="store_true",
                      help="include the edge list")

    p_verify = sub.add_parser(
        "verify", help="exhaustively verify a small instance end to end")
    p_verify.add_argument("--length", "--L", type=int, required=True)
    p_verify.add_argument("--wiretap", "--N", type=int, required=True)
    p_verify.add_argument("--source-lengths", default=None,
                          help="comma separated symbol counts, one per source")
    p_verify.add_argument("--threshold", "--m", type=int, default=None,
                          help="verify one single-level code instead; the "
                               "message is threshold - wiretap symbols")
    p_verify.add_argument("--field", default=None,
                          help="field order; default: smallest prime above L")
    p_verify.add_argument("--budget", type=int, default=250_000,
                          help="largest outcome count to enumerate, and "
                               "largest report entry count (tap sets plus "
                               "reconstruction subsets, about 2^L)")

    return parser


# --- commands ------------------------------------------------------------------


def _cmd_split(args) -> int:
    field = _parse_field(args.field)
    field_to_id(field)
    datas = []
    for path in args.sources:
        with open(path, "rb") as fh:
            datas.append(fh.read())
    shares = split_files(field, args.length, args.wiretap, datas,
                         source=args.seed)
    paths = [os.path.join(args.out_dir, f"share_{s.encoder}.smdc")
             for s in shares]
    _refuse_existing(paths)
    os.makedirs(args.out_dir, exist_ok=True)
    for path, share in zip(paths, shares):
        write_share(path, share)
        print(f"wrote {path} ({sum(len(p) for p in share.payloads)} symbols)")
    t = symbols_per_byte(field)
    if t > 1:
        print(f"note: GF({field.order}) stores {t} symbols per byte")
    return EXIT_OK


def _cmd_join(args) -> int:
    shares = [read_share(path) for path in args.shares]
    recovered = join_files(shares)
    paths = [os.path.join(args.out_dir, f"source_{k + 1}.bin")
             for k in range(len(recovered))]
    _refuse_existing(paths)
    os.makedirs(args.out_dir, exist_ok=True)
    for path, data in zip(paths, recovered):
        _atomic_write(path, data)
        print(f"recovered {path} ({len(data)} bytes)")
    skipped = (shares[0].length - shares[0].wiretap) - len(recovered)
    if skipped:
        print(f"{skipped} lower priority source(s) need more shares")
    return EXIT_OK


def _cmd_region(args) -> int:
    params: dict = {"length": args.length, "wiretap": args.wiretap}
    if args.threshold is not None:
        h = _parse_fractions(args.entropies or "1")
        if len(h) != 1:
            raise ParameterError("a single level takes one entropy")
        params.update(threshold=args.threshold, entropy=_pair(h[0]))
        hs = _one_level(args.length - args.wiretap, args.threshold - args.wiretap, h[0])
    else:
        if args.entropies is None:
            raise ParameterError("the combined region needs --entropies with "
                                 f"{args.length - args.wiretap} values")
        hs = _parse_fractions(args.entropies)
        params["entropies"] = [_pair(h) for h in hs]
    system = superposition_region(args.length, args.wiretap, hs)
    corners = (superposition_corner_points(args.length, args.wiretap, hs)
               if args.corners or args.threshold is not None else None)
    total = smdc_min_sum_rate(args.length, args.wiretap, hs)

    report = {
        "parameters": params,
        "variables": list(system.var_names),
        "inequalities": system.render().splitlines(),
        "system": system.to_json_dict(),
        "min_sum_rate": _pair(total),
        "corner_points": None if corners is None else
            [[_pair(v) for v in point] for point in corners],
    }
    outside = False
    if args.rates is not None:
        rates = _parse_fractions(args.rates)
        if len(rates) != args.length:
            raise ParameterError(f"need {args.length} rates")
        violated = system.violated_rows(rates)
        outside = bool(violated)
        report["membership"] = {
            "rates": [_pair(r) for r in rates],
            "inside": not violated,
            "violated_subsets": [[i + 1 for i in r.support()]
                                 for r in violated],
            "violated_inequalities": [r.render(system.var_names)
                                      for r in violated],
        }
    print(json.dumps(report, indent=2))
    return EXIT_INFEASIBLE if outside else EXIT_OK


def _cmd_wn(args) -> int:
    rates = _parse_fractions(args.rates)
    if len(rates) != args.length:
        raise ParameterError(f"need {args.length} rates")
    net = WiretapNetwork(args.length, args.wiretap, args.threshold,
                         tuple(rates))
    entropy = None
    if args.entropy is not None:
        values = _parse_fractions(args.entropy)
        if len(values) != 1:
            raise ParameterError("--entropy takes one value")
        entropy = values[0]
        if entropy < 0:
            raise ParameterError("entropies must be nonnegative")

    def cut(fn, subset) -> Fraction:
        value = fn(net, subset)
        if args.flow and fn(net, subset, via_flow=True) != value:
            raise SmdcError(f"flow disagrees with the cut at {subset}")
        return value

    user_cuts = {u: cut(mincut_to_user, u) for u in net.users()}
    tap_cuts = {a: cut(mincut_to_wiretap, a) for a in net.wiretap_sets()}
    secrecy = secrecy_rate(net)
    report = {
        "parameters": {"length": args.length, "wiretap": args.wiretap,
                       "threshold": args.threshold,
                       "rates": [_pair(r) for r in rates]},
        "user_cuts": {",".join(map(str, u)): _pair(v)
                      for u, v in user_cuts.items()},
        "wiretap_cuts": {",".join(map(str, a)): _pair(v)
                         for a, v in tap_cuts.items()},
        "weakest_user_cut": _pair(min(user_cuts.values())),
        "strongest_wiretap_cut": _pair(max(tap_cuts.values())
                                       if tap_cuts else Fraction(0)),
        "secrecy_rate": _pair(secrecy),
    }
    code = EXIT_OK
    if entropy is not None:
        supported = entropy <= secrecy
        report["supports_entropy"] = {"entropy": _pair(entropy),
                                      "ok": supported}
        if not supported:
            code = EXIT_INFEASIBLE
    if args.edges:
        report["edges"] = export_edge_list(net).splitlines()
    print(json.dumps(report, indent=2))
    return code


def _cmd_verify(args) -> int:
    if (args.threshold is None) == (args.source_lengths is None):
        raise ParameterError(
            "give either --source-lengths or --threshold, not both")
    if args.field is None:
        field = prime_field(_smallest_prime_above(args.length))
    else:
        field = _parse_field(args.field)
    if args.threshold is not None:
        k = args.threshold - args.wiretap
        if k < 1:
            raise ParameterError("need threshold > wiretap")
        layout = symmetric_layout(
            CosetCodeSpec(field, args.length, args.wiretap, args.threshold),
            k)
        code = code_for_layout(layout)
    else:
        lengths = _parse_ints(args.source_lengths)
        params = SmdcParams(field, args.length, args.wiretap, tuple(lengths))
        code = code_for_multilevel(multilevel_plan(params))
    report = verification_report(code, VerifierBudget(args.budget))
    print(json.dumps(report, indent=2))
    return EXIT_OK if report["ok"] else EXIT_VERIFY_FAILED


def entry(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "split": _cmd_split,
        "join": _cmd_join,
        "region": _cmd_region,
        "wn": _cmd_wn,
        "verify": _cmd_verify,
    }
    try:
        return handlers[args.command](args)
    except (InsufficientSharesError, RegionViolationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except DecodeFailureError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VERIFY_FAILED
    except (ShareFormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SmdcError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def main() -> None:
    sys.exit(entry())


if __name__ == "__main__":
    main()
