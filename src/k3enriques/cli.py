"""Command-line interface.

Exit codes: 0 on success, 1 on verification failure, 2 on usage errors
(including malformed inputs).
"""
from __future__ import annotations

import argparse
import json
import sys
from functools import cache

from .checker import build_case, decide_enriques, survey, verify_certificate
from .enumeration import short_vectors
from .lattice import _divisors, discriminant, is_even, load_lattice, signature


_BARE = str.maketrans("", "", "(),")


@cache
def _build_parser() -> argparse.ArgumentParser:
    # built once per process: it depends on no input, and parse_args keeps no
    # state between calls
    parser = argparse.ArgumentParser(
        prog="k3enriques",
        description="Exact lattice toolkit for Enriques involutions on supersingular K3 surfaces",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    lat = sub.add_parser("lattice", help="inspect lattice files")
    lat_sub = lat.add_subparsers(dest="lattice_command", required=True)
    info = lat_sub.add_parser("info", help="rank, det, signature, evenness, divisors")
    info.add_argument("file")
    roots = lat_sub.add_parser("roots", help="count and list vectors of a given norm")
    roots.add_argument("file")
    roots.add_argument("--norm", type=int, default=-2)

    case = sub.add_parser("case", help="build or verify case certificates")
    case_sub = case.add_subparsers(dest="case_command", required=True)
    build = case_sub.add_parser("build", help="build the (sigma, d) certificate")
    build.add_argument("--sigma", type=int, required=True)
    build.add_argument("--d", type=int, required=True)
    build.add_argument("--out")
    verify = case_sub.add_parser("verify", help="re-verify a certificate file")
    verify.add_argument("file")

    decide = sub.add_parser("decide", help="verdict for (p, sigma)")
    decide.add_argument("--p", type=int, required=True)
    decide.add_argument("--sigma", type=int, required=True)
    decide.add_argument("--json", action="store_true")

    surv = sub.add_parser("survey", help="verdict table for all odd primes up to pmax")
    surv.add_argument("--pmax", type=int, required=True)
    surv.add_argument("--csv")
    return parser


def _cmd_lattice(args) -> int:
    L = load_lattice(args.file)
    if args.lattice_command == "info":
        plus, minus = signature(L)
        print(f"label: {L.label or '-'}")
        print(f"rank: {L.rank}")
        print(f"det: {discriminant(L)}")
        print(f"signature: ({plus},{minus})")
        print(f"even: {is_even(L)}")
        print(f"divisors: {_divisors(L)}")
        return 0
    report = short_vectors(L, abs(args.norm))
    hits = [v for v, nm in report.vectors if nm == args.norm]
    # a coordinate tuple prints as "(1, -2)" or "(1,)": drop the punctuation
    print("\n".join([f"count: {len(hits)}", *map(str, hits)]).translate(_BARE))
    return 0


def _cmd_case(args) -> int:
    if args.case_command == "build":
        # a case whose family fails its proof raises in build_case: exit 2
        doc = json.dumps(build_case(args.sigma, args.d).to_doc(), indent=1)
        if args.out:
            with open(args.out, "w") as f:
                f.write(doc + "\n")
        else:
            print(doc)
        return 0
    with open(args.file) as f:
        try:
            doc = json.load(f)
        except RecursionError:
            raise ValueError("certificate file is nested too deeply") from None
    ok, messages = verify_certificate(doc)
    if ok:
        print(f"certificate for (sigma={doc['sigma']}, d={doc['d']}) verifies")
        return 0
    for msg in messages:
        print(msg, file=sys.stderr)
    return 1


def _cmd_decide(args) -> int:
    v = decide_enriques(args.p, args.sigma)
    if args.json:
        print(json.dumps(v.to_doc(), indent=1))
    else:
        extra = f" (d = {v.d})" if v.d is not None else ""
        print(f"p={v.p} sigma={v.sigma}: {v.answer}{extra} [{v.reason['kind']}]")
    return 0


def _cmd_survey(args) -> int:
    s = survey(args.pmax)
    if args.csv:
        with open(args.csv, "w") as f:
            f.write(s.to_csv())
    print(s.summary())
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "lattice":
            return _cmd_lattice(args)
        if args.command == "case":
            return _cmd_case(args)
        if args.command == "decide":
            return _cmd_decide(args)
        return _cmd_survey(args)
    except (ValueError, OSError) as exc:  # json.JSONDecodeError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
