"""Command-line interface.

Forms are given either as a fixture name (S1a..S15d, or the scaled
aliases S4f, S4g, ...) or as six comma-separated coefficients
"a,b,c,r,s,t" of a x^2 + b y^2 + c z^2 + r yz + s xz + t xy.

Exit codes: 0 success, 1 verification mismatch / rejected certificate,
2 proof failure, 64 usage error (including a bound too large to enumerate
or a prec modulus above the largest class modulus).
"""

from __future__ import annotations

import argparse
import json
import sys

from . import certificate, fixtures
from .congruence import ResidueClass, precedes
from .enumeration import represented_set, theta
from .isometry import find_transforms, is_isometric, subform_witness
from .prover import (
    MismatchAt,
    ProofError,
    proof_to_dict,
    prove_pair,
    verify_table,
)

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_UNPROVABLE = 2
EXIT_USAGE = 64


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _form(text):
    try:
        return fixtures.resolve_form(text)
    except (KeyError, ValueError) as exc:
        # str(KeyError(msg)) is repr(msg), quotes and all
        raise argparse.ArgumentTypeError(exc.args[0] if isinstance(exc, KeyError) else str(exc))


def _classes_arg(text):
    """Parse 'd:a,d:a,...' into residue classes."""
    out = []
    for chunk in text.split(","):
        d, _, a = chunk.partition(":")
        try:
            out.append(ResidueClass(int(d), int(a)))
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from exc
    return out


def _emit(payload: dict, fmt: str, text_lines):
    if fmt == "json":
        print(json.dumps(payload, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


def _matrix_lines(T):
    return [" ".join(f"{x:4d}" for x in row) for row in T]


def _cmd_enum(args):
    form = args.form
    if args.theta:
        coeffs = theta(form, args.max).tolist()
        _emit(
            {"form": str(form), "max": args.max, "coeffs": coeffs},
            args.format,
            (f"{n}:{c}" for n, c in enumerate(coeffs)),
        )
    else:
        values = represented_set(form, args.max).tolist()
        _emit(
            {"form": str(form), "max": args.max, "represented": values},
            args.format,
            (str(n) for n in values),
        )
    return EXIT_OK


def _cmd_transforms(args):
    matrices = find_transforms(args.f, args.g, args.d).matrices.tolist()
    payload = {
        "f": str(args.f),
        "g": str(args.g),
        "d": args.d,
        "count": len(matrices),
        "matrices": matrices,
    }
    lines = [f"{len(matrices)} transforms"]
    for T in matrices:
        lines.extend(_matrix_lines(T))
        lines.append("")
    _emit(payload, args.format, lines)
    return EXIT_OK


def _witness_output(args, key, T, found, missing):
    payload = {
        "f": str(args.f),
        "g": str(args.g),
        key: T is not None,
        "matrix": None if T is None else [list(row) for row in T],
    }
    _emit(payload, args.format, [found] + _matrix_lines(T) if T is not None else [missing])
    return EXIT_OK


def _cmd_isometric(args):
    return _witness_output(args, "isometric", is_isometric(args.f, args.g),
                           "ISOMETRIC", "NOT ISOMETRIC")


def _cmd_subform(args):
    return _witness_output(args, "subform", subform_witness(args.f, args.g),
                           "SUBFORM", "NOT A SUBFORM")


def _cmd_prec(args):
    # the value grid and the residue mask take d^3 cells each: refuse a
    # modulus no certificate may use before anything is allocated
    if args.d > certificate.MAX_MODULUS:
        raise ValueError(f"--d {args.d} exceeds {certificate.MAX_MODULUS}, the largest class modulus")
    report = precedes(args.f, args.g, ResidueClass(args.d, args.a))
    total = len(report.cosets)
    payload = {
        "d": args.d,
        "a": args.a,
        "precedes": report.all_good,
        "total": total,
        "bad": [list(v) for v in report.bad],
    }
    if args.report:
        payload["witnesses"] = {",".join(map(str, v)): idx for v, idx in report.good}
    lines = [f"PRECEDES: {'true' if report.all_good else 'false'} ({total} cosets, {len(report.bad)} bad)"]
    if args.report and report.bad:
        lines.append("bad cosets:")
        lines.extend("  " + ",".join(map(str, v)) for v in report.bad)
    _emit(payload, args.format, lines)
    return EXIT_OK


def _cmd_prove(args):
    try:
        proof = prove_pair(
            args.f,
            args.g,
            classes_g_in_f=args.classes,
            classes_f_in_g=args.classes_rev,
            empirical_bound=args.max,
        )
    except ProofError as exc:
        mismatch = isinstance(exc, MismatchAt)
        print(f"{'MISMATCH' if mismatch else 'UNPROVABLE'}: {exc}", file=sys.stderr)
        failure = {"f": str(args.f), "g": str(args.g), "proved": False,
                   "kind": type(exc).__name__, "reason": str(exc)}
        _emit(failure, args.format, ())  # text mode: the stderr line alone
        return EXIT_MISMATCH if mismatch else EXIT_UNPROVABLE
    cert = proof_to_dict(proof)
    blob = certificate.encode(cert)
    if args.out:
        with open(args.out, "wb") as fh:
            fh.write(blob + b"\n")
    summary = {
        "f": str(args.f),
        "g": str(args.g),
        "proved": True,
        "f_in_g": cert["f_in_g"]["kind"],
        "g_in_f": cert["g_in_f"]["kind"],
        "empirical_bound": proof.empirical_bound,
        "certificate": args.out,
    }
    _emit(
        summary,
        args.format,
        [
            f"PROVED Q(f) = Q(g) (f via {summary['f_in_g']}, g via {summary['g_in_f']}; "
            f"sets verified equal up to {proof.empirical_bound})"
        ]
        + ([f"certificate written to {args.out}"] if args.out else []),
    )
    return EXIT_OK


def _cmd_table(args):
    set_ids = fixtures.SET_IDS if args.set == "all" else (args.set,)
    results = []
    for sid in set_ids:
        try:
            report = verify_table(sid, args.max)
        except MismatchAt as exc:
            print(f"{sid}: MISMATCH at {exc.n}", file=sys.stderr)
            _emit({"bound": args.max, "set": sid, "mismatch_at": exc.n}, args.format, ())
            return EXIT_MISMATCH
        results.append(report)
    payload = {
        "bound": args.max,
        "sets": [
            {
                "set": rep.set_id,
                "forms": len(rep.forms),
                "values": rep.value_count,
                "non_isometric": rep.all_non_isometric,
            }
            for rep in results
        ],
    }
    lines = [
        f"{rep.set_id}: {len(rep.forms)} forms, {rep.value_count} common values <= {args.max}, "
        f"non-isometric: {'yes' if rep.all_non_isometric else 'NO'}"
        for rep in results
    ]
    _emit(payload, args.format, lines)
    if any(not rep.all_non_isometric for rep in results):
        return EXIT_MISMATCH
    return EXIT_OK


def _cmd_cert(args):
    with open(args.path, "rb") as fh:
        data = fh.read()
    verdict = certificate.check(data)
    payload = {
        "ok": verdict.ok,
        "clause": verdict.clause,
        "detail": verdict.detail,
    }
    lines = ["ACCEPT"] if verdict.ok else [f"REJECT at {verdict.clause}: {verdict.detail}"]
    _emit(payload, args.format, lines)
    return EXIT_OK if verdict.ok else EXIT_MISMATCH


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("text", "json"), default="text")

    parser = _Parser(prog="ternrep", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enum", parents=[common], help="represented integers of a form")
    p.add_argument("--form", type=_form, required=True)
    p.add_argument("--max", type=int, required=True)
    p.add_argument("--theta", action="store_true", help="print n:count lines instead")
    p.set_defaults(func=_cmd_enum)

    p = sub.add_parser("transforms", parents=[common],
                       help="all T with T^t(2M_f)T = d^2(2M_g)")
    p.add_argument("--f", type=_form, required=True)
    p.add_argument("--g", type=_form, required=True)
    p.add_argument("--d", type=int, required=True)
    p.set_defaults(func=_cmd_transforms)

    p = sub.add_parser("isometric", parents=[common], help="unimodular equivalence test")
    p.add_argument("--f", type=_form, required=True)
    p.add_argument("--g", type=_form, required=True)
    p.set_defaults(func=_cmd_isometric)

    p = sub.add_parser("subform", parents=[common], help="is f a subform of g?")
    p.add_argument("--f", type=_form, required=True)
    p.add_argument("--g", type=_form, required=True)
    p.set_defaults(func=_cmd_subform)

    p = sub.add_parser("prec", parents=[common],
                       help="good-vector test for one residue class")
    p.add_argument("--f", type=_form, required=True)
    p.add_argument("--g", type=_form, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--report", action="store_true", help="include witnesses and bad cosets")
    p.set_defaults(func=_cmd_prec)

    p = sub.add_parser("prove", parents=[common], help="prove Q(f) = Q(g), emit certificate")
    p.add_argument("--f", type=_form, required=True)
    p.add_argument("--g", type=_form, required=True)
    p.add_argument("--classes", type=_classes_arg, default=None,
                   help="explicit residue classes 'd:a,d:a,...' for Q(g) <= Q(f)")
    p.add_argument("--classes-rev", type=_classes_arg, default=None,
                   help="explicit classes for Q(f) <= Q(g)")
    p.add_argument("--max", type=int, default=10**6, help="empirical verification bound")
    p.add_argument("--out", default=None, help="write the certificate JSON here")
    p.set_defaults(func=_cmd_prove)

    p = sub.add_parser("table", parents=[common], help="verify a catalog set empirically")
    p.add_argument("--set", required=True, help="'S1'..'S15' or 'all'")
    p.add_argument("--max", type=int, default=10**6)
    p.set_defaults(func=_cmd_table)

    p = sub.add_parser("cert", parents=[common], help="check an emitted certificate")
    p.add_argument("action", choices=("check",))
    p.add_argument("path")
    p.set_defaults(func=_cmd_cert)

    return parser


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else EXIT_USAGE
    try:
        return args.func(args)
    except (KeyError, ValueError, OSError, MemoryError, OverflowError) as exc:
        print(f"ternrep: error: {exc.args[0] if isinstance(exc, KeyError) else exc}", file=sys.stderr)
        return EXIT_USAGE


def main():
    sys.exit(run())
