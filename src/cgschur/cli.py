"""Command line interface.

Every invocation prints one JSON document with sorted keys, so equal
inputs give byte-identical output.  Exit codes: 0 success, 1 a check,
classification, or construction failed, 2 bad usage or malformed input.
Schur ring files are JSON objects with "ring" and "classes" keys; the
file name "-" reads the document from stdin.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import TYPE_CHECKING, Sequence

from .cgring import CheckFailedError, parse_ring_spec
from .galois import DEFAULT_MAX_RING_SIZE

if TYPE_CHECKING:
    from .sring import SRing

ENV_MAX_RING_SIZE = "CGSCHUR_MAX_RING_SIZE"

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_USAGE = 2


# -- output and input helpers --------------------------------------------------


def _canonical(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def _emit(doc: dict, fmt: str) -> None:
    print(json.dumps(doc, sort_keys=True, indent=2) if fmt == "pretty" else _canonical(doc))


def _read_doc(path: str) -> dict:
    if path == "-":
        text = sys.stdin.read()
    else:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    doc = json.loads(text)
    if not isinstance(doc, dict):
        raise ValueError("the input document must be a JSON object")
    for key in ("ring", "classes"):
        if key not in doc:
            raise ValueError(f"the input document has no {key!r} key")
    return doc


def _load_sring(path: str, max_size: int) -> SRing:
    from .sring import sring_from_doc

    return sring_from_doc(_read_doc(path), max_size=max_size)


def _parse_elements(text: str) -> list[int]:
    try:
        return [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise ValueError(f"expected comma separated integers, got {text!r}") from None


# -- subcommand handlers -------------------------------------------------------
#
# Each handler returns the document to print and whether every check,
# classification or construction it ran succeeded; main prints the
# document and turns the flag into the exit code.  A handler imports the
# library modules it calls, so a call compiles only what its verb runs.


def _cmd_ring(args: argparse.Namespace, max_size: int) -> tuple[dict, bool]:
    ring = parse_ring_spec(args.spec, max_size=max_size)
    components = [
        {
            "p": c.p,
            "n": c.n,
            "d": c.d,
            "size": c.size,
            "characteristic": c.char,
            "teichmuller_order": c.p**c.d - 1,
            "principal_unit_order": c.p ** ((c.n - 1) * c.d),
        }
        for c in ring.components
    ]
    return {
        "spec": ring.spec(),
        "size": ring.size,
        "characteristic": ring.char,
        "unit_count": ring.unit_count,
        "components": components,
        "ideals": [{"divisor": m, "size": ring.ideal_size(m)} for m in ring.divisors()],
    }, True


def _cmd_sring(args: argparse.Namespace, max_size: int) -> tuple[dict, bool]:
    from .sring import (cyclotomic, quotient_sring, restrict, schur_closure, tensor,
                        verify_sring, wreath_pairs)

    if args.action == "cyc":
        from .construct import subgroup_generated

        ring = parse_ring_spec(args.spec, max_size=max_size)
        K = subgroup_generated(ring, _parse_elements(args.group))
        return cyclotomic(ring, K).to_doc(), True
    if args.action == "closure":
        ring = parse_ring_spec(args.spec, max_size=max_size)
        seeds = [frozenset(_parse_elements(s)) for s in args.seed]
        return schur_closure(ring, seeds).to_doc(), True
    if args.action == "verify":
        doc = _read_doc(args.file)
        ring = parse_ring_spec(doc["ring"], max_size=max_size)
        report = verify_sring(ring, doc["classes"])
        return report.to_doc(), report.ok
    if args.action == "tensor":
        left = _load_sring(args.left, max_size)
        right = _load_sring(args.right, max_size)
        return tensor(left, right).to_doc(), True
    A = _load_sring(args.file, max_size)
    if args.action == "quotient":
        return quotient_sring(A, args.modulus).to_doc(), True
    if args.action == "restrict":
        return restrict(A, args.modulus).to_doc(), True
    if args.action == "wreath":
        pairs = wreath_pairs(A)
        return {
            "pairs": [
                {"outer": w.outer, "inner": w.inner, "nontrivial": w.nontrivial}
                for w in pairs
            ],
            "nontrivial": any(w.nontrivial for w in pairs),
        }, True
    if args.action == "pure":
        return {
            "pure": A.is_pure(),
            "dense": A.is_dense(),
            "lower_ideal": A.lower_ideal(),
            "unit_classes": [
                {"class": k, "lower_ideal": m} for k, m in A.unit_lower_ideals.items()
            ],
        }, True
    if args.action == "rational":
        primes = None if args.primes is None else _parse_elements(args.primes)
        if primes == []:
            raise ValueError(f"--primes lists no prime, got {args.primes!r}")
        return {"rational": A.is_rational(primes)}, True
    raise ValueError(f"unknown sring action {args.action!r}")


def _cmd_dual(args: argparse.Namespace, max_size: int) -> tuple[dict, bool]:
    from .duality import check_duality, dual_sring

    words = args.target
    if words[0] == "check":
        if len(words) != 2:
            raise ValueError("usage: dual check FILE")
        report = check_duality(_load_sring(words[1], max_size))
        return report.to_doc(), report.ok
    if len(words) != 1:
        raise ValueError("usage: dual [check] FILE")
    A = _load_sring(words[0], max_size)
    doc = dual_sring(A).to_doc()
    import hashlib  # loads OpenSSL, which only this digest needs
    doc["dual_of"] = hashlib.sha256(_canonical(A.to_doc()).encode()).hexdigest()
    return doc, True


def _cmd_construct(args: argparse.Namespace, max_size: int) -> tuple[dict, bool]:
    from .construct import build_nonpure_dense_sring

    instance, built, report = build_nonpure_dense_sring(
        args.p, args.d, args.q, args.e, max_size=max_size
    )
    if args.out and report.ok:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(_canonical(built.to_doc()) + "\n")
    return {
        "instance": instance.to_doc(),
        "sring": built.to_doc(),
        "report": report.to_doc(),
    }, report.ok


def _cmd_classify(args: argparse.Namespace, max_size: int) -> tuple[dict, bool]:
    from .classify import (KIND_NOT_APPLICABLE, check_nondense_structure,
                           check_quotient_purity, classify_rational, decompose_pure)

    A = _load_sring(args.file, max_size)
    if args.action == "pure":
        dec = decompose_pure(A)
        return dec.to_doc(), dec.kind != KIND_NOT_APPLICABLE
    if args.action == "rational":
        dec = classify_rational(A)
        return dec.to_doc(), dec.kind != KIND_NOT_APPLICABLE
    if args.action == "nondense":
        report = check_nondense_structure(A)
        return report.to_doc(), report.ok
    if args.action == "quotient":
        quo_report = check_quotient_purity(A, args.modulus)
        return quo_report.to_doc(), quo_report.ok
    raise ValueError(f"unknown classify action {args.action!r}")


def _cmd_enumerate(args: argparse.Namespace, max_size: int) -> tuple[dict, bool]:
    from .construct import all_subgroups
    from .sring import cyclotomic

    ring = parse_ring_spec(args.spec, max_size=max_size)
    groups = all_subgroups(ring, frozenset(ring.units()))
    if args.action == "subgroups":
        return {
            "ring": ring.spec(),
            "count": len(groups),
            "subgroups": [sorted(K) for K in groups],
        }, True
    rows = []
    for K in groups:
        A = cyclotomic(ring, K)
        rows.append({
            "subgroup": sorted(K),
            "rank": A.rank,
            "pure": A.is_pure(),
            "dense": A.is_dense(),
            "lower_ideal": A.lower_ideal(),
            "classes": [sorted(X) for X in A.classes],
        })
    return {"ring": ring.spec(), "count": len(rows), "srings": rows}, True


# -- parser --------------------------------------------------------------------


def _format_flag(parser: argparse.ArgumentParser) -> argparse.ArgumentParser:
    parser.add_argument("--format", choices=("json", "pretty"), default="json",
                        help="output style (default: json, one line)")
    return parser


def _ring_args(ring: argparse.ArgumentParser) -> None:
    ring_sub = ring.add_subparsers(dest="action", required=True, metavar="ACTION")
    info = _format_flag(ring_sub.add_parser("info", help="orders, unit structure, ideal lattice"))
    info.add_argument("spec", help="ring spec such as GR(4,2)xGR(9)")


def _sring_args(sring: argparse.ArgumentParser) -> None:
    ss = sring.add_subparsers(dest="action", required=True, metavar="ACTION")

    def action(name: str, text: str) -> argparse.ArgumentParser:
        return _format_flag(ss.add_parser(name, help=text))

    cyc = action("cyc", "orbit partition of the unit subgroup the generators close to")
    cyc.add_argument("spec")
    cyc.add_argument("--group", required=True, help="comma separated unit generators")
    closure = action("closure", "least dense Schur ring whose A-sets include the seeds")
    closure.add_argument("spec")
    closure.add_argument("--seed", action="append", default=[],
                         help="comma separated elements; repeatable")
    action("verify", "axiom check with witnesses").add_argument("file")
    for name, text in (("quotient", "image in R/mR"),
                       ("restrict", "induced Schur ring on the ideal mR")):
        by_ideal = action(name, text)
        by_ideal.add_argument("file")
        by_ideal.add_argument("--modulus", type=int, required=True)
    tens = action("tensor", "tensor product over the product ring")
    tens.add_argument("left")
    tens.add_argument("right")
    action("wreath", "all wreath certificates").add_argument("file")
    action("pure", "purity and density report").add_argument("file")
    rat = action("rational", "rationality report")
    rat.add_argument("file")
    rat.add_argument("--primes", help="check only these primes, comma separated")


def _dual_args(dual: argparse.ArgumentParser) -> None:
    _format_flag(dual).add_argument("target", nargs="+", metavar="[check] FILE")


def _construct_args(con: argparse.ArgumentParser) -> None:
    _format_flag(con).add_argument("name", choices=("t210809a",), help="construction token")
    for name in ("--p", "--d", "--q", "--e"):
        con.add_argument(name, type=int, required=True)
    con.add_argument("--out", help="also write the bare Schur ring document to this file")


def _classify_args(cls: argparse.ArgumentParser) -> None:
    cs = cls.add_subparsers(dest="action", required=True, metavar="ACTION")
    for name, text in (
        ("pure", "tensor decomposition of a pure Schur ring"),
        ("rational", "wreath layering or rank-2 split of a rational Schur ring"),
        ("nondense", "structure forced by a missing maximal A-ideal"),
    ):
        _format_flag(cs.add_parser(name, help=text)).add_argument("file")
    cq = _format_flag(cs.add_parser("quotient", help="purity of the image in R/mR"))
    cq.add_argument("file")
    cq.add_argument("--modulus", type=int, required=True)


def _enumerate_args(enum: argparse.ArgumentParser) -> None:
    es = enum.add_subparsers(dest="action", required=True, metavar="ACTION")
    _format_flag(es.add_parser("subgroups", help="all unit subgroups")).add_argument("spec")
    _format_flag(es.add_parser(
        "cyc", help="every cyclotomic Schur ring with a summary row")).add_argument("spec")


# verb -> (help, the builder of its arguments and actions, its handler)
_VERBS = {
    "ring": ("ring reports", _ring_args, _cmd_ring),
    "sring": ("build and check Schur rings", _sring_args, _cmd_sring),
    "dual": ("dual Schur ring; 'dual check FILE' verifies the duality laws", _dual_args,
             _cmd_dual),
    "construct": ("named constructions", _construct_args, _cmd_construct),
    "classify": ("decomposition and structure reports", _classify_args, _cmd_classify),
    "enumerate": ("exhaustive unit subgroup scans", _enumerate_args, _cmd_enumerate),
}


def build_parser(argv: Sequence[str]) -> argparse.ArgumentParser:
    """The parser for argv.  Every verb is listed, so the top-level help
    and usage errors are complete, but only the verb argv names (its
    first word that is not an option) gets its arguments and actions."""
    parser = argparse.ArgumentParser(
        prog="cgschur",
        description="Exact Schur ring computations over products of Galois rings.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="VERB")
    chosen = next((word for word in argv if not word.startswith("-")), None)
    for name, (text, add_arguments, _) in _VERBS.items():
        verb = sub.add_parser(name, help=text)
        if name == chosen:
            add_arguments(verb)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser(argv)
    try:
        args = parser.parse_args(argv)
    except SystemExit as err:
        return EXIT_USAGE if err.code else EXIT_OK
    try:
        max_size = int(os.environ.get(ENV_MAX_RING_SIZE, DEFAULT_MAX_RING_SIZE))
    except ValueError:
        max_size = 0
    if max_size < 1:
        print(f"error: {ENV_MAX_RING_SIZE} must be a positive integer", file=sys.stderr)
        return EXIT_USAGE
    try:
        doc, ok = _VERBS[args.command][2](args, max_size)
        _emit(doc, args.format)
    except CheckFailedError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_FAILED
    except (KeyError, TypeError, ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    return EXIT_OK if ok else EXIT_FAILED
