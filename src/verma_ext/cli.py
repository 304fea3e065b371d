"""Command line driver.

    verma-ext enumerate --type A2
    verma-ext rpoly     --type A2 0,1,0 e
    verma-ext vspace    --type B2 0,1,0,1 e
    verma-ext verify    --type A3 --cache-dir ./cache
    verma-ext report    --type A2 --cache-dir ./cache

Words are comma-separated simple reflection indices (0-based); ``e`` is the
identity.  Exit codes: 0 success, 1 usage or configuration error, 2 domain
error (incomparable pair, unparseable word), 3 verification failure.

The cache directory may be set with --cache-dir; the environment variable
VERMA_EXT_CACHE, when present, takes precedence over the flag.
"""

from __future__ import annotations

import argparse
import json
import os
import sys as _sys
from dataclasses import dataclass
from pathlib import Path

from .coxeter import (
    DEFAULT_BUDGET,
    DESCENT_POLICIES,
    build_system,
    element_from_word,
    enumerate_elements,
    fingerprint,
    longest_element,
    parse_word,
    word_text,
)
from .errors import DOMAIN_ERRORS, InvariantViolation, LiftingViolation, VermaExtError
from .rpoly import gj_coefficient
from .verify import (
    ReportResult,
    RunConfig,
    VerifyReport,
    load_rtable,
    run_report,
    run_verify,
    save_rtable,
)
from .vtable import SingularSpec, VTable, singular_v


@dataclass
class EnumerateResult:
    system: str
    type_text: str
    group_order: int
    longest_length: int
    elements: list[tuple[str, int]]  # (word, length)


@dataclass
class RPolyResult:
    system: str
    x: str
    y: str
    coeffs: list[int]
    poly: str
    gj: int


@dataclass
class VSpaceResult:
    system: str
    x: str
    y: str
    dim: int
    basis: list[list[str]]
    # one (subset label, projected image) per --singular flag, in flag order
    singular: list[tuple[str, dict]]


def cmd_enumerate(config: RunConfig) -> EnumerateResult:
    sys = build_system(config.type_text, budget=config.budget)
    elements = enumerate_elements(sys)
    return EnumerateResult(
        system=fingerprint(sys),
        type_text=str(sys.descriptor),
        group_order=sys.group_order,
        longest_length=longest_element(sys).length,
        elements=[(word_text(sys, g), g.length) for g in elements],
    )


def cmd_rpoly(config: RunConfig, x_word: str, y_word: str) -> RPolyResult:
    """R-polynomial and signed q-coefficient of one pair, writing through the cache."""
    sys = build_system(config.type_text, budget=config.budget)
    x = element_from_word(sys, parse_word(x_word))
    y = element_from_word(sys, parse_word(y_word))
    rtable = load_rtable(config, sys)
    gj = gj_coefficient(sys, x, y, rtable)  # raises NotComparable when y !<= x
    poly = rtable.r(y, x)
    save_rtable(config, sys, rtable)
    return RPolyResult(
        system=fingerprint(sys),
        x=word_text(sys, x),
        y=word_text(sys, y),
        coeffs=list(poly.coeffs),
        poly=str(poly),
        gj=gj,
    )


def cmd_vspace(config: RunConfig, x_word: str, y_word: str) -> VSpaceResult:
    sys = build_system(config.type_text, budget=config.budget)
    x = element_from_word(sys, parse_word(x_word))
    y = element_from_word(sys, parse_word(y_word))
    table = VTable(sys, policy=config.policy)
    space = table.v(x, y)
    images: list[tuple[str, dict]] = []
    for spec in config.singular:
        spec.validate(sys)
        images.append((str(spec), singular_v(sys, table, spec, x, y).to_json_dict()))
    payload = space.to_json_dict()
    return VSpaceResult(
        system=fingerprint(sys),
        x=word_text(sys, x),
        y=word_text(sys, y),
        dim=payload["dim"],
        basis=payload["basis"],
        singular=images,
    )


def cmd_verify(config: RunConfig) -> VerifyReport:
    return run_verify(config)


def cmd_report(config: RunConfig) -> ReportResult:
    return run_report(config)


# ---------------------------------------------------------------------------
# rendering


def _render_enumerate(result: EnumerateResult, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(
            {
                "system": result.system,
                "type": result.type_text,
                "group_order": result.group_order,
                "longest_length": result.longest_length,
                "elements": [
                    {"word": w, "length": ell} for w, ell in result.elements
                ],
            },
            indent=2,
        )
    if fmt == "csv":
        lines = [f"# system: {result.system}", "word;length"]
        lines.extend(f"{w};{ell}" for w, ell in result.elements)
        return "\n".join(lines)
    lines = [
        f"type: {result.type_text}",
        f"group order: {result.group_order}",
        f"longest length: {result.longest_length}",
    ]
    lines.extend(f"{ell:3d}  {w}" for w, ell in result.elements)
    return "\n".join(lines)


def _render_rpoly(result: RPolyResult, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(
            {
                "system": result.system,
                "x": result.x,
                "y": result.y,
                "coeffs": result.coeffs,
                "poly": result.poly,
                "gj": result.gj,
            },
            indent=2,
        )
    if fmt == "csv":
        return f"{result.y};{result.x};{','.join(str(c) for c in result.coeffs)}"
    return f"{result.poly}, gj={result.gj}"


def _render_vspace(result: VSpaceResult, fmt: str) -> str:
    if fmt == "json":
        payload = {
            "system": result.system,
            "x": result.x,
            "y": result.y,
            "space": {"dim": result.dim, "basis": result.basis},
        }
        if result.singular:
            payload["singular"] = [
                {"subset": label, "image": image} for label, image in result.singular
            ]
        return json.dumps(payload, indent=2)
    if fmt == "csv":
        lines = [f"# system: {result.system}", "x_word;y_word;subset;dim;row;entries"]

        def emit(label: str, dim: int, basis: list[list[str]]) -> None:
            if not basis:
                lines.append(f"{result.x};{result.y};{label};{dim};;")
            for k, row in enumerate(basis):
                lines.append(f"{result.x};{result.y};{label};{dim};{k};{','.join(row)}")

        emit("", result.dim, result.basis)
        for label, image in result.singular:
            emit(label, image["dim"], image["basis"])
        return "\n".join(lines)
    lines = [f"dim: {result.dim}"]
    lines.extend("basis: " + ",".join(row) for row in result.basis)
    for label, image in result.singular:
        lines.append(f"singular {label}: dim {image['dim']}")
        lines.extend("  basis: " + ",".join(row) for row in image["basis"])
    return "\n".join(lines)


def _render_verify(report: VerifyReport, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(report.to_json_dict(), indent=2)
    if fmt == "csv":
        lines = [f"# system: {report.system}", "suite;checked;failed"]
        lines.extend(f"{s.name};{s.checked};{s.failed}" for s in report.suites)
        return "\n".join(lines)
    lines = [f"system: {report.system}"]
    for s in report.suites:
        lines.append(f"{s.name}: checked={s.checked} failed={s.failed}")
        for w in s.witnesses:
            lines.append(f"  witness: {json.dumps(w, sort_keys=True)}")
    verdict = "PASS" if report.passed else "FAIL"
    lines.append(f"result: {verdict} ({report.elapsed_ms} ms)")
    return "\n".join(lines)


def _render_report(result: ReportResult, fmt: str) -> str:
    if fmt == "json":
        payload = result.summary_json_dict()
        payload["paths"] = result.paths
        payload["rtable_computed"] = result.rtable_computed
        payload["vtable_computed"] = result.vtable_computed
        return json.dumps(payload, indent=2, sort_keys=True)
    if fmt == "csv":
        lines = [f"# system: {result.system}", "key;value"]
        lines.append(f"group_order;{result.group_order}")
        lines.append(f"longest_length;{result.longest_length}")
        lines.append(f"comparable_pairs;{result.comparable_pairs}")
        lines.append(f"max_dim_v;{result.max_dim_v}")
        for k, v in sorted(result.gj_histogram.items()):
            lines.append(f"gj_{k};{v}")
        return "\n".join(lines)
    hist = " ".join(f"{k}:{v}" for k, v in sorted(result.gj_histogram.items()))
    lines = [
        f"system: {result.system}",
        f"group order: {result.group_order}",
        f"longest length: {result.longest_length}",
        f"comparable pairs: {result.comparable_pairs}",
        f"max dim: {result.max_dim_v}",
        f"gj histogram: {hist}",
    ]
    lines.extend(f"wrote: {p}" for p in result.paths.values())
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# argument parsing


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--type", required=True, help="type descriptor, e.g. A3 or A1xA2")
    parser.add_argument("--budget", type=int, default=DEFAULT_BUDGET,
                        help="largest group order the build will accept")
    parser.add_argument("--descent-policy", choices=DESCENT_POLICIES, default=DESCENT_POLICIES[0],
                        help="which right descent the recursions strip")
    parser.add_argument("--cache-dir", default=None,
                        help="directory for cache and report files")
    parser.add_argument("--format", choices=("text", "json", "csv"), default="text")
    parser.add_argument("--singular", action="append", default=None, metavar="IDXS",
                        help="singular subset like '0,2' (repeatable; '' is empty)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="verma-ext",
        description="Subspace tables and R-polynomials for finite Weyl groups.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("enumerate", help="list all group elements")
    _add_common(p)
    p = sub.add_parser("rpoly", help="R-polynomial of a pair x, y with y <= x")
    _add_common(p)
    p.add_argument("x_word")
    p.add_argument("y_word")
    p = sub.add_parser("vspace", help="the subspace V(x, y)")
    _add_common(p)
    p.add_argument("x_word")
    p.add_argument("y_word")
    p = sub.add_parser("verify", help="run all verification suites")
    _add_common(p)
    p = sub.add_parser("report", help="write cache, dimension and summary files")
    _add_common(p)
    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    cache_dir = os.environ.get("VERMA_EXT_CACHE") or args.cache_dir
    singular = ()
    if args.singular is not None:
        singular = tuple(SingularSpec.parse(text) for text in args.singular)
    return RunConfig(
        type_text=args.type,
        budget=args.budget,
        policy=args.descent_policy,
        singular=singular,
        cache_dir=Path(cache_dir) if cache_dir else None,
    )


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage problems; fold that into the usage bucket
        return 0 if exc.code == 0 else 1
    try:
        config = _config_from_args(args)
        if args.command == "enumerate":
            print(_render_enumerate(cmd_enumerate(config), args.format))
        elif args.command == "rpoly":
            print(_render_rpoly(cmd_rpoly(config, args.x_word, args.y_word), args.format))
        elif args.command == "vspace":
            print(_render_vspace(cmd_vspace(config, args.x_word, args.y_word), args.format))
        elif args.command == "verify":
            report = cmd_verify(config)
            print(_render_verify(report, args.format))
            if not report.passed:
                return 3
        else:
            print(_render_report(cmd_report(config), args.format))
        return 0
    except DOMAIN_ERRORS as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return 2
    except (LiftingViolation, InvariantViolation) as exc:
        print(f"verification failure: {exc}", file=_sys.stderr)
        return 3
    except VermaExtError as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
