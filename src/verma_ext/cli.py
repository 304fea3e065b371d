"""Command line driver.

    verma-ext enumerate --type A2
    verma-ext rpoly     --type A2 0,1,0 e
    verma-ext vspace    --type B2 0,1,0,1 e
    verma-ext verify    --type A3 --cache-dir ./cache
    verma-ext report    --type A2 --cache-dir ./cache

Words are comma-separated simple reflection indices (0-based); ``e`` is the
identity.  Exit codes: 0 success, 1 usage or configuration error, 2 domain
error (incomparable pair, unparseable word), 3 verification failure, 130
interrupted (one line, ``interrupted``, on stderr), 141 stdout closed by its
reader, with no traceback.

Each command is declared once, as a row of ``_COMMANDS``: its help, its
positional words, the flags it reads, its handler and its renderer.  The
parser is built from that table on first use and kept for the process.
Every command takes --type, --budget and --format; --descent-policy,
--cache-dir and --singular go only to the commands whose row names them,
and any other command refuses them as a usage error.

Each ``cmd_*`` returns its command's JSON payload.  ``--format json`` prints
that dict as is; the text and csv formats are rendered from it.

The environment variable VERMA_EXT_CACHE, when present, takes precedence
over --cache-dir for the commands that take it.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys as _sys
from collections import namedtuple
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
from .rpoly import gj_coefficient, load_rtable, save_rtable
from .vtable import SingularSpec, VTable, singular_v


# The options of one command run, from ``_config_from_args``; only ``vspace`` reads ``singular``.
RunConfig = namedtuple("RunConfig", "type_text budget policy singular cache_dir")


def cmd_enumerate(config: RunConfig) -> dict:
    sys = build_system(config.type_text, budget=config.budget)
    return {
        "system": fingerprint(sys),
        "type": str(sys.descriptor),
        "group_order": sys.group_order,
        "longest_length": longest_element(sys).length,
        "elements": [
            {"word": word_text(sys, g), "length": g.length} for g in enumerate_elements(sys)
        ],
    }


def cmd_rpoly(config: RunConfig, x_word: str, y_word: str) -> dict:
    """R-polynomial and signed q-coefficient of one pair, writing through the cache."""
    sys = build_system(config.type_text, budget=config.budget)
    x = element_from_word(sys, parse_word(x_word))
    y = element_from_word(sys, parse_word(y_word))
    rtable = load_rtable(sys, config.policy, config.cache_dir)
    gj = gj_coefficient(sys, x, y, rtable)  # raises NotComparable when y !<= x
    poly = rtable.r(y, x)
    save_rtable(rtable, config.cache_dir, rtable.memo_pairs())
    return {
        "system": fingerprint(sys),
        "x": word_text(sys, x),
        "y": word_text(sys, y),
        "coeffs": list(poly.coeffs),
        "poly": str(poly),
        "gj": gj,
    }


def cmd_vspace(config: RunConfig, x_word: str, y_word: str) -> dict:
    """V(x, y), plus its image under each --singular subset in flag order."""
    sys = build_system(config.type_text, budget=config.budget)
    x = element_from_word(sys, parse_word(x_word))
    y = element_from_word(sys, parse_word(y_word))
    space = VTable(sys, policy=config.policy).v(x, y)
    payload = {
        "system": fingerprint(sys),
        "x": word_text(sys, x),
        "y": word_text(sys, y),
        "space": space.to_json_dict(),
    }
    if config.singular:
        payload["singular"] = [
            {"subset": str(spec), "image": singular_v(sys, space, spec).to_json_dict()}
            for spec in config.singular
        ]
    return payload


def cmd_verify(config: RunConfig) -> dict:
    from .verify import run_verify  # here, so the single-pair commands never load the suites

    return run_verify(config.type_text, config.budget, config.policy, config.cache_dir)


def cmd_report(config: RunConfig) -> dict:
    from .verify import run_report

    return run_report(config.type_text, config.budget, config.policy, config.cache_dir)


# ---------------------------------------------------------------------------
# rendering: text and csv from a command's payload; json is the payload itself


def _render_enumerate(result: dict, fmt: str) -> str:
    if fmt == "csv":
        lines = [f"# system: {result['system']}", "word;length"]
        lines.extend(f"{e['word']};{e['length']}" for e in result["elements"])
        return "\n".join(lines)
    lines = [
        f"type: {result['type']}",
        f"group order: {result['group_order']}",
        f"longest length: {result['longest_length']}",
    ]
    lines.extend(f"{e['length']:3d}  {e['word']}" for e in result["elements"])
    return "\n".join(lines)


def _render_rpoly(result: dict, fmt: str) -> str:
    if fmt == "csv":
        return f"{result['y']};{result['x']};{','.join(str(c) for c in result['coeffs'])}"
    return f"{result['poly']}, gj={result['gj']}"


def _render_vspace(result: dict, fmt: str) -> str:
    spaces = [("", result["space"])]
    spaces.extend((s["subset"], s["image"]) for s in result.get("singular", ()))
    if fmt == "csv":
        lines = [f"# system: {result['system']}", "x_word;y_word;subset;dim;row;entries"]
        for label, space in spaces:
            prefix = f"{result['x']};{result['y']};{label};{space['dim']}"
            if not space["basis"]:
                lines.append(f"{prefix};;")
            lines.extend(f"{prefix};{k};{','.join(row)}" for k, row in enumerate(space["basis"]))
        return "\n".join(lines)
    lines = [f"dim: {result['space']['dim']}"]
    lines.extend("basis: " + ",".join(row) for row in result["space"]["basis"])
    for label, image in spaces[1:]:
        lines.append(f"singular {label}: dim {image['dim']}")
        lines.extend("  basis: " + ",".join(row) for row in image["basis"])
    return "\n".join(lines)


def _render_verify(report: dict, fmt: str) -> str:
    if fmt == "csv":
        lines = [f"# system: {report['system']}", "suite;checked;failed"]
        lines.extend(f"{s['name']};{s['checked']};{s['failed']}" for s in report["suites"])
        return "\n".join(lines)
    lines = [f"system: {report['system']}"]
    for s in report["suites"]:
        lines.append(f"{s['name']}: checked={s['checked']} failed={s['failed']}")
        for w in s["witnesses"]:
            lines.append(f"  witness: {json.dumps(w, sort_keys=True)}")
    verdict = "FAIL" if _failed(report) else "PASS"
    lines.append(f"result: {verdict} ({report['elapsed_ms']} ms)")
    return "\n".join(lines)


def _render_report(result: dict, fmt: str) -> str:
    # gj_histogram's keys are strings, stored in ascending numeric order
    if fmt == "csv":
        lines = [f"# system: {result['system']}", "key;value"]
        for key in ("group_order", "longest_length", "comparable_pairs", "max_dim_v"):
            lines.append(f"{key};{result[key]}")
        lines.extend(f"gj_{k};{v}" for k, v in result["gj_histogram"].items())
        return "\n".join(lines)
    hist = " ".join(f"{k}:{v}" for k, v in result["gj_histogram"].items())
    lines = [
        f"system: {result['system']}",
        f"group order: {result['group_order']}",
        f"longest length: {result['longest_length']}",
        f"comparable pairs: {result['comparable_pairs']}",
        f"max dim: {result['max_dim_v']}",
        f"gj histogram: {hist}",
    ]
    lines.extend(f"wrote: {p}" for p in result["paths"].values())
    return "\n".join(lines)


def _failed(payload: dict) -> bool:
    """True when a verify payload has a failed check; other payloads have no suites."""
    return any(s["failed"] for s in payload.get("suites", ()))


# ---------------------------------------------------------------------------
# commands, their flags and the parser built from them


# Every option, in the order a command's usage lists them.
_OPTIONS = {
    "--type": dict(required=True, help="type descriptor, e.g. A3 or A1xA2"),
    "--budget": dict(type=int, default=DEFAULT_BUDGET,
                     help="largest group order the build will accept"),
    "--descent-policy": dict(choices=DESCENT_POLICIES, default=DESCENT_POLICIES[0],
                             help="which right descent the recursions strip"),
    "--cache-dir": dict(default=None, help="directory for cache and report files"),
    "--format": dict(choices=("text", "json", "csv"), default="text"),
    "--singular": dict(action="append", default=None, metavar="IDXS",
                       help="singular subset like '0,2' (repeatable; '' is empty)"),
}
_EVERY_COMMAND = ("--type", "--budget", "--format")

# command -> (help, positional words, options beyond _EVERY_COMMAND, handler
# called with the run config and the words, renderer).  The lambdas look each
# cmd_* name up at call time, so a wrapper set on this module's attribute
# (perfbench's tracer sets one) sees every call.
_COMMANDS = {
    "enumerate": ("list all group elements", (), (),
                  lambda config: cmd_enumerate(config), _render_enumerate),
    "rpoly": ("R-polynomial of a pair x, y with y <= x", ("x_word", "y_word"),
              ("--descent-policy", "--cache-dir"),
              lambda config, x, y: cmd_rpoly(config, x, y), _render_rpoly),
    "vspace": ("the subspace V(x, y)", ("x_word", "y_word"), ("--descent-policy", "--singular"),
               lambda config, x, y: cmd_vspace(config, x, y), _render_vspace),
    "verify": ("run all verification suites", (), ("--descent-policy", "--cache-dir"),
               lambda config: cmd_verify(config), _render_verify),
    "report": ("write cache, dimension and summary files", (), ("--descent-policy", "--cache-dir"),
               lambda config: cmd_report(config), _render_report),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every command, built from ``_COMMANDS`` once per process."""
    parser = argparse.ArgumentParser(
        prog="verma-ext",
        description="Subspace tables and R-polynomials for finite Weyl groups.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, words, options, _, _) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for option, spec in _OPTIONS.items():
            if option in _EVERY_COMMAND or option in options:
                p.add_argument(option, **spec)
        for word in words:
            p.add_argument(word)
    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    """The run config; a field whose flag the command lacks keeps its default."""
    given = vars(args)
    cache_dir = "cache_dir" in given and (os.environ.get("VERMA_EXT_CACHE") or args.cache_dir)
    return RunConfig(
        type_text=args.type,
        budget=args.budget,
        policy=given.get("descent_policy", DESCENT_POLICIES[0]),
        singular=tuple(SingularSpec.parse(text) for text in given.get("singular") or ()),
        cache_dir=Path(cache_dir) if cache_dir else None,
    )


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage problems; fold that into the usage bucket
        return 0 if exc.code == 0 else 1
    try:
        config = _config_from_args(args)
        _, words, _, handler, render = _COMMANDS[args.command]
        payload = handler(config, *(getattr(args, word) for word in words))
        if args.format == "json":
            print(json.dumps(payload, indent=2, sort_keys=args.command == "report"))
        else:
            print(render(payload, args.format))
        _sys.stdout.flush()  # so a closed pipe fails here, where it is caught, not at exit
        return 3 if _failed(payload) else 0
    except KeyboardInterrupt:
        print("interrupted", file=_sys.stderr)
        return 130
    except BrokenPipeError:
        # The reader went away (``| head``).  Point stdout at devnull so the
        # interpreter's final flush has nothing to fail on, as the docs of
        # Python's signal module advise, and exit as a SIGPIPE would.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, _sys.stdout.fileno())
        os.close(devnull)
        return 141
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
