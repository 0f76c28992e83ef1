"""Command-line front end.

Subcommands: ``check`` (compliance under both semantics), ``agree``
(eager-strategy verdict or winning-strategy search), ``export`` (event
structure JSON, event-labelled DOT, turn-based DOT) and ``corpus`` (the
randomised theorem harness).  Types are given inline or with ``@file``.

Exit codes: 0 for a positive verdict (compliant / winning / clean corpus),
1 for a negative one, 2 for errors (running out of memory included),
indeterminate results and an ``agree`` whose game arena hit the default
state limit, 2 for an ``export --what ts|ets`` whose system hit
``--limit`` (the truncated system is still written, and stderr says so),
and 2 with nothing on stderr when the reader
closes stdout early (``stgames export ... | head``).  ``export`` writes its pieces as it
makes them, so such an export has already written part of its output;
it still exits 2.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import sys
from pathlib import Path

from .denote import DEFAULT_UNROLL_DEPTH
from .estructure import es_json_chunks, ets, ets_to_dot
from .game import compose_session_contracts, eager_winning, find_winning_strategy
from .harness import CorpusSpec, run_corpus, turn_lts
from .opsem import DEFAULT_STATE_LIMIT, check_compliance, check_compliance_turn
from .syntax import ParseError, assert_valid, parse, pretty


def _load_type(text: str):
    if text.startswith("@"):
        try:
            text = Path(text[1:]).read_text(encoding="utf-8-sig")
        except (OSError, UnicodeDecodeError) as exc:
            raise ValueError(f"cannot read {text[1:]}: {exc}") from None
    try:
        term = parse(text)
    except ParseError as exc:
        raise ValueError(f"parse error: {exc}") from None
    assert_valid(term)
    return term


def _emit(data: dict, fmt: str, out) -> None:
    if fmt == "json":
        print(json.dumps(data, indent=2, sort_keys=True, ensure_ascii=False), file=out)
    else:
        for key, value in data.items():
            print(f"{key}: {value}", file=out)


def cmd_check(args, out) -> int:
    p = _load_type(args.client)
    q = _load_type(args.server)
    # _load_type has validated both types
    reduction = check_compliance(p, q, args.limit, validate_inputs=False)
    turn = check_compliance_turn(p, q, args.limit, validate_inputs=False)
    payload = {
        "client": pretty(p),
        "server": pretty(q),
        "reduction": reduction.to_json(),
        "turn_based": turn.to_json(),
        "agree": reduction.status == turn.status,
    }
    _emit(payload, args.format, out)
    if "indeterminate" in (reduction.status, turn.status) or reduction.status != turn.status:
        return 2
    return 0 if reduction.is_compliant else 1


def cmd_agree(args, out) -> int:
    p = _load_type(args.client)
    q = _load_type(args.server)
    who = args.participants[0] if args.participant is None else args.participant
    if who not in args.participants:
        raise ValueError(f"unknown participant {who}")
    contract = compose_session_contracts(p, args.participants[0], q, args.participants[1], args.depth)
    if args.strategy == "eager":
        verdict = eager_winning(contract, who)
        payload = verdict.to_json()
        if contract.bounded_depth is not None:
            payload["note"] = f"bounded at depth {contract.bounded_depth}"
        _emit(payload, args.format, out)
        return 0 if verdict.winning else 1
    strategy = find_winning_strategy(contract, who)
    payload = {
        "participant": who,
        "strategy": "synthesized",
        "winning": strategy is not None,
        "prescriptions": strategy.to_json() if strategy else None,
        "bounded_depth": contract.bounded_depth,
    }
    _emit(payload, args.format, out)
    return 0 if strategy is not None else 1


def _write(chunks, out) -> None:
    for chunk in chunks:
        out.write(chunk)
    out.write("\n")


def cmd_export(args, out) -> int:
    p = _load_type(args.client)
    q = _load_type(args.server)
    # both checked here, not where they are read: `es` explores nothing and
    # `ts` composes nothing
    if args.limit <= 0:
        raise ValueError("state limit must be positive")
    if args.depth < 0:
        raise ValueError("unroll depth must be non-negative")
    system = None
    if args.what == "ts":
        system = turn_lts(p, q, args.limit)
        chunks = [system.to_dot(name="ts")]
    else:
        a, b = args.participants
        composed = compose_session_contracts(p, a, q, b, args.depth).es
        if args.what == "es":
            # written as it is made: the whole text is never held
            chunks = es_json_chunks(composed)
        else:
            system = ets(composed, step_bound=args.limit)
            chunks = [ets_to_dot(composed, system)]
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as dest:
                _write(chunks, dest)
        except OSError as exc:
            raise ValueError(f"cannot write {args.output}: {exc}") from None
    else:
        _write(chunks, out)
    if system is not None and system.truncated:
        raise ValueError(f"state limit {args.limit} reached; the exported system is truncated")
    return 0


def cmd_corpus(args, out) -> int:
    spec = CorpusSpec(
        seed=args.seed,
        count=args.count,
        max_depth=args.max_depth,
        max_branch=args.max_branch,
        allow_recursion=args.recursive,
        unroll_depth=args.unroll_depth,
    )
    summary = run_corpus(spec)
    _emit(summary.to_json(), args.format, out)
    return 0 if summary.ok else 1


# One helper per option group; each subcommand adds the groups it reads.

def _add_types(p: argparse.ArgumentParser) -> None:
    p.add_argument("client", help="client session type (inline text or @file)")
    p.add_argument("server", help="server session type (inline text or @file)")


def _add_denotation(p: argparse.ArgumentParser) -> None:
    p.add_argument("--participants", nargs=2, default=("A", "B"), metavar=("A", "B"),
                   help="participant names (default: A B)")
    p.add_argument("--depth", type=int, default=DEFAULT_UNROLL_DEPTH,
                   help="recursion unroll depth (default: %(default)s)")


def _add_limit(p: argparse.ArgumentParser) -> None:
    p.add_argument("--limit", type=int, default=DEFAULT_STATE_LIMIT,
                   help="state limit for explorations (default: %(default)s)")


def _add_format(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=("json", "text"), default="json")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stgames",
        description="Session-type compliance and game-based contract checking",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="decide compliance under both semantics")
    _add_types(check)
    _add_limit(check)
    _add_format(check)
    check.set_defaults(run=cmd_check)

    agree = sub.add_parser("agree", help="eager verdict or winning-strategy search")
    _add_types(agree)
    _add_denotation(agree)
    # both games read the arena at the default state limit, so agree has no --limit
    _add_format(agree)
    agree.add_argument("--strategy", choices=("eager", "search"), default="eager")
    agree.add_argument("--participant", help="whose side to check (default: the client's owner)")
    agree.set_defaults(run=cmd_agree)

    # export writes JSON (es) or DOT (ets, ts) by --what, so it has no --format
    export = sub.add_parser("export", help="write the ES as JSON or a system as DOT")
    _add_types(export)
    _add_denotation(export)
    _add_limit(export)
    export.add_argument("--what", choices=("es", "ets", "ts"), default="es")
    export.add_argument("-o", "--output", help="output file (default: stdout)")
    export.set_defaults(run=cmd_export)

    corpus = sub.add_parser("corpus", help="run the randomised theorem harness")
    _add_format(corpus)
    corpus.add_argument("--seed", type=int, default=42)
    corpus.add_argument("--count", type=int, default=500)
    corpus.add_argument("--recursive", action="store_true")
    corpus.add_argument("--unroll-depth", type=int, default=CorpusSpec.unroll_depth)
    corpus.add_argument("--max-depth", type=int, default=CorpusSpec.max_depth)
    corpus.add_argument("--max-branch", type=int, default=CorpusSpec.max_branch)
    corpus.set_defaults(run=cmd_corpus)
    return parser


def main(argv: list[str] | None = None, out=None) -> int:
    """Run one command and return its exit code (see the module docstring).

    ``argv`` defaults to ``sys.argv[1:]`` and ``out`` to ``sys.stdout``,
    which is switched to UTF-8 whatever the locale, as ``-o`` files are
    written.  Argparse errors and ``--help`` raise ``SystemExit`` (2 and 0)
    as argparse does; every other failure is a one-line ``error:`` on
    stderr and exit 2.
    """
    if out is None:
        out = sys.stdout
        # a replaced stream (a StringIO) has no encoding to switch
        if isinstance(out, io.TextIOWrapper):
            out.reconfigure(encoding="utf-8")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.run(args, out)
        out.flush()
        return code
    except BrokenPipeError:
        # the reader closed stdout early: point it at devnull, so the flush
        # at interpreter exit does not fail again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RecursionError:
        print("error: input nested too deeply to analyse (recursion limit reached)", file=sys.stderr)
        return 2
    except (MemoryError, SystemError) as exc:
        # CPython 3.11 and 3.12 raise this SystemError in place of a
        # MemoryError when a Python call finds no memory for its frame
        if isinstance(exc, SystemError) and str(exc) != "error return without exception set":
            raise
    # out of memory: reported past the handler, whose traceback still holds
    # the failed computation's frames, so printing there could fail again
    print("error: out of memory (the input is too large to analyse at this depth or limit)",
          file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
