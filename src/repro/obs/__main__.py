"""Observability command line: ``python -m repro.obs <command>``.

Commands::

    list            print the ledger's entries
    diff A B        per-metric before/after table between two entries
    validate-trace  check a Chrome trace JSON file against the schema

Entry selectors for ``diff`` accept ``latest``, ``prev``, integer
indices (negatives count from the end) and ``label`` / ``label@-2``
forms; see :meth:`repro.obs.ledger.Ledger.resolve`.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from repro.obs.ledger import Ledger, render_diff
from repro.obs.tracing import validate_trace_file


def _cmd_list(args: argparse.Namespace) -> int:
    ledger = Ledger(args.ledger)
    records, problems = ledger.scan()
    for index, record in enumerate(records):
        print(
            f"[{index}] {record.timestamp}  {record.label:<32} "
            f"wall {record.wall_seconds:>8.3f}s  "
            f"{record.events_per_second:>10.0f} ev/s  "
            f"rss {record.peak_rss_kb:>8d} kB"
        )
    for problem in problems:
        print(problem, file=sys.stderr)
    if not records:
        print(f"(ledger {ledger.path} is empty)")
    return 0


def _cmd_diff(args: argparse.Namespace) -> int:
    ledger = Ledger(args.ledger)
    try:
        before = ledger.resolve(args.a)
        after = ledger.resolve(args.b)
    except LookupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(render_diff(before, after))
    return 0


def _cmd_validate_trace(args: argparse.Namespace) -> int:
    problems = validate_trace_file(args.path)
    if problems:
        for problem in problems:
            print(problem, file=sys.stderr)
        print(f"INVALID: {args.path} ({len(problems)} problems)",
              file=sys.stderr)
        return 1
    print(f"valid Chrome trace: {args.path}")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="benchmark ledger and trace tooling",
    )
    parser.add_argument("--ledger", default=None,
                        help="ledger file (default BENCH_obs.json or "
                             "$REPRO_LEDGER)")
    sub = parser.add_subparsers(dest="command", required=True)

    p_list = sub.add_parser("list", help="print every ledger entry")
    p_list.set_defaults(fn=_cmd_list)

    p_diff = sub.add_parser("diff", help="before/after table of two entries")
    p_diff.add_argument("a", help="before: latest | prev | index | label[@-N]")
    p_diff.add_argument("b", help="after: same selectors")
    p_diff.set_defaults(fn=_cmd_diff)

    p_validate = sub.add_parser("validate-trace",
                                help="validate a Chrome trace JSON file")
    p_validate.add_argument("path")
    p_validate.set_defaults(fn=_cmd_validate_trace)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
