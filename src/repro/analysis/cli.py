"""The ``python -m repro lint`` subcommand.

Kept in the analysis package so :mod:`repro.cli` only pays the import
when the subcommand actually runs.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace

from repro.analysis.config import load_config
from repro.analysis.engine import lint_paths
from repro.analysis.registry import selected_rules
from repro.analysis.reporters import render_json, render_rule_list, render_text


def add_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("paths", nargs="*", default=None,
                        help="files/directories to lint (default: the "
                             "[tool.repro-lint] paths: src, benchmarks)")
    parser.add_argument("--format", choices=("text", "json"), default="text",
                        help="report format")
    parser.add_argument("--select", nargs="+", default=(), metavar="RULE",
                        help="run only these rule ids")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the rule catalogue and exit")
    parser.add_argument("--verbose", action="store_true",
                        help="also show suppressed findings")


def run(args: argparse.Namespace) -> int:
    try:
        return _run(args)
    except BrokenPipeError:
        # The reader (``head``, a pager) closed the pipe mid-report.
        # Point stdout at devnull so the interpreter's exit-time flush
        # does not raise again, and exit quietly like any Unix filter.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


def _run(args: argparse.Namespace) -> int:
    try:
        if args.list_rules:
            print(render_rule_list(selected_rules(tuple(args.select))))
            return 0
        config = replace(load_config(), select=tuple(args.select))
        result = lint_paths(tuple(args.paths), config)
    except ValueError as exc:  # unknown rule id / bad or missing config
        print(f"repro-lint: {exc}", file=sys.stderr)
        return 2
    if args.format == "json":
        print(render_json(result))
    else:
        print(render_text(result, verbose=args.verbose))
    return 0 if result.ok else 1
