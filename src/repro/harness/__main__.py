"""Entry point: figures/tables, smoke bench, chaos matrix, load harness.

The usage examples below are generated from ``_EXAMPLES`` (one source of
truth — the module docstring, ``--help`` epilog and README stay in sync
by construction).

Usage::

    python -m repro.harness                   # all experiments, small scale
    python -m repro.harness fig7 fig10        # a subset of experiments
    python -m repro.harness --scale paper     # paper-scale modeled series
    python -m repro.harness --out results/    # also write one .txt per exp
    python -m repro.harness bench             # smoke bench -> BENCH_smoke.json
    python -m repro.harness chaos --smoke     # fault matrix -> CHAOS_report.json
    python -m repro.harness serve --smoke     # load harness -> SERVE_report.json
"""

from __future__ import annotations

import argparse
import pathlib
import sys

# subcommand name -> (module with main(), one-line description)
_COMMANDS = {
    "bench": ("repro.obs.bench", "modeled smoke bench -> BENCH_smoke.json"),
    "chaos": ("repro.faults.chaos", "fault-injection matrix -> "
              "CHAOS_report.json (--smoke for CI size)"),
    "serve": ("repro.serve.loadgen", "load harness, single-server suite "
              "-> SERVE_report.json (--smoke for CI size)"),
    "shard": ("repro.serve.loadgen", "load harness, sharded Zipf suite -> "
              "SHARD_report.json (--smoke for CI size)"),
    "adapt": ("repro.adapt.harness", "incremental-update harness -> "
              "ADAPT_report.json (--smoke for CI size)"),
}
#: the subcommands that are suites of the one load harness: its main()
#: takes the subcommand name as the suite to run
_SUITES = ("serve", "shard")

# (example invocation, what it does) — the single source of the usage block
_EXAMPLES = (
    ("python -m repro.harness", "all experiments, small scale"),
    ("python -m repro.harness fig7 fig10", "a subset of experiments"),
    ("python -m repro.harness --scale paper", "paper-scale modeled series"),
    ("python -m repro.harness --out results/", "also write one .txt per exp"),
    ("python -m repro.harness bench", "smoke bench -> BENCH_smoke.json"),
    ("python -m repro.harness chaos --smoke",
     "fault matrix -> CHAOS_report.json"),
    ("python -m repro.harness serve --smoke",
     "load harness -> SERVE_report.json"),
    ("python -m repro.harness shard --smoke",
     "sharded tier -> SHARD_report.json"),
    ("python -m repro.harness adapt --smoke",
     "delta updates -> ADAPT_report.json"),
)


def _usage_block() -> str:
    width = max(len(cmd) for cmd, _ in _EXAMPLES)
    return "\n".join(f"    {cmd:<{width}}  # {why}" for cmd, why in _EXAMPLES)


def _epilog() -> str:
    sub = "\n".join(
        f"  {name:<7} {desc}" for name, (_, desc) in sorted(_COMMANDS.items())
    )
    return (
        f"subcommands (each takes its own --help):\n{sub}\n\n"
        f"examples:\n{_usage_block()}"
    )


# keep the module docstring's usage block in lockstep with _EXAMPLES
__doc__ = (
    __doc__.split("Usage::")[0] + "Usage::\n\n" + _usage_block() + "\n"
)


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] in _COMMANDS:
        import importlib

        main = importlib.import_module(_COMMANDS[argv[0]][0]).main
        if argv[0] in _SUITES:
            return main(argv[1:], suite=argv[0])
        return main(argv[1:])

    from repro.harness.registry import EXPERIMENTS, run_experiment
    from repro.util.tables import render_many

    ap = argparse.ArgumentParser(
        prog="python -m repro.harness",
        description="Reproduce the paper's tables and figures",
        epilog=_epilog(),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    ap.add_argument(
        "experiments", nargs="*", default=[],
        help=f"subset to run (default: all of {sorted(EXPERIMENTS)})",
    )
    ap.add_argument("--scale", choices=["small", "paper"], default="small")
    ap.add_argument("--out", type=pathlib.Path, default=None)
    args = ap.parse_args(argv)

    names = args.experiments or sorted(EXPERIMENTS)
    if args.out:
        args.out.mkdir(parents=True, exist_ok=True)
    for name in names:
        tables = run_experiment(name, args.scale)
        text = render_many(tables)
        print(f"\n{'=' * 72}\n# {name}\n{'=' * 72}")
        print(text)
        if args.out:
            (args.out / f"{name}.txt").write_text(text + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
