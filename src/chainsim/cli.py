"""Command-line front door: run scenarios, compare BFS with DFS, fuzz.

Exit codes: 0 success, 1 expectation/divergence/violation, 2 usage,
parse, setup or file error (`main` maps them all), 3 internal error.
Output is plain line-oriented text (no styling, so NO_COLOR needs nothing
special).
"""

from __future__ import annotations

import argparse
import json
import sys

from .core import render_value
from .features import FeatureSet
from .harness import DEFAULT_INVARIANTS, INVARIANT_NAMES, default_universe, fuzz
from .scenario import (
    Scenario,
    ScenarioParseError,
    SetupError,
    load_scenario,
    run_scenario,
)
from .scheduler import Strategy
from .trace import tree_to_json

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3


def _err(message: str) -> None:
    print(f"error: {message}", file=sys.stderr)


def _parse_strategy(name: str) -> Strategy:
    try:
        return Strategy(name)
    except ValueError:
        raise SetupError(f"unknown strategy {name!r} (choose bfs or dfs)") from None


def _parse_features(raw: str) -> FeatureSet:
    names = [part for part in raw.replace(",", " ").split() if part]
    try:
        return FeatureSet.from_names(names)
    except ValueError as err:
        raise SetupError(str(err)) from None


def _print_run(outcome, scenario: Scenario, step: bool) -> None:
    if step:
        for idx, tree in enumerate(outcome.trees):
            author = scenario.transactions[idx].author
            print(f"transaction {idx + 1} from @{author}")
            for state in tree.queue_states:
                print(f"  {state}")
            line = f"  {tree.outcome}"
            if tree.reason:
                line += f" ({tree.reason})"
            print(line)
    for r in outcome.results:
        verdict = "PASS" if r.ok else f"FAIL ({r.actual})"
        print(f"{r.label}: {verdict}")


def cmd_run(args: argparse.Namespace) -> int:
    scenario = load_scenario(args.file)
    # Only the flags given override the scenario's declared settings.
    overrides: dict = {}
    if args.strategy:
        overrides["strategy"] = _parse_strategy(args.strategy)
    if args.features is not None:
        overrides["features"] = _parse_features(args.features)
    if args.fuel is not None:
        overrides["fuel"] = args.fuel
    if args.step:
        overrides["record_queue_states"] = True
    outcome = run_scenario(scenario, **overrides)
    _print_run(outcome, scenario, args.step)
    if args.trace:
        payload = [tree_to_json(tree) for tree in outcome.trees]
        with open(args.trace, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return EXIT_OK if outcome.passed else EXIT_FAILED


def cmd_compare(args: argparse.Namespace) -> int:
    scenario = load_scenario(args.file)
    outcomes = [(s, run_scenario(scenario, strategy=s)) for s in Strategy]
    for strategy, outcome in outcomes:
        tx_summaries = []
        for tree in outcome.trees:
            if tree.committed:
                tx_summaries.append("commit")
            else:
                tx_summaries.append(f"revert ({tree.reason})")
        print(f"strategy {strategy.value}: {'; '.join(tx_summaries) or 'no transactions'}")
        env = outcome.env_after
        for addr in sorted(env.accounts):
            contract = env.get(addr)
            print(
                f"  @{addr} balance={contract.balance}"
                f" storage={render_value(contract.storage)}"
            )

    first = outcomes[0][1]
    identical = all(
        o.env_after == first.env_after
        and [(t.outcome, t.reason) for t in o.trees]
        == [(t.outcome, t.reason) for t in first.trees]
        for _, o in outcomes[1:]
    )
    print(f"comparison: {'IDENTICAL' if identical else 'DIVERGENT'}")
    return EXIT_OK if identical else EXIT_FAILED


def cmd_fuzz(args: argparse.Namespace) -> int:
    if args.iterations < 1:
        raise SetupError("--iterations must be at least 1")
    if args.invariants is not None:
        invariants = tuple(part for part in args.invariants.split(",") if part)
        unknown = [name for name in invariants if name not in INVARIANT_NAMES]
        if unknown or not invariants:
            what = f"unknown invariant {unknown[0]!r}" if unknown else "--invariants names none"
            raise SetupError(f"{what} (choose from {', '.join(INVARIANT_NAMES)})")
    else:
        invariants = DEFAULT_INVARIANTS
    env, gen_cfg = default_universe(args.seed)
    report = fuzz(env, gen_cfg, args.iterations, invariants)
    payload = json.dumps(report.to_json_dict(), indent=2, sort_keys=True)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(payload + "\n")
    else:
        print(payload)
    print(f"iterations={report.iterations} violations={len(report.violations)}")
    return EXIT_OK if report.ok else EXIT_FAILED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chainsim",
        description="Deterministic multi-contract execution simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a scenario file and judge its expectations")
    run.add_argument("file")
    run.add_argument("--strategy", help="override the declared strategy (bfs|dfs)")
    run.add_argument("--fuel", type=int, help="override the declared fuel bound")
    run.add_argument("--features", help="override declared features (comma separated)")
    run.add_argument("--trace", help="write per-transaction trace JSON to this path")
    run.add_argument(
        "--step", action="store_true", help="print each pending-queue state"
    )
    run.set_defaults(fn=cmd_run)

    compare = sub.add_parser("compare", help="run one scenario under bfs and under dfs")
    compare.add_argument("file")
    compare.set_defaults(fn=cmd_compare)

    fz = sub.add_parser("fuzz", help="fuzz the default universe against invariants")
    fz.add_argument("--seed", type=int, default=7)
    fz.add_argument("--iterations", type=int, default=100)
    fz.add_argument(
        "--invariants", help=f"comma separated subset of: {', '.join(INVARIANT_NAMES)}"
    )
    fz.add_argument("--out", help="write the report JSON to this path")
    fz.set_defaults(fn=cmd_fuzz)
    return parser


def main(argv: "list[str] | None" = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 for --help and 2 (EXIT_USAGE) for a usage error.
        return int(exc.code or 0)
    try:
        return args.fn(args)
    except ScenarioParseError as err:
        _err(f"{args.file}:{err}")
    except (OSError, SetupError) as err:
        _err(str(err))
    except Exception as err:  # pragma: no cover - defensive catch-all
        _err(f"internal error: {err!r}")
        return EXIT_INTERNAL
    return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
