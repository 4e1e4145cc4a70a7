import json
import os
import pathlib
import random
import re
import subprocess
import sys

import pytest

from chainsim import cli, harness
from chainsim.core import Transfer, make_param
from chainsim.features import FEATURE_NAMES
from chainsim.scenario import MAX_NESTING, print_scenario
from chainsim.scheduler import SchedulerConfig, SignedTransaction
from conftest import GOLDEN_DIR, SCENARIO_DIR, scenario_path
from scenario_gen import random_scenario


def run_cli(*args, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "chainsim", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
    )


def golden(name: str) -> str:
    return (GOLDEN_DIR / name).read_text(encoding="utf-8")


# The commands `cli_matrix.txt` freezes for every fixture, file name second.
MATRIX_COMMANDS = (
    ("run", "--step", "--features", ",".join(FEATURE_NAMES)),
    ("run", "--strategy", "dfs", "--step"),
    ("run", "--step", "--fuel", "3"),
    ("compare",),
)


def cli_matrix(capsys) -> str:
    """Each fixture under each matrix command, run in-process from the
    repository root: `$ chainsim <args>`, then stdout, then `exit N`."""
    capsys.readouterr()
    blocks = []
    for path in sorted(SCENARIO_DIR.glob("*.msc")):
        for command, *flags in MATRIX_COMMANDS:
            argv = [command, f"scenarios/{path.name}", *flags]
            code = cli.main(argv)
            out = capsys.readouterr().out
            blocks.append(f"$ chainsim {' '.join(argv)}\n{out}exit {code}\n")
    return "".join(blocks)


def test_cli_matrix(capsys, monkeypatch):
    monkeypatch.chdir(SCENARIO_DIR.parent)
    assert cli_matrix(capsys) == golden("cli_matrix.txt")


# Runs `chainsim run --step --trace` on every fixture and on argv[2] with
# every feature on, printing each run's output and trace, then `chainsim fuzz
# --iterations 300 --seed 5`. argv[1] is the trace file.
HASH_SEED_PROGRAM = """
import pathlib, sys
from chainsim import cli
from chainsim.features import FEATURE_NAMES
trace = pathlib.Path(sys.argv[1])
for path in [*sorted(pathlib.Path("scenarios").glob("*.msc")), sys.argv[2]]:
    argv = ["run", str(path), "--step", "--trace", str(trace), "--features", ",".join(FEATURE_NAMES)]
    print(f"exit {cli.main(argv)}", trace.read_text(encoding="utf-8"), sep="\\n")
print(f"exit {cli.main(['fuzz', '--iterations', '300', '--seed', '5'])}")
"""

# No fixture restricts to more than one address. Here both wrappers wait in
# the queue behind the first transfer, so `--step` prints their lists.
MANY_ADDRESS_RESTRICTIONS = """
scenario "many-address-restrictions"
account @user balance 50
account @x balance 0
account @y balance 0
account @z balance 0
account @w balance 0
account @v balance 0
account @u balance 0
transaction from @user {
  transfer 1 to @x
  allow [@z @y @x @w @v @u] {
    transfer 1 to @y
  }
  block [@u @w @v @z @y] {
    transfer 1 to @x
  }
}
expect commit
"""


def test_output_is_independent_of_the_hash_seed(tmp_path):
    # Nothing a run prints may follow set or dict order of hashed strings.
    src = pathlib.Path(cli.__file__).resolve().parent.parent
    restrictions = tmp_path / "many_address_restrictions.msc"
    restrictions.write_text(MANY_ADDRESS_RESTRICTIONS, encoding="utf-8")
    outputs = []
    for seed in ("0", "1", "2"):
        proc = subprocess.run(
            [
                sys.executable, "-c", HASH_SEED_PROGRAM,
                str(tmp_path / f"trace{seed}.json"), str(restrictions),
            ],
            capture_output=True,
            text=True,
            cwd=SCENARIO_DIR.parent,
            env={**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": str(src)},
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    exits = [line for line in outputs[0].splitlines() if line.startswith("exit ")]
    assert len(exits) == len(list(SCENARIO_DIR.glob("*.msc"))) + 2
    assert "allow[@u, @v, @w, @x, @y, @z]{" in outputs[0]
    assert "block[@u, @v, @w, @y, @z]{" in outputs[0]
    assert outputs[0].endswith("iterations=300 violations=0\nexit 0\n")
    assert outputs[1] == outputs[0] and outputs[2] == outputs[0]


class TestRun:
    def test_passing_scenario_exits_zero(self):
        proc = run_cli("run", str(scenario_path("vault_bfs_attack.msc")))
        assert proc.returncode == 0
        assert "balance @vault = 0: PASS" in proc.stdout

    def test_step_output_matches_golden(self):
        proc = run_cli("run", str(scenario_path("vault_bfs_attack.msc")), "--step")
        assert proc.returncode == 0
        assert proc.stdout == golden("vault_step.txt")

    def test_strategy_override_fails_expectations(self):
        proc = run_cli(
            "run", str(scenario_path("vault_bfs_attack.msc")), "--strategy", "dfs"
        )
        assert proc.returncode == 1
        assert "FAIL" in proc.stdout

    def test_missing_file_is_usage_error(self):
        proc = run_cli("run", "missing.msc")
        assert proc.returncode == 2
        assert "error:" in proc.stderr

    def test_parse_error_is_usage_error(self, tmp_path):
        bad = tmp_path / "bad.msc"
        bad.write_text("scenario vault")
        proc = run_cli("run", str(bad))
        assert proc.returncode == 2
        assert "expected" in proc.stderr

    def test_unknown_strategy_flag(self):
        proc = run_cli(
            "run", str(scenario_path("vault_bfs_attack.msc")), "--strategy", "zig"
        )
        assert proc.returncode == 2

    def test_trace_json_written(self, tmp_path):
        out = tmp_path / "trace.json"
        proc = run_cli(
            "run",
            str(scenario_path("vault_bfs_attack.msc")),
            "--trace",
            str(out),
        )
        assert proc.returncode == 0
        payload = json.loads(out.read_text())
        assert isinstance(payload, list) and len(payload) == 1
        tree = payload[0]
        assert tree["outcome"] == "commit"
        assert tree["ts"] == 0
        node = tree["nodes"][0]
        assert {"id", "parent", "seq", "sender", "kind", "status", "deltas", "commits"} <= set(node)

    def test_unknown_feature_flag(self):
        proc = run_cli(
            "run", str(scenario_path("vault_bfs_attack.msc")), "--features", "bogus"
        )
        assert proc.returncode == 2
        assert proc.stderr == "error: unknown feature: 'bogus'\n"

    def test_unwritable_trace_is_usage_error(self, tmp_path):
        trace = tmp_path / "missing" / "t.json"
        proc = run_cli(
            "run", str(scenario_path("vault_bfs_attack.msc")), "--trace", str(trace)
        )
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: ") and str(trace) in proc.stderr
        assert "internal error" not in proc.stderr

    def test_call_with_thousands_of_arguments(self, tmp_path):
        # 5,000 arguments nest 5,000 pairs deep, past the recursion limit.
        path = tmp_path / "wide.msc"
        args = ", ".join(["1"] * 5000)
        path.write_text(
            'scenario "wide"\naccount @a balance 10\naccount @b balance 0\n'
            f"transaction from @a {{\n  transfer 1 to @b call f({args})\n}}\n"
            "expect revert\n"
        )
        proc = run_cli("run", str(path), "--step", "--trace", str(tmp_path / "t.json"))
        assert proc.returncode == 0, proc.stderr
        assert "  revert (type_mismatch: @b does not declare entrypoint 'f')\n" in proc.stdout
        assert json.loads((tmp_path / "t.json").read_text())[0]["outcome"] == "revert"

    def test_feature_override(self):
        # stripping the contexts feature makes the fixture revert
        proc = run_cli(
            "run", str(scenario_path("context_frames.msc")), "--features", ""
        )
        assert proc.returncode == 1

    def test_fuel_override(self):
        proc = run_cli(
            "run", str(scenario_path("vault_bfs_attack.msc")), "--fuel", "2"
        )
        assert proc.returncode == 1
        assert "FAIL" in proc.stdout

    def test_zero_fuel_in_file_is_positioned_parse_error(self, tmp_path):
        path = tmp_path / "fuel0.msc"
        path.write_text('scenario "x"\nfuel 0\naccount @a balance 5\n')
        proc = run_cli("run", str(path))
        assert proc.returncode == 2
        assert _position(proc, path) == (2, 6)
        assert "expected a fuel bound of at least 1, found '0'" in proc.stderr

    def test_zero_fuel_flag_is_setup_error(self):
        proc = run_cli("run", str(scenario_path("vault_bfs_attack.msc")), "--fuel", "0")
        assert proc.returncode == 2
        assert proc.stderr == "error: fuel must be at least 1\n"

    def test_forwarder_overflow_reverts(self, tmp_path):
        path = tmp_path / "overflow.msc"
        path.write_text(
            'scenario "overflow"\n'
            "account @u balance 5\n"
            "contract @f code forwarder config unit storage 18446744073709551615 balance 0\n"
            "transaction from @u {\n  transfer 1 to @f\n}\n"
        )
        proc = run_cli("run", str(path), "--step")
        assert proc.returncode == 0, proc.stderr
        assert "revert (overflow: @f overflows: amount out of range" in proc.stdout
        assert "internal error" not in proc.stderr


class TestCompare:
    def test_divergent_strategies(self):
        proc = run_cli("compare", str(scenario_path("vault_bfs_attack.msc")))
        assert proc.returncode == 1
        assert proc.stdout == golden("vault_compare.txt")
        assert "DIVERGENT" in proc.stdout

    def test_identical_for_pure_deposit(self):
        proc = run_cli("compare", str(scenario_path("vault_deposit.msc")))
        assert proc.returncode == 0
        assert proc.stdout == golden("deposit_compare.txt")
        assert "IDENTICAL" in proc.stdout

    def test_single_strategy_is_usage_error(self):
        # compare always runs BFS, then DFS; it has no option to choose them.
        proc = run_cli(
            "compare", str(scenario_path("vault_deposit.msc")), "--strategies", "bfs"
        )
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "error: unrecognized arguments: --strategies bfs" in proc.stderr


# A two-byte character before the byte that is not UTF-8, so the column
# counts characters: `expect ` is 7, `é` the 8th, and 0xff the 9th.
NOT_UTF8 = b'scenario "x"\naccount @a balance 1\nexpect \xc3\xa9\xff total = 1\n'


@pytest.mark.parametrize("command", ["run", "compare"])
def test_a_byte_that_is_not_utf8_is_a_positioned_parse_error(tmp_path, capsys, command):
    path = tmp_path / "latin.msc"
    path.write_bytes(NOT_UTF8)
    assert cli.main([command, str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: {path}:3:9: expected UTF-8 text, found byte 0xff\n"


def test_total_past_the_largest_amount_fails_the_expectation(tmp_path, capsys):
    path = tmp_path / "total.msc"
    path.write_text(
        'scenario "x"\n'
        f"account @a balance {2**64 - 1}\naccount @b balance {2**64 - 1}\n"
        "expect total = 0\n"
    )
    assert cli.main(["run", str(path)]) == 1
    out, err = capsys.readouterr()
    assert out == f"total = 0: FAIL (total is out of range (above {2**64 - 1}))\n"
    assert err == ""


def _mangled(rng: random.Random, data: bytes) -> bytes:
    """`data` with one to three random bytes flipped, inserted or deleted."""
    out = bytearray(data)
    for _ in range(rng.randint(1, 3)):
        at = rng.randrange(len(out) + 1)
        how = rng.randrange(3)
        if how == 1 or at == len(out):
            out.insert(at, rng.randrange(256))
        elif how == 0:
            out[at] = rng.randrange(256)
        else:
            del out[at]
    return bytes(out)


def test_generated_and_mangled_files_never_exit_internal(tmp_path, capsys):
    """Every file gets a defined answer: 0 or 1 from a run, or 2 for a
    file that does not parse or set up. Exit 3 is an internal error."""
    rng = random.Random(30)
    fixtures = [path.read_bytes() for path in sorted(SCENARIO_DIR.glob("*.msc"))]
    files = [
        print_scenario(random_scenario(random.Random(seed))).encode() for seed in range(500)
    ]
    files += [_mangled(rng, rng.choice(fixtures)) for _ in range(2_000)]
    # Every standalone number of a fixture at the edges of the amount range,
    # all at one value or each at its own.
    edges = [b"0", b"1", str(2**63).encode(), str(2**64 - 2).encode(), str(2**64 - 1).encode()]
    number = re.compile(rb"(?<![\w@])\d+")
    for data in fixtures:
        files += [number.sub(edge, data) for edge in edges]
        files += [number.sub(lambda _: rng.choice(edges), data) for _ in range(20)]
    path = tmp_path / "input.msc"
    for k, data in enumerate(files):
        path.write_bytes(data)
        code = cli.main(["compare" if k % 10 == 0 else "run", str(path)])
        err = capsys.readouterr().err
        assert code in (0, 1, 2) and "internal error" not in err, (data, err)


class TestFuzz:
    def test_clean_fuzz_exits_zero(self, tmp_path):
        out = tmp_path / "report.json"
        proc = run_cli("fuzz", "--seed", "7", "--iterations", "50", "--out", str(out))
        assert proc.returncode == 0
        assert "iterations=50 violations=0" in proc.stdout
        payload = json.loads(out.read_text())
        assert payload == {"iterations": 50, "violations": []}

    def test_zero_iterations_usage_error(self):
        proc = run_cli("fuzz", "--iterations", "0")
        assert proc.returncode == 2

    def test_unknown_invariant_usage_error(self):
        proc = run_cli("fuzz", "--iterations", "1", "--invariants", "nope")
        assert proc.returncode == 2

    @pytest.mark.parametrize("value", ["", ",", ",,"])
    def test_invariants_naming_none_is_usage_error(self, capsys, value):
        # An empty selection would check nothing and exit 0.
        assert cli.main(["fuzz", "--iterations", "1", "--invariants", value]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --invariants names none (choose from ")
        assert all(name in err for name in harness.INVARIANT_NAMES)

    def test_unwritable_out_is_usage_error(self, tmp_path):
        out = tmp_path / "missing" / "r.json"
        proc = run_cli("fuzz", "--iterations", "3", "--out", str(out))
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: ") and str(out) in proc.stderr
        assert "internal error" not in proc.stderr

    @pytest.mark.parametrize("seed", [-1, 7])
    def test_reproduction_runs_in_a_fresh_process(self, tmp_path, seed):
        # The demonic @imp is a catalog contract salted by its config, so a
        # scenario that names it needs nothing registered by a fuzz run.
        env, _ = harness.default_universe(seed)
        call = Transfer("imp", 3, make_param("default"))
        tx = SignedTransaction("alice", (call, Transfer("bob", 1, make_param("default")), call))
        path = tmp_path / "repro.msc"
        path.write_text(harness.reproduction_scenario(env, tx, SchedulerConfig()))
        assert f'contract @imp code demonic config "{seed}"' in path.read_text()
        proc = run_cli("run", str(path), "--step")
        assert proc.returncode in (0, 1), proc.stderr
        assert "transaction 1 from @alice" in proc.stdout

    def test_stdout_deterministic(self):
        a = run_cli("fuzz", "--seed", "3", "--iterations", "40")
        b = run_cli("fuzz", "--seed", "3", "--iterations", "40")
        assert a.stdout == b.stdout
        assert a.returncode == b.returncode == 0


def _position(proc, path) -> tuple[int, int]:
    """(line, col) of the parse error the CLI reported for `path`."""
    prefix = f"error: {path}:"
    assert proc.stderr.startswith(prefix), proc.stderr
    line, col = proc.stderr[len(prefix):].split(":")[:2]
    return int(line), int(col)


def _nth(text: str, needle: str, n: int) -> tuple[int, int]:
    """1-based (line, col) of the n-th occurrence of `needle` in `text`."""
    at = -1
    for _ in range(n):
        at = text.index(needle, at + 1)
    before = text[:at]
    return before.count("\n") + 1, at - before.rfind("\n")


TOO_BIG = str(2**64)  # one past the largest mutez amount

OUT_OF_RANGE = [
    f'scenario "x"\naccount @a balance 1\ntransaction from @a {{ transfer {TOO_BIG} to @a }}',
    f'scenario "x"\naccount @a balance {TOO_BIG}',
    f'scenario "x"\ncontract @c code receiver config unit storage unit balance {TOO_BIG}',
    f'scenario "x"\naccount @a balance 1\ntransaction from @a {{\n'
    f"  create @k code receiver config unit storage unit balance {TOO_BIG}\n}}",
    f'scenario "x"\naccount @a balance 1\nexpect storage @a = mutez {TOO_BIG}',
]


# More digits than int() converts (sys.get_int_max_str_digits(), 4,300 by
# default), in a value, a balance and a negative call argument.
HUGE = "9" * 5000
HUGE_LITERALS = [
    f'scenario "x"\ncontract @c code forwarder config unit storage {HUGE} balance 1',
    f'scenario "x"\naccount @a balance {HUGE}',
    f'scenario "x"\naccount @a balance 1\ntransaction from @a {{ transfer 0 to @a call f(-{HUGE}) }}',
]


def _deep(kind: str, levels: int) -> str:
    """A scenario nesting `levels` brackets inside its one transaction block:
    atomic wrappers around a transfer, or pairs in a call argument (which a
    receiver rejects, so that transaction reverts)."""
    head = 'scenario "deep"\naccount @a balance 1\nfeatures bundles\ntransaction from @a {'
    if kind == "ops":
        body = " atomic {" * levels + " transfer 1 to @a" + " }" * levels
        return f"{head}{body} }}\nexpect commit\n"
    body = " transfer 1 to @a call f(" + "(pair " * levels + "1" + " 2)" * levels + ")"
    return f"{head}{body} }}\nexpect revert\n"


class TestParseBounds:
    @pytest.mark.parametrize("text", OUT_OF_RANGE)
    def test_out_of_range_literal_is_positioned_parse_error(self, tmp_path, text):
        path = tmp_path / "big.msc"
        path.write_text(text)
        proc = run_cli("run", str(path))
        assert proc.returncode == 2
        assert _position(proc, path) == _nth(text, TOO_BIG, 1)
        assert "at most 18446744073709551615" in proc.stderr

    @pytest.mark.parametrize("text", HUGE_LITERALS, ids=["storage", "balance", "argument"])
    def test_huge_literal_is_positioned_parse_error(self, tmp_path, text):
        path = tmp_path / "huge.msc"
        path.write_text(text)
        proc = run_cli("run", str(path))
        assert proc.returncode == 2, proc.stderr
        assert "internal error" not in proc.stderr
        literal = "-" + HUGE if "-" + HUGE in text else HUGE
        assert _position(proc, path) == _nth(text, literal, 1)
        assert "found 5000 digits" in proc.stderr

    @pytest.mark.parametrize(
        "text",
        [
            f'scenario "x"\naccount @a balance {"9" * 4000}',
            f'scenario "x"\naccount @a balance @{"a" * 4000}',
            f'scenario "x"\naccount @a balance "{"é" * 4000}"',
            f'scenario "x"\n{"a" * 4000}',
        ],
        ids=["number", "address", "string", "identifier"],
    )
    def test_long_token_is_cut_in_the_error(self, tmp_path, text):
        path = tmp_path / "long.msc"
        path.write_text(text, encoding="utf-8")
        proc = run_cli("run", str(path))
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.count("\n") == 1 and "…" in proc.stderr
        # The line less the file path it names; the token is cut at 32 characters.
        assert len(proc.stderr.encode()) - len(str(path).encode()) < 200

    @pytest.mark.parametrize(
        "text,needle",
        [
            ('scenario "x"\naccount @a balance ²', "²"),
            ('scenario "x"\naccount @a balance 1\n'
             "transaction from @a { transfer 0 to @a call f(①) }", "①"),
            ('scenario "x"\naccount @a balance 1\nexpect storage @a = -²', "-"),
        ],
    )
    def test_non_decimal_digit_is_positioned_parse_error(self, tmp_path, text, needle):
        # str.isdigit() holds for these characters, but int() rejects them.
        path = tmp_path / "digits.msc"
        path.write_text(text, encoding="utf-8")
        proc = run_cli("run", str(path))
        assert proc.returncode == 2, proc.stderr
        assert _position(proc, path) == _nth(text, needle, 1)

    @pytest.mark.parametrize("kind", ["ops", "value"])
    def test_nesting_at_the_bound_runs(self, tmp_path, kind):
        # The transaction block is the first level.
        path = tmp_path / "deep.msc"
        path.write_text(_deep(kind, MAX_NESTING - 1))
        trace = tmp_path / "trace.json"
        proc = run_cli("run", str(path), "--step", "--trace", str(trace))
        assert proc.returncode == 0, proc.stderr
        assert json.loads(trace.read_text())[0]["nodes"]

    @pytest.mark.parametrize("kind", ["ops", "value"])
    @pytest.mark.parametrize("levels", [MAX_NESTING, 3000])
    def test_nesting_past_the_bound_is_parse_error(self, tmp_path, kind, levels):
        path = tmp_path / "deep.msc"
        text = _deep(kind, levels)
        path.write_text(text)
        proc = run_cli("run", str(path), "--step")
        assert proc.returncode == 2
        opening = "{" if kind == "ops" else "(pair"
        # With the transaction's own `{`, the first bracket past the bound.
        nth = MAX_NESTING + 1 if kind == "ops" else MAX_NESTING
        assert _position(proc, path) == _nth(text, opening, nth)
        assert f"at most {MAX_NESTING} nested brackets" in proc.stderr


CRASH_SCENARIO = """scenario "crash"
account @alice balance 10
contract @crash code index_error_for_cli_test config unit storage unit balance 0
transaction from @alice { transfer 1 to @crash call default() }
expect revert
expect balance @alice = 10
"""

# Registers a body that evaluates [1][5], then runs the CLI on argv.
CRASH_MAIN = """import sys
from chainsim import cli, registry
from chainsim.core import UNIT
registry.register(registry.ContractDef(
    "index_error_for_cli_test", {"default": UNIT}, UNIT, UNIT,
    lambda ctx, p, st: ([1][5], st),
))
sys.exit(cli.main(sys.argv[1:]))
"""


def test_crashing_body_reverts_with_contract_crash(tmp_path):
    path = tmp_path / "crash.msc"
    path.write_text(CRASH_SCENARIO)
    proc = subprocess.run(
        [sys.executable, "-c", CRASH_MAIN, "run", "--step", str(path)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert (
        "  revert (contract_crash: @crash raised IndexError: list index out of range)\n"
        in proc.stdout
    )
    assert "revert: PASS" in proc.stdout


ENTRYPOINT_SCENARIO = """scenario "entrypoints"
account @owner balance 100
account @shop balance 0
contract @vault code bank config (pair 9 @owner) storage unit balance 15
transaction from @owner { transfer 1 to @vault call deposit(5) }
transaction from @owner { transfer 0 to @vault call withdraw() }
transaction from @owner { transfer 0 to @vault call frobnicate(5) }
transaction from @owner { transfer 1 to @shop call foo() }
transaction from @owner { transfer 0 to @vault call withdraw(2) }
expect balance @owner = 102
expect balance @vault = 13
"""


def test_calls_outside_the_declared_entrypoints_revert_type_mismatch(tmp_path):
    path = tmp_path / "entrypoints.msc"
    path.write_text(ENTRYPOINT_SCENARIO)
    proc = run_cli("run", "--step", str(path))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    # --step prints each queue state ("[...]") and then the outcome, indented
    outcomes = [
        line.strip()
        for line in proc.stdout.splitlines()
        if line.startswith("  ") and "[" not in line
    ]
    assert outcomes == [
        "revert (type_mismatch: argument does not fit @vault's 'deposit' entrypoint)",
        "revert (type_mismatch: argument does not fit @vault's 'withdraw' entrypoint)",
        "revert (type_mismatch: @vault does not declare entrypoint 'frobnicate')",
        "revert (type_mismatch: @shop does not declare entrypoint 'foo')",
        "commit",
    ]
