import glob
import random

import pytest

from chainsim.core import (
    MAX_MUTEZ,
    UNIT_VALUE,
    NatV,
    PairV,
    Restricted,
    StringV,
    Transfer,
    make_param,
    render_value,
    split_param,
)
from chainsim.scenario import (
    AccountDecl,
    ContractDecl,
    Scenario,
    ScenarioParseError,
    SetupError,
    build_environment,
    parse_scenario,
    print_scenario,
    run_scenario,
)
from chainsim.scheduler import SignedTransaction, Strategy

from conftest import SCENARIO_DIR, scenario_text
from scenario_gen import random_scenario, random_value

VAULT = scenario_text("vault_bfs_attack.msc")


class TestParse:
    def test_vault_fixture_structure(self):
        s = parse_scenario(VAULT)
        assert s.name == "vault-bfs-attack"
        assert len(s.transactions) == 1
        assert len(s.transactions[0].ops) == 1
        op = s.transactions[0].ops[0]
        assert op == Transfer("bad", 0, make_param("rob", NatV(3), NatV(5)))
        assert [type(d) for d in s.decls] == [AccountDecl, ContractDecl, ContractDecl]
        assert s.config.strategy is Strategy.BFS
        assert s.expectations[0].outcome == "commit"

    def test_comments_and_whitespace_insensitive(self):
        text = 'scenario "x" # header\n  account @v balance 5#tail\ntransaction from @v {transfer 1 to @v}'
        s = parse_scenario(text)
        assert s.decls == (AccountDecl("v", 5),)
        assert s.transactions[0].ops[0].amount == 1

    def test_call_desugar_round_trip_values(self):
        s = parse_scenario(
            'scenario "x"\naccount @v balance 1\n'
            'transaction from @v { transfer 0 to @v call f((pair 1 2), "s") }'
        )
        param = s.transactions[0].ops[0].param
        assert param == make_param("f", PairV(NatV(1), NatV(2)), StringV("s"))


MALFORMED = [
    # (text, line, col, expected-substring, found-substring)
    ("", 1, 1, "'scenario'", "end of input"),
    ("scenario vault", 1, 10, "scenario name", "'vault'"),
    (
        'scenario "x"\naccount @v balance 5\ntransaction from @v { transfer -5 to @v }',
        3,
        32,
        "amount (nat)",
        "'-5'",
    ),
    ('scenario "x"\naccount @v 5', 2, 12, "'balance'", "'5'"),
    ('scenario "x"\nstrategy sideways', 2, 10, "'bfs' or 'dfs'", "'sideways'"),
    (
        'scenario "x"\ncontract @v code bank config (pair 1',
        2,
        37,
        "a value",
        "end of input",
    ),
    (
        'scenario "x"\naccount @v balance 5\nexpect balance @v , 5',
        3,
        19,
        "'='",
        "','",
    ),
    ('scenario "x', 1, 10, "closing", "end of line"),
    (
        'scenario "x"\naccount @o balance 1\ntransaction from owner { }',
        3,
        18,
        "address",
        "'owner'",
    ),
    (
        'scenario "x"\naccount @v balance 5\n}',
        3,
        1,
        "end of input",
        "'}'",
    ),
]


class TestParseErrors:
    @pytest.mark.parametrize("text,line,col,expected,found", MALFORMED)
    def test_position_points_at_first_offending_token(
        self, text, line, col, expected, found
    ):
        with pytest.raises(ScenarioParseError) as err:
            parse_scenario(text)
        assert err.value.line == line
        assert err.value.column == col
        assert expected in err.value.expected
        assert found in err.value.found

    def test_duplicate_strategy(self):
        with pytest.raises(ScenarioParseError) as err:
            parse_scenario('scenario "x"\nstrategy bfs\nstrategy dfs')
        assert (err.value.line, err.value.column) == (3, 1)
        assert "at most one strategy" in err.value.expected

    def test_duplicate_fuel(self):
        with pytest.raises(ScenarioParseError) as err:
            parse_scenario('scenario "x"\nfuel 5\nfuel 6')
        assert (err.value.line, err.value.column) == (3, 1)

    def test_duplicate_features(self):
        with pytest.raises(ScenarioParseError) as err:
            parse_scenario('scenario "x"\nfeatures bundles\nfeatures views')
        assert (err.value.line, err.value.column) == (3, 1)
        assert "at most one features" in err.value.expected
        assert err.value.found == "'features'"

    def test_zero_fuel(self):
        # Like every other out-of-range NAT: positioned at the number.
        with pytest.raises(ScenarioParseError) as err:
            parse_scenario('scenario "x"\nfuel 0\naccount @a balance 5')
        assert (err.value.line, err.value.column) == (2, 6)
        assert err.value.expected == "a fuel bound of at least 1"
        assert err.value.found == "'0'"

    @pytest.mark.parametrize(
        "text,line,col,expected,found",
        [
            ('scenario "a\\qb"', 1, 12, "valid escape sequence", "'\\q'"),
            ('scenario "a\\', 1, 12, "valid escape sequence", "'\\'"),
            ('scenario "a\nb"', 1, 10, "closing '\"'", "end of line"),
            ("scenario @ x", 1, 10, "address after '@'", "'@'"),
            ("scenario @1", 1, 10, "address after '@'", "'@'"),
            ("scenario -x", 1, 10, "a digit after '-'", "'-'"),
            ("scenario\r\t€", 1, 11, "a token", "'€'"),
            ("scenario \x0c", 1, 10, "a token", "'\x0c'"),
        ],
    )
    def test_scan_errors(self, text, line, col, expected, found):
        with pytest.raises(ScenarioParseError) as err:
            parse_scenario(text)
        assert (err.value.line, err.value.column) == (line, col)
        assert (err.value.expected, err.value.found) == (expected, found)

    def test_string_escapes(self):
        s = parse_scenario('scenario "a\\\\b\\"c\\nd\\te\\\\n"')
        assert s.name == 'a\\b"c\nd\te\\n'

    @pytest.mark.parametrize(
        "text,line,col,expected",
        [
            ('scenario "x"\naccount @a 5\n€', 2, 12, "'balance'"),
            ('scenario "x"\naccount @a balance 5 5 "\\q"', 2, 22, "a declaration"),
            (f'scenario "x"\naccount @a balance {MAX_MUTEZ + 1} @', 2, 20, "a balance"),
            ('scenario "x"\nstrategy bfs\nstrategy dfs -', 3, 1, "at most one strategy"),
        ],
    )
    def test_first_error_in_text_order(self, text, line, col, expected):
        # A token is scanned only when the parse reaches it, so an error
        # before a character that starts no token is the one reported.
        with pytest.raises(ScenarioParseError) as err:
            parse_scenario(text)
        assert (err.value.line, err.value.column) == (line, col)
        assert err.value.expected.startswith(expected)

    @pytest.mark.parametrize(
        "text,col", [("scenario # c", 13), ("scenario\n#", 2), ('scenario "x" account', 21)]
    )
    def test_end_of_input_is_at_the_end_of_the_text(self, text, col):
        with pytest.raises(ScenarioParseError) as err:
            parse_scenario(text)
        assert (err.value.column, err.value.found) == (col, "end of input")

    @pytest.mark.parametrize(
        "text,col,expected,found",
        [
            ('scenario "x"\naccount @a balance ²', 20, "a token", "'²'"),
            ('scenario "x"\naccount @a balance ①', 20, "a token", "'①'"),
            ('scenario "x"\naccount @a balance 1²', 21, "a token", "'²'"),
            ('scenario "x"\nexpect storage @a = -²', 21, "a digit after '-'", "'-'"),
        ],
    )
    def test_non_decimal_digits_are_no_digits(self, text, col, expected, found):
        # str.isdigit() holds for them, but int() rejects them.
        with pytest.raises(ScenarioParseError) as err:
            parse_scenario(text)
        assert (err.value.line, err.value.column) == (2, col)
        assert (err.value.expected, err.value.found) == (expected, found)

    def test_other_decimal_digits_are_nats(self):
        # Unicode decimal digits (Arabic-Indic three here) are what int() takes.
        s = parse_scenario('scenario "x"\naccount @a balance ٣')
        assert s.decls == (AccountDecl("a", 3),)

    def test_unknown_feature_name(self):
        with pytest.raises(ScenarioParseError) as err:
            parse_scenario('scenario "x"\nfeatures warp')
        assert (err.value.line, err.value.column) == (2, 10)
        assert "feature name" in err.value.expected

    def test_heterogeneous_list(self):
        with pytest.raises(ScenarioParseError) as err:
            parse_scenario('scenario "x"\ncontract @v code bank config [1, @a] storage unit balance 0')
        assert "homogeneous" in err.value.expected


class TestRoundTrip:
    @pytest.mark.parametrize(
        "path", sorted(glob.glob(str(SCENARIO_DIR / "*.msc")))
    )
    def test_fixtures(self, path):
        with open(path, encoding="utf-8") as fh:
            s = parse_scenario(fh.read())
        assert parse_scenario(print_scenario(s)) == s

    def test_random_scenarios(self):
        rng = random.Random(1234)
        for _ in range(150):
            s = random_scenario(rng)
            assert parse_scenario(print_scenario(s)) == s

    def test_random_scenarios_cover_the_operation_grammar(self):
        seen = set()

        def walk(op):
            seen.add(type(op).__name__)
            if isinstance(op, Transfer):
                name, args = split_param(op.param)
                seen.add(("call" if name != "default" else "bare", len(args)))
                if UNIT_VALUE in args:
                    seen.add("unit argument")
            if isinstance(op, Restricted):
                mode = "allow" if op.allow is not None else "block"
                seen.add(mode if op.allow or op.block else mode + " []")
            for inner in getattr(op, "ops", ()):
                walk(inner)

        rng = random.Random(314159)  # the acceptance gate's seed
        for _ in range(500):
            for tx in random_scenario(rng).transactions:
                for op in tx.ops:
                    walk(op)
        assert seen >= {
            ("bare", 0), ("call", 0), ("call", 1), ("call", 2), "unit argument",
            "allow", "block", "allow []", "block []", "AtomicBundle", "ContextBundle",
            "Restricted", "EndInteractions", "CreateContract",
        }

    @pytest.mark.parametrize(
        "wrapper",
        [
            Restricted((Transfer("a", 1, make_param("default")),)),
            Restricted((), allow=frozenset(), block=frozenset()),
            Restricted((), allow=frozenset({"a"}), block=frozenset()),
        ],
        ids=["neither-set", "empty-allow-empty-block", "allow-empty-block"],
    )
    def test_former_restriction_encodings(self, wrapper):
        s = Scenario(
            "r",
            (AccountDecl("u", 1), AccountDecl("a", 0)),
            (SignedTransaction("u", (wrapper,)),),
            (),
        )
        assert parse_scenario(print_scenario(s)) == s

    def test_random_value_literals(self):
        rng = random.Random(77)
        for _ in range(300):
            v = random_value(rng)
            literal = render_value(v)
            s = parse_scenario(
                f'scenario "x"\ncontract @v code receiver config {literal} storage unit balance 0'
            )
            assert s.decls[0].config == v

    def test_parsed_values_inhabit_inferred_types(self):
        from chainsim.core import value_type, value_typecheck
        from chainsim.scenario import ContractDecl as CD

        rng = random.Random(555)
        for _ in range(100):
            s = parse_scenario(print_scenario(random_scenario(rng)))
            for decl in s.decls:
                if isinstance(decl, CD):
                    for v in (decl.config, decl.storage):
                        assert value_typecheck(v, value_type(v))

    def test_print_preserves_declaration_order(self):
        text = (
            'scenario "ordered"\n'
            "account @b balance 2\n"
            "account @a balance 1\n"
            "strategy dfs\n"
            "account @c balance 3\n"
        )
        s = parse_scenario(text)
        printed = print_scenario(s)
        assert printed.index("@b") < printed.index("@a") < printed.index("@c")
        assert parse_scenario(printed).decls == s.decls


class TestRun:
    def test_vault_bfs_expectations_pass(self):
        out = run_scenario(parse_scenario(VAULT))
        assert out.passed
        assert out.env_after.get("vault").balance == 0

    def test_vault_dfs_override(self):
        s = parse_scenario(VAULT)
        out = run_scenario(s, strategy=Strategy.DFS)
        assert not out.passed  # fixture expects the BFS outcome
        assert out.env_after == out.env_before
        assert out.env_after.get("vault").balance == 15
        assert out.trees[0].outcome == "revert"
        assert out.ts == 1

    def test_revert_expectation(self):
        s = parse_scenario(scenario_text("fixed_vault_attack.msc"))
        for strategy in (Strategy.BFS, Strategy.DFS):
            out = run_scenario(s, strategy=strategy)
            assert out.passed, [r.label for r in out.results if not r.ok]

    def test_determinism(self):
        s = parse_scenario(VAULT)
        a = run_scenario(s)
        b = run_scenario(s)
        assert a.env_after == b.env_after
        assert a.trees == b.trees
        assert [r.ok for r in a.results] == [r.ok for r in b.results]

    def test_capability_feature_off_fails_inside_body(self):
        from chainsim.features import FeatureSet

        s = parse_scenario(scenario_text("pending_mismatch.msc"))
        out = run_scenario(s, features=FeatureSet())
        assert out.trees[0].outcome == "revert"
        assert "views feature disabled" in out.trees[0].reason
        out2 = run_scenario(s, features=FeatureSet(views=True))
        assert "pending_balance feature disabled" in out2.trees[0].reason

    def test_feature_off_restriction_reverts(self):
        text = (
            'scenario "r"\naccount @a balance 5\naccount @b balance 0\n'
            "transaction from @a { block [@b] { transfer 1 to @b } }\n"
            "expect revert"
        )
        out = run_scenario(parse_scenario(text))
        assert out.passed
        assert "disabled" in out.trees[0].reason


class TestNestedOps:
    def test_atomic_inside_context(self):
        text = (
            'scenario "nested"\naccount @u balance 20\naccount @x balance 0\n'
            "account @y balance 0\nfeatures bundles contexts\n"
            "transaction from @u {\n"
            "  context { atomic { transfer 1 to @x transfer 2 to @y } transfer 3 to @x }\n"
            "}\nexpect commit\nexpect balance @x = 4\nexpect balance @y = 2"
        )
        s = parse_scenario(text)
        assert run_scenario(s).passed
        assert parse_scenario(print_scenario(s)) == s

    def test_nested_allow_narrows(self):
        text = (
            'scenario "allow-nest"\naccount @u balance 20\naccount @x balance 0\n'
            "account @y balance 0\nfeatures restrictions\n"
            "transaction from @u {\n"
            "  allow [@x @y] { allow [@x] { transfer 1 to @x } transfer 1 to @y }\n"
            "}\nexpect commit\nexpect balance @x = 1\nexpect balance @y = 1"
        )
        assert run_scenario(parse_scenario(text)).passed
        violate = (
            'scenario "allow-violate"\naccount @u balance 20\naccount @y balance 0\n'
            "features restrictions\n"
            "transaction from @u { allow [@u] { transfer 1 to @y } }\nexpect revert"
        )
        out = run_scenario(parse_scenario(violate))
        assert out.passed
        assert "restriction_violation" in out.trees[0].reason

    def test_fuel_boundary_via_dsl(self):
        tight = (
            'scenario "tight"\naccount @u balance 10\naccount @x balance 0\nfuel 2\n'
            "transaction from @u { transfer 1 to @x transfer 1 to @x }\n"
            "expect commit\nexpect balance @x = 2"
        )
        assert run_scenario(parse_scenario(tight)).passed
        short = (
            'scenario "short"\naccount @u balance 10\naccount @x balance 0\nfuel 1\n'
            "transaction from @u { transfer 1 to @x transfer 1 to @x }\n"
            "expect revert\nexpect balance @x = 0"
        )
        out = run_scenario(parse_scenario(short))
        assert out.passed
        assert "fuel_exhausted" in out.trees[0].reason


class TestSetupErrors:
    def test_environment_matches_declarations(self, vault_env):
        assert build_environment(parse_scenario(VAULT)) == vault_env

    def test_out_of_range_account_balance(self):
        s = Scenario("x", (AccountDecl("a", MAX_MUTEZ + 1),), (), ())
        with pytest.raises(SetupError, match="@a"):
            build_environment(s)

    def test_unknown_code_key(self):
        text = 'scenario "x"\ncontract @v code warp config unit storage unit balance 0'
        with pytest.raises(SetupError, match="unknown code key"):
            run_scenario(parse_scenario(text))

    def test_duplicate_address(self):
        text = 'scenario "x"\naccount @v balance 1\naccount @v balance 2'
        with pytest.raises(SetupError, match="duplicate"):
            run_scenario(parse_scenario(text))

    def test_undeclared_destination(self):
        text = 'scenario "x"\naccount @a balance 5\ntransaction from @a { transfer 1 to @ghost }'
        with pytest.raises(SetupError, match="@ghost"):
            run_scenario(parse_scenario(text))

    def test_created_address_usable_later(self):
        text = (
            'scenario "x"\naccount @a balance 5\n'
            "transaction from @a {\n"
            "  create @kid code receiver config unit storage unit balance 1\n"
            "  transfer 1 to @kid\n}\nexpect commit\nexpect balance @kid = 2"
        )
        out = run_scenario(parse_scenario(text))
        assert out.passed

    def test_undeclared_author(self):
        text = 'scenario "x"\naccount @a balance 5\ntransaction from @ghost { }'
        with pytest.raises(SetupError, match="author"):
            run_scenario(parse_scenario(text))

    def test_bad_config_shape(self):
        text = 'scenario "x"\ncontract @v code bank config unit storage unit balance 0'
        with pytest.raises(SetupError):
            run_scenario(parse_scenario(text))

    def test_zero_fuel_override(self):
        text = 'scenario "x"\nfuel 5\naccount @a balance 5'
        with pytest.raises(SetupError, match="fuel must be at least 1"):
            run_scenario(parse_scenario(text), fuel=0)

    def test_expectation_on_unknown_address(self):
        text = 'scenario "x"\naccount @a balance 5\nexpect balance @ghost = 0'
        with pytest.raises(SetupError):
            run_scenario(parse_scenario(text))
