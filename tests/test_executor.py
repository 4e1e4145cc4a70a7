import copy
import dataclasses
import pickle
import random
from typing import NamedTuple

import pytest

from chainsim.core import (
    NAT,
    AddressV,
    AtomicBundle,
    CallContext,
    Contract,
    CreateContract,
    Environment,
    ExecutionContext,
    IntV,
    ListV,
    NatV,
    PairV,
    PendingOp,
    Restricted,
    Transfer,
    UNIT_VALUE,
    make_param,
    pending_balance,
    view_storage,
)
from chainsim.executor import (
    ADDRESS_OCCUPIED,
    CONTRACT_CRASH,
    CONTRACT_FAILURE,
    END_INTERACTIONS_VIOLATION,
    FEATURE_DISABLED,
    INSUFFICIENT_BALANCE,
    OVERFLOW,
    RESTRICTION_VIOLATION,
    TYPE_MISMATCH,
    UNKNOWN_ADDRESS,
    UNKNOWN_CODE_KEY,
    ExecError,
    ExecOutcome,
    execute_operation,
)
from chainsim.core import MAX_MUTEZ, UNIT, EndInteractions
from chainsim import registry
from chainsim.features import FEATURE_NAMES, FeatureSet
from chainsim.scenario import build_environment, parse_scenario
from chainsim.scheduler import (
    Commit,
    Revert,
    SchedulerConfig,
    SignedTransaction,
    Strategy,
    run_transaction,
)
from chainsim.trace import STATUS_FAILED, TraceNode, tree_to_json
from conftest import contextual

FEATURES = FeatureSet()
ALL_FEATURES = FeatureSet.from_names(FEATURE_NAMES)


def _ectx(sender, **kw):
    return ExecutionContext(sender=sender, source=kw.pop("source", sender), **kw)


def _expect_error(kind, fn, *args, **kw):
    with pytest.raises(ExecError) as err:
        fn(*args, **kw)
    assert err.value.kind == kind
    return err.value


class TestTransfer:
    def test_moves_funds_and_runs_body(self, vault_env):
        # The vault pays its owner 5; the owner's receive entrypoint runs.
        op = Transfer("bad", 5, make_param("default"))
        out = execute_operation(_ectx("vault"), op, vault_env, FEATURES)
        assert out.emitter == "bad"
        assert out.emitted == ()
        assert out.env_after.get("vault").balance == 10
        assert out.env_after.get("bad").balance == 5
        # input environment untouched
        assert vault_env.get("vault").balance == 15

    def test_zero_amount_no_change(self, simple_env):
        op = Transfer("bob", 0, make_param("default"))
        out = execute_operation(_ectx("alice"), op, simple_env, FEATURES)
        assert out.env_after.get("alice").balance == 100
        assert out.env_after.get("bob").balance == 50
        assert out.env_after.get("bob").storage == UNIT_VALUE

    def test_withdraw_guard_sees_unexecuted_payouts(self, vault_env):
        # Pending payouts have not debited the vault, so a third withdrawal
        # still sees balance 15 and passes 15 - 5 > 9.
        op = Transfer("vault", 0, make_param("withdraw", NatV(5)))
        out = execute_operation(_ectx("bad"), op, vault_env, FEATURES)
        assert out.env_after.get("vault").balance == 15
        assert out.emitted == (Transfer("bad", 5, make_param("default")),)

    def test_absent_destination(self, simple_env):
        op = Transfer("nobody", 1, make_param("default"))
        _expect_error(
            UNKNOWN_ADDRESS, execute_operation, _ectx("alice"), op, simple_env, FEATURES
        )

    def test_absent_sender(self, simple_env):
        op = Transfer("bob", 1, make_param("default"))
        _expect_error(
            UNKNOWN_ADDRESS, execute_operation, _ectx("ghost"), op, simple_env, FEATURES
        )

    def test_insufficient_balance(self, simple_env):
        op = Transfer("alice", 51, make_param("default"))
        _expect_error(
            INSUFFICIENT_BALANCE,
            execute_operation,
            _ectx("bob"),
            op,
            simple_env,
            FEATURES,
        )

    def test_param_type_gate(self, simple_env):
        op = Transfer("bob", 0, NatV(5))
        err = _expect_error(
            TYPE_MISMATCH, execute_operation, _ectx("alice"), op, simple_env, FEATURES
        )
        assert err.detail == "@bob expects an (entrypoint, argument) pair"

    @pytest.mark.parametrize(
        "dest, param, detail",
        [
            (
                "vault",
                make_param("deposit", NatV(5)),
                "argument does not fit @vault's 'deposit' entrypoint",
            ),
            (
                "vault",
                make_param("withdraw"),
                "argument does not fit @vault's 'withdraw' entrypoint",
            ),
            (
                "vault",
                make_param("frobnicate", NatV(5)),
                "@vault does not declare entrypoint 'frobnicate'",
            ),
            ("owner", make_param("foo"), "@owner does not declare entrypoint 'foo'"),
            (
                "vault",
                make_param("withdraw", IntV(5)),
                "argument does not fit @vault's 'withdraw' entrypoint",
            ),
        ],
        ids=["deposit_nat", "withdraw_unit", "undeclared", "account_foo", "withdraw_int"],
    )
    def test_undeclared_or_ill_typed_call_is_type_mismatch(
        self, vault_env, dest, param, detail
    ):
        # Checked against the callee's declared entrypoints before any funds
        # move: the input environment is untouched.
        snapshot = copy.deepcopy(vault_env)
        op = Transfer(dest, 1, param)
        err = _expect_error(
            TYPE_MISMATCH, execute_operation, _ectx("owner"), op, vault_env, FEATURES
        )
        assert err.detail == detail
        assert vault_env == snapshot

    def test_unregistered_code_key_is_checked_first(self, simple_env):
        # A hand-built contract whose code is not registered has no declared
        # entrypoints: the call reverts unknown_code_key before the parameter
        # check and before the credit could overflow.
        orphan = Contract(
            storage=UNIT_VALUE, balance=MAX_MUTEZ, code_key="no_such_code", config=UNIT_VALUE
        )
        env = simple_env.updated({"orphan": orphan})
        op = Transfer("orphan", 1, NatV(5))
        err = _expect_error(
            UNKNOWN_CODE_KEY, execute_operation, _ectx("alice"), op, env, FEATURES
        )
        assert err.detail == "@orphan references code 'no_such_code'"

    def test_self_transfer_allowed(self, simple_env):
        op = Transfer("alice", 10, make_param("default"))
        out = execute_operation(_ectx("alice"), op, simple_env, FEATURES)
        assert out.env_after.get("alice").balance == 100

    def test_body_failure_reports_message(self, vault_env):
        op = Transfer("vault", 0, make_param("withdraw", NatV(5)))
        err = _expect_error(
            CONTRACT_FAILURE, execute_operation, _ectx("owner"), op, vault_env, FEATURES
        )
        assert "not owner" in err.detail

    def test_blocked_destination(self, simple_env):
        ectx = _ectx("alice", restrictions=(Restricted(block=frozenset({"bob"})),))
        op = Transfer("bob", 1, make_param("default"))
        _expect_error(
            RESTRICTION_VIOLATION, execute_operation, ectx, op, simple_env, FEATURES
        )

    def test_allow_list_excludes_everything_else(self, simple_env):
        ectx = _ectx("alice", restrictions=(Restricted(allow=frozenset({"fwd"})),))
        op = Transfer("bob", 1, make_param("default"))
        _expect_error(
            RESTRICTION_VIOLATION, execute_operation, ectx, op, simple_env, FEATURES
        )

    def test_every_wrapper_must_permit(self, simple_env):
        # The inner allow list names bob, but the outer wrapper blocks that address.
        wrappers = (Restricted(block=frozenset({"bob"})), Restricted(allow=frozenset({"bob"})))
        op = Transfer("bob", 1, make_param("default"))
        _expect_error(
            RESTRICTION_VIOLATION, execute_operation, _ectx("alice", restrictions=wrappers),
            op, simple_env, FEATURES,
        )
        out = execute_operation(
            _ectx("alice", restrictions=wrappers[1:]), op, simple_env, FEATURES
        )
        assert out.env_after.get("bob").balance == 51

    def test_end_mode_gate(self, simple_env):
        # without an owner any call runs
        op = Transfer("bob", 1, make_param("default"))
        out = execute_operation(_ectx("alice"), op, simple_env, FEATURES)
        assert out.env_after.get("bob").balance == 51
        # with one, only the owner's calls to itself
        ectx = _ectx("alice", end_interactions_owner="alice")
        ok = Transfer("alice", 1, make_param("default"))
        out = execute_operation(ectx, ok, simple_env, FEATURES)
        assert out.env_after.get("alice").balance == 100
        for sender, dest in (("alice", "bob"), ("bob", "alice")):
            ectx = _ectx(sender, end_interactions_owner="alice")
            op = Transfer(dest, 1, make_param("default"))
            _expect_error(
                END_INTERACTIONS_VIOLATION, execute_operation, ectx, op, simple_env, FEATURES
            )

    def test_credit_visible_to_body(self, simple_env):
        # forwarder records believed balance including the incoming credit
        op = Transfer("fwd", 7, make_param("default"))
        out = execute_operation(_ectx("alice"), op, simple_env, FEATURES)
        assert out.env_after.get("fwd").storage == NatV(37)
        assert out.env_after.get("fwd").balance == 37

    def test_body_amount_overflow_is_overflow_error(self, simple_env):
        # the forwarder's accounted balance (storage) would pass 2^64-1
        env = simple_env.updated(
            {"full": registry.instantiate("forwarder", UNIT_VALUE, NatV(MAX_MUTEZ), 0)}
        )
        snapshot = copy.deepcopy(env)
        op = Transfer("full", 1, make_param("default"))
        err = _expect_error(OVERFLOW, execute_operation, _ectx("alice"), op, env, FEATURES)
        assert "@full" in err.detail
        # input environment untouched: no debit of alice, no credit of @full
        assert env == snapshot
        assert env.get("alice").balance == 100
        assert env.get("full").balance == 0

    def test_credit_overflow_reverts_before_the_body(self, simple_env):
        env = simple_env.updated({"full": registry.implicit_account(MAX_MUTEZ)})
        snapshot = copy.deepcopy(env)
        op = Transfer("full", 1, make_param("default"))
        err = _expect_error(OVERFLOW, execute_operation, _ectx("alice"), op, env, FEATURES)
        assert err.detail == "credit overflows @full"
        assert env == snapshot
        assert env.get("alice").balance == 100
        assert env.get("full").balance == MAX_MUTEZ
        # Filling the destination exactly up to MAX_MUTEZ is no overflow.
        for amount, full in ((0, "full"), (1, "nearly")):
            env = env.updated({"nearly": registry.implicit_account(MAX_MUTEZ - 1)})
            op = Transfer(full, amount, make_param("default"))
            out = execute_operation(_ectx("alice"), op, env, FEATURES)
            assert out.env_after.get(full).balance == MAX_MUTEZ
            assert out.env_after.get("alice").balance == 100 - amount

    @pytest.mark.parametrize(
        "storage_type, storage, returned",
        [
            (UNIT, UNIT_VALUE, NatV(1)),
            (UNIT, UNIT_VALUE, 1),
            (NAT, NatV(3), UNIT_VALUE),
            (NAT, NatV(3), IntV(9)),
            (NAT, NatV(3), 9),
        ],
        ids=["nat", "not_a_value", "unit_for_nat", "int_for_nat", "not_a_value_for_nat"],
    )
    def test_ill_typed_body_storage_is_type_mismatch(
        self, simple_env, request, storage_type, storage, returned
    ):
        # The code declares the storage type; a value of another type, or no
        # Value at all, is rejected without rendering it.
        key = f"returns_{request.node.callspec.id}_for_test"
        if not registry.is_registered(key):
            registry.register(
                registry.ContractDef(
                    code_key=key,
                    entrypoints={"default": UNIT},
                    storage_type=storage_type,
                    config_type=UNIT,
                    body=lambda ctx, p, st: ([], returned),
                )
            )
        env = simple_env.updated({"ill": registry.instantiate(key, UNIT_VALUE, storage, 0)})
        snapshot = copy.deepcopy(env)
        op = Transfer("ill", 5, make_param("default"))
        err = _expect_error(TYPE_MISMATCH, execute_operation, _ectx("alice"), op, env, FEATURES)
        assert err.detail == "@ill returned ill-typed storage"
        # input environment untouched: no debit of alice, no credit of @ill
        assert env == snapshot
        assert env.get("alice").balance == 100
        assert env.get("ill").balance == 0

    @pytest.mark.parametrize(
        "body, kind, detail",
        [
            (
                lambda ctx, p, st: ([1][5], st),
                CONTRACT_CRASH,
                "@crash raised IndexError: list index out of range",
            ),
            (
                lambda ctx, p, st: (5, st),
                CONTRACT_CRASH,
                "@crash raised TypeError: 'int' object is not iterable",
            ),
            (
                lambda ctx, p, st: None,
                CONTRACT_CRASH,
                "@crash returned NoneType, not (operations, storage)",
            ),
            (
                lambda ctx, p, st: ([], st, st),
                CONTRACT_CRASH,
                "@crash returned tuple, not (operations, storage)",
            ),
            # a value is a 2-tuple underneath, but no result
            (
                lambda ctx, p, st: UNIT_VALUE,
                CONTRACT_CRASH,
                "@crash returned UnitV, not (operations, storage)",
            ),
            (
                lambda ctx, p, st: ([5], st),
                CONTRACT_CRASH,
                "@crash emitted int, not an operation",
            ),
            (
                lambda ctx, p, st: ([None], st),
                CONTRACT_CRASH,
                "@crash emitted NoneType, not an operation",
            ),
            (
                lambda ctx, p, st: (
                    [AtomicBundle((Transfer("alice", 0, make_param("default")), Restricted(("x",))))],
                    st,
                ),
                CONTRACT_CRASH,
                "@crash emitted str, not an operation",
            ),
            # an ExecError from a capability keeps its kind
            (lambda ctx, p, st: ([], ctx.view("alice")), FEATURE_DISABLED, "views feature disabled"),
            # the call's environment and queue are no fields: with views and
            # pending balances off, a body cannot read them another way
            (
                lambda ctx, p, st: ([], ctx.env.get("fwd").storage),
                CONTRACT_CRASH,
                "@crash raised AttributeError: 'CallContext' object has no attribute 'env'",
            ),
            (
                lambda ctx, p, st: (list(ctx.pending), st),
                CONTRACT_CRASH,
                "@crash raised AttributeError: 'CallContext' object has no attribute 'pending'",
            ),
            # a value checks its children when built, so a body that builds
            # an ill-formed pair crashes there, whatever it meant to do with it
            (
                lambda ctx, p, st: ([], PairV(NatV(1), None)),
                CONTRACT_CRASH,
                "@crash raised TypeError: not a value: None",
            ),
            # an address outside the identifier syntax is refused where the
            # transfer naming it is built
            (
                lambda ctx, p, st: ([Transfer("a-b", 0, make_param("default"))], st),
                CONTRACT_CRASH,
                "@crash raised ValueError: invalid address token: 'a-b'",
            ),
        ],
        ids=[
            "index_error", "ops_not_iterable", "none", "triple", "unit_value", "emits_int",
            "emits_none",
            "wrapped_str", "view_off", "reads_env", "reads_queue", "builds_ill_formed_pair",
            "emits_non_identifier_address",
        ],
    )
    def test_misbehaving_body_reverts_with_a_kind(self, simple_env, request, body, kind, detail):
        key = f"crash_{request.node.callspec.id}_for_test"
        if not registry.is_registered(key):
            registry.register(
                registry.ContractDef(
                    code_key=key,
                    entrypoints={"default": UNIT},
                    storage_type=UNIT,
                    config_type=UNIT,
                    body=body,
                )
            )
        env = simple_env.updated({"crash": registry.instantiate(key, UNIT_VALUE, UNIT_VALUE, 0)})
        snapshot = copy.deepcopy(env)
        op = Transfer("crash", 5, make_param("default"))
        err = _expect_error(kind, execute_operation, _ectx("alice"), op, env, FEATURES)
        assert err.detail == detail
        # input environment untouched: no debit of alice, no credit of @crash
        assert env == snapshot
        assert env.get("alice").balance == 100
        assert env.get("crash").balance == 0


class TestCreate:
    def _op(self, **kw):
        defaults = dict(
            addr="fresh",
            amount=5,
            storage=UNIT_VALUE,
            code_key="receiver",
            config=UNIT_VALUE,
        )
        defaults.update(kw)
        return CreateContract(**defaults)

    def test_installs_with_endowment(self, simple_env):
        out = execute_operation(_ectx("alice"), self._op(), simple_env, FEATURES)
        assert out.emitter == "alice"
        assert out.emitted == ()
        created = out.env_after.get("fresh")
        assert created.balance == 5
        assert created.code_key == "receiver"
        assert out.env_after.get("alice").balance == 95

    def test_occupied_address(self, simple_env):
        _expect_error(
            ADDRESS_OCCUPIED,
            execute_operation,
            _ectx("alice"),
            self._op(addr="bob"),
            simple_env,
            FEATURES,
        )

    def test_unknown_sender(self, simple_env):
        err = _expect_error(
            UNKNOWN_ADDRESS, execute_operation, _ectx("ghost"), self._op(), simple_env, FEATURES
        )
        assert err.detail == "sender @ghost is not on chain"

    def test_create_at_creator_address(self, simple_env):
        _expect_error(
            ADDRESS_OCCUPIED,
            execute_operation,
            _ectx("alice"),
            self._op(addr="alice"),
            simple_env,
            FEATURES,
        )

    def test_unknown_code_key(self, simple_env):
        _expect_error(
            UNKNOWN_CODE_KEY,
            execute_operation,
            _ectx("alice"),
            self._op(code_key="no_such_code"),
            simple_env,
            FEATURES,
        )

    def test_ill_typed_storage(self, simple_env):
        _expect_error(
            TYPE_MISMATCH,
            execute_operation,
            _ectx("alice"),
            self._op(storage=NatV(1)),
            simple_env,
            FEATURES,
        )

    def test_insufficient_endowment(self, simple_env):
        _expect_error(
            INSUFFICIENT_BALANCE,
            execute_operation,
            _ectx("alice"),
            self._op(amount=101),
            simple_env,
            FEATURES,
        )


class TestEndInteractions:
    def test_requires_feature(self, simple_env):
        _expect_error(
            END_INTERACTIONS_VIOLATION,
            execute_operation,
            _ectx("alice"),
            EndInteractions(),
            simple_env,
            FEATURES,
        )

    def test_activation_and_reactivation(self, simple_env):
        out = execute_operation(
            _ectx("alice"), EndInteractions(), simple_env, ALL_FEATURES
        )
        assert out.emitted == () and out.env_after is simple_env
        same_owner = _ectx("alice", end_interactions_owner="alice")
        execute_operation(same_owner, EndInteractions(), simple_env, ALL_FEATURES)
        other = _ectx("bob", end_interactions_owner="alice")
        _expect_error(
            END_INTERACTIONS_VIOLATION,
            execute_operation,
            other,
            EndInteractions(),
            simple_env,
            ALL_FEATURES,
        )


class TestViews:
    def test_reads_current_storage(self, vault_env):
        assert view_storage(vault_env, "vault", ALL_FEATURES) == UNIT_VALUE

    def test_absent_address(self, vault_env):
        _expect_error(UNKNOWN_ADDRESS, view_storage, vault_env, "ghost", ALL_FEATURES)

    def test_feature_off(self, vault_env):
        _expect_error(FEATURE_DISABLED, view_storage, vault_env, "vault", FEATURES)


def _pending_transfer(sender, dest, amount):
    return PendingOp(Transfer(dest, amount, make_param("default")), sender)


class TestPendingBalance:
    def test_vault_with_three_payouts(self, vault_env):
        pending = [_pending_transfer("vault", "bad", 5) for _ in range(3)]
        assert pending_balance(vault_env, "vault", pending, ALL_FEATURES) == 0

    def test_empty_queue_equals_balance(self, vault_env):
        assert pending_balance(vault_env, "vault", [], ALL_FEATURES) == 15

    def test_incoming_not_added(self, vault_env):
        pending = [_pending_transfer("vault", "bad", 5)]
        assert pending_balance(vault_env, "bad", pending, ALL_FEATURES) == 0

    def test_mismatch_while_transfers_pending(self, simple_env):
        # Queue shaped as [C..., A->B transfers]: while the payouts are
        # pending, the observable sum over {A, B} undershoots the real sum.
        env = simple_env
        a, b = "alice", "bob"
        pending = [
            _pending_transfer(a, b, 10),
            _pending_transfer(a, b, 5),
        ]
        real_sum = env.get(a).balance + env.get(b).balance
        observed = pending_balance(env, a, pending, ALL_FEATURES) + pending_balance(
            env, b, pending, ALL_FEATURES
        )
        assert observed == real_sum - 15
        assert observed < real_sum

    def test_counts_transfers_inside_wrappers(self, vault_env):
        from chainsim.core import AtomicBundle, Restricted

        inner = Transfer("bad", 5, make_param("default"))
        wrapped = PendingOp(
            AtomicBundle((inner, Restricted((inner,), block=frozenset()))), "vault"
        )
        assert pending_balance(vault_env, "vault", [wrapped], ALL_FEATURES) == 5
        # nested deeper than the recursion limit; other senders' ops are skipped
        deep = inner
        for _ in range(3000):
            deep = AtomicBundle((deep,))
        pending = [PendingOp(deep, "vault"), PendingOp(deep, "owner")]
        assert pending_balance(vault_env, "vault", pending, ALL_FEATURES) == 15 - 5

    def test_feature_off(self, vault_env):
        _expect_error(FEATURE_DISABLED, pending_balance, vault_env, "vault", [], FEATURES)

    def test_can_go_negative(self, simple_env):
        pending = [_pending_transfer("bob", "alice", 40), _pending_transfer("bob", "alice", 30)]
        assert pending_balance(simple_env, "bob", pending, ALL_FEATURES) == -20


class TestTransferCorrectness:
    """Listing-style transfer check against an independently computed oracle:
    deltas are exactly (-send, +send) and the callee's storage equals what its
    body returns; failures leave zero deltas."""

    def test_thousand_random_cases(self, simple_env):
        rng = random.Random(20260810)
        violations = 0
        for _ in range(1000):
            caller = rng.choice(["alice", "bob"])
            callee = rng.choice(["alice", "bob", "fwd"])
            send = rng.randrange(0, 160)
            env = simple_env
            before_caller = env.get(caller).balance
            before_callee = env.get(callee).balance
            op = Transfer(callee, send, make_param("default"))
            try:
                out = execute_operation(_ectx(caller), op, env, FEATURES)
            except ExecError:
                # failure: no observable effect anywhere
                if env.get(caller).balance != before_caller:
                    violations += 1
                if env.get(callee).balance != before_callee:
                    violations += 1
                assert send > before_caller
                continue
            after_caller = out.env_after.get(caller).balance
            after_callee = out.env_after.get(callee).balance
            if caller == callee:
                if after_caller != before_caller:
                    violations += 1
            else:
                if after_caller != before_caller - send:
                    violations += 1
                if after_callee != before_callee + send:
                    violations += 1
            # independent storage oracle: receiver keeps storage, forwarder
            # adds the credited amount to its counter
            if callee == "fwd":
                expected = NatV(30 + send)
            else:
                expected = UNIT_VALUE
            if out.env_after.get(callee).storage != expected:
                violations += 1
        assert violations == 0


def test_code_immutability(vault_env):
    rng = random.Random(99)
    env = vault_env
    fingerprint = {
        addr: (c.code_key, c.config, c.contextual)
        for addr, c in env.accounts.items()
    }
    ops = [
        Transfer("bad", 2, make_param("default")),
        Transfer("vault", 1, make_param("deposit")),
        Transfer("owner", 3, make_param("default")),
    ]
    for _ in range(50):
        op = rng.choice(ops)
        sender = rng.choice(["owner", "vault", "bad"])
        try:
            out = execute_operation(_ectx(sender), op, env, FEATURES)
        except ExecError:
            continue
        env = out.env_after
        for addr, fixed in fingerprint.items():
            c = env.get(addr)
            assert (c.code_key, c.config, c.contextual) == fixed
        assert all(c.balance >= 0 for c in env.accounts.values())


def test_failure_leaves_input_env_identical(simple_env):
    snapshot = copy.deepcopy(simple_env)
    op = Transfer("bob", 101, make_param("default"))
    with pytest.raises(ExecError):
        execute_operation(_ectx("alice"), op, simple_env, FEATURES)
    assert simple_env == snapshot


_PAY_BOB = Transfer("bob", 1, make_param("default"))


def test_call_context_fields_are_what_a_body_may_read():
    ctx = CallContext("bob", "alice", "alice", 1, 51, 0, UNIT_VALUE, FEATURES)
    assert ctx._fields == (
        "self_addr", "sender", "source", "amount", "self_balance", "level", "config", "features",
    )
    assert "env" not in repr(ctx)
    _expect_error(FEATURE_DISABLED, ctx.view, "bob")
    _expect_error(FEATURE_DISABLED, ctx.pending_balance, "bob")
    # A context built for calling a body directly stands over an empty chain.
    ctx = CallContext("bob", "alice", "alice", 1, 51, 0, UNIT_VALUE, ALL_FEATURES)
    _expect_error(UNKNOWN_ADDRESS, ctx.view, "bob")
    _expect_error(UNKNOWN_ADDRESS, ctx.pending_balance, "bob")


def test_a_copied_call_context_reads_the_same_chain(simple_env):
    # The hidden slots are not rebuilt from the fields, so a copy made during
    # the call still stands over the call's environment and queue.
    def body(ctx, param, storage):
        for c in (copy.copy(ctx), copy.deepcopy(ctx), pickle.loads(pickle.dumps(ctx))):
            assert c == ctx and c.view("fwd") == NatV(30)
            assert c.pending_balance("crash") == ctx.pending_balance("crash") == 5
        return [], storage

    key = "copies_its_context_for_test"
    if not registry.is_registered(key):
        registry.register(
            registry.ContractDef(
                code_key=key,
                entrypoints={"default": UNIT},
                storage_type=UNIT,
                config_type=UNIT,
                body=body,
            )
        )
    env = simple_env.updated({"crash": registry.instantiate(key, UNIT_VALUE, UNIT_VALUE, 0)})
    op = Transfer("crash", 5, make_param("default"))
    assert execute_operation(_ectx("alice"), op, env, ALL_FEATURES).emitted == ()


@pytest.mark.parametrize(
    "record",
    [
        ExecutionContext("alice", "alice"),
        PendingOp(_PAY_BOB, "alice"),
        CallContext("bob", "alice", "alice", 1, 51, 0, UNIT_VALUE, FEATURES),
        ExecOutcome("bob", (), Environment(), (), False),
        TraceNode(0, None, "alice", _PAY_BOB),
    ],
    ids=lambda r: type(r).__name__,
)
def test_per_step_records_are_immutable(record):
    for name in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, name, None)


def _register_storage_body(key, storage_type, body):
    if not registry.is_registered(key):
        registry.register(
            registry.ContractDef(
                code_key=key,
                entrypoints={"default": UNIT},
                storage_type=storage_type,
                config_type=UNIT,
                body=body,
            )
        )


def _count_updates(monkeypatch):
    """Record, per `Environment.updated` call from now on, the addresses it
    writes, in order."""
    calls = []
    original = Environment.updated

    def counted(self, writes):
        calls.append(tuple(writes))
        return original(self, writes)

    monkeypatch.setattr(Environment, "updated", counted)
    return calls


class TestStorageWrite:
    """A transfer writes the callee's storage only when the body returned a
    new storage object."""

    def test_kept_storage_object_is_not_written_again(self, simple_env, monkeypatch):
        kept = simple_env.get("bob").storage
        calls = _count_updates(monkeypatch)
        out = execute_operation(_ectx("alice"), _PAY_BOB, simple_env, FEATURES)
        # The sender's debit and the callee's credit in one write; no
        # storage write.
        assert calls == [("alice", "bob")]
        assert out.env_after.get("bob").storage is kept
        assert out.env_after.get("bob").balance == 51

    def test_equal_new_storage_object_is_written(self, simple_env, monkeypatch):
        _register_storage_body(
            "returns_equal_copy_for_test", NAT, lambda ctx, p, st: ([], NatV(st.n))
        )
        env = simple_env.updated(
            {"copier": registry.instantiate("returns_equal_copy_for_test", UNIT_VALUE, NatV(7), 0)}
        )
        before = env.get("copier").storage
        calls = _count_updates(monkeypatch)
        out = execute_operation(
            _ectx("alice"), Transfer("copier", 1, make_param("default")), env, FEATURES
        )
        assert calls == [("alice", "copier"), ("copier",)]
        committed = out.env_after.get("copier").storage
        assert committed == before and committed is not before
        assert out.env_after.get("copier").balance == 1

    def test_self_transfer_credits_the_debited_contract(self, simple_env, monkeypatch):
        # @fwd accounts its payment to itself when it emits it, and its own
        # credit when it receives it, so storage and balance agree after.
        op = Transfer("fwd", 0, make_param("invoke", AddressV("fwd"), NatV(10)))
        out = execute_operation(_ectx("alice"), op, simple_env, FEATURES)
        assert out.emitted == (Transfer("fwd", 10, make_param("default")),)
        assert out.env_after.get("fwd").storage == NatV(20)
        calls = _count_updates(monkeypatch)
        out = execute_operation(_ectx("fwd"), out.emitted[0], out.env_after, FEATURES)
        fwd = out.env_after.get("fwd")
        assert (fwd.balance, fwd.storage) == (30, NatV(30))
        # One write moves the funds: the credit, computed from the debit,
        # is the one contract written for @fwd. The forwarder returns a new
        # storage object, written next.
        assert calls == [("fwd",), ("fwd",)]
        assert simple_env.get("fwd").balance == 30


class _Result(NamedTuple):
    ops: list
    storage: object


class TestAdmission:
    """A call whose argument has exactly its entrypoint's tag, and a result
    that is exactly a pair, are admitted without the general checks; every
    other call and result gets the answer those checks give."""

    def _payer_env(self, simple_env):
        payer = registry.instantiate("payer", UNIT_VALUE, UNIT_VALUE, 0)
        return simple_env.updated({"payer": payer})

    def test_empty_list_argument_is_admitted(self, simple_env):
        # `[]` is a `list unit`, not the declared `list address`, yet it
        # inhabits every list type.
        param = make_param("pay", ListV(()), NatV(1))
        assert param.right._tag is not registry.resolve("payer").entrypoints["pay"]
        out = execute_operation(
            _ectx("alice"), Transfer("payer", 0, param), self._payer_env(simple_env), FEATURES
        )
        assert out.emitted == ()

    def test_wrong_list_items_are_type_mismatch(self, simple_env):
        op = Transfer("payer", 0, make_param("pay", ListV((NatV(1),)), NatV(1)))
        env = self._payer_env(simple_env)
        err = _expect_error(TYPE_MISMATCH, execute_operation, _ectx("alice"), op, env, FEATURES)
        assert err.detail == "argument does not fit @payer's 'pay' entrypoint"

    def test_a_named_pair_result_is_accepted(self, simple_env):
        _register_storage_body(
            "returns_named_pair_for_test", UNIT, lambda ctx, p, st: _Result([], st)
        )
        named = registry.instantiate("returns_named_pair_for_test", UNIT_VALUE, UNIT_VALUE, 0)
        env = simple_env.updated({"named": named})
        out = execute_operation(
            _ectx("alice"), Transfer("named", 2, make_param("default")), env, FEATURES
        )
        assert out.emitted == () and out.env_after.get("named").balance == 2


@pytest.mark.parametrize("strategy", [Strategy.BFS, Strategy.DFS])
def test_bodies_and_writes_pass_the_layer_call_sites(monkeypatch, strategy):
    """The benchmark's traced run counts body calls by wrapping
    `registry.resolve`, as here, and environment writes by wrapping
    `Environment.updated`. Over a `payer.pay` fan-out, each executor call
    runs one body and each executed transfer writes once, since no callee
    returns a new storage object; an executor that reached either around
    its call site would count short."""
    receivers = ("r0", "r1", "r2")
    dests = ", ".join(f"@{receivers[k % 3]}" for k in range(7))
    scenario = parse_scenario(
        'scenario "fanout"\naccount @user balance 0\n'
        "contract @payer code payer config unit storage unit balance 14\n"
        + "".join(f"account @{r} balance 0\n" for r in receivers)
        + f"transaction from @user {{ transfer 0 to @payer call pay([{dests}], 2) }}\n"
    )
    env = build_environment(scenario)
    body_calls = []
    plain_resolve = registry.resolve

    def resolve(code_key):
        defn = plain_resolve(code_key)

        def body(*args):
            body_calls.append(code_key)
            return defn.body(*args)

        return dataclasses.replace(defn, body=body)

    monkeypatch.setattr(registry, "resolve", resolve)
    writes = _count_updates(monkeypatch)
    executor_calls = []

    def execute(*args):
        executor_calls.append(args[1])
        return execute_operation(*args)

    cfg = SchedulerConfig(strategy=strategy)
    outcome, _, tree = run_transaction(env, scenario.transactions[0], cfg, 0, execute)
    assert isinstance(outcome, Commit)
    transfers = [n for n in tree.nodes if n.status == "executed" and n.kind == "transfer"]
    assert len(transfers) == 8
    assert len(body_calls) == len(executor_calls) == len(transfers)
    assert body_calls == ["payer"] + ["receiver"] * 7
    assert len(writes) == len(transfers)


class TestReportedEffects:
    """The outcome names the storages the trace records as committed and
    whether the emissions run in a fresh frame. A contextual callee with the
    contexts feature off reverts only after its body, the emitted-operations
    check and the storage write, so their failures take precedence."""

    def test_transfer_commits_the_callee_storage(self, simple_env):
        op = Transfer("fwd", 7, make_param("default"))
        out = execute_operation(_ectx("alice"), op, simple_env, FEATURES)
        assert out.commits == (("fwd", NatV(37)),)
        assert out.opens_frame is False

    def test_create_commits_its_initial_storage(self, simple_env):
        op = CreateContract("fresh", 5, UNIT_VALUE, "receiver", UNIT_VALUE)
        out = execute_operation(_ectx("alice"), op, simple_env, FEATURES)
        assert out.commits == (("fresh", UNIT_VALUE),)
        assert out.opens_frame is False

    def test_end_interactions_commits_nothing(self, simple_env):
        out = execute_operation(_ectx("alice"), EndInteractions(), simple_env, ALL_FEATURES)
        assert out.commits == ()
        assert out.opens_frame is False

    def test_contextual_callee_opens_a_frame_only_with_contexts(self, vault_env):
        env = vault_env.updated({"vault": contextual(vault_env.get("vault"))})
        op = Transfer("vault", 0, make_param("withdraw", NatV(5)))
        out = execute_operation(_ectx("bad"), op, env, FeatureSet(contexts=True))
        assert out.opens_frame is True
        assert out.commits == (("vault", UNIT_VALUE),)
        assert out.emitted == (Transfer("bad", 5, make_param("default")),)
        err = _expect_error(FEATURE_DISABLED, execute_operation, _ectx("bad"), op, env, FEATURES)
        assert err.detail == "contexts feature disabled (contextual callee)"

    def test_body_failure_precedes_the_contexts_check(self, vault_env):
        env = vault_env.updated({"vault": contextual(vault_env.get("vault"))})
        op = Transfer("vault", 0, make_param("withdraw", NatV(5)))
        err = _expect_error(CONTRACT_FAILURE, execute_operation, _ectx("owner"), op, env, FEATURES)
        assert "not owner" in err.detail

    @pytest.mark.parametrize(
        "body, kind",
        [
            (lambda ctx, p, st: ([], NatV(1)), TYPE_MISMATCH),
            (lambda ctx, p, st: ([5], st), CONTRACT_CRASH),
        ],
        ids=["ill_typed_storage", "emits_int"],
    )
    def test_later_checks_precede_the_contexts_check(self, simple_env, request, body, kind):
        key = f"contextual_{request.node.callspec.id}_for_test"
        _register_storage_body(key, UNIT, body)
        callee = registry.instantiate(key, UNIT_VALUE, UNIT_VALUE, 0, contextual=True)
        env = simple_env.updated({"ctx": callee})
        op = Transfer("ctx", 1, make_param("default"))
        _expect_error(kind, execute_operation, _ectx("alice"), op, env, FEATURES)


class _SubTransfer(Transfer):
    """A subclass of a core operation: neither the scheduler nor the trace
    knows it."""

    __slots__ = ()


def _run_emitter(simple_env, key, emitted):
    """Run `alice: transfer 0 to @emitter`, where @emitter's body emits what
    `emitted()` returns, with every feature on; returns the outcome and the
    tree."""
    if not registry.is_registered(key):
        registry.register(
            registry.ContractDef(
                key, {"default": UNIT}, UNIT, UNIT, lambda ctx, p, st: (emitted(), st)
            )
        )
    env = simple_env.updated({"emitter": registry.instantiate(key, UNIT_VALUE, UNIT_VALUE, 0)})
    env = env.updated({"r": registry.implicit_account(0)})
    tx = SignedTransaction("alice", (Transfer("emitter", 0, make_param("default")),))
    cfg = SchedulerConfig(features=ALL_FEATURES, record_queue_states=True)
    outcome, _, tree = run_transaction(env, tx, cfg, 0)
    return outcome, tree


def test_emitted_create_of_a_non_value_reverts(simple_env):
    # The body's CreateContract refuses its storage where the body builds
    # it, before the executor or a queue snapshot could render it.
    outcome, tree = _run_emitter(
        simple_env,
        "creates_non_value_for_test",
        lambda: [CreateContract("x", 0, 5, "receiver", UNIT_VALUE)],
    )
    assert isinstance(outcome, Revert) and outcome.kind == CONTRACT_CRASH
    assert outcome.detail == "@emitter raised ValueError: created storage is not a value: 5"
    assert [n.status for n in tree.nodes] == [STATUS_FAILED]


@pytest.mark.parametrize("shape", ["bare", "after_a_transfer", "wrapped"])
def test_emitted_operation_subclass_reverts(simple_env, shape):
    # Only the core operation classes themselves are admitted to the queue,
    # so the trace can name every node's kind: neither a flat emission that
    # also holds a core operation nor an atomic member lets a subclass in.
    def emitted():
        op = _SubTransfer("r", 0, make_param("default"))
        if shape == "wrapped":
            return [AtomicBundle((op,))]
        if shape == "after_a_transfer":
            return [Transfer("r", 0, make_param("default")), op]
        return [op]

    outcome, tree = _run_emitter(simple_env, f"emits_subclass_{shape}_for_test", emitted)
    assert isinstance(outcome, Revert) and outcome.kind == CONTRACT_CRASH
    assert outcome.detail == "@emitter emitted _SubTransfer, not an operation"
    exported = tree_to_json(tree)
    assert [(n["kind"], n["status"]) for n in exported["nodes"]] == [("transfer", STATUS_FAILED)]


def _raise(exc):
    raise exc


def _emissions_raising(exc):
    """A body's emissions that raise `exc` when the executor draws them."""
    raise exc
    yield


@pytest.mark.parametrize("drawn", [False, True], ids=["in_body", "drawn"])
@pytest.mark.parametrize(
    "exc", [SystemExit(4), GeneratorExit()], ids=["system_exit", "generator_exit"]
)
def test_body_exit_exceptions_revert(simple_env, exc, drawn):
    # Neither exception is an `Exception`; a body raising one still only
    # reverts its transaction.
    emitted = (lambda: _emissions_raising(exc)) if drawn else (lambda: _raise(exc))
    key = f"raises_{type(exc).__name__}_{drawn}_for_test"
    outcome, tree = _run_emitter(simple_env, key, emitted)
    assert isinstance(outcome, Revert) and outcome.kind == CONTRACT_CRASH
    assert outcome.detail == f"@emitter raised {type(exc).__name__}: {exc}"
    assert [n.status for n in tree.nodes] == [STATUS_FAILED]


@pytest.mark.parametrize("drawn", [False, True], ids=["in_body", "drawn"])
def test_body_keyboard_interrupt_propagates(simple_env, drawn):
    exc = KeyboardInterrupt()
    emitted = (lambda: _emissions_raising(exc)) if drawn else (lambda: _raise(exc))
    with pytest.raises(KeyboardInterrupt):
        _run_emitter(simple_env, f"interrupted_{drawn}_for_test", emitted)
