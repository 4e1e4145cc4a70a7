import pytest

from chainsim.core import (
    AddressV,
    BoolV,
    CallContext,
    Environment,
    ExecError,
    ExecutionContext,
    MutezV,
    NatV,
    PairV,
    Transfer,
    UNIT,
    UNIT_VALUE,
    make_param,
)
from chainsim.executor import CONTRACT_FAILURE, execute_operation
from chainsim.features import FeatureSet
from chainsim import registry
from chainsim.registry import ContractDef, ContractFail


def _ctx(self_addr="vault", sender="bad", amount=0, balance=15, config=None):
    return CallContext(
        self_addr=self_addr,
        sender=sender,
        source=sender,
        amount=amount,
        self_balance=balance,
        level=0,
        config=config if config is not None else PairV(NatV(9), AddressV("bad")),
        features=FeatureSet(),
    )


class TestRegistration:
    def test_register_then_instantiate(self):
        defn = ContractDef(
            code_key="null_body_for_test",
            entrypoints={"default": UNIT},
            storage_type=UNIT,
            config_type=UNIT,
            body=lambda ctx, p, st: ([], st),
        )
        registry.register(defn)
        c = registry.instantiate("null_body_for_test", UNIT_VALUE, UNIT_VALUE, 0)
        assert c.code_key == "null_body_for_test"

    def test_duplicate_rejected(self):
        with pytest.raises(registry.RegistryError):
            registry.register(registry.resolve("bank"))

    def test_unknown_key(self):
        with pytest.raises(registry.RegistryError):
            registry.instantiate("missing_code", UNIT_VALUE, UNIT_VALUE, 0)

    def test_bad_storage_tag(self):
        with pytest.raises(registry.RegistryError):
            registry.instantiate(
                "bank", PairV(NatV(9), AddressV("o")), NatV(1), 0
            )

    def test_bad_config_tag(self):
        with pytest.raises(registry.RegistryError):
            registry.instantiate("bank", UNIT_VALUE, UNIT_VALUE, 0)

    def test_motivating_vault(self):
        c = registry.instantiate(
            "bank", PairV(NatV(9), AddressV("bad")), UNIT_VALUE, 15
        )
        assert c.balance == 15
        assert c.storage == UNIT_VALUE

    def test_instantiate_checks_config_and_storage_once(self, monkeypatch):
        from chainsim import core

        calls = []

        def counting(value, tag):
            calls.append(tag)
            return typecheck(value, tag)

        typecheck = core.value_typecheck
        monkeypatch.setattr(core, "value_typecheck", counting)
        monkeypatch.setattr(registry, "value_typecheck", counting)
        c = registry.instantiate("receiver", UNIT_VALUE, UNIT_VALUE, 15, contextual=True)
        assert calls == [UNIT, UNIT]  # config, storage; unit values do not recurse
        assert type(c) is core.Contract
        assert c == core.Contract(UNIT_VALUE, 15, "receiver", UNIT_VALUE, True)

    def test_receiver_implicit_account(self):
        c = registry.implicit_account(0)
        assert c.balance == 0
        assert c.code_key == "receiver"


class TestBankBody:
    def test_withdraw_emits_when_guard_passes(self):
        body = registry.resolve("bank").body
        ops, storage = body(_ctx(), make_param("withdraw", NatV(5)), UNIT_VALUE)
        assert storage == UNIT_VALUE
        assert ops == [Transfer("bad", 5, make_param("default"))]

    def test_guard_is_strict(self):
        body = registry.resolve("bank").body
        # 15 - 5 > 9 passes; a second sequential withdrawal sees 10 - 5 > 9 fail.
        body(_ctx(balance=15), make_param("withdraw", NatV(5)), UNIT_VALUE)
        with pytest.raises(ContractFail, match="breaking invariant"):
            body(_ctx(balance=10), make_param("withdraw", NatV(5)), UNIT_VALUE)

    def test_not_owner(self):
        body = registry.resolve("bank").body
        with pytest.raises(ContractFail, match="not owner"):
            body(_ctx(sender="mallory"), make_param("withdraw", NatV(5)), UNIT_VALUE)

    def test_oversized_withdraw_fails_guard(self):
        body = registry.resolve("bank").body
        with pytest.raises(ContractFail, match="breaking invariant"):
            body(_ctx(balance=15), make_param("withdraw", NatV(100)), UNIT_VALUE)

    def test_deposit_is_quiet(self):
        body = registry.resolve("bank").body
        ops, storage = body(_ctx(amount=5), make_param("deposit"), UNIT_VALUE)
        assert ops == [] and storage == UNIT_VALUE


class TestFixedBankBody:
    def test_withdraw_tracks_compromised(self):
        body = registry.resolve("fixed_bank").body
        ops, storage = body(_ctx(), make_param("withdraw", NatV(5)), MutezV(0))
        assert storage == MutezV(5)
        assert ops[0] == Transfer("bad", 5, make_param("default"))
        assert ops[1] == Transfer("vault", 0, make_param("settle", NatV(5)))

    def test_guard_counts_compromised(self):
        body = registry.resolve("fixed_bank").body
        with pytest.raises(ContractFail, match="breaking invariant"):
            body(_ctx(balance=15), make_param("withdraw", NatV(5)), MutezV(5))

    def test_settle_is_private(self):
        body = registry.resolve("fixed_bank").body
        ops, storage = body(
            _ctx(sender="vault"), make_param("settle", NatV(5)), MutezV(5)
        )
        assert ops == [] and storage == MutezV(0)
        with pytest.raises(ContractFail, match="private"):
            body(_ctx(sender="bad"), make_param("settle", NatV(5)), MutezV(5))

    def test_settle_cannot_exceed_compromised(self):
        body = registry.resolve("fixed_bank").body
        with pytest.raises(ContractFail, match="^settle exceeds compromised balance$"):
            body(_ctx(sender="vault"), make_param("settle", NatV(6)), MutezV(5))


def test_good_client_requests_from_bank():
    body = registry.resolve("good_client").body
    ops, _ = body(
        _ctx(self_addr="client", config=AddressV("vault")),
        make_param("askMoney", NatV(7)),
        UNIT_VALUE,
    )
    assert ops == [Transfer("vault", 0, make_param("withdraw", NatV(7)))]


def test_bad_replicates_withdrawals():
    body = registry.resolve("bad").body
    ops, _ = body(
        _ctx(self_addr="bad", config=AddressV("vault")),
        make_param("rob", NatV(3), NatV(5)),
        UNIT_VALUE,
    )
    assert len(ops) == 3
    assert all(op == Transfer("vault", 0, make_param("withdraw", NatV(5))) for op in ops)


def test_bodies_are_pure():
    cases = [
        ("bank", _ctx(), make_param("withdraw", NatV(5)), UNIT_VALUE),
        ("fixed_bank", _ctx(), make_param("withdraw", NatV(5)), MutezV(0)),
        (
            "good_client",
            _ctx(config=AddressV("vault")),
            make_param("askMoney", NatV(2)),
            UNIT_VALUE,
        ),
        (
            "bad",
            _ctx(config=AddressV("vault")),
            make_param("rob", NatV(2), NatV(2)),
            UNIT_VALUE,
        ),
        ("receiver", _ctx(config=UNIT_VALUE), make_param("default"), UNIT_VALUE),
        (
            "forwarder",
            _ctx(config=UNIT_VALUE, amount=3),
            make_param("default"),
            NatV(10),
        ),
    ]
    for key, ctx, param, storage in cases:
        body = registry.resolve(key).body
        assert body(ctx, param, storage) == body(ctx, param, storage)


def test_forwarder_accounts_at_emission():
    body = registry.resolve("forwarder").body
    ops, storage = body(
        _ctx(self_addr="fwd", config=UNIT_VALUE),
        make_param("invoke", AddressV("bob"), NatV(4)),
        NatV(10),
    )
    assert storage == NatV(6)
    assert ops == [Transfer("bob", 4, make_param("default"))]
    with pytest.raises(ContractFail, match="insufficient accounted"):
        body(
            _ctx(self_addr="fwd", config=UNIT_VALUE),
            make_param("invoke", AddressV("bob"), NatV(11)),
            NatV(10),
        )


def test_forwarder_credits_on_receipt():
    body = registry.resolve("forwarder").body
    ops, storage = body(
        _ctx(self_addr="fwd", config=UNIT_VALUE, amount=4),
        make_param("default"),
        NatV(10),
    )
    assert ops == [] and storage == NatV(14)


@pytest.mark.parametrize(
    "first, detail",
    [
        (NatV(5), "no observable mismatch"),
        (UNIT_VALUE, "accounted balance of first must be a nat, got unit"),
    ],
    ids=["views_sum_to_total", "view_not_a_nat"],
)
def test_observer_fails_without_a_mismatch_to_observe(first, detail):
    # Nothing is pending, so each pending balance is the account's balance.
    code = "forwarder" if isinstance(first, NatV) else "receiver"
    config = PairV(AddressV("a"), PairV(AddressV("b"), PairV(NatV(10), NatV(0))))
    env = Environment().updated(
        {
            "user": registry.implicit_account(0),
            "a": registry.instantiate(code, UNIT_VALUE, first, 5),
            "b": registry.instantiate("forwarder", UNIT_VALUE, NatV(5), 5),
            "c": registry.instantiate("observer", config, BoolV(False), 0),
        }
    )
    features = FeatureSet(views=True, pending_balance=True)
    with pytest.raises(ExecError) as raised:
        execute_operation(
            ExecutionContext("user", "user"), Transfer("c", 0, make_param("check")), env, features
        )
    assert (raised.value.kind, raised.value.detail) == (CONTRACT_FAILURE, detail)
