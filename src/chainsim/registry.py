"""Catalog of contract bodies plus the standard cast of contracts.

Bodies are plain host functions (CallContext, param, storage) -> (ops, storage').
They never touch the environment directly: every effect travels through the
returned operation list. A body signals failure by raising ContractFail.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from .core import (
    ADDRESS,
    BOOL,
    MUTEZ,
    NAT,
    STRING,
    UNIT,
    UNIT_VALUE,
    AddressV,
    BoolV,
    CallContext,
    Contract,
    ListV,
    MutezV,
    NatV,
    Operation,
    PairV,
    StringV,
    Transfer,
    TypeTag,
    Value,
    check_amount,
    list_t,
    make_param,
    pair_t,
    render_value,
    union_t,
    value_typecheck,
)


class RegistryError(ValueError):
    pass


class ContractFail(Exception):
    """Raised by a contract body to abort the invocation (and transaction)."""

    def __init__(self, message: str) -> None:
        super().__init__(message)
        self.message = message


BodyFn = Callable[[CallContext, Value, Value], "tuple[list[Operation], Value]"]


@dataclass(frozen=True)
class ContractDef:
    code_key: str
    param_type: TypeTag
    storage_type: TypeTag
    config_type: TypeTag
    body: BodyFn = field(compare=False)


_REGISTRY: dict[str, ContractDef] = {}


def register(defn: ContractDef) -> None:
    if defn.code_key in _REGISTRY:
        raise RegistryError(f"code key already registered: {defn.code_key!r}")
    _REGISTRY[defn.code_key] = defn


def is_registered(code_key: str) -> bool:
    return code_key in _REGISTRY


def resolve(code_key: str) -> ContractDef:
    try:
        return _REGISTRY[code_key]
    except KeyError:
        raise RegistryError(f"unknown code key: {code_key!r}") from None


def instantiate(
    code_key: str,
    config: Value,
    storage: Value,
    balance: int,
    contextual: bool = False,
) -> Contract:
    """Build a Contract ready for Environment.updated or CreateContract installation."""
    defn = resolve(code_key)
    if not value_typecheck(config, defn.config_type):
        raise RegistryError(
            f"config {render_value(config)} does not fit contract {code_key!r}"
        )
    if not value_typecheck(storage, defn.storage_type):
        raise RegistryError(
            f"storage {render_value(storage)} does not fit contract {code_key!r}"
        )
    return Contract(
        param_type=defn.param_type,
        storage_type=defn.storage_type,
        storage=storage,
        balance=check_amount(balance),
        code_key=code_key,
        config=config,
        contextual=contextual,
    )


# ---------------------------------------------------------------------------
# Body helpers
# ---------------------------------------------------------------------------


def entrypoint_of(param: Value) -> tuple[str, Value]:
    if isinstance(param, PairV) and isinstance(param.left, StringV):
        return param.left.s, param.right
    raise ContractFail(f"malformed parameter: {render_value(param)}")


def as_nat(v: Value, what: str = "argument") -> int:
    if isinstance(v, NatV):
        return v.n
    raise ContractFail(f"{what} must be a nat, got {render_value(v)}")


def as_address(v: Value, what: str = "argument") -> str:
    if isinstance(v, AddressV):
        return v.addr
    raise ContractFail(f"{what} must be an address, got {render_value(v)}")


def as_pair(v: Value, what: str = "argument") -> tuple[Value, Value]:
    if isinstance(v, PairV):
        return v.left, v.right
    raise ContractFail(f"{what} must be a pair, got {render_value(v)}")


# ---------------------------------------------------------------------------
# Standard cast
# ---------------------------------------------------------------------------

# Invocation parameters follow one convention: (entrypoint name, args), with
# multi-argument entrypoints taking right-nested pairs. "default" is the bare
# transfer entrypoint.

_RECEIVE = make_param("default")


def _bank_config(ctx: CallContext) -> tuple[int, str]:
    threshold_v, owner_v = as_pair(ctx.config, "bank config")
    return as_nat(threshold_v, "threshold"), as_address(owner_v, "owner")


def _bank_body(ctx: CallContext, param: Value, storage: Value):
    name, args = entrypoint_of(param)
    threshold, owner = _bank_config(ctx)
    if name in ("deposit", "default"):
        return [], storage
    if name == "withdraw":
        ret = as_nat(args, "withdraw amount")
        if ctx.sender != owner:
            raise ContractFail("not owner")
        if ctx.self_balance - ret > threshold:
            return [Transfer(owner, ret, _RECEIVE)], storage
        raise ContractFail("breaking invariant")
    raise ContractFail(f"no entrypoint {name!r}")


def _fixed_bank_body(ctx: CallContext, param: Value, storage: Value):
    name, args = entrypoint_of(param)
    threshold, owner = _bank_config(ctx)
    if not isinstance(storage, MutezV):
        raise ContractFail("corrupt compromised counter")
    compromised = storage.mutez
    if name in ("deposit", "default"):
        return [], storage
    if name == "withdraw":
        ret = as_nat(args, "withdraw amount")
        if ctx.sender != owner:
            raise ContractFail("not owner")
        # Deduct funds already promised by earlier (still pending) payouts.
        if ctx.self_balance - compromised - ret > threshold:
            payout = Transfer(owner, ret, _RECEIVE)
            settle = Transfer(ctx.self_addr, 0, make_param("settle", NatV(ret)))
            return [payout, settle], MutezV(compromised + ret)
        raise ContractFail("breaking invariant")
    if name == "settle":
        ret = as_nat(args, "settle amount")
        if ctx.sender != ctx.self_addr:
            raise ContractFail("settle is private")
        if ret > compromised:
            raise ContractFail("settle exceeds compromised balance")
        return [], MutezV(compromised - ret)
    raise ContractFail(f"no entrypoint {name!r}")


def _good_client_body(ctx: CallContext, param: Value, storage: Value):
    name, args = entrypoint_of(param)
    if name in ("deposit", "default"):
        return [], storage
    if name == "askMoney":
        m = as_nat(args, "requested amount")
        bank = as_address(ctx.config, "bank address")
        return [Transfer(bank, 0, make_param("withdraw", NatV(m)))], storage
    raise ContractFail(f"no entrypoint {name!r}")


def _bad_body(ctx: CallContext, param: Value, storage: Value):
    name, args = entrypoint_of(param)
    if name == "default":
        return [], storage
    if name == "rob":
        n_v, m_v = as_pair(args, "rob arguments")
        n = as_nat(n_v, "request count")
        m = as_nat(m_v, "withdraw amount")
        bank = as_address(ctx.config, "bank address")
        withdraw = Transfer(bank, 0, make_param("withdraw", NatV(m)))
        return [withdraw] * n, storage
    raise ContractFail(f"no entrypoint {name!r}")


def _receiver_body(ctx: CallContext, param: Value, storage: Value):
    return [], storage


def _forwarder_body(ctx: CallContext, param: Value, storage: Value):
    name, args = entrypoint_of(param)
    if not isinstance(storage, NatV):
        raise ContractFail("corrupt accounted balance")
    accounted = storage.n
    if name in ("deposit", "default"):
        return [], NatV(check_amount(accounted + ctx.amount))
    if name == "invoke":
        dest_v, m_v = as_pair(args, "invoke arguments")
        dest = as_address(dest_v, "destination")
        m = as_nat(m_v, "amount")
        # The outgoing amount is accounted here, at emission time, even
        # though funds only move when the transfer executes.
        new_accounted = accounted + ctx.amount - m
        if new_accounted < 0:
            raise ContractFail("insufficient accounted balance")
        return [Transfer(dest, m, _RECEIVE)], NatV(new_accounted)
    raise ContractFail(f"no entrypoint {name!r}")


def _payer_body(ctx: CallContext, param: Value, storage: Value):
    name, args = entrypoint_of(param)
    if name == "default":
        return [], storage
    if name == "pay":
        dests_v, m_v = as_pair(args, "pay arguments")
        if not isinstance(dests_v, ListV):
            raise ContractFail("pay takes a list of addresses")
        m = as_nat(m_v, "amount")
        ops = [
            Transfer(as_address(d, "destination"), m, _RECEIVE) for d in dests_v.items
        ]
        return ops, storage
    raise ContractFail(f"no entrypoint {name!r}")


def _observer_body(ctx: CallContext, param: Value, storage: Value):
    name, _ = entrypoint_of(param)
    if name == "default":
        return [], storage
    if name == "check":
        a_v, rest = as_pair(ctx.config, "observer config")
        b_v, rest2 = as_pair(rest, "observer config")
        total_v, moved_v = as_pair(rest2, "observer config")
        a = as_address(a_v, "first watched address")
        b = as_address(b_v, "second watched address")
        total = as_nat(total_v, "combined balance")
        moved = as_nat(moved_v, "pending amount")
        seen_a = as_nat(ctx.view(a), "accounted balance of first")
        seen_b = as_nat(ctx.view(b), "accounted balance of second")
        pend_a = ctx.pending_balance(a)
        pend_b = ctx.pending_balance(b)
        if pend_a != seen_a:
            raise ContractFail("sender pending balance disagrees with its accounting")
        if pend_b != seen_b:
            raise ContractFail("receiver pending balance disagrees with its accounting")
        if pend_a + moved + pend_b != total:
            raise ContractFail("debit not reflected in pending balance")
        if seen_a + seen_b == total:
            raise ContractFail("no observable mismatch")
        return [], BoolV(True)
    raise ContractFail(f"no entrypoint {name!r}")


STANDARD_DEFS = (
    ContractDef(
        code_key="bank",
        param_type=pair_t(STRING, union_t(NAT, UNIT)),
        storage_type=UNIT,
        config_type=pair_t(NAT, ADDRESS),
        body=_bank_body,
    ),
    ContractDef(
        code_key="fixed_bank",
        param_type=pair_t(STRING, union_t(NAT, UNIT)),
        storage_type=MUTEZ,
        config_type=pair_t(NAT, ADDRESS),
        body=_fixed_bank_body,
    ),
    ContractDef(
        code_key="good_client",
        param_type=pair_t(STRING, union_t(NAT, UNIT)),
        storage_type=UNIT,
        config_type=ADDRESS,
        body=_good_client_body,
    ),
    ContractDef(
        code_key="bad",
        param_type=pair_t(STRING, union_t(pair_t(NAT, NAT), UNIT)),
        storage_type=UNIT,
        config_type=ADDRESS,
        body=_bad_body,
    ),
    ContractDef(
        code_key="receiver",
        param_type=pair_t(STRING, UNIT),
        storage_type=UNIT,
        config_type=UNIT,
        body=_receiver_body,
    ),
    ContractDef(
        code_key="forwarder",
        param_type=pair_t(STRING, union_t(pair_t(ADDRESS, NAT), UNIT)),
        storage_type=NAT,
        config_type=UNIT,
        body=_forwarder_body,
    ),
    ContractDef(
        code_key="payer",
        param_type=pair_t(STRING, union_t(pair_t(list_t(ADDRESS), NAT), UNIT)),
        storage_type=UNIT,
        config_type=UNIT,
        body=_payer_body,
    ),
    ContractDef(
        code_key="observer",
        param_type=pair_t(STRING, UNIT),
        storage_type=BOOL,
        config_type=pair_t(ADDRESS, pair_t(ADDRESS, pair_t(NAT, NAT))),
        body=_observer_body,
    ),
)

for _defn in STANDARD_DEFS:
    register(_defn)


def implicit_account(balance: int) -> Contract:
    """Externally owned account: a receiver that takes transfers, emits nothing."""
    return instantiate("receiver", UNIT_VALUE, UNIT_VALUE, balance)
