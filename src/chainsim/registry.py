"""Catalog of contract bodies plus the standard cast of contracts.

Bodies are plain host functions (CallContext, param, storage) -> (ops, storage').
They never touch the environment directly: every effect travels through the
returned operation list. A body signals failure by raising ContractFail.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Callable, Mapping

from .core import (
    ADDRESS,
    BOOL,
    MUTEZ,
    NAT,
    STRING,
    UNIT,
    UNIT_VALUE,
    BoolV,
    CallContext,
    Contract,
    CreateContract,
    DEFAULT_PARAM,
    MutezV,
    NatV,
    Operation,
    Transfer,
    TypeTag,
    Value,
    check_amount,
    list_t,
    make_param,
    pair_t,
    render_value,
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
    """A contract's code and interface. `entrypoints` maps each entrypoint
    name to its argument type: unit for none, right-nested pairs for several.
    The executor rejects any call that does not fit it before the body runs."""

    code_key: str
    entrypoints: Mapping[str, TypeTag]
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
    """Build a Contract, its config and storage checked against the code's types."""
    defn = resolve(code_key)
    if not value_typecheck(config, defn.config_type):
        raise RegistryError(
            f"config {render_value(config)} does not fit contract {code_key!r}"
        )
    if not value_typecheck(storage, defn.storage_type):
        raise RegistryError(
            f"storage {render_value(storage)} does not fit contract {code_key!r}"
        )
    return Contract(storage, balance, code_key, config, contextual)


# ---------------------------------------------------------------------------
# Standard cast
# ---------------------------------------------------------------------------

# Invocation parameters follow one convention: (entrypoint name, args), with
# multi-argument entrypoints taking right-nested pairs. "default" is the bare
# transfer entrypoint (`DEFAULT_PARAM`). The executor has checked the
# parameter and `instantiate` the config, so bodies read both without
# re-checking.

_DEPOSITS = {"deposit": UNIT, "default": UNIT}


def _bank_body(ctx: CallContext, param: Value, storage: Value):
    if param.left.s == "withdraw":
        ret, threshold, owner = param.right.n, ctx.config.left.n, ctx.config.right.addr
        if ctx.sender != owner:
            raise ContractFail("not owner")
        if ctx.self_balance - ret > threshold:
            return [Transfer(owner, ret, DEFAULT_PARAM)], storage
        raise ContractFail("breaking invariant")
    return [], storage


def _fixed_bank_body(ctx: CallContext, param: Value, storage: Value):
    name, compromised = param.left.s, storage.mutez
    if name == "withdraw":
        ret, threshold, owner = param.right.n, ctx.config.left.n, ctx.config.right.addr
        if ctx.sender != owner:
            raise ContractFail("not owner")
        # Deduct funds already promised by earlier (still pending) payouts.
        if ctx.self_balance - compromised - ret > threshold:
            payout = Transfer(owner, ret, DEFAULT_PARAM)
            settle = Transfer(ctx.self_addr, 0, make_param("settle", NatV(ret)))
            return [payout, settle], MutezV(compromised + ret)
        raise ContractFail("breaking invariant")
    if name == "settle":
        ret = param.right.n
        if ctx.sender != ctx.self_addr:
            raise ContractFail("settle is private")
        if ret > compromised:
            raise ContractFail("settle exceeds compromised balance")
        return [], MutezV(compromised - ret)
    return [], storage


def _good_client_body(ctx: CallContext, param: Value, storage: Value):
    if param.left.s == "askMoney":
        return [Transfer(ctx.config.addr, 0, make_param("withdraw", param.right))], storage
    return [], storage


def _bad_body(ctx: CallContext, param: Value, storage: Value):
    if param.left.s == "rob":
        count, amount = param.right.left.n, param.right.right
        withdraw = Transfer(ctx.config.addr, 0, make_param("withdraw", amount))
        return [withdraw] * count, storage
    return [], storage


def _receiver_body(ctx: CallContext, param: Value, storage: Value):
    return [], storage


def _forwarder_body(ctx: CallContext, param: Value, storage: Value):
    accounted = storage.n
    if param.left.s == "invoke":
        dest, m = param.right.left.addr, param.right.right.n
        # The outgoing amount is accounted here, at emission time, even
        # though funds only move when the transfer executes.
        new_accounted = accounted + ctx.amount - m
        if new_accounted < 0:
            raise ContractFail("insufficient accounted balance")
        return [Transfer(dest, m, DEFAULT_PARAM)], NatV(new_accounted)
    return [], NatV(check_amount(accounted + ctx.amount))


def _payer_body(ctx: CallContext, param: Value, storage: Value):
    if param.left.s == "pay":
        dests, m = param.right.left.items, param.right.right.n
        return [Transfer(d.addr, m, DEFAULT_PARAM) for d in dests], storage
    return [], storage


def _viewed_nat(ctx: CallContext, addr: str, what: str) -> int:
    # A view returns another contract's storage, which can have any type.
    seen = ctx.view(addr)
    if isinstance(seen, NatV):
        return seen.n
    raise ContractFail(f"{what} must be a nat, got {render_value(seen)}")


def _observer_body(ctx: CallContext, param: Value, storage: Value):
    if param.left.s != "check":
        return [], storage
    a, rest = ctx.config.left.addr, ctx.config.right
    b, total, moved = rest.left.addr, rest.right.left.n, rest.right.right.n
    seen_a = _viewed_nat(ctx, a, "accounted balance of first")
    seen_b = _viewed_nat(ctx, b, "accounted balance of second")
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


# The demonic body's four behaviours, each with its weight out of their sum.
_EMIT_TRANSFERS, _CALL_BACK, _CREATE_CONTRACT, _REFUSE = 3, 3, 2, 2
_DEMONIC_TOTAL = _EMIT_TRANSFERS + _CALL_BACK + _CREATE_CONTRACT + _REFUSE


def _stable_hash(*parts: object) -> int:
    digest = hashlib.blake2b(
        "|".join(str(p) for p in parts).encode("utf-8"), digest_size=8
    ).digest()
    return int.from_bytes(digest, "big")


def _demonic_body(ctx: CallContext, param: Value, storage: Value):
    # Each call picks a behaviour by a stable hash of the salt (the config)
    # and the call's inputs, so one salt gives one deterministic adversary.
    h = _stable_hash(
        ctx.config.s, ctx.sender, ctx.amount, render_value(param), render_value(storage)
    )
    pick = h % _DEMONIC_TOTAL
    if pick < _EMIT_TRANSFERS:
        count, amount = 1 + (h >> 8) % 2, (h >> 16) % 3
        return [Transfer(ctx.sender, amount, DEFAULT_PARAM)] * count, storage
    pick -= _EMIT_TRANSFERS
    if pick < _CALL_BACK:
        return [Transfer(ctx.sender, 0, DEFAULT_PARAM)], storage
    pick -= _CALL_BACK
    if pick < _CREATE_CONTRACT:
        spawn = CreateContract(f"spawn{h % 1_000_000_000}", 0, UNIT_VALUE, "receiver", UNIT_VALUE)
        return [spawn], storage
    raise ContractFail(f"demonic refusal {h % 97}")


STANDARD_DEFS = (
    ContractDef(
        code_key="bank",
        entrypoints={**_DEPOSITS, "withdraw": NAT},
        storage_type=UNIT,
        config_type=pair_t(NAT, ADDRESS),
        body=_bank_body,
    ),
    ContractDef(
        code_key="fixed_bank",
        entrypoints={**_DEPOSITS, "withdraw": NAT, "settle": NAT},
        storage_type=MUTEZ,
        config_type=pair_t(NAT, ADDRESS),
        body=_fixed_bank_body,
    ),
    ContractDef(
        code_key="good_client",
        entrypoints={**_DEPOSITS, "askMoney": NAT},
        storage_type=UNIT,
        config_type=ADDRESS,
        body=_good_client_body,
    ),
    ContractDef(
        code_key="bad",
        entrypoints={"default": UNIT, "rob": pair_t(NAT, NAT)},
        storage_type=UNIT,
        config_type=ADDRESS,
        body=_bad_body,
    ),
    ContractDef(
        code_key="receiver",
        entrypoints={"default": UNIT},
        storage_type=UNIT,
        config_type=UNIT,
        body=_receiver_body,
    ),
    ContractDef(
        code_key="forwarder",
        entrypoints={**_DEPOSITS, "invoke": pair_t(ADDRESS, NAT)},
        storage_type=NAT,
        config_type=UNIT,
        body=_forwarder_body,
    ),
    ContractDef(
        code_key="payer",
        entrypoints={"default": UNIT, "pay": pair_t(list_t(ADDRESS), NAT)},
        storage_type=UNIT,
        config_type=UNIT,
        body=_payer_body,
    ),
    ContractDef(
        code_key="observer",
        entrypoints={"default": UNIT, "check": UNIT},
        storage_type=BOOL,
        config_type=pair_t(ADDRESS, pair_t(ADDRESS, pair_t(NAT, NAT))),
        body=_observer_body,
    ),
    ContractDef(
        code_key="demonic",
        entrypoints={"default": UNIT},
        storage_type=UNIT,
        config_type=STRING,
        body=_demonic_body,
    ),
)

for _defn in STANDARD_DEFS:
    register(_defn)


# Every implicit account is this contract holding its own balance.
_IMPLICIT_TEMPLATE = instantiate("receiver", UNIT_VALUE, UNIT_VALUE, 0)


def implicit_account(balance: int) -> Contract:
    """Externally owned account: a receiver that takes transfers, emits nothing."""
    return _IMPLICIT_TEMPLATE.moved(check_amount(balance))
