"""Seeded random scenarios (core operations included) for round-trip testing.

Values stay within the textually expressible subset (signed literals only for
negative ints), so parse(print(ast)) must reproduce the AST exactly.
"""

import random
import string

from chainsim.core import (
    AddressV,
    AtomicBundle,
    BoolV,
    ContextBundle,
    CreateContract,
    EndInteractions,
    IntV,
    ListV,
    MutezV,
    NatV,
    PairV,
    Restricted,
    StringV,
    Transfer,
    TypeTag,
    UNIT_VALUE,
    Value,
    make_param,
)
from chainsim import registry
from chainsim.features import FEATURE_NAMES, FeatureSet
from chainsim.scenario import (
    AccountDecl,
    ContractDecl,
    Scenario,
    ExpectBalance,
    ExpectOutcome,
    ExpectStorage,
    ExpectTotal,
)
from chainsim.scheduler import SchedulerConfig, SignedTransaction, Strategy

_SAFE_CHARS = string.ascii_letters + string.digits + " _-.!?:/\\\"\n\t"


def random_addr(rng: random.Random) -> str:
    return rng.choice("abcdefgh") + str(rng.randrange(100))


def random_value_of(rng: random.Random, tag: TypeTag) -> Value:
    """A random value of type `tag`, drawn as `random_value` draws its kind."""
    kind = tag.kind
    if kind == "nat":
        return NatV(rng.randrange(1_000))
    if kind == "int":
        return IntV(-rng.randrange(1, 1_000))
    if kind == "string":
        return StringV("".join(rng.choice(_SAFE_CHARS) for _ in range(rng.randrange(0, 8))))
    if kind == "bool":
        return BoolV(rng.random() < 0.5)
    if kind == "unit":
        return UNIT_VALUE
    if kind == "mutez":
        return MutezV(rng.randrange(1_000))
    if kind == "address":
        return AddressV(random_addr(rng))
    if kind == "pair":
        return PairV(random_value_of(rng, tag.args[0]), random_value_of(rng, tag.args[1]))
    # non-empty: an empty list is typed as a list of unit
    return ListV(tuple(random_value_of(rng, tag.args[0]) for _ in range(rng.randrange(1, 4))))


def random_value(rng: random.Random, depth: int = 0) -> Value:
    choices = ["nat", "int", "string", "bool", "unit", "mutez", "address"]
    if depth < 2:
        choices += ["pair", "pair", "list"]
    kind = rng.choice(choices)
    if kind == "pair":
        return PairV(random_value(rng, depth + 1), random_value(rng, depth + 1))
    if kind != "list":
        return random_value_of(rng, TypeTag(kind))
    # homogeneous list: replicate one scalar shape
    elem_kind = rng.choice(["nat", "address", "bool"])
    items = []
    for _ in range(rng.randrange(0, 4)):
        if elem_kind == "nat":
            items.append(NatV(rng.randrange(100)))
        elif elem_kind == "address":
            items.append(AddressV(random_addr(rng)))
        else:
            items.append(BoolV(rng.random() < 0.5))
    return ListV(tuple(items))


def random_op(rng: random.Random, addrs: list, depth: int = 0):
    kinds = ["transfer", "transfer", "transfer", "create", "end"]
    if depth < 2:
        kinds += ["atomic", "context", "restrict"]
    kind = rng.choice(kinds)
    if kind == "transfer":
        param = make_param("default")
        if rng.random() < 0.6:
            args = tuple(random_value(rng) for _ in range(rng.randrange(0, 3)))
            param = make_param(rng.choice(["ping", "run", "f_1"]), *args)
        amount = rng.randrange(0, 50)
        return Transfer(rng.choice(addrs), amount, param)
    if kind == "create":
        return CreateContract(
            addr=random_addr(rng),
            code_key=rng.choice(["receiver", "bank", "forwarder"]),
            config=random_value(rng),
            storage=random_value(rng),
            amount=rng.randrange(0, 50),
        )
    if kind == "end":
        return EndInteractions()
    inner = tuple(random_op(rng, addrs, depth + 1) for _ in range(rng.randrange(0, 3)))
    if kind == "atomic":
        return AtomicBundle(inner)
    if kind == "context":
        return ContextBundle(inner)
    mode = rng.choice(["allow", "block"])
    listed = frozenset(rng.choice(addrs) for _ in range(rng.randrange(0, 3)))
    return Restricted(inner, **{mode: listed})


def random_scenario(rng: random.Random) -> Scenario:
    addrs = [random_addr(rng) for _ in range(rng.randrange(2, 5))]
    decls = []
    for addr in addrs:
        if rng.random() < 0.5:
            decls.append(AccountDecl(addr, rng.randrange(0, 500)))
        else:
            # Config and storage fit the code, so the scenario can be built.
            defn = registry.resolve(rng.choice(["receiver", "bank", "bad", "forwarder"]))
            decls.append(
                ContractDecl(
                    addr,
                    defn.code_key,
                    random_value_of(rng, defn.config_type),
                    random_value_of(rng, defn.storage_type),
                    rng.randrange(0, 500),
                    contextual=rng.random() < 0.2,
                )
            )
    settings = {}
    if rng.random() < 0.6:
        settings["strategy"] = Strategy(rng.choice(["bfs", "dfs"]))
    if rng.random() < 0.4:
        count = rng.randrange(1, len(FEATURE_NAMES) + 1)
        settings["features"] = FeatureSet.from_names(rng.sample(FEATURE_NAMES, count))
    if rng.random() < 0.3:
        settings["fuel"] = rng.randrange(1, 10_000)

    txs = tuple(
        SignedTransaction(
            rng.choice(addrs),
            tuple(random_op(rng, addrs) for _ in range(rng.randrange(0, 4))),
        )
        for _ in range(rng.randrange(0, 3))
    )

    expects = []
    for _ in range(rng.randrange(0, 4)):
        which = rng.randrange(4)
        if which == 0:
            expects.append(
                ExpectBalance(rng.choice(addrs), rng.choice("=<>"), rng.randrange(500))
            )
        elif which == 1:
            expects.append(ExpectStorage(rng.choice(addrs), random_value(rng)))
        elif which == 2:
            expects.append(ExpectOutcome(rng.choice(["commit", "revert"])))
        else:
            expects.append(ExpectTotal(rng.randrange(1000)))

    name = "gen-" + str(rng.randrange(10**6))
    return Scenario(name, tuple(decls), txs, tuple(expects), SchedulerConfig(**settings))
