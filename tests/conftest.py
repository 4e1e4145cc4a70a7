import pathlib

import pytest

from chainsim.core import AddressV, Contract, Environment, NatV, PairV, UNIT_VALUE
from chainsim import registry

SCENARIO_DIR = pathlib.Path(__file__).resolve().parent.parent / "scenarios"
GOLDEN_DIR = pathlib.Path(__file__).resolve().parent / "golden"


def scenario_path(name: str) -> pathlib.Path:
    return SCENARIO_DIR / name


def scenario_text(name: str) -> str:
    return scenario_path(name).read_text(encoding="utf-8")


def contextual(c: Contract) -> Contract:
    """`c` declared contextual, as `contract @x contextual ...` declares it."""
    return Contract(c.storage_type, c.storage, c.balance, c.code_key, c.config, contextual=True)


@pytest.fixture
def vault_env() -> Environment:
    """The motivating setup: a threshold-9 vault holding 15, owned by @bad."""
    env = Environment()
    env = env.updated("owner", registry.implicit_account(100))
    env = env.updated(
        "vault",
        registry.instantiate("bank", PairV(NatV(9), AddressV("bad")), UNIT_VALUE, 15),
    )
    env = env.updated(
        "bad", registry.instantiate("bad", AddressV("vault"), UNIT_VALUE, 0)
    )
    return env


@pytest.fixture
def simple_env() -> Environment:
    env = Environment()
    env = env.updated("alice", registry.implicit_account(100))
    env = env.updated("bob", registry.implicit_account(50))
    env = env.updated(
        "fwd", registry.instantiate("forwarder", UNIT_VALUE, NatV(30), 30)
    )
    return env
