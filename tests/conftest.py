import pathlib
import signal

import pytest

from chainsim.core import AddressV, Contract, Environment, NatV, PairV, UNIT_VALUE
from chainsim import registry

SCENARIO_DIR = pathlib.Path(__file__).resolve().parent.parent / "scenarios"
GOLDEN_DIR = pathlib.Path(__file__).resolve().parent / "golden"


# Seconds a test may run before it fails with `TimeoutError`: far above the
# slowest test (about 3 s), so only a hang reaches it, and the suite reports
# the hung test instead of running until CI's job limit stops it.
TEST_TIME_LIMIT_S = 60


def _time_limit_reached(signum, frame):
    raise TimeoutError(f"test ran past its {TEST_TIME_LIMIT_S} s limit")


@pytest.fixture(autouse=True)
def time_limit():
    if not hasattr(signal, "SIGALRM"):
        yield
        return
    handler = signal.signal(signal.SIGALRM, _time_limit_reached)
    timer = signal.setitimer(signal.ITIMER_REAL, TEST_TIME_LIMIT_S)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, *timer)
        signal.signal(signal.SIGALRM, handler)


def scenario_path(name: str) -> pathlib.Path:
    return SCENARIO_DIR / name


def scenario_text(name: str) -> str:
    return scenario_path(name).read_text(encoding="utf-8")


def contextual(c: Contract) -> Contract:
    """`c` declared contextual, as `contract @x contextual ...` declares it."""
    return Contract(c.storage, c.balance, c.code_key, c.config, contextual=True)


@pytest.fixture
def vault_env() -> Environment:
    """The motivating setup: a threshold-9 vault holding 15, owned by @bad."""
    env = Environment()
    env = env.updated({"owner": registry.implicit_account(100)})
    env = env.updated(
        {"vault": registry.instantiate("bank", PairV(NatV(9), AddressV("bad")), UNIT_VALUE, 15)}
    )
    env = env.updated(
        {"bad": registry.instantiate("bad", AddressV("vault"), UNIT_VALUE, 0)}
    )
    return env


@pytest.fixture
def simple_env() -> Environment:
    env = Environment()
    env = env.updated({"alice": registry.implicit_account(100)})
    env = env.updated({"bob": registry.implicit_account(50)})
    env = env.updated(
        {"fwd": registry.instantiate("forwarder", UNIT_VALUE, NatV(30), 30)}
    )
    return env
