"""Deterministic simulator for multi-contract blockchain execution.

Contracts are pure functions emitting operation lists; a scheduler orders the
pending operations (BFS appends emissions, DFS prepends, contexts isolate
them in frames); an executor applies transfer semantics where funds move only
at execution time. Transactions commit atomically or revert entirely while
time still advances.
"""

from .core import (
    ADDRESS,
    BOOL,
    INT,
    MAX_MUTEZ,
    MUTEZ,
    NAT,
    STRING,
    UNIT,
    UNIT_VALUE,
    AddressV,
    AmountError,
    AtomicBundle,
    BoolV,
    CallContext,
    ContextBundle,
    Contract,
    CreateContract,
    EndInteractions,
    Environment,
    ExecError,
    ExecutionContext,
    IntV,
    ListV,
    MutezV,
    NatV,
    Operation,
    PairV,
    PendingOp,
    Restricted,
    StringV,
    Transfer,
    TypeTag,
    UnitV,
    Value,
    amount_add,
    list_t,
    make_param,
    pair_t,
    pending_balance,
    render_value,
    value_type,
    value_typecheck,
    view_storage,
)
from .executor import ExecOutcome, execute_operation
from .features import FeatureSet
from .harness import FuzzReport, GenConfig, default_universe, fuzz, gen_transaction
from .registry import ContractDef, ContractFail, instantiate, register
from .scenario import (
    Scenario,
    ScenarioParseError,
    SetupError,
    parse_scenario,
    print_scenario,
    run_scenario,
)
from .scheduler import (
    Commit,
    Revert,
    SchedulerConfig,
    SignedTransaction,
    Strategy,
    run_block,
    run_transaction,
)
from .trace import (
    TraceNode,
    TransactionTree,
    tree_to_json,
    validate_atomic_bundles,
    validate_conservation,
    validate_replay,
)

__version__ = "0.1.0"
