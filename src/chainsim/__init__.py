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
    ExecutionContext,
    IntV,
    ListV,
    MutezV,
    NatV,
    Operation,
    PairV,
    PendingOp,
    Restricted,
    RestrictionState,
    StringV,
    Transfer,
    TypeTag,
    UnitV,
    Value,
    amount_add,
    list_t,
    make_param,
    pair_t,
    render_value,
    union_t,
    value_type,
    value_typecheck,
)
from .executor import ExecError, ExecOutcome, execute_operation, pending_balance, view_storage
from .features import FeatureSet, narrow_restrictions
from .harness import (
    DemonicProfile,
    FuzzReport,
    GenConfig,
    default_universe,
    fuzz,
    gen_demonic_contract,
    gen_transaction,
)
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
    initial_state,
    run_block,
    run_transaction,
    step,
)
from .trace import (
    TraceNode,
    TransactionTree,
    tree_to_json,
    validate_atomic_bundles,
    validate_conservation,
    validate_no_double_spend,
    validate_replay,
)

__version__ = "0.1.0"
