"""gridpilot: unbalanced-feeder Volt-VAr sandbox.

Three-phase radial power flow, a feeder-head-only neural state estimator,
and a DDPG agent dispatching smart-inverter reactive power to keep node
voltages inside the ANSI band with minimal curtailment exposure.
"""

from .errors import (
    CheckpointError,
    DanglingReferenceError,
    DatasetError,
    FeederSchemaError,
    FeederTopologyError,
    GridPilotError,
    InfeasibleScenarioError,
    ModelMismatchError,
    NumericalError,
    PowerFlowDivergedError,
    TrainingError,
)
from .feeder import (
    AdmittanceMatrix,
    Bus,
    Feeder,
    Line,
    LoadPoint,
    PvUnit,
    build_admittance,
    builtin_feeder_path,
    load_feeder,
    resolve_feeder,
    validate_feeder,
)
from .powerflow import (
    InjectionSet,
    MeasurementVector,
    PowerFlowSolution,
    feeder_head_measurement,
    solve_power_flow,
)
from .scenario import (
    GenConfig,
    Scenario,
    ScenarioSet,
    aggregate_profiles,
    generate_household_pool,
    generate_scenario_set,
    read_scenario_set,
    split,
    to_injections,
    write_scenario_set,
)
from .env import (
    EnvConfig,
    MdpAction,
    RewardConfig,
    curtailment_barrier,
    env_step,
    idle_step,
    map_action,
    objective_deviation,
    q_max_no_curtailment,
    reward,
    voltage_barrier,
)
from .dsse import (
    DsseHyperparams,
    DsseMetrics,
    DsseModel,
    StateEstimate,
    build_training_pairs,
    estimate_states,
    evaluate_dsse,
    load_dsse,
    save_dsse,
    train_dsse,
)
from .ddpg import (
    AgentNets,
    ReplayBuffer,
    TrainConfig,
    act,
    build_agent,
    critic_value,
    load_agent,
    policy_update,
    save_agent,
    soft_update,
    td_loss,
    train,
)
from .runtime import (
    AprConfig,
    EvalReport,
    RunLog,
    apr_check,
    evaluate,
    fine_tune,
    oracle_best_action,
    run_online,
)

__version__ = "0.1.0"
