"""Series-stack cell balancing: equivalent-circuit cells, online RLS
identification, a multi-winding flyback transfer stage and an adaptive
predictive controller, plus a scenario harness and CLI around them."""

from .ecm import (
    CellParams,
    CellState,
    ocv,
    step_exact,
    terminal_voltage,
)
from .rls import Identification, RlsEstimator, init, update, warm_start_theta
from .flyback import ConverterParams, SwitchPlan, cycle_charge_deltas
from .controller import (
    ControllerConfig,
    Decision,
    predict_stds,
    predict_stds_plant,
    rank_cells,
    select_plan,
    should_balance,
    std,
)
from .harness import (
    ChargerConfig,
    ChargerState,
    ScenarioConfig,
    Simulation,
    Summary,
    TraceRecord,
    cc_cv_current,
    run_scenario,
    summarize,
)

__version__ = "0.1.0"
