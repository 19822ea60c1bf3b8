"""Process-model impact and cost calculations on scenario x time grids.

Model a product system as a main process composed of sub-processes, each
with priced and characterized inflows/outflows, then evaluate it
statically, under Monte Carlo uncertainty, or with time-resolved impact
characterization, and derive discounted economic indicators (NPV, minimum
selling price, LCOE).
"""

__version__ = "0.1.0"

from .dynamic import (
    DCFTable,
    DynamicImpactResult,
    EmissionSeries,
    characterize_dynamic,
    characterize_fixed_horizon,
    characterize_static_at_emission,
    run_dynamic,
)
from .econ import (
    CashFlowSeries,
    ProductionSeries,
    ScenarioIndicators,
    discounted_cost_result,
    lcoe,
    minimum_selling_price,
    npv,
)
from .engine import (
    InventoryResult,
    MonteCarloResult,
    SummaryStats,
    UnitResult,
    compute_inventory,
    main_aggregate,
    run_matrix,
    run_monte_carlo,
    run_static,
    subprocess_aggregate,
)
from .errors import (
    DistributionError,
    InvalidModelError,
    LcengineError,
    LoadError,
    MissingDataError,
    ShapeError,
    StaticModeError,
)
from .io import (
    BackgroundRow,
    ResultSet,
    UnitValueTable,
    export_results,
    import_results,
    load_background_db,
    load_dcf_tables,
    load_matrix_csv,
    load_model,
    result_set,
)
from .model import (
    DistributionAmount,
    ExchangeAmount,
    FlowDefinition,
    FunctionalUnit,
    MatrixAmount,
    ProcessModel,
    ScalarAmount,
    ScenarioGrid,
    SubProcessDefinition,
    ValidationFinding,
    ValidationReport,
    as_amount,
    broadcast_exchange,
    validate_model,
)
from .sampler import DistributionSpec, SamplerStream, sample

__all__ = [
    "__version__",
    # model
    "ScenarioGrid", "ScalarAmount", "MatrixAmount", "DistributionAmount",
    "ExchangeAmount", "as_amount", "FlowDefinition", "SubProcessDefinition",
    "FunctionalUnit", "ProcessModel", "ValidationFinding", "ValidationReport",
    "validate_model", "broadcast_exchange",
    # sampler
    "DistributionSpec", "SamplerStream", "sample",
    # engine
    "UnitResult", "InventoryResult", "MonteCarloResult", "SummaryStats",
    "subprocess_aggregate", "main_aggregate", "run_static", "run_matrix",
    "run_monte_carlo", "compute_inventory",
    # dynamic
    "DCFTable", "EmissionSeries", "DynamicImpactResult", "characterize_dynamic",
    "characterize_static_at_emission", "characterize_fixed_horizon", "run_dynamic",
    # econ
    "CashFlowSeries", "ProductionSeries", "ScenarioIndicators", "npv",
    "minimum_selling_price", "lcoe", "discounted_cost_result",
    # io
    "UnitValueTable", "BackgroundRow", "ResultSet", "result_set", "load_model",
    "load_background_db", "load_dcf_tables", "load_matrix_csv", "export_results",
    "import_results",
    # errors
    "LcengineError", "ShapeError", "DistributionError", "MissingDataError",
    "InvalidModelError", "StaticModeError", "LoadError",
]
