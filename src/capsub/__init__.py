"""Capacity-subscription grid tariff modelling toolkit.

Evaluates annual grid costs under an energy-only tariff and static/dynamic
capacity-subscription tariffs, computes optimal subscription levels under
deterministic, stochastic and reactive policies, derives load-limiting
activation schedules, calibrates revenue-neutral capacity prices and runs
reproducible multi-year studies over consumer populations.
"""

__version__ = "0.1.0"

from .activation import (ActivationSchedule, ActivationSummaryRow, activation_summary,
                         derive_activations, derive_schedules, write_schedules_csv)
from .calibration import (CalibrationOutcome, calibrate_capacity_price,
                          energy_reference_revenue)
from .config import (DEFAULT_TARIFF_CONFIG, DEFAULT_THRESHOLD_KW, TariffBundle,
                     default_study_spec, default_tariff_bundle, load_tariff_config)
from .data_model import (CostBreakdown, HourlyLoadSeries, LoadScenario, PolicyKind,
                         ScenarioSet, SubscriptionDecision, TariffBook, TariffRegime,
                         full_load_hours, load_factor)
from .errors import (CalibrationFailed, CapsubError, ConfigError, DegenerateProfile,
                     DomainError, IllPosed, MalformedRow, MissingHours, NegativeLoad,
                     ScenarioMismatch)
from .ingest import (SyntheticPopulationSpec, generate_population, parse_load_csv,
                     scenario_sets_from_series, write_load_csv)
from .optimizer import (OptimizationResult, dynamic_objective_lines, optimize_deterministic,
                        optimize_dynamic, optimize_static, static_objective_lines)
from .reporting import RevenueRow, aggregate_revenue_table, ols_fit, relative_cost_curve
from .tariff_engine import (cost_dynamic_cs, cost_energy_tariff, cost_static_cs,
                            expected_cost)
from .study import (ConsumerStudy, StudyResult, build_manifest, run_study,
                    run_study_from_manifest, write_study_outputs)
from .vcl import (DEFAULT_SEGMENT_COUNT, DEFAULT_STEEPNESS, VclCurveParams,
                  VclSegmentStack, build_segment_stack, discomfort_cost,
                  stacks_for_scenarios, vcl_marginal)

__all__ = [
    "ActivationSchedule", "ActivationSummaryRow", "CalibrationFailed",
    "CalibrationOutcome", "CapsubError", "ConfigError", "ConsumerStudy", "CostBreakdown",
    "DEFAULT_SEGMENT_COUNT", "DEFAULT_STEEPNESS", "DEFAULT_TARIFF_CONFIG",
    "DEFAULT_THRESHOLD_KW", "DegenerateProfile", "DomainError", "HourlyLoadSeries",
    "IllPosed", "LoadScenario", "MalformedRow", "MissingHours", "NegativeLoad",
    "OptimizationResult", "PolicyKind", "RevenueRow", "ScenarioMismatch", "ScenarioSet",
    "StudyResult", "SubscriptionDecision", "SyntheticPopulationSpec", "TariffBook",
    "TariffBundle", "TariffRegime", "VclCurveParams", "VclSegmentStack",
    "activation_summary", "aggregate_revenue_table", "build_manifest",
    "build_segment_stack", "calibrate_capacity_price", "cost_dynamic_cs",
    "cost_energy_tariff", "cost_static_cs", "default_study_spec", "default_tariff_bundle",
    "derive_activations", "derive_schedules", "discomfort_cost", "dynamic_objective_lines",
    "energy_reference_revenue", "expected_cost",
    "full_load_hours", "generate_population", "load_factor", "load_tariff_config",
    "ols_fit", "optimize_deterministic", "optimize_dynamic", "optimize_static",
    "parse_load_csv", "relative_cost_curve",
    "run_study", "run_study_from_manifest", "scenario_sets_from_series",
    "stacks_for_scenarios", "static_objective_lines", "vcl_marginal", "write_load_csv",
    "write_schedules_csv", "write_study_outputs",
]
