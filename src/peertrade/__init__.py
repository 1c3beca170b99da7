"""Peer-to-peer electricity trading: optima, equilibria, and analysis.

The package splits along the pipeline:

- :mod:`peertrade.scenario`: network data model, validation, builtins.
- :mod:`peertrade.qp`: dense convex QP solver with batch support.
- :mod:`peertrade.market`: centralized welfare optimum and its prices.
- :mod:`peertrade.equilibrium`: variational equilibrium, weighted trade
  games, and sampled generalized Nash equilibria.
- :mod:`peertrade.structure`: preference cycles, congestion
  predictions, and waste certificates.
- :mod:`peertrade.privacy`: utility bias from forecasting neighbors'
  private data.
- :mod:`peertrade.cli`: the ``peertrade`` command.
"""

from .scenario import (BUILTIN_NAMES, ProsumerParams, Scenario,
                       ScenarioFormatError, TradeLink, Violation, builtin,
                       dumps_scenario, ieee14_cost_case, load_scenario,
                       loads_scenario, save_scenario, with_costs)
from .qp import QpError, QpProblem, QpSolution
from .market import (InfeasibleMarketError, MarketError, MarketSolution,
                     nodal_price_closed_form, social_welfare,
                     solve_centralized, solution_to_csv, solution_to_dict,
                     solution_to_json)
from .equilibrium import (AxisStrategy, GneSample, GridStrategy, OmegaVector,
                          RandomStrategy, check_agent_kkt, epsilon_comp,
                          poa_bound, point_cloud_csv, samples_to_csv,
                          solve_parameterized, solve_ve, sweep_gne)
from .structure import (CongestionPrediction, PreferenceCycle,
                        StructureError, WasteCertificate, analysis_report,
                        check_congestion_unilateral, cycle_weight,
                        detect_game_cycles, detect_preference_cycles,
                        no_waste_necessary, predict_asymmetry_congestion,
                        to_dot, verify_cycle_congestion, waste_certificates)
from .privacy import (BiasReport, ErrorModel, PrivacyError, bias_report,
                      bias_vs_utility_params, clamp_error_model, compute_rho,
                      expected_bias, monte_carlo_bias, phi_bound,
                      three_node_error_model)

__version__ = "0.1.0"

__all__ = [
    "BUILTIN_NAMES", "ProsumerParams", "Scenario", "ScenarioFormatError",
    "TradeLink", "Violation", "builtin", "dumps_scenario", "ieee14_cost_case",
    "load_scenario", "loads_scenario", "save_scenario", "with_costs",
    "QpError", "QpProblem", "QpSolution",
    "InfeasibleMarketError", "MarketError", "MarketSolution",
    "nodal_price_closed_form", "social_welfare", "solve_centralized",
    "solution_to_csv", "solution_to_dict", "solution_to_json",
    "AxisStrategy", "GneSample", "GridStrategy", "OmegaVector",
    "RandomStrategy", "check_agent_kkt", "epsilon_comp", "poa_bound",
    "point_cloud_csv", "samples_to_csv", "solve_parameterized", "solve_ve",
    "sweep_gne",
    "CongestionPrediction", "PreferenceCycle", "StructureError",
    "WasteCertificate", "analysis_report", "check_congestion_unilateral",
    "cycle_weight", "detect_game_cycles", "detect_preference_cycles",
    "no_waste_necessary", "predict_asymmetry_congestion", "to_dot",
    "verify_cycle_congestion", "waste_certificates",
    "BiasReport", "ErrorModel", "PrivacyError", "bias_report",
    "bias_vs_utility_params", "clamp_error_model", "compute_rho",
    "expected_bias", "monte_carlo_bias", "phi_bound",
    "three_node_error_model",
    "__version__",
]
