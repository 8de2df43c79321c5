"""Monte Carlo simulation and risk analysis for dynamic prize-linked
savings programs over heavy-tailed account populations."""

from .drawing import PrizeSchedule, expected_payout, payouts
from .experiments import Result, bracketing_config, run_bracketing
from .pareto import ParetoParams
from .population import generate

__version__ = "0.1.0"
