"""FAIR-BFL core: the paper's primary contribution.

* :mod:`repro.core.config` — the orchestrator's configuration dataclass;
* :mod:`repro.core.procedures` — the five procedures of Algorithm 1 as
  composable functions (the modular design behind the flexibility claim);
* :mod:`repro.core.fairbfl` — the FAIR-BFL orchestrator tying learning,
  incentive, and ledger together round by round;
* :mod:`repro.core.flexibility` — functional scaling: full BFL, FL-only
  (drop Procedures III & V), chain-only (drop Procedures I & IV);
* :mod:`repro.core.convergence` — the paper's convergence criterion and the
  Theorem 3.1 bound;
* :mod:`repro.core.results` — cross-system comparison containers.
"""

from repro.core.config import FairBFLConfig
from repro.core.convergence import (
    ConvergenceCriterion,
    theorem31_bound,
    theorem31_constants,
)
from repro.core.fairbfl import FairBFLTrainer
from repro.core.flexibility import OperatingMode, procedures_for_mode
from repro.core.results import ComparisonResult, summarize_history

__all__ = [
    "FairBFLConfig",
    "ConvergenceCriterion",
    "theorem31_bound",
    "theorem31_constants",
    "FairBFLTrainer",
    "OperatingMode",
    "procedures_for_mode",
    "ComparisonResult",
    "summarize_history",
]
