"""Primary frequency response of heavy-duty EV fleets on a single-area grid.

Modules: grid dynamics, inertia bookkeeping and the table reader (grid),
fleet charging strategies and SoC (fleet), event-triggered V1G/V2G response
(controller), fixed-step RK4 contingency simulation and scenario grids
(simulator), frequency-security metrics (metrics), and the CSV-emitting CLI
(cli). The package exports the names of the README's "Library" example; the
rest are imported from their modules.
"""

__version__ = "0.1.0"

from .controller import ControlMode
from .metrics import evaluate
from .simulator import (
    bundled_day_profile,
    default_scenario,
    evaluate_scenarios,
    scenario_grid,
    simulate,
)
