"""Primary frequency response of heavy-duty EV fleets on a single-area grid.

Library surface: grid dynamics and inertia bookkeeping (grid), fleet charging
strategies and SoC (fleet), event-triggered V1G/V2G response (controller),
fixed-step RK4 contingency simulation and scenario grids (simulator),
frequency-security metrics (metrics), and the CSV-emitting CLI (cli).
"""

__version__ = "0.1.0"

from .controller import (
    ControlMode,
    ControllerConfig,
    ev_power_command,
    latched,
    soc_rate_under_command,
)
from .fleet import (
    ChargingStrategy,
    ChargingWindow,
    FleetConfig,
    FleetState,
    InfeasibleChargingWindow,
    ProfileSettings,
    VehicleClass,
    charging_power_at,
    charging_profile,
    charging_window,
    fleet_state_at,
    soc_at,
)
from .grid import (
    CALIFORNIA_LOW_INERTIA_MIX,
    GenerationMix,
    GenerationSource,
    GridParameters,
    INERTIA_PRESETS,
    effective_inertia,
    grid_from_mix,
    grid_from_preset,
    load_mix_csv,
    steady_state_deviation,
)
from .metrics import (
    FrequencyMetrics,
    evaluate,
    nadir,
    overshoot,
    rocof,
    settling_time,
)
from .simulator import (
    DayProfile,
    DayProfileRow,
    IntegrationError,
    Scenario,
    Trajectory,
    bundled_day_profile,
    default_scenario,
    evaluate_scenarios,
    load_day_profile_csv,
    scenario_grid,
    simulate,
)
