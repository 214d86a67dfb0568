"""Heavy-duty EV fleet charging model.

Three depot charging strategies over a 24 h clock: charge at full rated power
immediately after the shift, delay charging to finish just before the next
shift, or spread the same energy over the whole dwell at reduced constant
power. Per-vehicle SoC trajectories and fleet-aggregate load profiles follow
from the strategy window.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from enum import Enum

from .grid import whole_steps

MINUTES_PER_DAY = 1440.0


class ChargingStrategy(str, Enum):
    IMMEDIATE = "immediate"
    DELAYED = "delayed"
    CONSTANT_MINIMUM_POWER = "constant"


class InfeasibleChargingWindow(ValueError):
    """The required recharge energy does not fit in the depot dwell."""


@dataclass(frozen=True)
class VehicleClass:
    """Battery, charger, and duty-cycle parameters shared by the fleet.

    Vehicles leave on shift fully charged and return at soc_return. The
    recharge energy battery_kwh * (1 - soc_return) must be deliverable at
    charger_kw within the depot dwell between shift_end and shift_start.
    """

    battery_kwh: float = 875.0
    charger_kw: float = 100.0
    discharge_kw: float = 100.0
    soc_return: float = 0.2
    soc_reserve: float = 0.3
    shift_start_min: float = 360.0
    shift_end_min: float = 960.0

    def __post_init__(self) -> None:
        if self.battery_kwh <= 0.0:
            raise ValueError("battery_kwh must be > 0")
        if self.charger_kw <= 0.0:
            raise ValueError("charger_kw must be > 0")
        if self.discharge_kw <= 0.0:
            raise ValueError("discharge_kw must be > 0")
        if not 0.0 <= self.soc_return <= 1.0:
            raise ValueError("soc_return must lie in [0, 1]")
        if not 0.0 <= self.soc_reserve <= 1.0:
            raise ValueError("soc_reserve must lie in [0, 1]")
        for field in ("shift_start_min", "shift_end_min"):
            if not 0.0 <= getattr(self, field) < MINUTES_PER_DAY:
                raise ValueError(f"{field} must lie in [0, 1440)")
        if self.shift_start_min == self.shift_end_min:
            raise ValueError("shift_start_min and shift_end_min must differ")

    @property
    def energy_need_kwh(self) -> float:
        return self.battery_kwh * (1.0 - self.soc_return)

    @property
    def dwell_min(self) -> float:
        return (self.shift_start_min - self.shift_end_min) % MINUTES_PER_DAY

    @property
    def shift_min(self) -> float:
        return MINUTES_PER_DAY - self.dwell_min


@dataclass(frozen=True)
class FleetConfig:
    """A homogeneous fleet: one vehicle class, one charging strategy."""

    n_vehicles: int = 15000
    vehicle: VehicleClass = VehicleClass()
    strategy: ChargingStrategy = ChargingStrategy.IMMEDIATE

    def __post_init__(self) -> None:
        object.__setattr__(self, "strategy", ChargingStrategy(self.strategy))
        if self.n_vehicles < 0:
            raise ValueError("n_vehicles must be >= 0")


@dataclass(frozen=True)
class FleetState:
    """Instantaneous fleet quantities at one clock time."""

    clock_min: float
    plugged_count: int
    charging_power_kw: float
    mean_soc: float

    def __post_init__(self) -> None:
        if self.plugged_count < 0:
            raise ValueError("plugged_count must be >= 0")
        if self.charging_power_kw < 0.0:
            raise ValueError("charging_power_kw must be >= 0")
        if self.charging_power_kw > 0.0 and self.plugged_count == 0:
            raise ValueError("charging power requires plugged vehicles")
        if not 0.0 <= self.mean_soc <= 1.0:
            raise ValueError("mean_soc must lie in [0, 1]")


@dataclass(frozen=True)
class ChargingWindow:
    """Daily charging window; end_min < start_min means it wraps midnight."""

    start_min: float
    end_min: float
    power_kw: float

    @property
    def duration_min(self) -> float:
        return (self.end_min - self.start_min) % MINUTES_PER_DAY


def _in_window(clock_min: float, start_min: float, end_min: float) -> bool:
    # Half-open [start, end), wrapping midnight when end < start.
    if start_min == end_min:
        return False
    if start_min < end_min:
        return start_min <= clock_min < end_min
    return clock_min >= start_min or clock_min < end_min


def charging_window(strategy: ChargingStrategy, vehicle: VehicleClass) -> ChargingWindow:
    """Daily charging window and power level for a strategy.

    Immediate charges at rated power from depot arrival; delayed charges at
    rated power ending at shift start; constant-minimum-power spreads the
    recharge over the whole dwell at reduced power.
    """
    energy = vehicle.energy_need_kwh
    dwell_h = vehicle.dwell_min / 60.0
    deliverable = vehicle.charger_kw * dwell_h
    if energy > deliverable * (1.0 + 1e-12):
        raise InfeasibleChargingWindow(
            f"recharge energy {energy:.1f} kWh exceeds the {deliverable:.1f} kWh "
            f"deliverable at {vehicle.charger_kw:.0f} kW over the {dwell_h:.2f} h "
            f"dwell (deficit {energy - deliverable:.1f} kWh)"
        )
    if strategy is ChargingStrategy.CONSTANT_MINIMUM_POWER:
        power = energy / dwell_h
        return ChargingWindow(vehicle.shift_end_min, vehicle.shift_start_min, power)
    duration_min = energy / vehicle.charger_kw * 60.0
    if strategy is ChargingStrategy.IMMEDIATE:
        start = vehicle.shift_end_min
        end = (start + duration_min) % MINUTES_PER_DAY
    else:
        end = vehicle.shift_start_min
        start = (end - duration_min) % MINUTES_PER_DAY
    return ChargingWindow(start, end, vehicle.charger_kw)


def charging_power_at(
    clock_min: float, strategy: ChargingStrategy, vehicle: VehicleClass
) -> float:
    """Per-vehicle charging power in kW at a clock time; 0 outside the window."""
    if not 0.0 <= clock_min < MINUTES_PER_DAY:
        raise ValueError("clock_min must lie in [0, 1440)")
    window = charging_window(strategy, vehicle)
    if _in_window(clock_min, window.start_min, window.end_min):
        return window.power_kw
    return 0.0


def soc_at(clock_min: float, strategy: ChargingStrategy, vehicle: VehicleClass) -> float:
    """Piecewise-linear per-vehicle SoC at a clock time.

    soc_return at depot arrival, rising through the charging window, full
    from window end until shift start, then a linear decline back to
    soc_return over the shift (no drive-cycle detail).
    """
    if not 0.0 <= clock_min < MINUTES_PER_DAY:
        raise ValueError("clock_min must lie in [0, 1440)")
    window = charging_window(strategy, vehicle)
    dwell = vehicle.dwell_min
    tau = (clock_min - vehicle.shift_end_min) % MINUTES_PER_DAY
    if tau < dwell:
        w0 = (window.start_min - vehicle.shift_end_min) % MINUTES_PER_DAY
        w1 = w0 + window.duration_min
        if tau < w0:
            return vehicle.soc_return
        if tau < w1:
            gained = window.power_kw * (tau - w0) / 60.0 / vehicle.battery_kwh
            return min(1.0, vehicle.soc_return + gained)
        return 1.0
    elapsed = tau - dwell
    return 1.0 - (1.0 - vehicle.soc_return) * elapsed / vehicle.shift_min


def fleet_state_at(clock_min: float, fleet: FleetConfig) -> FleetState:
    """Plugged count, per-vehicle charging power, and mean SoC at a clock time.

    The whole fleet is at the depot during the dwell and on the road during
    the shift (synchronized schedules, no staggered arrivals). A fleet of no
    vehicles draws no charging power.
    """
    vehicle = fleet.vehicle
    at_depot = _in_window(clock_min, vehicle.shift_end_min, vehicle.shift_start_min)
    plugged = fleet.n_vehicles if at_depot else 0
    power = charging_power_at(clock_min, fleet.strategy, vehicle) if plugged else 0.0
    soc = soc_at(clock_min, fleet.strategy, vehicle)
    return FleetState(clock_min, plugged, power, soc)


@dataclass(frozen=True)
class ProfileSettings:
    """The "profile" section: the sample spacing of the 24 h profile."""

    step_min: float = 15.0

    def __post_init__(self) -> None:
        if self.step_min <= 0.0:
            raise ValueError("step_min must be > 0")
        whole_steps(MINUTES_PER_DAY, self.step_min, ("24 h", "step_min"))


def charging_profile(
    fleet: FleetConfig, settings: ProfileSettings
) -> tuple[array, array, array, array]:
    """The 24 h profile at settings.step_min spacing: clocks in [0, 1440),
    per-vehicle charging power in kW, fleet-aggregate load in MW, and
    per-vehicle SoC, as array('d') buffers (np.asarray views one without a
    copy)."""
    step_min = settings.step_min
    clocks = array("d", (i * step_min for i in range(whole_steps(MINUTES_PER_DAY, step_min))))
    per_vehicle = array("d", (charging_power_at(c, fleet.strategy, fleet.vehicle) for c in clocks))
    soc = array("d", (soc_at(c, fleet.strategy, fleet.vehicle) for c in clocks))
    mw = array("d", (fleet.n_vehicles * p / 1000.0 for p in per_vehicle))
    return clocks, per_vehicle, mw, soc
