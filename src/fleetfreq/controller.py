"""Event-triggered fleet frequency support.

An under-frequency latch fires once the measured frequency crosses the
threshold; the commanded fleet power is then a step at the enrolled
participation level. V1G suspends charging only; V2G additionally injects at
the rated discharge power while the mean SoC stays above the mobility
reserve.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .fleet import FleetConfig, FleetState


class ControlMode(str, Enum):
    V1G = "v1g"
    V2G = "v2g"


@dataclass(frozen=True)
class ControllerConfig:
    """Event detection and response settings."""

    threshold_hz: float = 59.7
    participation: float = 0.0
    mode: ControlMode = ControlMode.V1G
    latch_on: bool = True
    v2g_includes_shed: bool = True

    def __post_init__(self) -> None:
        object.__setattr__(self, "mode", ControlMode(self.mode))
        if not 0.0 <= self.participation <= 1.0:
            raise ValueError("participation must lie in [0, 1]")
        if self.threshold_hz <= 0.0:
            raise ValueError("threshold_hz must be > 0")


def latched(f, threshold_hz, triggered, latch_on):
    """The under-frequency latch after a new frequency measurement.

    Triggered while the frequency is below the threshold; with latch_on (the
    default) a trigger then holds regardless of recovery, without it the
    latch releases once frequency returns to or above the threshold.
    Elementwise: simulate passes floats and bools, the grid kernel one array
    entry per cell.
    """
    return (f < threshold_hz) | (triggered & latch_on)


def ev_power_command(
    triggered: bool,
    above_reserve: bool,
    config: ControllerConfig,
    fleet_state: FleetState,
    fleet: FleetConfig,
) -> float:
    """Commanded fleet grid support in MW (positive = supporting the grid).

    V1G sheds the participating share of the instantaneous charging load and
    can never exceed it. V2G additionally injects at rated discharge power
    while above_reserve, the simulator's test that the mean SoC lies above
    the mobility reserve; at or below it the injection component is zero.
    """
    if not triggered or fleet_state.plugged_count == 0:
        return 0.0
    share = config.participation * fleet_state.plugged_count / 1000.0
    shed_mw = share * fleet_state.charging_power_kw
    if config.mode is ControlMode.V1G:
        return shed_mw
    inject_kw = fleet.vehicle.discharge_kw if above_reserve else 0.0
    inject_mw = share * inject_kw
    if config.v2g_includes_shed:
        return shed_mw + inject_mw
    return inject_mw


def soc_rate_under_command(
    command_mw: float, fleet_state: FleetState, fleet: FleetConfig
) -> float:
    """Mean SoC rate (fraction per second) while realizing a command.

    The fleet realizes a command by first suspending charging, then
    discharging the remainder, so the net battery power per plugged vehicle
    is (charging load - command) spread over the plugged fleet. Plain
    charging gives a positive rate; a pure suspension gives exactly zero.
    """
    if fleet_state.plugged_count == 0:
        return 0.0
    charging_mw = fleet_state.plugged_count * fleet_state.charging_power_kw / 1000.0
    net_kw_per_vehicle = (charging_mw - command_mw) * 1000.0 / fleet_state.plugged_count
    return net_kw_per_vehicle / (fleet.vehicle.battery_kwh * 3600.0)
