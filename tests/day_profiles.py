"""Day profiles built and rendered for tests: the synthetic California day
behind the bundled profile, and the CSV text of any profile."""

import math

from fleetfreq.grid import CALIFORNIA_LOW_INERTIA_MIX
from fleetfreq.simulator import (
    DAY_PROFILE_COLUMNS,
    DayProfile,
    day_profile_row,
    day_profile_values,
)


def synthetic_california_day(solar_peak_mw: float = 6000.0) -> DayProfile:
    """Synthetic daily mix built around the bundled low-inertia evening hour.

    The 20:00 interval reproduces the California dataset exactly. All other
    intervals apply a synthetic midday solar curve (sin^2 between 06:00 and
    19:00) that displaces natural gas one-for-one, so total generation stays
    constant while effective inertia dips through the middle of the day. The
    curve is illustrative, not measured data.
    """
    base = {s.name: s.power_mw for s in CALIFORNIA_LOW_INERTIA_MIX.sources}
    rows = []
    for i in range(96):
        clock = 15.0 * i
        hours = clock / 60.0
        if 6.0 <= hours <= 19.0:
            solar = solar_peak_mw * math.sin(math.pi * (hours - 6.0) / 13.0) ** 2
        else:
            solar = 0.0
        solar = round(solar, 6)
        powers = dict(
            base,
            wind_solar=round(base["wind_solar"] + solar, 6),
            natural_gas=round(base["natural_gas"] - solar, 6),
        )
        rows.append(day_profile_row(clock, *powers.values()))
    return DayProfile(tuple(rows))


def day_profile_csv_text(day: DayProfile) -> str:
    """Render a day profile in its CSV interchange format."""
    lines = [",".join(DAY_PROFILE_COLUMNS)]
    lines.extend(",".join(f"{v:.6f}" for v in day_profile_values(row)) for row in day.rows)
    return "\n".join(lines) + "\n"
