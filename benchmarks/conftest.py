"""Shared benchmark fixtures: canonical cached scenario data.

Heavy figure generation happens once per session in fixtures; the
``benchmark`` fixture then times a representative computational kernel,
and the test body asserts the paper's qualitative shape and prints the
same rows/series the paper reports.

Scale: set ``REPRO_SCALE=paper`` for the full 100 x 1-minute protocol;
the default CI scale finishes in minutes.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import default_config
from repro.sim.motion import random_walk
from repro.sim.room import through_wall_room
from repro.sim.scenario import Scenario


@pytest.fixture(scope="session")
def config():
    """The paper's default configuration."""
    return default_config()


@pytest.fixture(scope="session")
def cached_walk(config):
    """One 12 s through-wall walk shared by kernel benchmarks."""
    room = through_wall_room()
    walk = random_walk(room, np.random.default_rng(123), duration_s=12.0)
    return Scenario(walk, room=room, config=config, seed=124).run()


def print_header(title: str) -> None:
    """Uniform banner for the printed paper-series."""
    print("\n" + "=" * 72)
    print(title)
    print("=" * 72)
