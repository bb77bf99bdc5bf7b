"""World simulation: rooms, human bodies, motion, and ground truth.

These modules substitute for the paper's physical experiment apparatus:
the VICON room with its 6-inch hollow wall, the eleven human subjects,
and the VICON motion-capture ground truth.
"""

from .room import Room, through_wall_room, line_of_sight_room
from .body import HumanBody, ReflectionModel, sample_population
from .motion import (
    Trajectory,
    fall_trace,
    non_colliding_walks,
    random_walk,
    sit_on_chair_trace,
    sit_on_floor_trace,
    stand_still,
    walk_trace,
    waypoint_walk,
)
from .gestures import PointingGesture, pointing_session
from .scenario import Scenario, ScenarioOutput, ScenarioStream
from .cohort import CohortFrameSource
from .vicon import DepthCalibration, ViconSystem

__all__ = [
    "Room",
    "through_wall_room",
    "line_of_sight_room",
    "HumanBody",
    "ReflectionModel",
    "sample_population",
    "Trajectory",
    "fall_trace",
    "non_colliding_walks",
    "random_walk",
    "sit_on_chair_trace",
    "sit_on_floor_trace",
    "stand_still",
    "walk_trace",
    "waypoint_walk",
    "PointingGesture",
    "pointing_session",
    "Scenario",
    "ScenarioOutput",
    "ScenarioStream",
    "CohortFrameSource",
    "DepthCalibration",
    "ViconSystem",
]
