"""RF substrate: FMCW math and a physics-level front-end simulator.

The paper built an analog FMCW daughterboard for USRP because no
off-the-shelf radio performs FMCW. This package is our software substitute:
it models sweep generation (with residual VCO
nonlinearity), propagation (radar equation, walls, multipath), the receive
chain (LNA noise figure, mixer/dechirp, high-pass filter) and the 1 MS/s
ADC, and emits per-sweep baseband spectra identical in structure to what
the hardware pipeline would FFT.
"""

from .fmcw import RangeAxis, beat_frequency, dirichlet_kernel, range_axis
from .noise import NoiseModel, db_to_power, power_to_db
from .propagation import PathGain, radar_amplitude, wall_crossings
from .multipath import StaticClutter, make_static_clutter, mirror_images
from .receiver import Path, SweepSynthesizer

__all__ = [
    "RangeAxis",
    "beat_frequency",
    "dirichlet_kernel",
    "range_axis",
    "NoiseModel",
    "db_to_power",
    "power_to_db",
    "PathGain",
    "radar_amplitude",
    "wall_crossings",
    "StaticClutter",
    "make_static_clutter",
    "mirror_images",
    "Path",
    "SweepSynthesizer",
]
