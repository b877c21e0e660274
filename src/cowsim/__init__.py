"""Photon-level simulator and key-rate analysis for one-way time-bin QKD
with weak coherent pulses and a monitoring interferometer."""

__version__ = "0.1.0"

from .rates import *
from .optimize import *
from .simulation import *
from .attacks import *
from .protocol import *
from .experiment import *
