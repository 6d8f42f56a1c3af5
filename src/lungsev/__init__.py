"""Volumetric severity quantification for lung CT grids.

Subpackages and modules:

- volume: z-y-x grid containers, file IO, resampling, cropping, windowing
- severity: opacity percentages and lobe-wise severity scores
- stats: correlation, contingency, and regression agreement statistics
- phantom: deterministic synthetic cases with independently computed reports
- toynet: a small trainable segmentation network with exact gradients
- evaluate: cohort-level comparison of predicted and reference reports
- cli: the command line front end
"""

from .errors import (
    ConvergenceError,
    DegenerateDataError,
    EmptyMaskError,
    GeometryError,
    HeaderError,
    InputError,
    LungSevError,
)
from .severity import HIGH_OPACITY_HU, SeverityReport, compute_report
from .volume import LabelMask, Volume, read_mask, read_volume, write_volume

__all__ = [
    "ConvergenceError",
    "DegenerateDataError",
    "EmptyMaskError",
    "GeometryError",
    "HeaderError",
    "InputError",
    "LungSevError",
    "HIGH_OPACITY_HU",
    "SeverityReport",
    "compute_report",
    "LabelMask",
    "Volume",
    "read_mask",
    "read_volume",
    "write_volume",
]

__version__ = "0.1.0"
