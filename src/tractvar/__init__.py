"""Relative vocal-tract variables from midsagittal pellet trajectories."""

from .errors import (
    ConfigError,
    DataError,
    DegenerateAngle,
    ParseError,
    TractvarError,
)
from .anatomy import (
    Sex,
    SpeakerAnatomy,
    build_speaker_anatomy,
    extend_palate,
    infer_anterior_wall,
    palatal_reference_center,
)
from .compare import ComparisonReport, compare_tvs, ppmc
from .geometry import Polyline, extend_line_to_polyline, fit_circle
from .ingest import (
    IngestReport,
    PelletTrajectory,
    load_manifest,
    parse_pellet_file,
    parse_trace_file,
    resample,
)
from .pipeline import RunConfig, run_pipeline
from .tract_variables import TvTrajectory, compute_trajectory

__version__ = "0.1.0"

__all__ = [
    "ComparisonReport",
    "ConfigError",
    "DataError",
    "DegenerateAngle",
    "IngestReport",
    "ParseError",
    "PelletTrajectory",
    "Polyline",
    "RunConfig",
    "Sex",
    "SpeakerAnatomy",
    "TractvarError",
    "TvTrajectory",
    "build_speaker_anatomy",
    "compare_tvs",
    "compute_trajectory",
    "extend_line_to_polyline",
    "extend_palate",
    "fit_circle",
    "infer_anterior_wall",
    "load_manifest",
    "palatal_reference_center",
    "parse_pellet_file",
    "parse_trace_file",
    "ppmc",
    "resample",
    "run_pipeline",
    "__version__",
]
