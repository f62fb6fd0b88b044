"""Analysis & reporting: experiment runners, table formatters, paper
reference values, and the ``crossover paper`` campaign
(:mod:`repro.analysis.report`) that regenerates every table/figure of
the evaluation and checks its shape claims."""

from repro.analysis.calibration import PAPER
from repro.analysis.measure import Measurement, measured_region
from repro.analysis.tables import format_table

__all__ = ["PAPER", "Measurement", "measured_region", "format_table"]
