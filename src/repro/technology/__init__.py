"""Synthetic technology substrate.

The paper synthesizes both delay-line schemes with Synopsys Design Compiler
against the Intel 32 nm standard-cell library and reports post-synthesis area
and post-APR delays.  Neither the tools nor the library are available, so this
package provides a behavioural substitute:

* :mod:`repro.technology.corners` -- process corners and operating conditions
  with the 4x fast/slow spread the paper quotes (buffer delay 20 ps in the fast
  corner, 80 ps in the slow corner).
* :mod:`repro.technology.cells` -- standard-cell models (area, delay, leakage,
  input capacitance) for the handful of cells the delay lines elaborate to.
* :mod:`repro.technology.library` -- a calibrated "32 nm-class" library whose
  relative cell areas reproduce the paper's area distributions.
* :mod:`repro.technology.variation` -- systematic + random per-instance
  mismatch and placement gradients used for post-APR linearity analysis,
  plus the Cholesky-based correlated component-variation model.
* :mod:`repro.technology.streams` -- chunk-seeded per-instance RNG streams,
  bit-identical to one ``default_rng((*key, i))`` per instance.
* :mod:`repro.technology.thermal` -- mission-scale temperature traces and
  first-order electrical derating for temperature-drift Monte-Carlo.
* :mod:`repro.technology.netlist` -- structural netlists (cell-count views of a
  synthesized block).
* :mod:`repro.technology.synthesis` -- the structural "synthesizer" that turns
  a netlist into an area report with a per-block distribution (the Table 5 /
  Table 6 substitute).
"""

from repro.technology.cells import CellKind, StandardCell
from repro.technology.corners import (
    OperatingConditions,
    ProcessCorner,
    TemperatureGrade,
)
from repro.technology.library import TechnologyLibrary, intel32_like_library
from repro.technology.netlist import CellInstanceGroup, Netlist
from repro.technology.synthesis import AreaReport, BlockArea, Synthesizer
from repro.technology.thermal import TemperatureTrace, ThermalDerating
from repro.technology.variation import (
    BatchVariationSample,
    CorrelatedVariationModel,
    VariationModel,
    VariationSample,
)

__all__ = [
    "AreaReport",
    "BatchVariationSample",
    "BlockArea",
    "CellInstanceGroup",
    "CellKind",
    "CorrelatedVariationModel",
    "Netlist",
    "OperatingConditions",
    "ProcessCorner",
    "StandardCell",
    "Synthesizer",
    "TechnologyLibrary",
    "TemperatureGrade",
    "TemperatureTrace",
    "ThermalDerating",
    "VariationModel",
    "VariationSample",
    "intel32_like_library",
]
