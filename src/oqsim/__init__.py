"""Density-matrix circuit simulator for open quantum systems.

Modules:
  qmath     - dense complex linear algebra over wire registers
  channels  - complete Kraus channels: builders, application, dilation
  circuit   - gate library, step-circuit builders and the step compiler
  engine    - trajectory runner
  analysis  - memory diagnostics and resource accounting
  cli       - experiment runner (``simulate`` entry point)
"""

from .qmath import (
    DensityMatrix,
    Wire,
    partial_trace,
    tensor_product,
    trace_distance,
)
from .channels import (
    KrausChannel,
    amplitude_damping,
    apply_channel,
    dephasing,
    pauli_channel,
    stinespring_dilate,
)
from .circuit import (
    GateOp,
    MemorySpec,
    StepCircuit,
    apply_step,
    build_dilation_step,
    build_markovian_step,
    build_nonmarkovian_step,
    build_sequential_step,
    standard_gate,
)
from .engine import Observable, Trajectory, evolve, projector_observable, purity, run
from .analysis import blp_witness, monotonicity_check, resource_count

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
