"""Machine timing model.

The ISA (:mod:`repro.isa`) says *what* an instruction does; this
subpackage says *how long it takes* on a particular machine:

* :mod:`repro.machine.latency` -- operation latencies and
  dependence-type-specific arc delays (RAW/WAR/WAW, shorter WAR
  delays, per-operand-position asymmetric bypass, register-pair
  skew).
* :mod:`repro.machine.units` -- function units, pipelined or not.
* :mod:`repro.machine.reservation` -- resource reservation tables for
  the "more refined form of scheduling" of section 1.
* :mod:`repro.machine.model` -- :class:`MachineModel`, the facade the
  DAG builders and schedulers consume.
* :mod:`repro.machine.presets` -- ready-made machines (generic RISC,
  SPARC-like, RS/6000-like with asymmetric bypass, 2-wide
  superscalar).
"""

from repro.machine.latency import LatencyModel
from repro.machine.units import (
    FunctionUnit,
    FunctionUnitSet,
    default_units,
    units_with_writeback,
)
from repro.machine.reservation import ReservationTable, UsagePattern
from repro.machine.model import MachineModel
from repro.machine.presets import (
    MACHINES,
    generic_risc,
    sparcstation2_like,
    rs6000_like,
    superscalar2,
)

__all__ = [
    "LatencyModel",
    "FunctionUnit",
    "FunctionUnitSet",
    "default_units",
    "units_with_writeback",
    "ReservationTable",
    "UsagePattern",
    "MachineModel",
    "MACHINES",
    "generic_risc",
    "sparcstation2_like",
    "rs6000_like",
    "superscalar2",
]
