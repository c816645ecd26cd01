"""Ready-made machine models.

Four machines cover the behaviours the paper discusses:

* :func:`generic_risc` -- the default scalar pipeline whose latencies
  match Figure 1 of the paper exactly (FP divide 20 cycles, FP add 4
  cycles, WAR delay 1 cycle).
* :func:`sparcstation2_like` -- a SPARC-flavoured scalar machine with
  a load delay slot, register-pair load skew, and unpipelined FP
  units, approximating the paper's measurement platform.
* :func:`rs6000_like` -- models the asymmetric bypass paths of the IBM
  RS/6000 (section 2: the RAW delay differs with the consumer's
  operand position) and a store-forwarding discount.
* :func:`superscalar2` -- a 2-wide issue machine for the
  "alternate type" instruction-class heuristic.
"""

from __future__ import annotations

from repro.isa.memory import AliasPolicy
from repro.isa.opcodes import InstructionClass
from repro.machine.latency import LatencyModel, _DEFAULT_CLASS_LATENCY
from repro.machine.model import MachineModel
from repro.machine.units import FunctionUnit, FunctionUnitSet, default_units


def generic_risc() -> MachineModel:
    """The default scalar RISC; latencies match the paper's Figure 1."""
    return MachineModel(
        name="generic-risc",
        latency=LatencyModel(),
        units=default_units(unpipelined_fp=False),
        issue_width=1,
        branch_delay_slots=1,
    )


def sparcstation2_like() -> MachineModel:
    """A SPARCstation-2-flavoured scalar machine.

    Single-cycle integer ops, 2-cycle loads (one delay slot), a
    one-cycle skew on the odd register of double-word load pairs, and
    unpipelined floating point units -- the configuration the paper's
    FPU-busy-time heuristic targets.
    """
    latency = LatencyModel(
        class_latency={
            **_DEFAULT_CLASS_LATENCY,
            InstructionClass.LOAD: 2,
            InstructionClass.FPADD: 7,
            InstructionClass.FPMUL: 8,
            InstructionClass.FPDIV: 24,
            InstructionClass.FPSQRT: 36,
            InstructionClass.FPCOMPARE: 2,
        },
        pair_second_extra=1,
    )
    return MachineModel(
        name="sparcstation2-like",
        latency=latency,
        units=default_units(unpipelined_fp=True),
        issue_width=1,
        branch_delay_slots=1,
        alias_policy=AliasPolicy.EXPRESSION,
    )


def rs6000_like() -> MachineModel:
    """Models the RS/6000's asymmetric bypass and store forwarding.

    A RAW delay to a consumer's second source operand is one cycle
    longer than to its first (paper section 2), and stores pick their
    data up late, shaving a cycle off RAW-to-store delays.
    """
    latency = LatencyModel(
        class_latency={
            **_DEFAULT_CLASS_LATENCY,
            InstructionClass.LOAD: 2,
            InstructionClass.FPADD: 2,
            InstructionClass.FPMUL: 2,
            InstructionClass.FPDIV: 19,
        },
        raw_store_forward_discount=1,
        bypass_second_operand_penalty=1,
    )
    return MachineModel(
        name="rs6000-like",
        latency=latency,
        units=default_units(unpipelined_fp=False),
        issue_width=1,
        branch_delay_slots=0,
        alias_policy=AliasPolicy.STORAGE_CLASS,
    )


def superscalar2() -> MachineModel:
    """A 2-wide superscalar with duplicated integer ALUs.

    Used by the alternate-type heuristic experiments: pairing an
    integer and a floating point instruction in the same cycle is the
    win the heuristic chases.
    """
    units = FunctionUnitSet([
        FunctionUnit("ialu", copies=2),
        FunctionUnit("imul", pipelined=False),
        FunctionUnit("mem"),
        FunctionUnit("branch"),
        FunctionUnit("fpadd"),
        FunctionUnit("fpmul"),
        FunctionUnit("fdiv", pipelined=False),
    ])
    return MachineModel(
        name="superscalar-2",
        latency=LatencyModel(),
        units=units,
        issue_width=2,
        branch_delay_slots=1,
    )


#: the presets by the name the CLI's ``--machine`` and the wire's
#: ``machine`` field use
MACHINES = {
    "generic": generic_risc,
    "sparc": sparcstation2_like,
    "rs6000": rs6000_like,
    "superscalar2": superscalar2,
}
