"""Synthetic workloads calibrated to the paper's Table 3.

The paper measured SPARC assembly emitted by SunOS 4.1.1 compilers for
nine benchmarks.  Those artifacts are unavailable, so
:mod:`repro.workloads.profiles` records each benchmark's *structural
fingerprint* straight from Table 3 (block count, instruction count,
block-size extremes, memory-expression density) and
:mod:`repro.workloads.synthetic` deterministically generates an
instruction stream matching it.  :mod:`repro.workloads.kernels` adds
small hand-written assembly kernels for examples and tests, and
:func:`~repro.workloads.kernels.kernel_blocks`, the repeated-kernel
block population built from them.
"""

from repro.workloads.profiles import (
    PROFILES,
    WorkloadProfile,
    get_profile,
    scaled_profile,
)
from repro.workloads.synthetic import generate_blocks, generate_program
from repro.workloads.kernels import (
    KERNELS,
    kernel_blocks,
    kernel_source,
    straightline_body,
    straightline_source,
)
from repro.workloads.minic_programs import (
    MiniCWorkloadSpec,
    generate_minic_blocks,
    generate_minic_source,
    minic_workload,
)

__all__ = [
    "MiniCWorkloadSpec",
    "generate_minic_blocks",
    "generate_minic_source",
    "minic_workload",
    "PROFILES",
    "WorkloadProfile",
    "get_profile",
    "scaled_profile",
    "generate_blocks",
    "generate_program",
    "KERNELS",
    "kernel_blocks",
    "kernel_source",
    "straightline_body",
    "straightline_source",
]
