"""Hand-written assembly kernels for examples and tests.

Small, human-readable SPARC-like kernels in the spirit of the paper's
scientific benchmarks: a daxpy inner loop (Linpack's core), a Livermore
hydro-fragment step, a dot product, and the paper's own Figure 1
block.  All are single translation units parseable by
:func:`repro.asm.parse_asm`.  :func:`kernel_blocks` turns four of
them into the repeated-kernel block population that the chaos harness
and the exact-counter golden tests schedule.
"""

from __future__ import annotations

from repro.asm import parse_asm
from repro.cfg import BasicBlock, apply_window, partition_blocks
from repro.errors import WorkloadError

FIGURE1 = """\
! Paper Figure 1: the transitive RAW arc carries 20 cycles of timing
! information bridging a WAR(1) + RAW(4) path.
    fdivd %f0, %f2, %f4     ! 1: f4 = f0/f2   (20 cycles)
    faddd %f6, %f8, %f0     ! 2: f0 = f6+f8   (4 cycles, WAR on %f0)
    faddd %f0, %f4, %f10    ! 3: f10 = f0+f4  (RAW from 1 and 2)
"""

DAXPY = """\
! daxpy inner-loop body: y[i] = y[i] + a*x[i], unrolled by two.
daxpy:
    ldd [%i0], %f0          ! x[i]
    ldd [%i1], %f2          ! y[i]
    fmuld %f0, %f30, %f4    ! a*x[i]
    faddd %f2, %f4, %f6
    std %f6, [%i1]
    ldd [%i0+8], %f8        ! x[i+1]
    ldd [%i1+8], %f10       ! y[i+1]
    fmuld %f8, %f30, %f12
    faddd %f10, %f12, %f14
    std %f14, [%i1+8]
    add %i0, 16, %i0
    add %i1, 16, %i1
    subcc %i2, 2, %i2
    bg daxpy
    nop
"""

LIVERMORE1 = """\
! Livermore kernel 1 (hydro fragment): x[k] = q + y[k]*(r*z[k+10] + t*z[k+11])
lk1:
    ldd [%i3+80], %f0       ! z[k+10]
    ldd [%i3+88], %f2       ! z[k+11]
    fmuld %f0, %f26, %f4    ! r*z[k+10]
    fmuld %f2, %f28, %f6    ! t*z[k+11]
    faddd %f4, %f6, %f8
    ldd [%i2], %f10         ! y[k]
    fmuld %f10, %f8, %f12
    faddd %f12, %f30, %f14  ! + q
    std %f14, [%i1]
    add %i1, 8, %i1
    add %i2, 8, %i2
    add %i3, 8, %i3
    subcc %i4, 1, %i4
    bg lk1
    nop
"""

DOT_PRODUCT = """\
! double-precision dot product step with running sum in %f30.
dot:
    ldd [%o0], %f0
    ldd [%o1], %f2
    fmuld %f0, %f2, %f4
    faddd %f30, %f4, %f30
    add %o0, 8, %o0
    add %o1, 8, %o1
    subcc %o2, 1, %o2
    bg dot
    nop
"""

MEMORY_DISAMBIGUATION = """\
! Exercises the three aliasing policies: same-base/different-offset
! stack slots, an unknown pointer, and a static symbol.
    ld [%fp-4], %o0
    ld [%fp-8], %o1
    add %o0, %o1, %o2
    st %o2, [%fp-4]
    ld [%l0], %o3           ! unknown pointer
    st %o3, [counter]       ! static storage
    ld [%fp-12], %o4
    add %o3, %o4, %o5
    st %o5, [%l0+4]
"""

SUPERSCALAR_MIX = """\
! Interleavable integer and FP work for the alternate-type heuristic.
    ld [%fp-8], %o0
    ldd [%fp-16], %f0
    add %o0, 4, %o1
    faddd %f0, %f2, %f4
    sub %o1, 2, %o2
    fmuld %f4, %f6, %f8
    sll %o2, 3, %o3
    fsubd %f8, %f0, %f10
    st %o3, [%fp-20]
    std %f10, [%fp-28]
"""

KERNELS: dict[str, str] = {
    "figure1": FIGURE1,
    "daxpy": DAXPY,
    "livermore1": LIVERMORE1,
    "dot_product": DOT_PRODUCT,
    "memory_disambiguation": MEMORY_DISAMBIGUATION,
    "superscalar_mix": SUPERSCALAR_MIX,
}


def kernel_source(name: str) -> str:
    """The assembly text of a named kernel.

    Raises:
        WorkloadError: for unknown kernel names.
    """
    source = KERNELS.get(name)
    if source is None:
        raise WorkloadError(
            f"unknown kernel {name!r}; known: {sorted(KERNELS)}")
    return source


def straightline_body(name: str) -> list[str]:
    """A kernel's body as pure straight-line code.

    Comment, label, branch, and nop lines are dropped so the remainder
    can be concatenated into one long branch-free block -- the shape
    benchmark drivers need when they repeat a kernel many times and
    window the result into identical blocks (the repeated-loop-body
    population the section 6 experiment schedules).

    Raises:
        WorkloadError: for unknown kernel names.
    """
    body: list[str] = []
    for line in kernel_source(name).splitlines():
        text = line.split("!", 1)[0].strip()
        if not text or text.endswith(":"):
            continue
        mnemonic = text.split()[0].rstrip(",a")
        if mnemonic in ("nop", "call", "jmpl", "ret") \
                or mnemonic.startswith("b") and mnemonic != "btst" \
                or mnemonic.startswith("fb"):
            continue
        body.append("    " + text)
    return body


def straightline_source(name: str, copies: int = 1) -> str:
    """``copies`` repetitions of a kernel's straight-line body.

    Windowing the result by the body length yields ``copies``
    *textually identical* basic blocks -- the workload that makes
    cross-block dependence caching measurable, and a realistic stand-in
    for the unrolled inner loops dominating the paper's scientific
    benchmarks.

    Raises:
        WorkloadError: for unknown kernel names or ``copies < 1``.
    """
    if copies < 1:
        raise WorkloadError(f"copies must be >= 1, got {copies}")
    body = straightline_body(name)
    return "\n".join("\n".join(body) for _ in range(copies)) + "\n"


#: kernels whose straight-line bodies make up :func:`kernel_blocks`
BLOCK_KERNELS = ("daxpy", "livermore1", "dot_product", "superscalar_mix")


def kernel_blocks(copies: int) -> list[BasicBlock]:
    """The repeated-kernel block population (deterministic).

    Each of :data:`BLOCK_KERNELS` has its straight-line body repeated
    ``copies`` times and windowed at exactly its own body length, so
    every kernel contributes ``copies`` textually identical blocks --
    the unrolled inner-loop population where dependence caching pays.
    Blocks are renumbered globally so journal/batch indices stay
    unique.

    Raises:
        WorkloadError: for ``copies < 1``.
    """
    blocks: list[BasicBlock] = []
    for name in BLOCK_KERNELS:
        body_len = len(straightline_body(name))
        program = parse_asm(straightline_source(name, copies), name=name)
        for block in apply_window(partition_blocks(program), body_len):
            if block.instructions:
                blocks.append(BasicBlock(len(blocks), block.instructions,
                                         block.label))
    return blocks
