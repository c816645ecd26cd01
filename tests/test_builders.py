"""Tests for the five DAG construction algorithms.

The Figure 1 example from the paper is the canonical fixture: nodes
DIVF(20cy) / ADDF(4cy) / ADDF with a WAR(1) arc 1->2, a RAW(4) arc
2->3, and the *transitive but timing-essential* RAW(20) arc 1->3.
"""

import pytest

from repro.asm import parse_asm
from repro.cfg import partition_blocks
from repro.dag.builders import (
    ALL_BUILDERS,
    BitmapBackwardBuilder,
    CompareAllBuilder,
    LandskovBuilder,
    TableBackwardBuilder,
    TableForwardBuilder,
)
from repro.dag.bitmap import compute_reachability
from repro.dag.builders.base import BuildStats
from repro.dep import DepType
from repro.isa.memory import AliasPolicy
from repro.machine import generic_risc, sparcstation2_like
from repro.runner import BUILDER_CLASSES, run_batch
from repro.workloads import kernel_blocks


def build(builder_cls, source: str, machine=None, **kwargs):
    machine = machine or generic_risc()
    blocks = partition_blocks(parse_asm(source))
    assert len(blocks) == 1
    return builder_cls(machine, **kwargs).build(blocks[0])


def arc_set(dag):
    return {(a.parent.id, a.child.id, a.dep, a.delay) for a in dag.arcs()}


FIGURE1 = """
    fdivd %f0, %f2, %f4
    faddd %f6, %f8, %f0
    faddd %f0, %f4, %f10
"""


class TestFigure1:
    """Each builder against the paper's Figure 1 block."""

    def test_compare_all_has_all_three_arcs(self, machine):
        out = build(CompareAllBuilder, FIGURE1, machine)
        assert arc_set(out.dag) == {
            (0, 1, DepType.WAR, 1),
            (0, 2, DepType.RAW, 20),
            (1, 2, DepType.RAW, 4),
        }

    def test_table_forward_retains_essential_arc(self, machine):
        # "The table building methods discussed above will retain this
        # kind of arc."
        out = build(TableForwardBuilder, FIGURE1, machine)
        assert (0, 2, DepType.RAW, 20) in arc_set(out.dag)

    def test_table_backward_retains_essential_arc(self, machine):
        out = build(TableBackwardBuilder, FIGURE1, machine)
        assert (0, 2, DepType.RAW, 20) in arc_set(out.dag)

    def test_landskov_drops_transitive_arc(self, machine):
        # The paper's argument AGAINST Landskov-style pruning.
        out = build(LandskovBuilder, FIGURE1, machine)
        assert (0, 2, DepType.RAW, 20) not in arc_set(out.dag)
        assert len(arc_set(out.dag)) == 2

    def test_bitmap_defs_first_retains_essential_arc(self, machine):
        # Paper pseudocode order (defs before uses): the long RAW arc
        # is inserted before the short WAR that would shadow it.
        out = build(BitmapBackwardBuilder, FIGURE1, machine)
        assert (0, 2, DepType.RAW, 20) in arc_set(out.dag)

    def test_bitmap_uses_first_loses_essential_arc(self, machine):
        out = build(BitmapBackwardBuilder, FIGURE1, machine,
                    uses_first=True)
        assert (0, 2, DepType.RAW, 20) not in arc_set(out.dag)

    def test_table_methods_agree(self, machine):
        fw = build(TableForwardBuilder, FIGURE1, machine)
        bw = build(TableBackwardBuilder, FIGURE1, machine)
        assert arc_set(fw.dag) == arc_set(bw.dag)


SEQ = """
    ld [%fp-8], %o0
    add %o0, 1, %o1
    st %o1, [%fp-8]
    ld [%fp-8], %o2
    add %o2, %o1, %o3
    st %o3, [%fp-12]
"""


class TestDependenceKinds:
    def test_raw_through_register(self, machine):
        out = build(TableForwardBuilder, "ld [%fp-8], %o0\nadd %o0, 1, %o1")
        arcs = arc_set(out.dag)
        assert (0, 1, DepType.RAW, 2) in arcs

    def test_war_through_register(self, machine):
        out = build(TableForwardBuilder,
                    "add %o0, 1, %o1\nmov 5, %o0")
        assert (0, 1, DepType.WAR, 1) in arc_set(out.dag)

    def test_waw_through_register(self, machine):
        out = build(TableForwardBuilder, "mov 1, %o0\nmov 2, %o0")
        assert (0, 1, DepType.WAW, 1) in arc_set(out.dag)

    def test_store_load_raw_through_memory(self, machine):
        out = build(TableForwardBuilder,
                    "st %o0, [%fp-8]\nld [%fp-8], %o1")
        arcs = arc_set(out.dag)
        assert any(p == 0 and c == 1 and d is DepType.RAW
                   for p, c, d, _ in arcs)

    def test_load_store_war_through_memory(self, machine):
        out = build(TableForwardBuilder,
                    "ld [%fp-8], %o1\nst %o0, [%fp-8]")
        arcs = arc_set(out.dag)
        assert any(p == 0 and c == 1 and d is DepType.WAR
                   for p, c, d, _ in arcs)

    def test_store_store_waw_through_memory(self, machine):
        out = build(TableForwardBuilder,
                    "st %o0, [%fp-8]\nst %o1, [%fp-8]")
        arcs = arc_set(out.dag)
        assert any(p == 0 and c == 1 and d is DepType.WAW
                   for p, c, d, _ in arcs)

    def test_independent_loads_unordered(self, machine):
        out = build(TableForwardBuilder,
                    "ld [%fp-8], %o0\nld [%fp-8], %o1")
        # Two loads of the same location do not depend on each other.
        assert not any(d is not DepType.RAW for _, _, d, _
                       in arc_set(out.dag))
        assert out.dag.n_arcs == 0

    def test_cc_dependence_orders_cmp_and_branch(self, machine):
        out = build(TableForwardBuilder, "cmp %o0, 1\nbe away")
        assert any(p == 0 and c == 1 and d is DepType.RAW
                   for p, c, d, _ in arc_set(out.dag))

    def test_same_reg_use_then_def_no_self_arc(self, machine):
        for cls in ALL_BUILDERS:
            out = build(cls, "add %o0, 1, %o0\nadd %o0, 1, %o0")
            assert all(a.parent is not a.child for a in out.dag.arcs())


class TestBuilderEquivalence:
    """All builders must produce the same *ordering constraints* (the
    transitive closure), even when they keep different arc sets."""

    @pytest.mark.parametrize("source", [FIGURE1, SEQ, """
        ld [%o0], %o1
        ld [%o0+4], %o2
        add %o1, %o2, %o3
        smul %o3, %o1, %o4
        st %o4, [%o0]
        st %o3, [%o0+4]
        cmp %o4, 7
        bg somewhere
    """])
    def test_same_transitive_closure(self, source, machine):
        reference = None
        for cls in ALL_BUILDERS:
            out = build(cls, source, machine)
            rmap = compute_reachability(out.dag)
            closure = {(i, j) for i in range(len(out.dag))
                       for j in rmap.descendants(i)}
            if reference is None:
                reference = closure
            else:
                assert closure == reference, cls.name

    def test_compare_all_is_arc_superset(self, machine):
        pairs = lambda dag: {(a.parent.id, a.child.id)
                             for a in dag.arcs()}
        full = pairs(build(CompareAllBuilder, SEQ, machine).dag)
        for cls in (TableForwardBuilder, TableBackwardBuilder,
                    LandskovBuilder, BitmapBackwardBuilder):
            assert pairs(build(cls, SEQ, machine).dag) <= full, cls.name

    def test_landskov_never_has_transitive_arcs(self, machine):
        from repro.dag.transitive import classify_arcs
        out = build(LandskovBuilder, SEQ, machine)
        assert not any(classify_arcs(out.dag).values())


#: Exact work over kernel_blocks(32) on the sparc model, no cache: the
#: seven BuildStats counters plus reachability words touched, per
#: builder.  Deterministic, so any drift is a behaviour change.
KERNEL_BLOCKS_COUNTERS = {
    "bitmap-backward": dict(
        comparisons=0, table_probes=8416, alias_checks=2464,
        arcs_added=1216, arcs_merged=768, arcs_suppressed=192,
        bitmap_ops=4160, bitmap_words_touched=3360),
    "landskov": dict(
        comparisons=5280, table_probes=0, alias_checks=2464,
        arcs_added=1184, arcs_merged=736, arcs_suppressed=0,
        bitmap_ops=0, bitmap_words_touched=0),
    "n2": dict(
        comparisons=7104, table_probes=0, alias_checks=2464,
        arcs_added=1344, arcs_merged=832, arcs_suppressed=0,
        bitmap_ops=0, bitmap_words_touched=0),
    "table-backward": dict(
        comparisons=0, table_probes=8416, alias_checks=2464,
        arcs_added=1344, arcs_merged=832, arcs_suppressed=0,
        bitmap_ops=0, bitmap_words_touched=0),
    "table-forward": dict(
        comparisons=0, table_probes=6048, alias_checks=2464,
        arcs_added=1344, arcs_merged=832, arcs_suppressed=0,
        bitmap_ops=0, bitmap_words_touched=0),
}

#: The verified section 6 batch over the same blocks (default chain).
KERNEL_BLOCKS_BATCH = dict(
    total_makespan=3712, total_original_makespan=4256,
    build_stats=dict(
        comparisons=0, table_probes=8416, alias_checks=2464,
        arcs_added=1216, arcs_merged=768, arcs_suppressed=192,
        bitmap_ops=4160))

#: the seven BuildStats work counters, in KERNEL_BLOCKS_* order
COUNTERS = tuple(KERNEL_BLOCKS_BATCH["build_stats"])


@pytest.fixture(scope="module")
def kernel_blocks_32():
    return kernel_blocks(32)


class TestWorkCounters:
    def test_n2_comparison_count(self, machine):
        out = build(CompareAllBuilder, "nop\n" * 10, machine)
        assert out.stats.comparisons == 45  # 10 choose 2

    def test_landskov_compares_at_most_n2(self, machine):
        full = build(CompareAllBuilder, SEQ, machine).stats.comparisons
        pruned = build(LandskovBuilder, SEQ, machine).stats.comparisons
        assert pruned <= full

    def test_table_builders_do_no_pair_comparisons(self, machine):
        for cls in (TableForwardBuilder, TableBackwardBuilder):
            out = build(cls, SEQ, machine)
            assert out.stats.comparisons == 0
            assert out.stats.table_probes > 0

    def test_arcs_added_matches_dag(self, machine):
        for cls in ALL_BUILDERS:
            out = build(cls, SEQ, machine)
            assert out.stats.arcs_added == out.dag.n_arcs

    def test_bitmap_builder_counts_suppressions(self, machine):
        out = build(BitmapBackwardBuilder, SEQ, machine, uses_first=True)
        plain = build(TableBackwardBuilder, SEQ, machine)
        assert out.dag.n_arcs + out.stats.arcs_suppressed >= plain.dag.n_arcs

    def test_kernel_blocks_cover_every_builder(self):
        assert set(KERNEL_BLOCKS_COUNTERS) == set(BUILDER_CLASSES)

    @pytest.mark.parametrize("name", sorted(KERNEL_BLOCKS_COUNTERS))
    def test_kernel_blocks_builder_counters(self, name, kernel_blocks_32):
        machine = sparcstation2_like()
        total = BuildStats()
        words = 0
        for block in kernel_blocks_32:
            builder = BUILDER_CLASSES[name](machine)
            total.merge(builder.build(block).stats)
            rmap = getattr(builder, "reachability", None)
            if rmap is not None:
                words += rmap.words_touched
        got = {c: getattr(total, c) for c in COUNTERS}
        got["bitmap_words_touched"] = words
        assert got == KERNEL_BLOCKS_COUNTERS[name]

    def test_kernel_blocks_verified_batch(self, kernel_blocks_32):
        result = run_batch(kernel_blocks_32, sparcstation2_like(),
                           verify=True)
        got = dict(
            total_makespan=result.total_makespan,
            total_original_makespan=result.total_original_makespan,
            build_stats={c: getattr(result.build_stats, c)
                         for c in COUNTERS})
        assert got == KERNEL_BLOCKS_BATCH


class TestMemoryPolicies:
    DIFFERENT_OFFSETS = "st %o0, [%fp-8]\nld [%fp-12], %o1"
    DIFFERENT_BASES = "st %o0, [%l0]\nld [%l1], %o1"
    PTR_VS_STACK = "st %o0, [%l0]\nld [%fp-8], %o1"

    def _n_mem_arcs(self, source, policy, machine):
        blocks = partition_blocks(parse_asm(source))
        out = TableForwardBuilder(machine, alias_policy=policy).build(
            blocks[0])
        from repro.isa.resources import ResourceKind
        return sum(1 for a in out.dag.arcs()
                   if a.resource is not None
                   and a.resource.kind is ResourceKind.MEM)

    def test_strict_serializes_everything(self, machine):
        for src in (self.DIFFERENT_OFFSETS, self.DIFFERENT_BASES,
                    self.PTR_VS_STACK):
            assert self._n_mem_arcs(src, AliasPolicy.STRICT, machine) == 1

    def test_expression_separates_everything(self, machine):
        for src in (self.DIFFERENT_OFFSETS, self.DIFFERENT_BASES,
                    self.PTR_VS_STACK):
            assert self._n_mem_arcs(src, AliasPolicy.EXPRESSION,
                                    machine) == 0

    def test_base_offset_rules(self, machine):
        assert self._n_mem_arcs(self.DIFFERENT_OFFSETS,
                                AliasPolicy.BASE_OFFSET, machine) == 0
        assert self._n_mem_arcs(self.DIFFERENT_BASES,
                                AliasPolicy.BASE_OFFSET, machine) == 1
        assert self._n_mem_arcs(self.PTR_VS_STACK,
                                AliasPolicy.BASE_OFFSET, machine) == 1

    def test_storage_class_frees_pointer_vs_stack(self, machine):
        assert self._n_mem_arcs(self.PTR_VS_STACK,
                                AliasPolicy.STORAGE_CLASS, machine) == 0
        assert self._n_mem_arcs(self.DIFFERENT_BASES,
                                AliasPolicy.STORAGE_CLASS, machine) == 1

    def test_policy_affects_all_builders_consistently(self, machine):
        for cls in ALL_BUILDERS:
            blocks = partition_blocks(parse_asm(self.PTR_VS_STACK))
            strict = cls(machine,
                         alias_policy=AliasPolicy.STRICT).build(blocks[0])
            relaxed = cls(machine,
                          alias_policy=AliasPolicy.STORAGE_CLASS).build(
                blocks[0])
            assert strict.dag.n_arcs >= relaxed.dag.n_arcs, cls.name


class TestDelayDetails:
    def test_pair_load_skew_visible_in_arcs(self, sparc_machine):
        # The odd register of an ldd pair arrives one cycle later.
        src = "ldd [%fp-8], %f2\nfmovs %f2, %f10\nfmovs %f3, %f11"
        blocks = partition_blocks(parse_asm(src))
        out = TableForwardBuilder(sparc_machine).build(blocks[0])
        delays = {(a.parent.id, a.child.id): a.delay
                  for a in out.dag.arcs()}
        assert delays[(0, 2)] == delays[(0, 1)] + 1

    def test_asymmetric_bypass_visible_in_arcs(self, rs6000_machine):
        src = "ld [%o0], %o1\nadd %o1, %o2, %o3\nadd %o2, %o1, %o4"
        blocks = partition_blocks(parse_asm(src))
        out = TableForwardBuilder(rs6000_machine).build(blocks[0])
        delays = {(a.parent.id, a.child.id): a.delay
                  for a in out.dag.arcs()}
        # Second-operand consumer (node 2) pays the bypass penalty.
        assert delays[(0, 2)] == delays[(0, 1)] + 1

    def test_unique_mem_exprs_counted(self, machine):
        out = build(TableForwardBuilder, SEQ, machine)
        assert out.space.n_memory_exprs == 2  # %i6-8 and %i6-12
