"""The 26 scheduling heuristics of the paper's Table 1.

Heuristics split by *when* they can be computed (Table 1 legend):

* ``a`` -- maintained by ``Dag.add_arc`` while the DAG is built;
* ``f`` -- need a forward pass over the block
  (:func:`repro.heuristics.passes.forward_pass`);
* ``b`` -- need a backward pass
  (:func:`repro.heuristics.passes.backward_pass`);
* ``v`` -- dynamic, computed by node visitation during scheduling
  (the callables in the category modules, driven by the scheduler's
  :class:`~repro.scheduling.list_scheduler.SchedulerState`).

:mod:`repro.heuristics.catalog` ties every Table 1 row to its
implementation.
"""

from repro.heuristics.base import Category, Heuristic, PassKind
from repro.heuristics.catalog import CATALOG, catalog, heuristic_by_key
from repro.heuristics.passes import (
    backward_pass,
    backward_pass_levels,
    compute_levels,
    forward_pass,
)
from repro.heuristics.register_usage import annotate_register_usage

__all__ = [
    "Category",
    "Heuristic",
    "PassKind",
    "CATALOG",
    "catalog",
    "heuristic_by_key",
    "forward_pass",
    "backward_pass",
    "backward_pass_levels",
    "compute_levels",
    "annotate_register_usage",
]
