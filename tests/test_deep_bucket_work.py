"""The mask step settles deep anchor buckets without walking them.

On the drained E18 star (``perfbench/run.py --workload star-full``: the
full disjunction of a balanced 5-spoke star, loaded from
``perfbench/inputs.py`` by path and only read) every bucket is deep, and
the step used to walk each one set by set, three ways:

* Line 14 ran ``TupleSet.union_is_jcc_mask`` on every waiting set of the
  survivor's bucket (63,690 calls for 4,350 probes);
* Line 11 walked every relation-set group whose relation set equals the
  probe's (6,384 walks over 143,558 stored sets);
* every mask pass rebuilt the scan plan (1,460 plans for the 5 passes).

Now a survivor's consistency closure decides every waiting set of its
catalog with one AND-NOT, an equal-relation group answers from a map of
first positions, and a scanner builds its plan once per catalog and live
mask.  The walks are counted here by patching the walking methods; the
``FDStatistics`` they feed are pinned by ``tests/test_perfbench_counters.py``.
"""

from __future__ import annotations

import importlib.util
import os

from repro.core.full_disjunction import full_disjunction_sets
from repro.core.scanner import TupleScanner
from repro.core.store import CompleteStore
from repro.core.tupleset import TupleSet

INPUTS_PATH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench", "inputs.py"
)


def _load_inputs():
    spec = importlib.util.spec_from_file_location("perfbench_inputs", INPUTS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


inputs = _load_inputs()


def test_the_drained_star_walks_no_bucket(monkeypatch):
    counts = {"merge tests": 0, "equal-relation walks": 0}
    plans = []
    union_is_jcc_mask = TupleSet.union_is_jcc_mask
    holds_mask = CompleteStore._holds_mask
    mask_pass = TupleScanner.mask_pass

    def counted_merge_test(self, *args):
        counts["merge tests"] += 1
        return union_is_jcc_mask(self, *args)

    def counted_walk(self, stored_sets, id_mask, catalog):
        probe = catalog.relation_names_of(catalog.relation_mask_of(id_mask))
        if all(stored.relations == probe for stored in stored_sets):
            counts["equal-relation walks"] += 1
        return holds_mask(self, stored_sets, id_mask, catalog)

    def kept_plan(self, tuple_set):
        plan = mask_pass(self, tuple_set)
        if plan is not None:
            plans.append(plan)  # kept alive, so distinct plans have distinct ids
        return plan

    monkeypatch.setattr(TupleSet, "union_is_jcc_mask", counted_merge_test)
    monkeypatch.setattr(CompleteStore, "_holds_mask", counted_walk)
    monkeypatch.setattr(TupleScanner, "mask_pass", kept_plan)
    database = inputs.balanced_star(1, **inputs.SCALES["full"]["star"])
    answers = sum(1 for _ in full_disjunction_sets(database))

    assert answers == 486
    assert counts == {"merge tests": 0, "equal-relation walks": 0}
    assert (len(plans), len({id(plan) for plan in plans})) == (1460, 5)
