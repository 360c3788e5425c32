"""A Python-call budget per served SPMV and per served CG iteration.

The k = 1 kernels run at their NumPy/SciPy floor, so what is left of a
small served product is interpreter bookkeeping: every Python call the
hot path makes inside ``repro``.  This module counts those calls with
``sys.setprofile`` — ``call`` events whose code lives in the ``repro``
package, nothing from NumPy, SciPy or the standard library — so the
count does not depend on their versions, and it repeats exactly where a
wall-clock gate would not.  List comprehensions are frames of their own
before Python 3.12 and inlined after it, so a newer interpreter only
counts fewer.

* **apply**: one steady-state ``SolverContext.apply_multi`` at k = 1;
* **iteration**: the calls of a served CG iteration, as the difference
  between two ``solve_multi`` runs of different ``rtol`` over their
  difference in lock-step iterations, at k = 1 and k = 8 (the GEMM mode).

A regression in the bookkeeping (a property re-derived per call, a
timer entered for an empty sweep, an idle halo exchange that still
packs) shows up here by name, in the per-function breakdown the failure
prints.
"""

from __future__ import annotations

import collections
import os
import sys

import numpy as np
import pytest

import repro
from repro.serve import ProblemKey, SolverContext

_ROOT = os.path.dirname(os.path.abspath(repro.__file__)) + os.sep

#: (key, apply budget, k = 1 iteration budget, k = 8 iteration budget).
#: Counted on Python 3.11 when the budgets were set, HYMV made 46 / 51
#: calls per apply (Poisson / elasticity) and 51-57 per iteration, the
#: assembled operator 37 per apply and 45 / 46 per iteration; each
#: budget leaves about 10% headroom, so one re-derived view or one
#: extra timer per sweep fails here.  Before the hot path's bookkeeping
#: was bound once, HYMV made 112-115 per apply and 137-141 per
#: iteration, the assembled operator 53 / 72 / 85.
BUDGETS = {
    "hymv-poisson-hex8": (
        ProblemKey("poisson", 8, 1, "hex8", 0, "hymv", "einsum"), 50, 56, 62
    ),
    "hymv-elastic-hex8": (
        ProblemKey("elastic", 4, 1, "hex8", 0, "hymv", "einsum"), 55, 61, 62
    ),
    "assembled-poisson-hex8": (
        ProblemKey("poisson", 8, 1, "hex8", 0, "assembled", "einsum"),
        41, 50, 51,
    ),
}


def _count(fn) -> collections.Counter:
    """Python calls into ``repro`` made by ``fn()``, per function."""
    calls: collections.Counter = collections.Counter()

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            if code.co_filename.startswith(_ROOT):
                name = code.co_filename[len(_ROOT):]
                calls[f"{name}:{code.co_name}"] += 1

    sys.setprofile(profile)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return calls


def _report(calls: collections.Counter) -> str:
    return "\n".join(f"{n:5.1f} {name}" for name, n in calls.most_common())


@pytest.fixture(scope="module", params=sorted(BUDGETS))
def served(request):
    key, *budgets = BUDGETS[request.param]
    return SolverContext(key), budgets


def test_apply_call_budget(served):
    ctx, (budget, _, _) = served
    X = np.random.default_rng(0).standard_normal((ctx.n_dofs, 1))
    for _ in range(2):  # first-use work buffers
        ctx.apply_multi(X)
    calls = _count(lambda: ctx.apply_multi(X))
    assert calls == _count(lambda: ctx.apply_multi(X)), "count not steady"
    total = sum(calls.values())
    assert total <= budget, (
        f"{total} calls per apply > budget {budget}:\n{_report(calls)}"
    )


@pytest.mark.parametrize("k", [1, 8])
def test_cg_iteration_call_budget(served, k):
    ctx, (_, budget_k1, budget_k8) = served
    budget = budget_k1 if k == 1 else budget_k8
    F = np.random.default_rng(1).standard_normal((ctx.n_dofs, k))
    ctx.solve_multi(F, 1e-2)  # first-use work buffers at this k
    runs = {}
    counts = {}
    for rtol in (1e-2, 1e-6):
        counts[rtol] = _count(
            lambda: runs.__setitem__(rtol, ctx.solve_multi(F, rtol)[0])
        )
    iters = max(runs[1e-6]["iterations"]) - max(runs[1e-2]["iterations"])
    assert iters >= 5, "the two solves must differ by several iterations"
    per_iter = counts[1e-6].copy()
    per_iter.subtract(counts[1e-2])
    per_iter = collections.Counter(
        {name: n / iters for name, n in per_iter.items() if n}
    )
    total = sum(per_iter.values())
    assert total <= budget, (
        f"{total:.1f} calls per CG iteration (k = {k}) > budget {budget}:\n"
        f"{_report(per_iter)}"
    )
