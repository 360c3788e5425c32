"""ExecutionPlan: validation, the tuned-config loader, the SELL layout as
part of a key's identity, and the plan applied end to end by the serve
and shard harnesses."""

from __future__ import annotations

import dataclasses
import json

import numpy as np
import pytest

from repro.obs.instrumentation import Instrumentation
from repro.obs.schema import TUNE_CONFIG_SCHEMA, TUNE_SCHEMA
from repro.serve.cache import OperatorCache, ProblemKey
from repro.serve.plan import ExecutionPlan, PlanError, load_tuned_config
from repro.serve.queue import ServeRequest
from repro.serve.service import SolverService

# ----------------------------------------------------------------------
# validation
# ----------------------------------------------------------------------


@pytest.mark.parametrize("field,value", [
    ("mode", "blas3"),
    ("backend", "cuda"),
    ("k_min", 0),
    ("k_min", 2.5),
    ("sellcs_crossover_dofs", -1),
    ("sell_c", 0),
    ("sell_sigma", 0),
])
def test_plan_rejects_out_of_range(field, value):
    with pytest.raises(PlanError):
        ExecutionPlan(**{field: value})


def test_default_plan_has_default_layout():
    assert ExecutionPlan().sell is None
    # the default layout spelled out is still the default layout
    assert ExecutionPlan(sell_c=32, sell_sigma=256).sell is None
    assert ExecutionPlan(sell_c=8).sell == (8, 64)
    assert ExecutionPlan(sell_sigma=32).sell == (32, 32)


# ----------------------------------------------------------------------
# the one loader
# ----------------------------------------------------------------------

_WINNER = {
    "max_batch": 6, "queue_capacity": 32, "gemm_k_min": 4,
    "sellcs_crossover_dofs": 400, "sell_c": 8, "sell_sigma_factor": 2,
}
_WINNER_PLAN = ExecutionPlan(
    k_min=4, backend="auto", sellcs_crossover_dofs=400, sell_c=8,
    sell_sigma=16,
)


@pytest.mark.parametrize("content,expected", [
    pytest.param(
        {"schema": TUNE_CONFIG_SCHEMA, "config": _WINNER},
        _WINNER_PLAN, id="tune-config",
    ),
    pytest.param(
        {"schema": TUNE_SCHEMA, "winner": {"config": _WINNER}},
        _WINNER_PLAN, id="tune-report",
    ),
    pytest.param(
        {"schema": TUNE_CONFIG_SCHEMA, "config": {"sellcs_crossover_dofs": 0}},
        ExecutionPlan(), id="zero-crossover",
    ),
    pytest.param(None, PlanError, id="missing"),
    pytest.param("not json {", PlanError, id="garbage"),
    pytest.param({"schema": "something/else"}, PlanError, id="unknown-schema"),
    pytest.param(
        {"schema": "repro.bench/1", "config": {"gemm_k_min_crossover": 2}},
        PlanError, id="bench-doc",
    ),
    pytest.param({"schema": TUNE_CONFIG_SCHEMA}, PlanError, id="no-config"),
    pytest.param(
        {"schema": TUNE_CONFIG_SCHEMA, "config": {"gemm_k_min": 0}},
        PlanError, id="k-min-out-of-range",
    ),
    pytest.param(
        {"schema": TUNE_CONFIG_SCHEMA,
         "config": {"sell_c": 8, "sell_sigma_factor": 0}},
        PlanError, id="sigma-out-of-range",
    ),
])
def test_load_tuned_config(tmp_path, content, expected):
    path = tmp_path / "tuned_config.json"
    if content is not None:
        path.write_text(
            content if isinstance(content, str) else json.dumps(content)
        )
    if expected is PlanError:
        with pytest.raises(PlanError):
            load_tuned_config(path)
    else:
        assert load_tuned_config(path) == expected


@pytest.mark.parametrize("harness", ["serve", "shard"])
def test_tuned_from_bad_file_exits_nonzero(tmp_path, harness, capsys):
    from repro.serve import loadgen, shardload

    main = {"serve": loadgen.main, "shard": shardload.main}[harness]
    with pytest.raises(SystemExit) as exc:
        main(["--tuned-from", str(tmp_path / "typo.json")])
    assert exc.value.code != 0
    assert "typo.json" in capsys.readouterr().err


# ----------------------------------------------------------------------
# the SELL layout is identity, not a global
# ----------------------------------------------------------------------

#: fingerprints recorded before keys could carry a layout: every key of
#: the serve, shard, adapt and tune-probe suites (smoke and full), plus a
#: default-layout sellcs key.  Shard placement and every checked-in
#: baseline depend on these staying put.
PINNED_FINGERPRINTS = {
    ("poisson", 4, 4, "tet4", 1, "hymv"): "9921bb18aa8f",
    ("poisson", 5, 4, "tet4", 2, "hymv"): "de4f891f6811",
    ("poisson", 4, 4, "hex8", 0, "hymv"): "62a7d13dc522",
    ("poisson", 3, 2, "hex8", 0, "hymv"): "5519731dc2ff",
    ("poisson", 4, 2, "tet4", 1, "hymv"): "a96a4d3dcecb",
    ("poisson", 4, 2, "hex8", 2, "hymv"): "280b82f51d36",
    ("poisson", 3, 2, "tet4", 3, "hymv"): "2b64a2447cf8",
    ("poisson", 3, 2, "hex8", 4, "hymv"): "d4df36eee6bc",
    ("poisson", 5, 2, "tet4", 5, "hymv"): "f776aa09ece5",
    ("poisson", 4, 2, "hex8", 6, "hymv"): "8fb16ce1db2d",
    ("poisson", 4, 2, "tet4", 7, "hymv"): "be6eabe0c3e1",
    ("poisson", 4, 2, "tet4", 34, "hymv"): "29f40a71710e",
    ("poisson", 4, 2, "tet4", 34, "assembled"): "0d1524766677",
    ("poisson", 6, 4, "tet4", 34, "hymv"): "6d9d88824c27",
    ("poisson", 6, 4, "tet4", 34, "assembled"): "526c38d42bbd",
    ("poisson", 3, 2, "tet4", 1, "hymv"): "d84ec717e3b0",
    ("poisson", 4, 2, "tet4", 2, "hymv"): "7907eec5c602",
    ("graphlap", 4, 2, "tet4", 2, "sellcs"): "6e9c91076f44",
}


def _suite_keys():
    from repro.adapt.harness import suite_scenarios
    from repro.serve.loadgen import suite_workloads
    from repro.serve.shardload import shard_suite_workloads

    keys = set()
    for smoke in (True, False):
        for w in suite_workloads(1234, smoke) + shard_suite_workloads(
            1234, smoke
        ):
            keys.update(w.keys)
        for sc in suite_scenarios(smoke):
            for method in (sc.method, "assembled"):
                keys.add(ProblemKey(
                    problem="poisson", nel=sc.nel, n_parts=sc.n_parts,
                    etype="tet4", seed=1234 % 100, method=method,
                ))
    return keys


def test_fingerprints_pinned():
    keys = {
        (k.problem, k.nel, k.n_parts, k.etype, k.seed, k.method): k
        for k in _suite_keys()
    }
    assert set(keys) <= set(PINNED_FINGERPRINTS)
    for fields, fp in PINNED_FINGERPRINTS.items():
        key = keys.get(fields, ProblemKey(*fields))
        assert key.fingerprint() == fp, fields


def test_layout_changes_fingerprint():
    key = ProblemKey("graphlap", 4, 2, "tet4", 2, "sellcs")
    default = ExecutionPlan().bind(key)
    tuned = ExecutionPlan(sell_c=8).bind(key)
    assert default is key
    assert tuned.sell == (8, 64)
    assert tuned.fingerprint() != key.fingerprint()
    assert ExecutionPlan(sell_c=8, sell_sigma=8).bind(key).fingerprint() \
        != tuned.fingerprint()
    # a hymv key carries no layout, whatever the plan
    hymv = dataclasses.replace(key, method="hymv")
    assert ExecutionPlan(sell_c=8).bind(hymv) is hymv


def test_two_layouts_serve_one_key_side_by_side():
    """Two services in one process — tuned ``sell_c=8`` and the default
    plan — serve the same sellcs key.  Each builds its own layout, the
    oracle answers are bitwise equal (SELL is bitwise-equal to CSR at
    any layout), and no cache ever hands out the other layout's
    context, including one cache shared by both services."""
    key = ProblemKey("graphlap", 4, 2, "tet4", 2, "sellcs")
    plans = (ExecutionPlan(mode="oracle", sell_c=8),
             ExecutionPlan(mode="oracle"))

    def serve(svc):
        for i in range(3):
            assert svc.submit(ServeRequest(
                rid=i, key=key, kind="spmv", seed=100 + i, arrival=0.0,
                deadline=1e9,
            ))
        out = svc.dispatch(now=0.0)
        assert [c.status for c in out.completions] == ["ok"] * 3
        return np.column_stack([c.value for c in out.completions])

    shared = OperatorCache(capacity=4, obs=Instrumentation(rank=-1))
    for caches in (
        [OperatorCache(capacity=4, obs=Instrumentation(rank=-1))
         for _ in plans],
        [shared, shared],
    ):
        svcs = [SolverService(c, plan=p) for c, p in zip(caches, plans)]
        Y = [serve(s) for s in svcs]
        assert np.array_equal(Y[0], Y[1])
        ctxs = [c.peek(p.bind(key)) for c, p in zip(caches, plans)]
        assert ctxs[0] is not ctxs[1]
        for ctx, (C, sigma) in zip(ctxs, ((8, 64), (32, 256))):
            for st in ctx.ranks:
                assert (st["A"].C, st["A"].sigma) == (C, sigma)
    assert len(shared) == 2


# ----------------------------------------------------------------------
# the harnesses apply exactly the plan
# ----------------------------------------------------------------------


def test_shard_suite_routes_by_plan_crossover():
    from repro.serve.shardload import run_shard_suite

    # the catalog's nel=3 poisson keys (64 dofs) route to SELL-C-sigma,
    # the larger ones stay on HYMV
    plan = ExecutionPlan(backend="auto", sellcs_crossover_dofs=100, sell_c=8)
    doc, _ = run_shard_suite(seed=1234, smoke=True, verbose=False, plan=plan)
    for sc in doc["scenarios"]:
        assert sc["requests"]["wrong_answers"] == 0, sc["scenario"]
        assert sc["counters"].get("serve.backend.sellcs", 0) > 0
        assert sc["counters"].get("serve.backend.hymv", 0) > 0
        assert sc["workload"]["k_min"] is None
    kill = [s for s in doc["scenarios"] if s["scenario"] == "shard-kill"][0]
    assert kill["workload"]["mode"] == "oracle"
