"""ExecutionPlan: validation, the tuned-config loader, and the pinned
key fingerprints every baseline and shard placement depend on."""

from __future__ import annotations

import json

import pytest

from repro.obs.schema import TUNE_CONFIG_SCHEMA
from repro.serve.cache import ProblemKey
from repro.serve.plan import ExecutionPlan, PlanError, load_tuned_config

# ----------------------------------------------------------------------
# validation
# ----------------------------------------------------------------------


_RETIRED = ("backend", "sellcs_crossover_dofs", "sell_c", "sell_sigma")


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
    # the retired SELL router's fields are no plan fields at all
    error = TypeError if field in _RETIRED else PlanError
    with pytest.raises(error):
        ExecutionPlan(**{field: value})


# ----------------------------------------------------------------------
# the one loader
# ----------------------------------------------------------------------

_WINNER = {"gemm_k_min": 4}
_WINNER_PLAN = ExecutionPlan(k_min=4)


@pytest.mark.parametrize("content,expected", [
    pytest.param(
        {"schema": TUNE_CONFIG_SCHEMA, "config": _WINNER},
        _WINNER_PLAN, id="tune-config",
    ),
    # a search report is no plan: only the measured crossovers are
    pytest.param(
        {"schema": "repro.tune/1", "winner": {"config": _WINNER}},
        PlanError, id="tune-report",
    ),
    # keys a retired backend router wrote are an error, not a silent
    # reroute
    pytest.param(
        {"schema": TUNE_CONFIG_SCHEMA, "config": {"sellcs_crossover_dofs": 0}},
        "sellcs_crossover_dofs", id="zero-crossover",
    ),
    pytest.param(
        {"schema": TUNE_CONFIG_SCHEMA,
         "config": {"gemm_k_min": 2, "sell_c": 8}},
        "sell_c", id="sell-c",
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
        "sell_c, sell_sigma_factor", id="sigma-out-of-range",
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
    elif isinstance(expected, str):  # a rejected key, named in the error
        with pytest.raises(PlanError, match=expected):
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
# key identity
# ----------------------------------------------------------------------

#: fingerprints recorded before keys could carry a layout: every key of
#: the serve, shard and adapt suites (smoke and full), two small poisson
#: tet4 keys, plus a default-layout sellcs key.  Shard placement and every checked-in
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
