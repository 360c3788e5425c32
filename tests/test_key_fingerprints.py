"""The pinned key fingerprints every baseline and shard placement
depend on."""

from __future__ import annotations

from repro.serve.cache import ProblemKey

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

    keys = set()
    for smoke in (True, False):
        for suite in ("serve", "shard"):
            for w in suite_workloads(suite, 1234, smoke):
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
