"""Cost shape of an in-place delta patch: the work follows the touched
elements, not the mesh size or the length of the key's delta history.

The Dirichlet machinery (``A u0``, the Jacobi diagonal) is refreshed by
the next solve rather than by the patch, fingerprints are computed once
per frozen delta/key, and localisation reads a per-partition index
instead of scanning the mesh.  Wall-clock checks take the best of many
interleaved repetitions, so host drift hits both sides alike.
"""

from __future__ import annotations

import time
import types
from dataclasses import replace

import numpy as np

import repro.adapt.delta as delta_mod
import repro.serve.cache as cache_mod
from repro.adapt import CrackFront, MeshDelta
from repro.serve.cache import OperatorCache, ProblemKey, SolverContext


def _spy(calls, name, fn):
    def wrapped(*args, **kwargs):
        calls.append(name)
        return fn(*args, **kwargs)

    return wrapped


def test_scale_patch_defers_dirichlet_refresh_to_next_solve(monkeypatch):
    ctx = SolverContext(ProblemKey(nel=4, n_parts=2, etype="tet4", seed=3))
    calls: list[str] = []
    monkeypatch.setattr(
        cache_mod, "_dirichlet_state",
        _spy(calls, "state", cache_mod._dirichlet_state),
    )
    for st in ctx.ranks:
        A = st["A"]
        for name in ("apply_owned", "diagonal_owned"):
            monkeypatch.setattr(A, name, _spy(calls, name, getattr(A, name)))
    info = ctx.apply_delta(CrackFront().scale_delta(ctx.spec.mesh, 0, 8))
    assert info["path"] == "patch" and info["touched"] > 0
    assert calls == []  # no SPMV, no diagonal, no Dirichlet rebuild
    F = np.ones((ctx.n_dofs, 1))
    ctx.apply_multi(F)  # products never need the Dirichlet state
    assert "state" not in calls
    ctx.solve_multi(F, rtol=1e-8)
    assert calls.count("state") == ctx.n_parts  # the solve refreshes
    ctx.solve_multi(F, rtol=1e-8)
    assert calls.count("state") == ctx.n_parts  # ... once per patch


def test_each_delta_and_key_is_hashed_once(monkeypatch):
    hashed: list[str] = []
    for mod, name in ((delta_mod, "delta"), (cache_mod, "key")):
        monkeypatch.setattr(mod, "hashlib", types.SimpleNamespace(
            sha1=_spy(hashed, name, mod.hashlib.sha1)
        ))
    d = MeshDelta(scale_elements=[3, 1], scale_values=[0.5, 0.25])
    keys = [ProblemKey(nel=n).with_delta(d) for n in (2, 3, 4)]
    keys.append(keys[0].with_delta(d))
    for _ in range(3):
        for k in keys:
            k.fingerprint()
            hash(k)
        hash(d)
    assert len({k.fingerprint() for k in keys}) == len(keys)
    assert hashed.count("delta") == 1
    # one sha1 per base key: a derived key extends a copy of its
    # parent's prefix state instead of rehashing the history
    assert hashed.count("key") == 3


def _best_update_s(envs, deltas, reps):
    """Best-of-``reps`` wall time of ``cache.update`` per ``[cache, key]``
    env, interleaved across envs; every update must take the patch path."""
    best = [float("inf")] * len(envs)
    for i in range(reps):
        for j, env in enumerate(envs):
            t0 = time.perf_counter()
            env[1], info = env[0].update(env[1], deltas[i % len(deltas)])
            best[j] = min(best[j], time.perf_counter() - t0)
            assert info["path"] == "patch"
    return best


def _env(key):
    cache = OperatorCache()
    cache.get(key)
    return [cache, key]


def test_update_time_is_independent_of_key_history():
    key = ProblemKey("poisson", 8, 1, "hex8", 0, "hymv", "einsum")
    mesh = key.build_spec().mesh
    deltas = [
        CrackFront(soft_scale=s).scale_delta(mesh, step, 8)
        for s in (0.05, 1.0)
        for step in range(8)
    ]
    envs = [
        _env(replace(key, deltas=tuple(
            deltas[i % len(deltas)] for i in range(h)
        )))
        for h in (1, 512)
    ]
    short, long = _best_update_s(envs, deltas, 48)
    assert long < 1.2 * short, (short, long)


def test_update_time_is_independent_of_mesh_size():
    deltas = [
        MeshDelta(scale_elements=3 * np.arange(128),
                  scale_values=np.full(128, s))
        for s in (0.5, 1.0)
    ]
    envs = [
        _env(ProblemKey("poisson", nel, 1, "hex8", 0, "hymv", "einsum"))
        for nel in (16, 32)
    ]
    small, big = _best_update_s(envs, deltas, 30)
    assert big < 1.3 * small, (small, big)
