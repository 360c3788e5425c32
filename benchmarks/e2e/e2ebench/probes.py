"""Layer probes of the ``--trace`` pass.

Where a seam wrapper cannot reach — work done inside rank threads, or a
stage that only runs as part of a longer call — the benchmark times the
layer's public functions itself:

* **rank programs** run through ``ctx.sim.run(...)`` over ``ctx.ranks``,
  so the stage runs where it runs inside an SPMV — with more than one
  rank, on all rank threads at the same moment (a barrier precedes every
  repetition), contending for memory bandwidth as they do there; a
  repetition's time is the slowest rank's;
* **direct calls** on workload-shaped arrays, on the main thread.

All times are the fastest repetition (the quiet time of the stage, as in
:func:`e2ebench.protocol.quiet_replay`); every first repetition is a
warm-up and dropped.  Byte and flop figures are *computed* from array
shapes (they ignore cache misses), never read from hardware counters.
"""

from __future__ import annotations

import gc
import time
from dataclasses import replace

import numpy as np

from repro.adapt import MeshDelta, apply_delta_to_spec, localize_delta
from repro.baselines.assembled import AssembledOperator
from repro.core.hymv import HymvOperator
from repro.core.kernels import (
    EmvWorkspace,
    emv_columns,
    emv_einsum,
    gather_element_vectors,
)
from repro.core.segment import SegmentScatter
from repro.core.sellcs import SellWorkspace, build_sellcs, sell_spmm, sell_spmv
from repro.partition.interface import build_partition
from repro.serve import SolverContext
from repro.simmpi import Simulator
from repro.solvers.cg import cg_multi
from repro.solvers.preconditioners import JacobiPreconditioner

__all__ = [
    "main_reps",
    "setup_probes",
    "apply_probes",
    "comm_probes",
    "cg_overhead_ms",
    "machine_probes",
    "sellcs_probes",
    "assembled_probes",
    "adapt_probes",
]


def _reps(comm, fn, reps: int) -> list[float]:
    """Per-repetition seconds of ``fn`` on this rank; ranks start every
    repetition together, the first one is a dropped warm-up."""
    out = []
    for _ in range(reps + 1):
        comm.barrier()
        t0 = time.perf_counter()
        fn()
        out.append(time.perf_counter() - t0)
    return out[1:]


def main_reps(fn, reps: int) -> list[float]:
    out = []
    for _ in range(reps + 1):
        t0 = time.perf_counter()
        fn()
        out.append(time.perf_counter() - t0)
    return out[1:]


def _slowest_rank(per_rank: list[dict]) -> dict[str, float]:
    """Quiet repetition of the slowest rank's time, per stage."""
    return {
        stage: min([max(ts) for ts in zip(*(r[stage] for r in per_rank))])
        for stage in per_rank[0]
    }


def _run(ctx: SolverContext, program, *extra, **kwargs) -> list:
    """``program(comm, rank_state, *extra[r], **kwargs)`` on every rank."""
    return ctx.sim.run(
        program,
        rank_args=[
            (st, *[e[r] for e in extra]) for r, st in enumerate(ctx.ranks)
        ],
        **kwargs,
    )


# ----------------------------------------------------------------------
# set-up
# ----------------------------------------------------------------------


def _setup_program(comm, st, spec, kernel, reps):
    lmesh, op = st["lmesh"], spec.operator

    def ctor():
        HymvOperator(comm, lmesh, op, kernel=kernel)

    return {
        "ke": _reps(
            comm, lambda: op.element_matrices(lmesh.coords, lmesh.etype), reps
        ),
        "ctor": _reps(comm, ctor, reps),
    }


def setup_probes(ctx: SolverContext, reps: int) -> dict[str, float]:
    """Where a cold build spends its time, for the context's base key."""
    key = replace(ctx.key, deltas=())
    spec = None

    def build_spec():
        nonlocal spec
        spec = key.build_spec()

    spec_s = min(main_reps(build_spec, reps))
    method = "slab" if spec.mesh.etype.is_hex else "graph"
    part_s = min(
        main_reps(lambda: build_partition(spec.mesh, key.n_parts, method), reps)
    )
    ranks = _run(ctx, _setup_program, spec=spec, kernel=key.kernel, reps=reps)
    stage = _slowest_rank(ranks)
    etype = spec.mesh.etype
    ke_flops = spec.mesh.n_elements * spec.operator.ke_flops(etype)
    return {
        "problems.build_spec_ms": 1e3 * spec_s,
        "partition.build_ms": 1e3 * part_s,
        "fem.element_matrices_ms": 1e3 * stage["ke"],
        "fem.ke_gflops": ke_flops / stage["ke"] / 1e9,
        "core.hymv.setup_ms": 1e3 * stage["ctor"],
    }


# ----------------------------------------------------------------------
# apply
# ----------------------------------------------------------------------


def _rank_block(st, k: int) -> np.ndarray:
    return np.random.default_rng(0).standard_normal((st["n_owned"], k))


def _apply_program(comm, st, modes, reps):
    A = st["A"]
    out = {}
    for name, (k, mode, n) in modes.items():
        X = _rank_block(st, k)
        out[name] = _reps(comm, lambda: A.apply_owned_multi(X, mode=mode), n)
    return out


def _kernel_program(comm, st, reps):
    """The stages of one HYMV sweep over the whole local element batch,
    on bench-owned scratch of the operator's shapes."""
    A = st["A"]
    idx = A.e2l_dofs
    E, nd = idx.shape
    ws = EmvWorkspace(E, nd)
    ue, ve = ws.views(E)
    seg = SegmentScatter(idx)
    u, v = A.new_array(), A.new_array()
    u.data[:] = np.random.default_rng(0).standard_normal(u.data.shape)
    uf, vf = u.data.reshape(-1), v.data.reshape(-1)
    kcol = np.ascontiguousarray(A.ke.transpose(2, 0, 1))

    def halo():
        A.halo.scatter(comm, u.data)
        A.halo.gather(comm, v.data)

    return {
        "gather": _reps(
            comm, lambda: gather_element_vectors(uf, idx, out=ue), reps
        ),
        "emv": _reps(comm, lambda: emv_einsum(A.ke, ue, out=ve), reps),
        "columns": _reps(
            comm,
            lambda: emv_columns(A.ke, ue, out=ve, tmp=ws.tmp, columns=kcol),
            reps,
        ),
        "scatter": _reps(comm, lambda: seg.add_into(vf, ve), reps),
        "halo": _reps(comm, halo, reps),
        "emv_bytes": A.ke.nbytes + ue.nbytes + ve.nbytes,
        "emv_flops": E * A.operator.emv_flops(A.etype),
        "halo_bytes": 2 * A.cmaps.send_volume(A.ndpn),
    }


def apply_probes(ctx: SolverContext, reps: int) -> dict[str, float]:
    """Stage times of the HYMV apply on the context's own operator."""
    modes = {
        "k1": (1, "auto", 2 * reps),
        "k8": (8, "auto", reps),
        "k8_oracle": (8, "oracle", reps),
        "k32": (32, "auto", max(2, reps // 2)),
    }
    applied = _slowest_rank(_run(ctx, _apply_program, modes=modes, reps=reps))
    X = np.random.default_rng(0).standard_normal((ctx.n_dofs, 1))
    whole = min(main_reps(lambda: ctx.apply_multi(X, mode="auto"), 2 * reps))
    ranks = _run(ctx, _kernel_program, reps=reps)
    totals = {
        name: sum(r.pop(name) for r in ranks)
        for name in ("emv_bytes", "emv_flops", "halo_bytes")
    }
    stage = _slowest_rank(ranks)
    return {
        # the same k=1 product through ``SolverContext`` and ``Simulator.run``
        "apply_multi_k1_ms": 1e3 * whole,
        "core.hymv.apply_owned_ms": 1e3 * applied["k1"],
        "core.hymv.apply_k8_ms": 1e3 * applied["k8"],
        "core.hymv.apply_k8_oracle_ms": 1e3 * applied["k8_oracle"],
        "core.hymv.apply_k32_ms": 1e3 * applied["k32"],
        "core.kernels.gather_ms": 1e3 * stage["gather"],
        "core.kernels.emv_ms": 1e3 * stage["emv"],
        "core.kernels.emv_columns_ms": 1e3 * stage["columns"],
        "core.kernels.emv_gflops": totals["emv_flops"] / stage["emv"] / 1e9,
        "core.kernels.emv_gbs": totals["emv_bytes"] / stage["emv"] / 1e9,
        "core.segment.scatter_ms": 1e3 * stage["scatter"],
        "core.scatter.halo_ms": 1e3 * stage["halo"],
        "core.scatter.halo_bytes": float(totals["halo_bytes"]),
    }


# ----------------------------------------------------------------------
# simulated MPI and the CG skeleton
# ----------------------------------------------------------------------


def _noop_program(comm):
    return None


def _comm_program(comm, reps):
    payload = np.zeros(16)
    peer = 1 - comm.rank

    def pingpong():
        if comm.rank == 0:
            comm.send(payload, peer)
            comm.recv(peer)
        else:
            comm.recv(peer)
            comm.send(payload, peer)

    return {
        "allreduce": _reps(comm, lambda: comm.allreduce(payload), reps),
        "pingpong": _reps(comm, pingpong, reps),
    }


def comm_probes(reps: int) -> dict[str, float]:
    """Cost of the thread hand-offs simulated MPI is made of, on a 2-rank
    simulator of the probe's own: the workloads run on one rank, where
    ``Simulator.run`` starts no thread and nothing is exchanged."""
    sim = Simulator(2)
    noop = main_reps(lambda: sim.run(_noop_program), reps)
    stage = _slowest_rank(sim.run(_comm_program, reps=reps))
    return {
        "simmpi.run_noop_us": 1e6 * min(noop),
        "simmpi.allreduce_us": 1e6 * stage["allreduce"],
        "simmpi.p2p_us": 1e6 * stage["pingpong"] / 2,
    }


def _cg_program(comm, st, k, iters):
    n = st["n_owned"]
    d = np.linspace(1.0, 1e4, n)[:, None]
    B = _rank_block(st, k)
    M = JacobiPreconditioner(np.ones(n))
    comm.barrier()
    t0 = time.perf_counter()
    cg_multi(
        comm, lambda P: d * P, B, apply_M=M, rtol=0.0, maxiter=iters
    )
    return (time.perf_counter() - t0) / iters


def cg_overhead_ms(ctx: SolverContext, k: int, iters: int) -> float:
    """Per-iteration time of ``cg_multi`` with a diagonal ``apply_A`` of
    the workload's (n, k): vector ops, per-column dots and the two
    allreduces — everything in an iteration that is not the SPMV."""
    return 1e3 * max(_run(ctx, _cg_program, k=k, iters=iters))


# ----------------------------------------------------------------------
# machine: sustainable bandwidth, a second kernel shape
# ----------------------------------------------------------------------


def _machine_program(comm, st, n_triad, n_hex20, reps):
    rng = np.random.default_rng(comm.rank)
    a, b, c = np.empty(n_triad), rng.random(n_triad), rng.random(n_triad)

    def triad():
        np.multiply(c, 3.0, out=a)
        np.add(a, b, out=a)

    out = {"triad": _reps(comm, triad, reps)}
    del a, b, c
    # the 60x60 element matrices of a HEX20 elasticity operator
    ke = rng.random((n_hex20, 60, 60))
    ue, ve = rng.random((n_hex20, 60)), np.empty((n_hex20, 60))
    out["hex20"] = _reps(comm, lambda: emv_einsum(ke, ue, out=ve), reps)
    out["hex20_bytes"] = ke.nbytes + ue.nbytes + ve.nbytes
    return out


def machine_probes(ctx: SolverContext, reps: int, smoke: bool) -> dict[str, float]:
    """Triad bandwidth measured in this very run, by as many threads as
    the operator has ranks — the ceiling ``core.kernels.emv_bw_frac`` is
    stated against — and the EMV kernel on the 3,456 x 60 x 60 elastic
    shape.

    The triad is numpy's two-pass form (``a = 3 c``; ``a += b``): five
    array passes of 8 bytes per element, 32 MB per array and rank, eight
    times the 4 MiB of L2 a core owns.
    """
    n_triad = 1 << (16 if smoke else 22)
    n_hex20 = (64 if smoke else 3456) // len(ctx.ranks)
    ranks = _run(
        ctx, _machine_program, n_triad=n_triad, n_hex20=n_hex20, reps=reps
    )
    hex20_bytes = sum(r.pop("hex20_bytes") for r in ranks)
    stage = _slowest_rank(ranks)
    gc.collect()
    return {
        "env.triad_gbs": len(ranks) * 5 * 8 * n_triad / stage["triad"] / 1e9,
        "core.kernels.emv_hex20_gbs": hex20_bytes / stage["hex20"] / 1e9,
    }


# ----------------------------------------------------------------------
# the other operator kinds of serve-mixed
# ----------------------------------------------------------------------


def _sellcs_program(comm, st, reps):
    A = st["A"]
    S = A.S_diag
    ws1, ws8 = SellWorkspace(S, 1), SellWorkspace(S, 8)
    x = np.random.default_rng(0).standard_normal((S.n_cols, 8))
    x1 = np.ascontiguousarray(x[:, 0])
    return {
        "build": _reps(comm, lambda: build_sellcs(A.A_diag, A.C, A.sigma), reps),
        "spmv": _reps(comm, lambda: sell_spmv(S, x1, ws1), reps),
        "spmm": _reps(comm, lambda: sell_spmm(S, x, ws8), reps),
        "occupancy": A.occupancy,
    }


def sellcs_probes(ctx: SolverContext, reps: int) -> dict[str, float]:
    ranks = _run(ctx, _sellcs_program, reps=reps)
    occupancy = float(np.mean([r.pop("occupancy") for r in ranks]))
    stage = _slowest_rank(ranks)
    return {
        "core.sellcs.build_ms": 1e3 * stage["build"],
        "core.sellcs.spmv_ms": 1e3 * stage["spmv"],
        "core.sellcs.spmm_k8_ms": 1e3 * stage["spmm"],
        "core.sellcs.occupancy": occupancy,
    }


def _assembled_program(comm, st, spec, reps):
    A, lmesh = st["A"], st["lmesh"]
    x = _rank_block(st, 1)[:, 0]
    return {
        "setup": _reps(
            comm, lambda: AssembledOperator(comm, lmesh, spec.operator), reps
        ),
        "apply": _reps(comm, lambda: A.apply_owned(x), reps),
    }


def assembled_probes(ctx: SolverContext, reps: int) -> dict[str, float]:
    stage = _slowest_rank(_run(ctx, _assembled_program, spec=ctx.spec, reps=reps))
    return {
        "baselines.assembled.setup_ms": 1e3 * stage["setup"],
        "baselines.assembled.apply_ms": 1e3 * stage["apply"],
    }


# ----------------------------------------------------------------------
# adapt
# ----------------------------------------------------------------------


def _update_program(comm, st, od, reps):
    A = st["A"]
    return {
        "update": _reps(
            comm,
            lambda: A.update_elements(od.local_elems, stiffness_scale=od.scale),
            reps,
        )
    }


def adapt_probes(base_key, deltas, reps: int) -> dict[str, float]:
    """The stages of one ``cache.update`` on a bench-owned context built
    from ``base_key``, plus one over-threshold delta through the
    full-rebuild path."""
    delta = deltas[0]
    history = replace(base_key, deltas=tuple(deltas[i % len(deltas)]
                                             for i in range(128)))
    ctx = SolverContext(base_key)
    spec = ctx.spec
    localized = []

    def localize():
        localized[:] = [localize_delta(spec, delta)]

    out = {
        "serve.cache.key_fingerprint_h128_us": 1e6 * min(
            main_reps(history.fingerprint, reps)
        ),
        "adapt.fingerprint_us": 1e6 * min(main_reps(delta.fingerprint, reps)),
        "adapt.apply_delta_to_spec_ms": 1e3 * min(
            main_reps(lambda: apply_delta_to_spec(spec, delta), reps)
        ),
        "adapt.localize_delta_ms": 1e3 * min(main_reps(localize, reps)),
    }
    _, ods = localized[0]
    stage = _slowest_rank(_run(ctx, _update_program, ods, reps=reps))
    out["core.hymv.update_elements_ms"] = 1e3 * stage["update"]
    # 12 % of the elements: over the 10 % patch threshold
    n_big = spec.mesh.n_elements * 12 // 100 + 1
    big = MeshDelta(
        scale_elements=np.arange(n_big), scale_values=np.full(n_big, 0.5)
    )
    t0 = time.perf_counter()
    info = ctx.apply_delta(big)
    out["adapt.rebuild_ms"] = 1e3 * (time.perf_counter() - t0)
    if info["path"] != "full_rebuild":
        raise RuntimeError(f"over-threshold delta took path {info['path']!r}")
    return out
