"""Operator cache: warm solver contexts keyed by a problem fingerprint.

A :class:`SolverContext` is the expensive thing the service amortizes: a
persistent :class:`~repro.simmpi.engine.Simulator` whose ranks hold a
fully set-up operator (element matrices computed and stored — the paper's
one-time setup cost), the Dirichlet machinery (constrained rows,
prescribed values, precomputed ``A u0``) and a Jacobi preconditioner.
Requests then execute as multi-RHS products/solves against the warm
context; only a cache miss pays setup again.

:class:`OperatorCache` is a bounded LRU over contexts, with hit/miss/
eviction counters reported through :mod:`repro.obs`.

Contexts run in modeled virtual time (``compute_scale=0`` plus a fixed
modeled EMV rate), so every latency the serve harness reports is a
deterministic function of the code path and the network model — identical
on a laptop and a CI runner, which is what makes the checked-in serve
baseline comparable across machines.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.core.operator import owned_ranges
from repro.faults.plan import FaultPlan
from repro.kinds import MODELED_RATE_GFLOPS, OPERATOR_KINDS, make_operator
from repro.obs.instrumentation import Instrumentation
from repro.simmpi.engine import Simulator
from repro.simmpi.network import NetworkModel
from repro.solvers.cg import ResilienceConfig, cg, cg_multi
from repro.solvers.constrained import owned_dirichlet
from repro.solvers.preconditioners import JacobiPreconditioner
from repro.util.arrays import WidestScratch

__all__ = ["ProblemKey", "SolverContext", "OperatorCache"]


@dataclass(frozen=True)
class ProblemKey:
    """Canonical identity of one servable operator.

    Two requests share a cached context iff their keys are equal; the
    :meth:`fingerprint` is the stable cache/string form of that identity.
    """

    problem: str = "poisson"  # "poisson" | "elastic" | "graphlap"
    nel: int = 4
    n_parts: int = 4
    etype: str = "tet4"
    seed: int = 0  # mesh jitter seed (tet meshes)
    method: str = "hymv"
    kernel: str = "einsum"
    #: applied :class:`~repro.adapt.delta.MeshDelta` history, in order —
    #: a delta-updated operator and one built fresh from the same key are
    #: the same servable identity (and bitwise the same operator)
    deltas: tuple = ()

    def _prefix(self):
        """sha1 state of the canonical prefix: the problem fields, then
        ``;deltas=`` and the comma-joined delta fingerprints.  Built once
        per key; :meth:`with_delta` hands the child a copy extended by
        one fingerprint, so re-keying never rehashes the history."""
        h = self.__dict__.get("_prefix_sha")
        if h is None:
            canon = (
                f"problem={self.problem};nel={self.nel};"
                f"n_parts={self.n_parts};etype={self.etype};"
                f"seed={self.seed};method={self.method};kernel={self.kernel}"
            )
            if self.deltas:
                canon += ";deltas=" + ",".join(
                    d.fingerprint() for d in self.deltas
                )
            h = hashlib.sha1(canon.encode())
            object.__setattr__(self, "_prefix_sha", h)
        return h

    def fingerprint(self) -> str:
        """Stable short hash of the canonical field tuple (the delta
        history joins only when set, so delta-free keys keep their hash).
        Computed once per key: the key is frozen, and so are its deltas."""
        fp = self.__dict__.get("_fingerprint")
        if fp is not None:
            return fp
        fp = self._prefix().hexdigest()[:12]
        object.__setattr__(self, "_fingerprint", fp)
        return fp

    def n_dofs_estimate(self) -> int:
        """Cheap closed-form dof count of the key's problem (no mesh
        build), for sizing workloads before any operator exists.  Exact
        for the structured box meshes all three problem kinds use:
        ``(nel + 1)`` grid nodes per axis (the bar is ``2 nel`` elements
        tall), times dofs per node."""
        n = self.nel + 1
        if self.problem == "elastic":
            return n * n * (2 * self.nel + 1) * 3
        return n * n * n

    def with_delta(self, delta) -> "ProblemKey":
        """The key of this operator after one more applied delta."""
        from dataclasses import replace

        child = replace(self, deltas=self.deltas + (delta,))
        h = self._prefix().copy()
        sep = "," if self.deltas else ";deltas="
        h.update((sep + delta.fingerprint()).encode())
        object.__setattr__(child, "_prefix_sha", h)
        return child

    def build_spec(self):
        """Materialize the :class:`~repro.problems.ProblemSpec`, replaying
        the delta history so a fresh build lands on the post-update mesh.
        An unknown ``problem`` or ``etype`` raises :class:`ValueError`."""
        from repro.mesh.element import ElementType
        from repro.problems import (
            elastic_bar_problem,
            graph_laplacian_problem,
            poisson_problem,
        )

        try:
            etype = ElementType[self.etype.upper()]
        except KeyError:
            raise ValueError(
                f"unknown etype {self.etype!r}; known: "
                f"{sorted(e.value for e in ElementType)}"
            ) from None
        if self.problem == "poisson":
            spec = poisson_problem(
                self.nel, n_parts=self.n_parts, etype=etype, seed=self.seed
            )
        elif self.problem == "elastic":
            spec = elastic_bar_problem(
                (self.nel, self.nel, 2 * self.nel),
                n_parts=self.n_parts,
                etype=etype,
            )
        elif self.problem == "graphlap":
            spec = graph_laplacian_problem(
                self.nel, n_parts=self.n_parts, etype=etype, seed=self.seed
            )
        else:
            raise ValueError(f"unknown problem {self.problem!r}")
        if self.deltas:
            from repro.adapt.apply import apply_delta_to_spec

            for d in self.deltas:
                spec, _ = apply_delta_to_spec(spec, d)
        return spec


def _dirichlet_state(comm, A, maps, lmesh, spec) -> dict:
    """Dirichlet machinery derived from the (current) operator: the
    constrained owned dof rows (one sorted int index array every
    projection reads), prescribed values, precomputed ``A u0`` and Jacobi
    preconditioner.  Shared by setup and the first solve after an
    in-place delta patch (:func:`_refresh_dirichlet`) so both paths hold
    bitwise-identical state for the same operator."""
    mask, u0 = owned_dirichlet(spec, lmesh, maps)
    rows = np.flatnonzero(mask)
    Au0 = A.apply_owned(u0)
    d = A.diagonal_owned()
    d[rows] = 1.0
    return {
        "rows": rows,
        # :func:`_hat_multi`'s (n_rows, k) scratch for the constrained rows
        "hat_held": WidestScratch(
            (rows.size,),
            lambda bufs, k: (bufs[0][: rows.size * k].reshape(rows.size, k),),
        ),
        "u0": u0,
        "Au0": Au0,
        "M": JacobiPreconditioner(d),
        "n_owned": u0.size,
    }


def _setup_program(comm, lmesh, spec, method, kernel, modeled_rate,
                   ke_cache=None):
    """Per-rank setup: operator + Dirichlet machinery + preconditioner.
    An unknown ``method`` raises :class:`ValueError`."""
    ranges = owned_ranges(comm, lmesh)
    scale = None if spec.elem_scale is None else spec.elem_scale[lmesh.elements]
    A = make_operator(
        method, comm, lmesh, spec.operator, ranges, kernel=kernel,
        modeled_rate=modeled_rate, ke_cache=ke_cache, elem_scale=scale,
    )
    maps, _ = A.element_maps()
    st = {"A": A, "lmesh": lmesh, "maps": maps}
    st.update(_dirichlet_state(comm, A, maps, lmesh, spec))
    return st


def _update_program(comm, st, od, model, spec, ke_flops, rate):
    """Per-rank in-place delta patch: update the touched element batch,
    advance the modeled time of the element work it ran (``model`` of
    the integrations and rescales the operator counted), and mark the
    Dirichlet machinery stale against ``spec`` (refreshed by the next
    solve, not here)."""
    obs = comm.obs
    ran = obs.counter("update.ke_recomputed"), obs.counter("update.ke_rescaled")
    st["A"].update_elements(
        od.local_elems, coords=od.coords, stiffness_scale=od.scale
    )
    n_model = model(obs.counter("update.ke_recomputed") - ran[0],
                    obs.counter("update.ke_rescaled") - ran[1])
    if rate and n_model:
        comm.advance(n_model * ke_flops / (rate * 1e9), "update.modeled")
    st["stale_spec"] = spec


def _refresh_dirichlet(comm, st) -> None:
    """Recompute the Dirichlet machinery a patch left stale, with the
    same :func:`_dirichlet_state` setup runs — bitwise what an eager
    refresh would have stored.  Collective: a patch marks every rank."""
    spec = st.pop("stale_spec", None)
    if spec is not None:
        st.update(_dirichlet_state(comm, st["A"], st["maps"], st["lmesh"],
                                   spec))


def _rebuild_advance_program(comm, st, n_model, ke_flops, rate):
    """Modeled element-recompute cost of a full rebuild (setup compute is
    measured at ``compute_scale=0`` inside the setup program, so the
    element-matrix work is modeled explicitly, net of ke-cache hits)."""
    if rate and n_model > 0:
        comm.advance(n_model * ke_flops / (rate * 1e9), "update.modeled")


def _hat_multi(st, X, mode="auto"):
    """Dirichlet-projected multi-RHS operator; under the resolved oracle
    mode column-bitwise identical to
    :func:`repro.solvers.constrained.dirichlet_system`'s ``apply_hat``.

    ``X`` is written straight into the operator's work multivector, the
    constrained rows zeroed there, and the result is a view of its work
    product with those rows overwritten by ``X``'s — no block copy, and
    the result is overwritten by the operator's next work product of
    *any* width
    (:meth:`~repro.core.operator.DistributedOperator.work_multivectors`)."""
    A, rows = st["A"], st["rows"]
    k = X.shape[1]
    U, V = A.work_multivectors(k)
    (held,) = st["hat_held"].get(k) or st["hat_held"](k)
    Xc, Y = U.owned_matrix, V.owned_matrix
    Xc[...] = X  # C-contiguous, so take() gathers unbuffered
    np.take(Xc, rows, axis=0, out=held, mode="clip")
    Xc[rows] = 0.0
    A.spmv_multi(U, V, mode=mode)
    Y[rows] = held
    return Y


def _apply_program(comm, st, Xr, mode="auto"):
    # a work-block view: the caller's cross-rank stack is the one copy
    return st["A"].apply_owned_multi(Xr, copy=False, mode=mode)


def _rhs_hat(st, Fr):
    """The Dirichlet system's right-hand sides ``b_hat`` of a block."""
    B_hat = Fr - st["Au0"][:, None]
    B_hat[st["rows"]] = st["u0"][st["rows"], None]
    return B_hat


def _solve_program(comm, st, Fr, rtol, maxiter, degraded, mode="auto"):
    _refresh_dirichlet(comm, st)
    B_hat = _rhs_hat(st, Fr)
    if degraded:
        # fault-aware degradation: per-column resilient CG (breakdown
        # detection + restart) instead of the lock-step batch
        def apply_hat(x):
            return _hat_multi(st, x[:, None], mode="oracle")[:, 0]

        res = [
            cg(comm, apply_hat, b_hat, apply_M=st["M"], rtol=rtol,
               maxiter=maxiter, resilience=ResilienceConfig())
            for b_hat in B_hat.T
        ]
    else:
        res = cg_multi(
            comm, lambda X: _hat_multi(st, X, mode=mode), B_hat,
            apply_M=st["M"], rtol=rtol, maxiter=maxiter,
        )
    return {
        "x": [r.x for r in res],  # columns; the caller stacks them once
        "iterations": [r.iterations for r in res],
        "converged": [r.converged for r in res],
        "restarts": [r.restarts for r in res],
    }


def _residual_program(comm, st, Fr, Xr):
    """Per-column local residual/rhs square sums of the Dirichlet system."""
    _refresh_dirichlet(comm, st)
    B_hat = _rhs_hat(st, Fr)
    R = _hat_multi(st, Xr) - B_hat
    return (
        np.einsum("ij,ij->j", R, R),
        np.einsum("ij,ij->j", B_hat, B_hat),
    )


class SolverContext:
    """One warm servable operator on a persistent simulated machine."""

    def __init__(
        self,
        key: ProblemKey,
        faults: FaultPlan | None = None,
        network: NetworkModel | None = None,
        modeled_rate_gflops: float | None = MODELED_RATE_GFLOPS,
        setup_attempts: int = 3,
    ):
        self.key = key
        self.spec = key.build_spec()
        self.n_parts = self.spec.n_parts
        self.n_dofs = self.spec.n_dofs
        self.faulted = faults is not None
        self.modeled_rate = modeled_rate_gflops
        #: number of deltas applied to this live context (in-place or by
        #: rebuild-on-the-same-simulator); the key's ``deltas`` history may
        #: be longer if the context was built fresh from a delta'd key
        self.delta_version = 0
        self.sim = Simulator(
            self.n_parts, network=network, compute_scale=0.0, faults=faults
        )
        part = self.spec.partition
        rank_args = [(part.local(r),) for r in range(self.n_parts)]
        # a fault plan may corrupt setup traffic; detected corruption
        # (checksum/ghost counters) triggers a clean re-setup on the same
        # simulator, so its per-rule budgets keep draining and the stored
        # context is never built from a corrupted exchange
        sig = 0.0
        for attempt in range(setup_attempts):
            self.ranks = self.sim.run(
                _setup_program,
                rank_args=rank_args,
                spec=self.spec,
                method=key.method,
                kernel=key.kernel,
                modeled_rate=modeled_rate_gflops,
            )
            now = self.fault_signal()
            if now == sig:
                break
            sig = now
        else:
            raise RuntimeError(
                f"operator setup stayed corrupted after {setup_attempts} "
                f"attempts (key {key.fingerprint()})"
            )
        counts = [st["n_owned"] for st in self.ranks]
        self._bounds = np.concatenate(([0], np.cumsum(counts)))
        self.build_vtime = self.sim.max_vtime

    # ------------------------------------------------------------------

    def fault_signal(self) -> float:
        """Total detected-corruption signal across ranks (monotonic)."""
        return sum(
            c.obs.counter("faults.checksum_fail")
            + c.obs.counter("spmv.ghost_nonfinite")
            for c in self.sim.comms
        )

    def counters(self) -> dict[str, float]:
        """Summed per-rank simulator counters (faults.*, spmv.*, ...)."""
        out: dict[str, float] = {}
        for c in self.sim.comms:
            for name, val in c.obs.counters.items():
                out[name] = out.get(name, 0) + val
        return out

    def _split(self, X: np.ndarray) -> list[np.ndarray]:
        if X.ndim != 2 or X.shape[0] != self.n_dofs:
            raise ValueError(
                f"expected ({self.n_dofs}, k) multivector, got {X.shape}"
            )
        b = self._bounds
        return [
            np.ascontiguousarray(X[b[r]: b[r + 1]], dtype=np.float64)
            for r in range(self.n_parts)
        ]

    def timed(self, fn, *args, **kw):
        """``(fn(*args, **kw), vtime)``: work on this context's simulator
        and the virtual time it takes on its own.  Every rank's clock
        starts the work at 0.0 and has its increment added back after,
        so ``vtime`` (the largest increment) depends on the work alone:
        a difference of absolute clocks would round differently once the
        clocks have moved on, and would carry over the ranks' skew from
        the previous run."""
        comms = self.sim.comms
        base = []
        for c in comms:
            base.append(c.vtime)
            c.vtime = 0.0
        try:
            out = fn(*args, **kw)
        finally:
            dt = 0.0
            for c, t in zip(comms, base):
                dt = max(dt, c.vtime)
                c.vtime += t
        return out, dt

    def _run(self, program, parts, extra=(), **kw):
        return self.timed(
            self.sim.run, program,
            rank_args=list(zip(self.ranks, parts, *extra)), **kw,
        )

    # ------------------------------------------------------------------

    def apply_multi(
        self, X: np.ndarray, mode: str = "auto"
    ) -> tuple[np.ndarray, float]:
        """One batched SPMV of the raw operator; returns ``(Y, vtime)``.

        ``mode`` selects the multi-RHS execution mode (see
        :mod:`repro.core.kernels`); the default ``"auto"`` keeps small
        batches on the bitwise per-column oracle.
        """
        res, dt = self._run(_apply_program, self._split(X), mode=mode)
        return np.concatenate(res), dt

    def solve_multi(
        self,
        F: np.ndarray,
        rtol: float,
        maxiter: int = 2000,
        degraded: bool = False,
        mode: str = "auto",
    ) -> tuple[dict, float]:
        """Batched Dirichlet-constrained CG solve; returns ``(out, vtime)``.

        ``out["x"]`` stacks the per-column solutions; ``degraded=True``
        switches to sequential single-RHS resilient CG over the
        oracle-mode operator (the fault-aware path — slower, never wrong;
        ``mode`` is then irrelevant): on a fault-free context its
        solutions and iteration counts are bitwise those of
        ``mode="oracle"``.
        """
        res, dt = self._run(
            _solve_program, self._split(F),
            rtol=rtol, maxiter=maxiter, degraded=degraded, mode=mode,
        )
        x = np.empty((self.n_dofs, F.shape[1]))
        b = self._bounds
        for r, part in enumerate(res):
            np.stack(part["x"], axis=1, out=x[b[r]: b[r + 1]])
        return {
            "x": x,
            "iterations": res[0]["iterations"],
            "converged": res[0]["converged"],
            "restarts": res[0]["restarts"],
        }, dt

    def residuals(self, F: np.ndarray, X: np.ndarray) -> np.ndarray:
        """Per-column relative residuals of the constrained system (used
        by the load harness's answer verification on a fault-free
        context)."""
        res, _ = self._run(
            _residual_program, self._split(F), extra=(self._split(X),),
        )
        r2 = np.sum([r[0] for r in res], axis=0)
        b2 = np.sum([r[1] for r in res], axis=0)
        return np.sqrt(r2 / np.where(b2 > 0, b2, 1.0))

    # -- incremental updates -------------------------------------------

    def apply_delta(self, delta, threshold: float = 0.10) -> dict:
        """Apply one :class:`~repro.adapt.delta.MeshDelta` to the warm
        context; returns an info dict (``path``, ``touched``,
        ``fraction``, ``vtime``, ...).

        Small non-structural deltas take the **patch** path: only the
        touched elements' matrices are refreshed in place
        (``update_elements``: a scale-only delta rescales a remembered
        unit-scale matrix, moved elements re-integrate; scatter
        structure and workspaces are kept) — the paper's
        adaptive-matrix claim as a serving operation.  The Dirichlet
        machinery (``A u0``, Jacobi diagonal) is only marked stale; the
        next solve or residual check refreshes it, so a stream of
        patches and products never pays that O(mesh) work.  Structural
        deltas, or deltas touching more than ``threshold`` of the
        elements, fall back to a **full_rebuild** on the same simulator,
        reusing unchanged element matrices as a ``ke_cache`` where the
        method supports it.  Either way the
        resulting operator is bitwise identical to one freshly built from
        ``key.with_delta(delta)``.
        """
        if self.faulted:
            raise RuntimeError(
                "apply_delta on a fault-injected context is not supported "
                "(corrupted update traffic cannot be re-verified in place)"
            )
        new_key = self.key.with_delta(delta)
        info, vtime = self.timed(self._update, delta, threshold)
        info["vtime"] = vtime
        self.key = new_key
        self.delta_version += 1
        return info

    def _update(self, delta, threshold: float) -> dict:
        """:meth:`apply_delta`'s patch or rebuild; returns its info."""
        from repro.adapt.apply import apply_delta_to_spec, localize_delta

        if delta.is_empty:
            info = {"path": "patch", "touched": 0, "fraction": 0.0}
        elif delta.is_structural:
            spec_new, ref = apply_delta_to_spec(self.spec, delta)
            info = self._rebuild(spec_new, ref=ref)
            info["touched"] = int(delta.refine_elements.size)
            info["fraction"] = (
                delta.refine_elements.size / self.spec.mesh.n_elements
            )
        else:
            spec, _ = apply_delta_to_spec(self.spec, delta)
            touched, ods = localize_delta(spec, delta)
            fraction = touched.size / spec.mesh.n_elements
            if fraction > threshold:
                info = self._rebuild(spec, exclude=touched)
            else:
                kf = spec.operator.ke_flops(spec.mesh.etype)
                self.sim.run(
                    _update_program,
                    rank_args=[
                        (self.ranks[r], ods[r]) for r in range(self.n_parts)
                    ],
                    model=self._model_count,
                    spec=spec,
                    ke_flops=kf,
                    rate=self.modeled_rate,
                )
                info = {"path": "patch"}
            info["touched"] = int(touched.size)
            info["fraction"] = float(fraction)
        return info

    def _model_count(self, integrated: int, rescaled: int = 0) -> float:
        """Element integrations one rank is charged for, in units of one
        integration (``ke_flops``): a patch charges what the operator
        ran — HYMV rescales a remembered matrix on a scale-only patch
        (one multiply per stored entry, ``nd² / ke_flops`` of an
        integration), the assembled baseline re-integrates the elements
        around the touched nodes, SELL-C-sigma every element — and a
        rebuild every element not carried over in a ``ke_cache``.
        A kind whose set-up integrates nothing (matrix-free) is charged
        nothing."""
        if not OPERATOR_KINDS[self.key.method].integrates:
            return 0
        op, etype = self.spec.operator, self.spec.mesh.etype
        nd = etype.n_nodes * op.ndpn
        return integrated + rescaled * nd * nd / op.ke_flops(etype)

    def _rebuild(self, spec_new, ref=None, exclude=None) -> dict:
        """Full re-setup on the same simulator, carrying unchanged
        element matrices over as a ``ke_cache`` (to the kinds that store
        and take them)."""
        method = self.key.method
        merged: dict = {}
        for st in self.ranks:
            merged.update(st["A"].export_ke_cache())
        if ref is not None:
            # refinement: an unchanged child is its ancestor, matrix and
            # all (scale history included — it was carried over by
            # elem_scale[ancestor])
            ke_cache = {
                int(e): merged[int(ref.ancestor[e])]
                for e in np.flatnonzero(ref.unchanged)
                if int(ref.ancestor[e]) in merged
            }
        else:
            drop = {int(g) for g in np.asarray(exclude).ravel()}
            ke_cache = {g: v for g, v in merged.items() if g not in drop}
        self.spec = spec_new
        self.n_dofs = spec_new.n_dofs
        part = spec_new.partition
        self.ranks = self.sim.run(
            _setup_program,
            rank_args=[(part.local(r),) for r in range(self.n_parts)],
            spec=spec_new,
            method=method,
            kernel=self.key.kernel,
            modeled_rate=self.modeled_rate,
            ke_cache=ke_cache,
        )
        counts = [st["n_owned"] for st in self.ranks]
        self._bounds = np.concatenate(([0], np.cumsum(counts)))
        hits = [st["A"].cache_hits for st in self.ranks]
        kf = spec_new.operator.ke_flops(spec_new.mesh.etype)
        self.sim.run(
            _rebuild_advance_program,
            rank_args=[
                (
                    self.ranks[r],
                    self._model_count(part.local(r).elements.size - hits[r]),
                )
                for r in range(self.n_parts)
            ],
            ke_flops=kf,
            rate=self.modeled_rate,
        )
        return {"path": "full_rebuild", "ke_cache_hits": int(sum(hits))}


class OperatorCache:
    """Bounded LRU cache of :class:`SolverContext` entries.

    Counters and busy virtual time cover the whole cache history: an
    evicted or invalidated context leaves its simulator counters and its
    final clock behind (not its simulator), so the sharded tier can
    account busy time per logical node.  ``on_invalidate`` is an
    optional hook fired after an explicit :meth:`invalidate` (not on LRU
    eviction — an evicted context was still *valid*); the shard tier uses
    it for cache-coherent invalidation of replicas.
    """

    def __init__(
        self,
        capacity: int = 4,
        obs: Instrumentation | None = None,
        faults: FaultPlan | None = None,
        network: NetworkModel | None = None,
        modeled_rate_gflops: float | None = MODELED_RATE_GFLOPS,
    ):
        if capacity < 1:
            raise ValueError(f"cache capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.obs = obs if obs is not None else Instrumentation(rank=-1)
        self.faults = faults
        self.network = network
        self.modeled_rate_gflops = modeled_rate_gflops
        #: post-invalidation hook ``(key) -> None`` (see class docstring)
        self.on_invalidate = None
        self._entries: OrderedDict[str, SolverContext] = OrderedDict()
        #: simulator counters of evicted/invalidated contexts, so scenario
        #: reports see the whole history, not just live entries
        self._retired: dict[str, float] = {}
        #: every context built, in build order: the live context, or its
        #: final clock once retired; ``_slots`` maps a live context's id
        #: to its place
        self._history: list[SolverContext | float] = []
        self._slots: dict[int, int] = {}
        #: per-tenant hit/miss accounting: tenant label -> [hits, misses].
        #: Unlike the per-context simulator counters (which are retired on
        #: eviction), hit/miss stats always lived only on ``self.obs`` with
        #: no tenant dimension; this map adds the labels the multi-tenant
        #: Zipf harness needs for per-tenant hit rates.
        self._tenants: dict[str, list[int]] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: ProblemKey) -> bool:
        return key.fingerprint() in self._entries

    def get(
        self, key: ProblemKey, tenants: Sequence[str] | None = None
    ) -> tuple[SolverContext, float]:
        """Warm context for ``key``; returns ``(ctx, build_vtime)`` where
        ``build_vtime`` is 0 on a hit (setup already amortized).

        ``tenants`` optionally attributes this lookup to tenant labels
        (one per batched request); each listed tenant's hit/miss counters
        move by one, feeding :meth:`tenant_stats`.
        """
        fp = key.fingerprint()
        ctx = self._entries.get(fp)
        if ctx is not None:
            self._entries.move_to_end(fp)
            self.obs.incr("serve.cache.hits")
            self._account_tenants(tenants, hit=True)
            return ctx, 0.0
        self.obs.incr("serve.cache.misses")
        self._account_tenants(tenants, hit=False)
        ctx = SolverContext(
            key,
            faults=self.faults,
            network=self.network,
            modeled_rate_gflops=self.modeled_rate_gflops,
        )
        self._slots[id(ctx)] = len(self._history)
        self._history.append(ctx)
        self._entries[fp] = ctx
        while len(self._entries) > self.capacity:
            _, old = self._entries.popitem(last=False)
            self._retire(old)
            self.obs.incr("serve.cache.evictions")
        return ctx, ctx.build_vtime

    def _account_tenants(
        self, tenants: Sequence[str] | None, hit: bool
    ) -> None:
        for t in tenants or ():
            stats = self._tenants.setdefault(t, [0, 0])
            stats[0 if hit else 1] += 1
            self.obs.incr(
                f"serve.cache.tenant.{t}.{'hits' if hit else 'misses'}"
            )

    def peek(self, key: ProblemKey) -> SolverContext | None:
        """Cached context for ``key`` without touching LRU order or
        hit/miss counters (introspection only)."""
        return self._entries.get(key.fingerprint())

    def update(self, key: ProblemKey, delta, threshold: float = 0.10):
        """Apply ``delta`` to the cached context for ``key``, re-keying it
        **in place** to ``key.with_delta(delta)``; returns
        ``(new_key, info)``.

        On a hit the context keeps its LRU position (an update is not a
        use — it must not keep an otherwise-cold entry warm) and its
        tenant accounting, and only its key changes: re-fingerprint, not
        invalidate-and-rebuild.  On a miss nothing is built — the next
        ``get(new_key)`` pays a fresh setup, which lands on the same
        post-update operator because the key replays its delta history.

        Either way :attr:`on_invalidate` fires for the **old** key:
        replicas of the pre-update operator are stale no matter whether
        this shard had it cached.
        """
        fp = key.fingerprint()
        new_key = key.with_delta(delta)
        ctx = self._entries.get(fp)
        info = None
        if ctx is None:
            self.obs.incr("serve.cache.delta_misses")
        else:
            info = ctx.apply_delta(delta, threshold=threshold)
            # rename in place, preserving LRU order
            self._entries = OrderedDict(
                (new_key.fingerprint() if k == fp else k, v)
                for k, v in self._entries.items()
            )
            self.obs.incr("serve.cache.delta_updates")
            self.obs.incr(
                "serve.cache.delta_patches"
                if info["path"] == "patch"
                else "serve.cache.delta_rebuilds"
            )
        if self.on_invalidate is not None:
            self.on_invalidate(key)
        return new_key, info

    def invalidate(self, key: ProblemKey) -> bool:
        """Drop a (possibly poisoned) context; next ``get`` rebuilds.

        Fires :attr:`on_invalidate` (when set) after the local drop, so a
        coherence layer can propagate the invalidation to replicas — the
        hook fires even when the key was not locally cached, because a
        poison signal on one replica says nothing about the others.
        """
        ctx = self._entries.pop(key.fingerprint(), None)
        if ctx is not None:
            self._retire(ctx)
        if self.on_invalidate is not None:
            self.on_invalidate(key)
        return ctx is not None

    def _retire(self, ctx: SolverContext) -> None:
        for name, val in ctx.counters().items():
            self._retired[name] = self._retired.get(name, 0) + val
        self._history[self._slots.pop(id(ctx))] = ctx.sim.max_vtime

    def busy_vtime(self) -> float:
        """Virtual seconds burned by every context this cache built, live
        or retired: their final clocks summed in build order (each
        simulator's clock advances only while it runs)."""
        return sum(
            c if isinstance(c, float) else c.sim.max_vtime
            for c in self._history
        )

    def tenant_stats(self) -> dict[str, dict[str, float]]:
        """Per-tenant hit/miss counters accumulated by :meth:`get`."""
        return {
            t: {
                "hits": hits,
                "misses": misses,
                "hit_rate": hits / (hits + misses) if hits + misses else 0.0,
            }
            for t, (hits, misses) in sorted(self._tenants.items())
        }

    def stats(self) -> dict[str, float]:
        hits = self.obs.counter("serve.cache.hits")
        misses = self.obs.counter("serve.cache.misses")
        total = hits + misses
        return {
            "hits": hits,
            "misses": misses,
            "evictions": self.obs.counter("serve.cache.evictions"),
            "hit_rate": hits / total if total else 0.0,
            "size": len(self._entries),
            "capacity": self.capacity,
        }

    def counters(self) -> dict[str, float]:
        """Simulator counters summed over live and retired contexts."""
        out = dict(self._retired)
        for ctx in self._entries.values():
            for name, val in ctx.counters().items():
                out[name] = out.get(name, 0) + val
        return out
