"""The four seeded closed-loop workloads.

Every workload drives the *public* API only (``ProblemKey``,
``SolverContext``, ``OperatorCache``, ``SolverService``, ``CrackFront``)
and follows one shape the runner times from outside:

``release`` / ``cold_setup`` (one set-up sample, as steps) → ``warm_up`` → per
block ``before_block`` (untimed) / ``run_block`` (timed) /
``after_block`` (untimed answer checks) → ``verify`` (end-of-run answer
checks, after the peak RSS has been read so reference operators do not
count as the program's memory).

``run_block`` returns ``(steps, ops, failed)``.  A *step* is one timed
call (or one turn of the dispatch loop) with the *class* of work it did:
``(class, seconds)``; steps of one class do the same work, so the runner
may take the fastest of them as the time that work needs on an
undisturbed machine.  An *op* is ``(first, end, seconds)``: the steps
``first .. end - 1`` of the block it waited for, and its latency as
measured.

Op counts are fixed functions of ``--seconds`` (never durations), the
mesh never depends on ``--seed``; the seed drives input vectors and the
request stream only, and the *composition* of every block is the same
for every seed so that the metrics do not depend on it.
"""

from __future__ import annotations

import gc
import hashlib
import time

import numpy as np

from e2ebench.tracing import Seams
from repro.adapt import CrackFront
from repro.baselines.serial import SerialReference
from repro.serve import ProblemKey, ServeRequest, SolverContext

__all__ = [
    "NEL",
    "N_PARTS",
    "Workload",
    "ApplyHymv",
    "SolveBatch",
    "ServeMixed",
    "AdaptCrack",
    "WORKLOAD_CLASSES",
    "apportion",
    "zipf_weights",
]

#: elements per edge of the HEX8 Poisson mesh the three single-operator
#: workloads share (4,913 dofs, 4,096 element matrices = 2.1 MB): the
#: operator fits the 4 MiB L2 its core owns.  What spills into the L3 and
#: memory this host shares with its neighbours cannot be timed here — in
#: the same ten minutes the fastest ``nel=32`` apply (16.8 MB) of a 2.5-s
#: window read 2.6-5.5 ms, the fastest ``nel=16`` one 0.37-0.45 ms.  An
#: out-of-cache kernel rate is measured, ungated, by the trace pass.
NEL = 16

#: simulated ranks of every operator.  One, so that the whole workload is
#: a single thread on a single core: ``Simulator.run`` starts a fresh
#: thread per rank when there are more, and on this shared 2-vCPU host
#: two rank threads made an op fast only when *both* vCPUs were left alone
#: (ten-run spreads of 19-38 %; see the README).  The 2-rank costs of
#: simulated MPI are still measured, by the probes of the trace pass.
N_PARTS = 1


def scaled(n: int, scale: float, minimum: int = 1) -> int:
    return max(minimum, round(n * scale))


def zipf_weights(n: int, s: float = 1.2) -> list[float]:
    w = [1.0 / (i + 1) ** s for i in range(n)]
    total = sum(w)
    return [x / total for x in w]


def apportion(total: int, weights: list[float]) -> list[int]:
    """Split ``total`` into integer shares proportional to ``weights``
    (largest remainder; ties go to the earlier entry)."""
    exact = [total * w for w in weights]
    out = [int(x) for x in exact]
    order = sorted(range(len(weights)), key=lambda i: (out[i] - exact[i], i))
    for i in order[: total - sum(out)]:
        out[i] += 1
    return out


def one_op_per_step(steps: list) -> list[tuple[int, int, float]]:
    """The ops of a block in which every op is exactly one step."""
    return [(i, i + 1, dt) for i, (_, dt) in enumerate(steps)]


def rel_err(y: np.ndarray, ref: np.ndarray) -> float:
    scale = float(np.max(np.abs(ref)))
    return float(np.max(np.abs(y - ref))) / (scale if scale else 1.0)


class Workload:
    """Common shape; see the module docstring."""

    name = ""
    n_blocks = 0
    cold_builds = 5

    def __init__(self, seed: int, scale: float, smoke: bool, seams: Seams):
        self.smoke = smoke
        self.seams = seams
        self.ctx: SolverContext | None = None
        #: sha1 over the generated inputs and op sequence (determinism tests)
        self._digest = hashlib.sha1()

    # -- set-up --------------------------------------------------------

    def release(self) -> None:
        """Drop every live context so the next set-up starts cold."""
        raise NotImplementedError

    def cold_setup(self) -> list:
        """One set-up sample: build from ``ProblemKey`` (mesh + partition +
        operator + Dirichlet state); returns its steps, one per operator
        built."""
        raise NotImplementedError

    # -- ops -----------------------------------------------------------

    def warm_up(self) -> None:
        raise NotImplementedError

    def before_block(self, b: int) -> None:
        return None

    def run_block(self, b: int) -> tuple[list, list, int]:
        """``(steps, ops, failed)``; see the module docstring."""
        raise NotImplementedError

    def after_block(self, b: int) -> int:
        return 0

    def verify(self) -> int:
        return 0

    # -- introspection -------------------------------------------------

    @property
    def trace_blocks(self) -> int:
        """Blocks of the ``--trace`` pass (alternately untraced, traced)."""
        return self.n_blocks

    def primary_context(self) -> SolverContext:
        """The context the kernel/apply probes run on."""
        return self.ctx

    def stream_digest(self) -> str:
        return self._digest.hexdigest()

    def _note(self, *items) -> None:
        for item in items:
            if isinstance(item, np.ndarray):
                self._digest.update(np.ascontiguousarray(item).tobytes())
            else:
                self._digest.update(repr(item).encode())


class _SingleOperator(Workload):
    """One operator behind a capacity-1 cache."""

    key: ProblemKey

    def __init__(self, seed, scale, smoke, seams):
        super().__init__(seed, scale, smoke, seams)
        self.cache = seams.cache(1)

    def release(self) -> None:
        self.ctx = None
        self.cache.invalidate(self.key)

    def cold_setup(self) -> list:
        t0 = time.perf_counter()
        self.ctx, _ = self.cache.get(self.key)
        return [("build", time.perf_counter() - t0)]


class ApplyHymv(_SingleOperator):
    """One ``ctx.apply_multi(X, mode="auto")`` with k=1 per op."""

    name = "apply-hymv"
    n_blocks = 10
    cold_builds = 20
    n_vectors = 4
    tol = 1e-10

    def __init__(self, seed, scale, smoke, seams):
        super().__init__(seed, scale, smoke, seams)
        self.key = ProblemKey(
            "poisson", 8 if smoke else NEL, N_PARTS, "hex8", 0, "hymv", "einsum"
        )
        self.ops_per_block = scaled(6 if smoke else 2000, scale)
        self.warmup_ops = scaled(8 if smoke else 200, scale, self.n_vectors)
        rng = np.random.default_rng([seed, 1])
        n = self.key.n_dofs_estimate()
        self.X = [rng.standard_normal((n, 1)) for _ in range(self.n_vectors)]
        self._note(*self.X)
        #: first answer per input vector; every later answer must repeat
        #: it bitwise, and ``verify`` checks it against the serial matrix
        self.Y: list[np.ndarray | None] = [None] * self.n_vectors
        self.uses = [0] * self.n_vectors
        self._next = 0

    def warm_up(self) -> None:
        for i in range(self.warmup_ops):
            j = i % self.n_vectors
            Y, _ = self.ctx.apply_multi(self.X[j], mode="auto")
            if self.Y[j] is None:
                self.Y[j] = Y

    def run_block(self, b):
        apply_multi = self.ctx.apply_multi
        steps, failed = [], 0
        for _ in range(self.ops_per_block):
            j = self._next % self.n_vectors
            self._next += 1
            t0 = time.perf_counter()
            Y, _ = apply_multi(self.X[j], mode="auto")
            steps.append(("apply", time.perf_counter() - t0))
            if np.array_equal(Y, self.Y[j]):
                self.uses[j] += 1
            else:
                failed += 1
        self._note("block", b, self.ops_per_block)
        return steps, one_op_per_step(steps), failed

    def verify(self) -> int:
        spec = self.ctx.spec
        part = spec.partition
        ref = SerialReference(spec.mesh, spec.operator)
        failed = 0
        for x, y, uses in zip(self.X, self.Y, self.uses):
            want = ref.spmv(part.to_mesh_order(x[:, 0]))
            if rel_err(part.to_mesh_order(y[:, 0]), want) > self.tol:
                failed += uses
        return failed


class SolveBatch(_SingleOperator):
    """One ``ctx.solve_multi(F, rtol=1e-8)`` with k=8 per op."""

    name = "solve-batch"
    n_blocks = 12
    cold_builds = 20
    k = 8  # = DEFAULT_K_MIN, so the GEMM path runs
    rtol = 1e-8
    n_rhs = 4

    def __init__(self, seed, scale, smoke, seams):
        super().__init__(seed, scale, smoke, seams)
        self.key = ProblemKey(
            "poisson", 6 if smoke else NEL, N_PARTS, "hex8", 0, "hymv", "einsum"
        )
        self.ops_per_block = scaled(1 if smoke else 20, scale)
        self.warmup_ops = scaled(1 if smoke else 4, scale)
        rng = np.random.default_rng([seed, 2])
        n = self.key.n_dofs_estimate()
        self.F = [rng.standard_normal((n, self.k)) for _ in range(self.n_rhs)]
        self._note(*self.F)
        self._next = 0
        self._pending: list[tuple[int, dict]] = []
        #: per-op per-column iteration counts (exact for a seed)
        self.iterations: list[list[int]] = []

    def _solve(self, j: int) -> dict:
        out, _ = self.ctx.solve_multi(self.F[j], rtol=self.rtol)
        return out

    def warm_up(self) -> None:
        for i in range(self.warmup_ops):
            self._solve(i % self.n_rhs)

    def run_block(self, b):
        steps = []
        for _ in range(self.ops_per_block):
            j = self._next % self.n_rhs
            self._next += 1
            t0 = time.perf_counter()
            out = self._solve(j)
            dt = time.perf_counter() - t0
            # the columns iterate in lock step: solves of equal iteration
            # count do the same work
            steps.append((("solve", int(max(out["iterations"]))), dt))
            self._pending.append((j, out))
        self._note("block", b, self.ops_per_block)
        return steps, one_op_per_step(steps), 0

    def after_block(self, b) -> int:
        failed = 0
        for j, out in self._pending:
            self.iterations.append([int(i) for i in out["iterations"]])
            res = self.ctx.residuals(self.F[j], out["x"])
            if not all(out["converged"]) or float(res.max()) > 2 * self.rtol:
                failed += 1
        self._pending.clear()
        return failed


class ServeMixed(Workload):
    """Closed loop of 16 zero-think-time clients on a ``SolverService``;
    an op is one request, timed from ``submit`` to its completion."""

    name = "serve-mixed"
    n_blocks = 20
    cold_builds = 7
    n_clients = 16
    max_batch = 8
    queue_capacity = 64
    n_hot = 5
    cold_share = 0.01
    solve_share = 0.05
    solve_rtol = 1e-6
    spmv_tol = 1e-9
    n_samples = 64

    def __init__(self, seed, scale, smoke, seams):
        super().__init__(seed, scale, smoke, seams)
        s = (6, 4, 2, 3, 4) if smoke else (16, 10, 5, 8, 12)
        P = N_PARTS
        #: hot five first (Zipf rank order), then the two cold keys
        self.catalog = [
            ProblemKey("poisson", s[0], P, "hex8", 0, "hymv"),
            ProblemKey("poisson", s[1], P, "tet4", 1, "hymv"),
            ProblemKey("elastic", s[2], P, "hex8", 0, "hymv"),
            ProblemKey("poisson", s[0], P, "hex8", 0, "assembled"),
            ProblemKey("graphlap", s[1], P, "tet4", 2, "sellcs"),
            ProblemKey("poisson", s[3], P, "tet4", 3, "hymv"),
            ProblemKey("poisson", s[4], P, "hex8", 0, "hymv", "columns"),
        ]
        #: one short of the catalog, so the two cold keys evict each other
        self.cache_capacity = len(self.catalog) - 1
        self.block_size = scaled(40 if smoke else 400, scale, 20)
        blocks = self._build_stream(np.random.default_rng([seed, 3]))
        self.warmup_requests, self.blocks = blocks[0], blocks[1:]
        measured = [r.rid for blk in self.blocks for r in blk]
        rng = np.random.default_rng([seed, 4])
        picks = rng.choice(
            len(measured), size=min(self.n_samples, len(measured)), replace=False
        )
        #: sampled completions, replayed by ``verify``: rid -> value
        self.samples: dict[int, np.ndarray | None] = {
            measured[int(i)]: None for i in picks
        }
        self._requests = {r.rid: r for blk in self.blocks for r in blk}
        self._setup_cache = None
        self.cache = None
        self.svc = None
        #: CG iterations of every completed solve request (exact for a seed)
        self.solve_iterations: list[int] = []

    # -- request stream ------------------------------------------------

    def _block_composition(self) -> tuple[list[tuple[int, str]], int]:
        """The hot requests of a block as ``(catalog index, kind)`` — the
        Zipf shares of the hot keys, apportioned to whole requests for
        each kind — plus the number of cold requests; identical for every
        block and seed."""
        n = self.block_size
        n_cold = 2 * max(1, round(self.cold_share * n / 2))  # both cold keys
        n_solve = max(1, round(self.solve_share * n))
        w = zipf_weights(self.n_hot)
        items = []
        for kind, total in (("spmv", n - n_cold - n_solve), ("solve", n_solve)):
            for i, count in enumerate(apportion(total, w)):
                items += [(i, kind)] * count
        return items, n_cold

    def _build_stream(self, rng) -> list[list[ServeRequest]]:
        """Warm-up block followed by the measured blocks.

        The seed shuffles the hot requests (every solve is a request of
        its own, wherever the shuffle puts it), places each cold request at a
        random offset inside the middle half of its own segment of the
        block, and draws every request's vector seed.  Over the whole
        stream the cold requests go A B B A A B B A ...: a request for the
        key of its predecessor hits, one for the other key finds the one
        spare cache slot taken and rebuilds — every block sees both keys
        equally often and half its cold requests miss.
        """
        items, n_cold = self._block_composition()
        seg = self.block_size // n_cold
        blocks, rid, cold_turn = [], 0, 0
        for _ in range(self.n_blocks + 1):
            order = [items[i] for i in rng.permutation(len(items))]
            for c in range(n_cold):
                pos = c * seg + seg // 4 + int(rng.integers(max(1, seg // 2)))
                cold = self.n_hot + (cold_turn + 1) // 2 % 2
                order.insert(pos, (cold, "spmv"))
                cold_turn += 1
            seeds = rng.integers(0, 2**31, size=len(order))
            block = []
            for (ki, kind), vec_seed in zip(order, seeds):
                block.append(ServeRequest(
                    rid=rid, key=self.catalog[ki], kind=kind,
                    seed=int(vec_seed), rtol=self.solve_rtol,
                ))
                self._note(rid, ki, kind, int(vec_seed))
                rid += 1
            blocks.append(block)
        return blocks

    # -- set-up --------------------------------------------------------

    def release(self) -> None:
        self._setup_cache = None

    def cold_setup(self) -> list:
        """Cold build of the whole catalog, a step per operator."""
        self._setup_cache = self.seams.cache(len(self.catalog))
        steps = []
        for key in self.catalog:
            t0 = time.perf_counter()
            self._setup_cache.get(key)
            steps.append((("build", key), time.perf_counter() - t0))
        return steps

    def warm_up(self) -> None:
        self.release()
        gc.collect()
        self.cache = self.seams.cache(self.cache_capacity)
        self.svc = self.seams.service(
            self.cache, self.max_batch, self.queue_capacity
        )
        self._closed_loop(self.warmup_requests)

    # -- ops -----------------------------------------------------------

    def _closed_loop(self, requests) -> tuple[list, list, int]:
        """Drive ``requests`` through the service, ``n_clients`` in flight.

        A step is one turn of the loop — a ``dispatch`` and the
        bookkeeping and submits that follow it — and its class what the
        dispatch did: operator, kind, batch size, and whether the lookup
        rebuilt the operator.  A request waits for every step from the one
        after its submit to the one that completes it.
        """
        svc = self.svc
        misses = svc.cache.obs.counter
        pending = iter(requests)
        in_flight: dict[int, tuple[float, int]] = {}
        steps, ops, failed = [], [], 0

        def submit_next() -> int:
            """Next request of the stream; returns how many were shed at
            admission on the way (each a failed op without a latency)."""
            shed = 0
            for req in pending:
                in_flight[req.rid] = (time.perf_counter(), len(steps))
                if svc.submit(req):
                    break
                del in_flight[req.rid]
                shed += 1
            return shed

        for _ in range(self.n_clients):
            failed += submit_next()
        built = misses("serve.cache.misses")
        t_prev = time.perf_counter()
        while in_flight:
            out = svc.dispatch(0.0)
            now = time.perf_counter()
            if not out.completions:
                raise RuntimeError("service stalled with requests in flight")
            head = out.completions[0].request
            built, was_built = misses("serve.cache.misses"), built
            steps.append((
                (head.key, head.kind, len(out.completions), built > was_built),
                now - t_prev,
            ))
            t_prev = now
            for comp in out.completions:
                rid = comp.request.rid
                t_submit, first = in_flight.pop(rid)
                ops.append((first, len(steps), now - t_submit))
                if comp.status != "ok":
                    failed += 1
                elif rid in self.samples:
                    self.samples[rid] = comp.value
                if comp.request.kind == "solve" and comp.status == "ok":
                    self.solve_iterations.append(comp.info["iterations"])
                failed += submit_next()
        return steps, ops, failed

    def run_block(self, b):
        return self._closed_loop(self.blocks[b])

    def verify(self) -> int:
        # conservation: every submitted request was completed, failed or
        # refused (the closed loop has counted each of those that is a
        # failed op); the difference is requests the service lost
        obs = self.svc.obs
        accounted = sum(
            obs.counter(f"serve.{c}") for c in ("completed", "failed", "rejected")
        )
        failed = int(abs(obs.counter("serve.submitted") - accounted))
        fresh: dict[str, SolverContext] = {}
        for rid, value in self.samples.items():
            if value is None:
                continue  # completion failed: already counted by the loop
            req = self._requests[rid]
            fp = req.key.fingerprint()
            if fp not in fresh:
                fresh[fp] = SolverContext(req.key)
            ctx = fresh[fp]
            x = self.svc.input_vector(ctx, req.seed)[:, None]
            if req.kind == "spmv":
                Y, _ = ctx.apply_multi(x, mode="oracle")
                ok = rel_err(value, Y[:, 0]) <= self.spmv_tol
            else:
                res = ctx.residuals(x, value[:, None])
                ok = float(res.max()) <= 2 * req.rtol
            failed += not ok
        return failed

    @property
    def ops_per_block(self) -> int:
        return self.block_size

    def context_of(self, i: int) -> SolverContext:
        """Context of catalog entry ``i`` for the probes, without touching
        the cache's LRU order or counters (a hot key can be the eviction
        victim of a cold miss, so it is rebuilt when absent)."""
        key = self.catalog[i]
        return self.cache.peek(key) or SolverContext(key)

    def primary_context(self) -> SolverContext:
        return self.context_of(0)


class AdaptCrack(_SingleOperator):
    """Writes beside reads on one cached operator: an op is
    ``cache.update(key, delta)`` + ``cache.get(new_key)`` + two k=1
    ``apply_multi`` reads, each of the four a step.  A block is one
    episode from a freshly built base key, so key history is bounded and
    every block has the same composition."""

    name = "adapt-crack"
    n_blocks = 48
    cold_builds = 20
    soft_scale = 0.05
    restore_scale = 1.0
    #: an update's class is the quarter of the episode it falls in: the
    #: key history it re-fingerprints grows from the first op to the last
    n_history_classes = 4

    def __init__(self, seed, scale, smoke, seams):
        super().__init__(seed, scale, smoke, seams)
        nel = 8 if smoke else NEL
        self.n_steps = nel
        self.key0 = ProblemKey("poisson", nel, N_PARTS, "hex8", 0, "hymv", "einsum")
        self.key = self.key0
        #: the delta sweep pair is walked this many times per episode
        self.passes = scaled(1, scale)
        self.warmup_ops = 4 if smoke else 8
        rng = np.random.default_rng([seed, 5])
        n = self.key0.n_dofs_estimate()
        self.X = [rng.standard_normal((n, 1)) for _ in range(2)]
        self._note(*self.X)
        self.deltas: list = []
        #: op index inside episode 0 after which the patched operator is
        #: compared bitwise with a fresh build from the delta'd key
        self.check_op = self.n_steps // 2 - 1
        self._checkpoint: tuple[ProblemKey, np.ndarray] | None = None
        #: per-op ``info`` of every measured update (touched, path)
        self.infos: list[dict] = []

    @property
    def ops_per_block(self) -> int:
        return 2 * self.n_steps * self.passes

    @property
    def trace_blocks(self) -> int:
        # an episode cannot be halved, so the trace pass runs half of them
        return max(2, self.n_blocks // 2)

    def release(self) -> None:
        self.ctx = None
        self.cache.invalidate(self.key)
        self.key = self.key0

    def cold_setup(self) -> list:
        steps = super().cold_setup()
        if not self.deltas:
            mesh = self.ctx.spec.mesh
            for scale in (self.soft_scale, self.restore_scale):
                front = CrackFront(soft_scale=scale)
                self.deltas += [
                    front.scale_delta(mesh, step, self.n_steps)
                    for step in range(self.n_steps)
                ]
            self._note(*(d.fingerprint() for d in self.deltas))
        return steps

    def _op(self, delta, history_class: int):
        """One op: ``(its four steps, update info, first answer)``."""
        t0 = time.perf_counter()
        new_key, info = self.cache.update(self.key, delta)
        t1 = time.perf_counter()
        ctx, _ = self.cache.get(new_key)
        t2 = time.perf_counter()
        y, _ = ctx.apply_multi(self.X[0], mode="auto")
        t3 = time.perf_counter()
        ctx.apply_multi(self.X[1], mode="auto")
        t4 = time.perf_counter()
        self.key = new_key
        steps = [
            (("update", history_class), t1 - t0),
            ("get", t2 - t1),
            ("read after write", t3 - t2),
            ("read", t4 - t3),
        ]
        return steps, info, y

    def warm_up(self) -> None:
        for delta in self.deltas[: self.warmup_ops]:
            self._op(delta, 0)

    def before_block(self, b) -> None:
        """Per-episode rebuild of the base operator (outside op timing)."""
        self.release()
        gc.collect()
        self.cold_setup()

    def run_block(self, b):
        steps, ops, failed = [], [], 0
        n = self.ops_per_block
        for i in range(n):
            delta = self.deltas[i % len(self.deltas)]
            op_steps, info, y = self._op(delta, self.n_history_classes * i // n)
            ops.append((
                len(steps), len(steps) + len(op_steps),
                sum(dt for _, dt in op_steps),
            ))
            steps += op_steps
            if info is None or info["path"] != "patch":
                failed += 1
            self.infos.append(info or {})
            if b == 0 and i == self.check_op:
                self._checkpoint = (self.key, y)
        self._note("episode", b, n)
        return steps, ops, failed

    def verify(self) -> int:
        key, y = self._checkpoint
        fresh = SolverContext(key)
        want, _ = fresh.apply_multi(self.X[0], mode="auto")
        return 0 if np.array_equal(y, want) else 1


WORKLOAD_CLASSES = {
    cls.name: cls for cls in (ApplyHymv, SolveBatch, ServeMixed, AdaptCrack)
}
