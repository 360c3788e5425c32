"""Wall-clock end-to-end benchmark of the serving stack (see ../README.md).

* :mod:`e2ebench.protocol` — the noise protocol: pinned child
  environment, the quiet-replay estimator, the ``BENCHMARK.json``
  registry.
* :mod:`e2ebench.workloads` — the four seeded closed-loop workloads.
* :mod:`e2ebench.tracing` — seam wrappers used by the ``--trace`` pass.
* :mod:`e2ebench.probes` — bench-owned rank programs and direct kernel
  calls that attribute time to single layers.
* :mod:`e2ebench.runner` — runs one workload inside the pinned child
  process and turns samples into named metrics.
* :mod:`e2ebench.envinfo` — environment block and disturbance probes.
"""
