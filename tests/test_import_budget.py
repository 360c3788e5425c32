"""The serve path's import budget, and the tabulated Gauss rules behind it.

Every served operator runs on NumPy and SciPy's compiled CSR kernels;
nothing on that path calls ``scipy.special``, ``scipy.linalg`` or
``scipy.sparse.linalg``, which together hold about 14 MB resident in
every serving process.  No serving kind loads the ``scipy.sparse``
package either (another ~15-22 MB): :mod:`repro.core.segment` loads the
CSR kernels from SciPy's ``_sparsetools`` extension file, and the kinds
that assemble (``assembled``, ``sellcs``, ``assembled_gpu``) hold their
blocks as :class:`repro.core.csr.CsrBlock` and call the same kernels
on them.  Only block Jacobi, ``owned_block_csr()`` and
``SerialReference`` import the package.  Nor does serving need the
figure harness: operators are built through :mod:`repro.kinds`.  Peak
RSS drifts with the host; which modules a fresh interpreter has loaded
after serving does not, so that is what is checked.

* **import check**: a fresh interpreter imports :mod:`repro.serve`,
  builds a small context of every kind on 1 and 2 ranks, applies it at
  k = 1 and k = 8, solves, and patches it through
  ``OperatorCache.update``; no ``scipy.sparse`` package module may be
  loaded, and the CSR kernels must be the compiled ones.  It then
  imports ``scipy.sparse`` and rebinds the kernels to the package's
  own; a HYMV operator and each CSR kind, applied again at k = 1 and
  k = 8, must give the bits of the applies made before the import.
  None of the off-path SciPy modules and no ``repro.harness`` module
  may be loaded.  Block Jacobi's SuperLU is then set up and must still
  work (it imports ``scipy.sparse.linalg`` on first use).
* **fallback**: with the extension-file loader failing, the kernels
  come from the ordinary package import.
* **rules**: the Gauss table in :mod:`repro.mesh.quadrature` holds
  SciPy's own values, and every rule built from it (hex, tet and both
  face rules, through the SciPy fallback at n = 5) equals the rule built
  from ``scipy.special`` directly, bit for bit.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import numpy as np
import pytest
from scipy.special import roots_jacobi, roots_legendre

import repro
from repro.core import segment
from repro.fem.loads import _quad_face_rule, _tri_face_rule
from repro.mesh.quadrature import _GAUSS_TABLE, gauss_rule, hex_rule, tet_rule

OFF_PATH = (
    "scipy.special",
    "scipy.linalg",
    "scipy.sparse.linalg",
    "scipy.sparse.csgraph",
)

#: every servable kind, each on a problem that reaches a different rule:
#: hex and tet volume rules, hex and triangle face rules (elastic
#: tractions), the graph Laplacian
_KINDS = [
    ("poisson", "hex8", "hymv", "einsum"),
    ("elastic", "tet4", "hymv", "columns"),
    ("poisson", "tet4", "matfree", "einsum"),
    ("elastic", "hex8", "partial", "einsum"),
    ("poisson", "tet4", "hymv_gpu", "einsum"),
    ("poisson", "hex8", "assembled", "einsum"),
    ("graphlap", "tet4", "sellcs", "einsum"),
    ("poisson", "hex8", "assembled_gpu", "einsum"),
]
#: applied before and after the package's kernels are bound: HYMV, and
#: every kind that holds CSR blocks
_REBOUND = ["hymv", "assembled", "sellcs", "assembled_gpu"]

_PROBE = r"""
import json
import sys

import numpy as np

from repro.adapt import MeshDelta
from repro.serve import OperatorCache, ProblemKey

OFF_PATH, KINDS, REBOUND = json.loads(sys.argv[1])
rng = np.random.default_rng(0)


def serve(kinds):
    for n_parts in (1, 2):
        for problem, etype, method, kernel in kinds:
            key = ProblemKey(problem, 2, n_parts, etype, 1, method, kernel)
            cache = OperatorCache(capacity=1)
            ctx, _ = cache.get(key)
            for k in (1, 8):
                ctx.apply_multi(rng.standard_normal((ctx.n_dofs, k)))
            out, _ = ctx.solve_multi(rng.standard_normal((ctx.n_dofs, 2)), 1e-8)
            assert all(out["converged"]), (key, out["iterations"])
            delta = MeshDelta(scale_elements=[0, 1], scale_values=[2.0, 0.5])
            cache.update(key, delta)
            ctx.apply_multi(rng.standard_normal((ctx.n_dofs, 1)))


def applies():
    out = []
    for method in REBOUND:
        key = ProblemKey("poisson", 3, 2, "hex8", 1, method, "einsum")
        ctx, _ = OperatorCache(capacity=1).get(key)
        X = np.random.default_rng(1).standard_normal((ctx.n_dofs, 8))
        out += [ctx.apply_multi(X[:, :k])[0].tolist() for k in (1, 8)]
    return out


serve(KINDS)
import repro.core.segment as segment

sparse = sorted(
    m for m in sys.modules
    if m.split(".")[:2] == ["scipy", "sparse"] and m != "scipy.sparse._sparsetools"
)
compiled = [
    type(f).__name__
    for f in (segment._csr_matvec, segment._csr_matvecs, segment._csr_diagonal)
]
before = applies()

import scipy.sparse as sp
from scipy.sparse import _sparsetools

import repro.core.hymv
import repro.core.kernels

# the CSR blocks read the kernels from segment at call time
for mod in (segment, repro.core.kernels, repro.core.hymv):
    mod._csr_matvec = _sparsetools.csr_matvec
segment._csr_matvecs = _sparsetools.csr_matvecs
segment._csr_diagonal = _sparsetools.csr_diagonal
after = applies()
served = sorted(m for m in OFF_PATH if m in sys.modules)
harness = sorted(m for m in sys.modules if m.split(".")[:2] == ["repro", "harness"])

from repro.solvers.preconditioners import BlockJacobiPreconditioner

n = 12
A = sp.diags([-np.ones(n - 1), 4.0 * np.ones(n), -np.ones(n - 1)], [-1, 0, 1])
B = rng.standard_normal((3, n))
Z = BlockJacobiPreconditioner(A)(B)
err = float(np.abs(A @ Z.T - B.T).max())
print(json.dumps({
    "sparse": sparse, "compiled": compiled, "before": before, "after": after,
    "served": served, "harness": harness,
    "superlu": "scipy.sparse.linalg" in sys.modules, "err": err,
}))
"""


def test_serve_path_loads_no_off_path_scipy():
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE,
         json.dumps([OFF_PATH, _KINDS, _REBOUND])],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout.strip().splitlines()[-1])
    assert got["sparse"] == [], (
        f"serving loaded {got['sparse']}; a module-level import of "
        "scipy.sparse crept back onto the serve path"
    )
    assert got["compiled"] == ["builtin_function_or_method"] * 3, got["compiled"]
    assert len(got["before"]) == 2 * len(_REBOUND)
    for before, after in zip(got["before"], got["after"]):
        _assert_same_bits([np.array(after)], [np.array(before)])
    assert got["served"] == [], (
        f"the serve path loaded {got['served']}; a module-level import "
        "of one of them crept back onto it"
    )
    assert got["harness"] == [], f"serving loaded the harness: {got['harness']}"
    assert got["superlu"], "block Jacobi set up without SuperLU"
    assert got["err"] < 1e-12


def test_csr_kernels_fall_back_to_the_package_import(monkeypatch):
    from scipy.sparse import _sparsetools

    def fail():
        raise OSError("no extension file")

    monkeypatch.setattr(segment, "_load_extension", fail)
    assert segment._load_csr_kernels() == (
        _sparsetools.csr_matvec, _sparsetools.csr_matvecs,
        _sparsetools.csr_diagonal,
    )


def test_without_the_csr_kernels_the_import_error_names_scipy(monkeypatch):
    def fail():
        raise OSError("no extension file")

    monkeypatch.setattr(segment, "_load_extension", fail)
    monkeypatch.setitem(sys.modules, "scipy.sparse._sparsetools", None)
    with pytest.raises(ImportError, match="SciPy"):
        segment._load_csr_kernels()


def _bits(a) -> np.ndarray:
    return np.ascontiguousarray(a, dtype=np.float64).view(np.int64)


def _assert_same_bits(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.shape == w.shape
        np.testing.assert_array_equal(_bits(g), _bits(w))


def _scipy_rule(n, alpha):
    return roots_legendre(n) if alpha == 0 else roots_jacobi(n, alpha, 0.0)


@pytest.mark.parametrize(
    "entry", sorted(_GAUSS_TABLE), ids=lambda e: f"n{e[0]}-alpha{e[1]}"
)
def test_gauss_table_is_scipys(entry):
    n, alpha = entry
    table = [np.array(v) for v in _GAUSS_TABLE[entry]]
    _assert_same_bits(table, _scipy_rule(n, alpha))
    # the face rule asks with a float alpha; SciPy gives it the same bits
    _assert_same_bits(gauss_rule(n, float(alpha)), _scipy_rule(n, alpha))


def _hex_want(n):
    x, w = roots_legendre(n)
    X, Y, Z = np.meshgrid(x, x, x, indexing="ij")
    WX, WY, WZ = np.meshgrid(w, w, w, indexing="ij")
    pts = np.stack([X.ravel(), Y.ravel(), Z.ravel()], axis=1)
    return pts, (WX * WY * WZ).ravel()


def _tet_want(n):
    rules = []
    for alpha in (0, 1, 2):
        x, w = _scipy_rule(n, alpha)
        rules.append((0.5 * (x + 1.0), w / (2.0 ** (alpha + 1))))
    (ta, wa), (tb, wb), (tc, wc) = rules
    A, B, C = np.meshgrid(ta, tb, tc, indexing="ij")
    WA, WB, WC = np.meshgrid(wa, wb, wc, indexing="ij")
    x = A * (1.0 - B) * (1.0 - C)
    y = B * (1.0 - C)
    pts = np.stack([x.ravel(), y.ravel(), C.ravel()], axis=1)
    return pts, (WA * WB * WC).ravel()


def _quad_face_want(n):
    x, w = roots_legendre(n)
    S, T = np.meshgrid(x, x, indexing="ij")
    WS, WT = np.meshgrid(w, w, indexing="ij")
    return np.stack([S.ravel(), T.ravel()], axis=1), (WS * WT).ravel()


def _tri_face_want(n):
    xa, wa = roots_legendre(n)
    xb, wb = roots_jacobi(n, 1.0, 0.0)
    A, B = np.meshgrid(0.5 * (xa + 1.0), 0.5 * (xb + 1.0), indexing="ij")
    WA, WB = np.meshgrid(wa / 2.0, wb / 4.0, indexing="ij")
    pts = np.stack([(A * (1.0 - B)).ravel(), B.ravel()], axis=1)
    return pts, (WA * WB).ravel()


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])  # 5 is the SciPy fallback
def test_rules_match_scipy_construction(n):
    hx, tt = hex_rule(n), tet_rule(n)
    _assert_same_bits((hx.points, hx.weights), _hex_want(n))
    _assert_same_bits((tt.points, tt.weights), _tet_want(n))
    _assert_same_bits(_quad_face_rule(n), _quad_face_want(n))
    _assert_same_bits(_tri_face_rule(n), _tri_face_want(n))


def test_gauss_rule_returns_fresh_arrays():
    x, w = gauss_rule(2)
    x[:] = 0.0
    w[:] = 0.0
    _assert_same_bits(gauss_rule(2), roots_legendre(2))
