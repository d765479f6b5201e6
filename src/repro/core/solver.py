"""R-recovery solvers: invert the measurement map Z(R).

Two complementary solvers, both enforcing R > 0 via ``θ = log R``:

* :func:`solve_nested` — *variable projection*: the per-pair voltages
  are always the exact solution of the inner linear circuit, so the
  outer problem is just ``Z̃(R) = Z`` over the ``n^2`` resistances.
  The outer Jacobian is analytic and beautifully compact: with
  ``P = L^+`` (Laplacian pseudo-inverse) and incidence vector ``b_ab``
  of resistor (a, b),

      ``∂Z_st / ∂R_ab = (x_st^T P b_ab)^2 / R_ab^2``

  (the squared transfer potential), computed for *all* pair/resistor
  combinations with a blocked broadcast kernel.  This is the scalable,
  recommended solver.

* :func:`solve_full` — the paper's formulation taken literally: one
  joint nonlinear system over the ``(2n-1) n^2`` unknowns
  ``(θ, Ua, Ub)``, solved by trust-region least squares with the
  analytic sparse Jacobian of :mod:`repro.core.residual`.

Both return a :class:`SolveResult`; the test suite checks they agree
with each other and with the ground truth on noise-free data.

Fast path
---------
:func:`solve_nested` computes the Gauss–Newton step by solving the
*square* system ``J s = -res`` directly instead of the normal
equations: normal equations square the condition number
(``cond(JᵀJ) = cond(J)²``), which stalls the late iterations near
``tol``; the direct step — a single-precision LU factorisation
polished by iterative refinement against the double-precision
Jacobian — is accurate to ~1e-13, restoring quadratic convergence
(fewer iterations *and* tighter recoveries).  Rejected steps fall to a
backtracking line search whose trial evaluations are single forward
solves (~1 ms), not new factorisations; only when the line search
exhausts does the solver assemble the Levenberg normal equations as a
rescue, with the damping ridge hoisted out of the retry loop and
applied to the diagonal in place.

A solve that cannot succeed stops before it pays for a step.  After
the Jacobian is assembled, :func:`solve_nested` reads its column
scales ``s_j = Σ_i J_ij²`` — the Marquardt diagonal of ``JᵀJ`` — and
exits with ``termination="singular"`` when
``min s ≤ eps · max s`` (:data:`_SINGULAR_RATIO`, float64 epsilon).
That is a resistor driven so far (R → 1e306) that its column
``T²/R`` no longer moves any measurement: the GN system is singular
along it, and the Levenberg rescue cannot help either, because the
damping ``λ·diag(JᵀJ)`` is zero on the same column.  The two cases sit
about fifty orders of magnitude apart: healthy fields read
``min s / max s`` of 4e-4 to 0.42 (true fields and converged solves,
n = 4 to 40), a diverged n=40 iterate reads 1e-57 or underflows to
zero.  The check is one O(n⁴) pass over the Jacobian (~1 ms against
a ~150 ms iteration at n=40) and runs only after the residual test,
so converged solves are untouched.

Both dense kernels (Jacobian assembly, JᵀJ/grad) run behind the
``backend="numpy"|"compiled"`` knob of
:mod:`repro.core.solver_backends`; the two backends are bit-identical
by construction, and a missing numba degrades to numpy with a
recorded metric, never an error.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.optimize

from repro.core.residual import JointSystem
from repro.core.solver_backends import (
    fused_jtj_grad,
    resolve_backend,
    transfer_jacobian,
)
from repro.kirchhoff.forward import (
    effective_resistance_matrix,
    laplacian_factor_cached,
    laplacian_pinv_cached,
)
from repro.utils.validation import require_positive, require_positive_array

#: Relative residual at which an iteratively-refined GN step is
#: accepted as exact for stepping purposes (~100x float64 epsilon).
_REFINE_TARGET = 1e-13
#: Relative residual beyond which the float32-factored step is deemed
#: unusable and the solver re-factorises in double precision.
_REFINE_LIMIT = 1e-10
#: Maximum refinement sweeps before giving up on the float32 factor.
_REFINE_SWEEPS = 6
#: Maximum step halvings in the backtracking line search.
_LINESEARCH_HALVINGS = 20
#: Smallest-to-largest Jacobian column-scale ratio at or below which
#: the Gauss–Newton system counts as singular (see "Fast path").
_SINGULAR_RATIO = float(np.finfo(np.float64).eps)


@dataclass(frozen=True)
class SolveResult:
    """Outcome of an R-recovery solve.

    ``backend`` records the compute backend that actually executed
    (``"numpy"`` after a compiled-requested-but-unavailable fallback).
    ``termination`` names why the iteration stopped: for
    :func:`solve_nested` one of ``residual`` (``max|res| < tol``),
    ``step`` (accepted step below 1e-15), ``singular`` (a dead
    Jacobian column), ``no_descent`` (line search and Levenberg rescue
    both failed) or ``max_iter``; :func:`repro.core.regularized.
    solve_regularized` adds ``gradient``.  ``""`` for solvers that do
    not report one.
    """

    r_estimate: np.ndarray
    method: str
    iterations: int
    residual_norm: float
    elapsed_seconds: float
    converged: bool
    backend: str = "numpy"
    termination: str = ""

    def max_relative_error(self, r_true: np.ndarray) -> float:
        r_true = np.asarray(r_true, dtype=np.float64)
        return float(np.max(np.abs(self.r_estimate - r_true) / r_true))

    def mean_relative_error(self, r_true: np.ndarray) -> float:
        r_true = np.asarray(r_true, dtype=np.float64)
        return float(np.mean(np.abs(self.r_estimate - r_true) / r_true))


def predict_z(r: np.ndarray) -> np.ndarray:
    """The forward map Z(R) (alias of the exact crossbar solver)."""
    return effective_resistance_matrix(r)


def nested_jacobian(r: np.ndarray) -> np.ndarray:
    """Analytic ``∂Z_st/∂θ_ab`` (θ = log R), shape (n^2, n^2).

    Rows index measurement pairs (s, t) row-major; columns index
    resistors (a, b) row-major.  Derivation: ``Z = x^T L^+ x``,
    ``∂L/∂G_ab = b b^T`` ⇒ ``∂Z/∂G_ab = -(x^T L^+ b)^2``; with
    ``G = e^{-θ}``, ``∂Z/∂θ_ab = (x^T L^+ b)^2 G_ab``.

    Assembly is blocked over measurement-pair rows so the O(n⁴)
    transfer tensor never materialises at once (peak scratch one
    ~64 MB block; see
    :func:`repro.core.solver_backends.jacobian_row_block`) — values
    are bit-identical to the historical full-broadcast expression.
    """
    r = require_positive_array(r, "r")
    # Cached: within one Gauss-Newton iteration the residual already
    # factorised this same field, so this is usually a cache hit.
    pinv = laplacian_pinv_cached(r)
    return transfer_jacobian(pinv, r)


def nested_jacobian_reference(r: np.ndarray) -> np.ndarray:
    """The historical one-shot broadcast Jacobian (benchmarks/tests).

    Materialises the full O(n⁴) ``transfer`` tensor at once — kept as
    the bit-parity reference for the blocked/compiled kernels and as
    the pre-fast-path baseline for ``benchmarks/bench_solver.py``.
    """
    r = require_positive_array(r, "r")
    m, n = r.shape
    pinv = laplacian_pinv_cached(r)
    hh = pinv[:m, :m]  # P[H_s, H_a]
    hv = pinv[:m, m:]  # P[H_s, V_b]
    vv = pinv[m:, m:]  # P[V_t, V_b]
    # t[s, t, a, b] = P[Hs,Ha] - P[Hs,Vb] - P[Vt,Ha] + P[Vt,Vb]
    transfer = (
        hh[:, None, :, None]
        - hv[:, None, None, :]
        - hv.T[None, :, :, None]
        + vv[None, :, None, :]
    )
    jac = transfer**2 / r[None, None, :, :]
    return jac.reshape(m * n, m * n)


def _scaled_jacobian(r: np.ndarray, z: np.ndarray, backend: str) -> np.ndarray:
    """The relative-residual Jacobian ``nested_jacobian(r) / z`` rows.

    The per-row ``1/z_st`` scaling is fused into the blocked assembly
    (same division, so bit-identical to the two-pass expression)
    instead of a second full-matrix pass.  Reuses the factorisation
    the residual evaluation left in the cache.
    """
    pinv = laplacian_factor_cached(r).pinv
    return transfer_jacobian(pinv, r, z=z, backend=backend)


def _gn_step(jac: np.ndarray, rhs: np.ndarray, obs) -> np.ndarray | None:
    """Solve the square system ``jac @ step = rhs`` to ~1e-13.

    Factorise once in float32 (half the memory traffic of dgetrf on
    this n²×n² matrix), then polish by iterative refinement against
    the double-precision ``jac``.  If refinement cannot reach
    :data:`_REFINE_LIMIT` — ill-conditioned or overflowed float32
    factor — re-factorise in double precision; ``None`` only when even
    that is singular.
    """
    rhs_norm = float(np.linalg.norm(rhs))
    if rhs_norm == 0.0:
        return np.zeros_like(rhs)
    step = None
    try:
        lu32 = scipy.linalg.lu_factor(
            jac.astype(np.float32), check_finite=False
        )
        step = scipy.linalg.lu_solve(
            lu32, rhs.astype(np.float32), check_finite=False
        ).astype(np.float64)
        for _ in range(_REFINE_SWEEPS):
            resid = rhs - jac @ step
            relres = float(np.linalg.norm(resid)) / rhs_norm
            if not np.isfinite(relres) or relres <= _REFINE_TARGET:
                break
            step = step + scipy.linalg.lu_solve(
                lu32, resid.astype(np.float32), check_finite=False
            ).astype(np.float64)
        resid = rhs - jac @ step
        relres = float(np.linalg.norm(resid)) / rhs_norm
        if np.isfinite(relres) and relres <= _REFINE_LIMIT:
            return step
    except (np.linalg.LinAlgError, scipy.linalg.LinAlgError, ValueError):
        pass
    obs.count("solver.gn.refine_fallbacks")
    try:
        return scipy.linalg.solve(jac, rhs, check_finite=False)
    except (np.linalg.LinAlgError, scipy.linalg.LinAlgError):
        return None


def solve_nested(
    z: np.ndarray,
    voltage: float = 5.0,
    r0: np.ndarray | None = None,
    tol: float = 1e-12,
    max_iter: int = 100,
    backend: str = "numpy",
    observer=None,
) -> SolveResult:
    """Variable-projection solve of Z(R) = Z_measured.

    Gauss–Newton on ``θ = log R`` with residuals ``(Z̃ - Z)/Z``, the
    analytic blocked Jacobian, and the direct refined step of
    :func:`_gn_step`; rejected steps backtrack along the GN direction
    (cheap forward evaluations) before escalating to a Levenberg
    rescue.  A singular Jacobian ends the solve unconverged before any
    step is attempted (counted as ``solver.gn.singular_exits``; see
    "Fast path").  Per-iteration wall time lands in the
    ``solver.iteration.seconds`` histogram of the active observer.
    """
    from repro.observe.observer import as_observer

    z = require_positive_array(z, "z")
    require_positive(voltage, "voltage")
    obs = as_observer(observer)
    backend = resolve_backend(backend, obs)
    m, n = z.shape
    start = time.perf_counter()
    if r0 is None:
        r_unif = float(np.median(z) * m * n / (m + n - 1))
        r0 = np.full((m, n), r_unif)
    theta = np.log(require_positive_array(r0, "r0")).ravel()
    z_flat = z.ravel()

    def cost_and_res(th: np.ndarray):
        """(cost, res, r) at θ — (inf, None, None) for unusable trials.

        A large trial step can overflow ``exp`` (non-finite field) or
        produce a non-finite cost; both read as "worse than anything"
        so the line search / rescue rejects them instead of crashing.
        """
        with np.errstate(over="ignore", invalid="ignore"):
            r = np.exp(th).reshape(m, n)
        if not np.all(np.isfinite(r)) or np.any(r <= 0.0):
            return np.inf, None, None
        pred = predict_z(r).ravel()
        res = (pred - z_flat) / z_flat
        cost = 0.5 * float(res @ res)
        if not np.isfinite(cost):
            return np.inf, None, None
        return cost, res, r

    cost, res, r_cur = cost_and_res(theta)
    if res is None:
        raise ValueError("r0 produces a non-finite forward prediction")
    iterations = 0
    converged = False
    termination = "max_iter"
    for iterations in range(1, max_iter + 1):
        if np.max(np.abs(res)) < tol:
            converged, termination = True, "residual"
            break
        iter_start = time.perf_counter()
        jac = _scaled_jacobian(r_cur, z, backend)
        col_scale = np.einsum("ij,ij->j", jac, jac)
        if col_scale.min() <= _SINGULAR_RATIO * col_scale.max():
            obs.count("solver.gn.singular_exits")
            termination = "singular"
            break
        step = _gn_step(jac, -res, obs)
        accepted_step = None
        if step is not None:
            alpha = 1.0
            for _ in range(_LINESEARCH_HALVINGS):
                trial = theta + alpha * step
                new_cost, new_res, new_r = cost_and_res(trial)
                if new_cost < cost:
                    theta = trial
                    cost, res, r_cur = new_cost, new_res, new_r
                    accepted_step = alpha * step
                    break
                alpha *= 0.5
        if accepted_step is None:
            obs.count("solver.gn.lm_rescues")
            rescue = _lm_rescue(jac, res, theta, cost, cost_and_res, backend)
            if rescue is not None:
                accepted_step, cost, res, r_cur, theta = rescue
        obs.observe_hist(
            "solver.iteration.seconds", time.perf_counter() - iter_start
        )
        if accepted_step is None:
            termination = "no_descent"
            break
        if np.max(np.abs(accepted_step)) < 1e-15:
            converged, termination = True, "step"
            break
    if not converged and np.max(np.abs(res)) < tol:
        converged, termination = True, "residual"
    return SolveResult(
        r_estimate=r_cur,
        method="nested",
        iterations=iterations,
        residual_norm=float(np.linalg.norm(res)),
        elapsed_seconds=time.perf_counter() - start,
        converged=converged,
        backend=backend,
        termination=termination,
    )


def _lm_rescue(jac, res, theta, cost, cost_and_res, backend):
    """Levenberg fallback when the GN direction yields no decrease.

    Assembles the normal equations lazily (only this path pays the
    JᵀJ gemm) and retries with an escalating damping ridge written
    onto the diagonal in place — diagonal values identical to the
    historical ``jtj + lam·diag(diag(jtj)) + 1e-300·I`` expression,
    without re-allocating two dense n²×n² matrices per retry.
    """
    jtj, grad = fused_jtj_grad(jac, res, backend)
    diag_base = np.diag(jtj).copy()
    diag_idx = np.diag_indices_from(jtj)
    lam = 1e-4
    for _ in range(25):
        jtj[diag_idx] = diag_base + lam * diag_base + 1e-300
        try:
            step = np.linalg.solve(jtj, -grad)
        except np.linalg.LinAlgError:
            lam = max(lam * 10.0, 1e-8)
            continue
        new_cost, new_res, new_r = cost_and_res(theta + step)
        if new_cost < cost:
            return step, new_cost, new_res, new_r, theta + step
        lam = max(lam * 10.0, 1e-8)
    return None


def solve_nested_reference(
    z: np.ndarray,
    voltage: float = 5.0,
    r0: np.ndarray | None = None,
    tol: float = 1e-12,
    max_iter: int = 100,
) -> SolveResult:
    """The pre-fast-path damped Gauss–Newton solver, kept verbatim.

    Normal-equation Levenberg–Marquardt over the full-broadcast
    Jacobian — the baseline ``benchmarks/bench_solver.py`` measures
    speedups against, and the behavioural reference the regression
    suite compares :func:`solve_nested` recoveries to.  Not wired into
    any production path.
    """
    z = require_positive_array(z, "z")
    require_positive(voltage, "voltage")
    m, n = z.shape
    start = time.perf_counter()
    if r0 is None:
        r_unif = float(np.median(z) * m * n / (m + n - 1))
        r0 = np.full((m, n), r_unif)
    theta = np.log(require_positive_array(r0, "r0")).ravel()
    z_flat = z.ravel()

    def cost_and_res(th: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
        r = np.exp(th).reshape(m, n)
        pred = predict_z(r).ravel()
        res = (pred - z_flat) / z_flat
        return 0.5 * float(res @ res), res, r

    cost, res, r_cur = cost_and_res(theta)
    iterations = 0
    converged = False
    lam = 0.0  # Levenberg damping, raised on rejected steps
    for iterations in range(1, max_iter + 1):
        jac = nested_jacobian_reference(r_cur) / z_flat[:, None]
        grad = jac.T @ res
        if np.max(np.abs(res)) < tol:
            converged = True
            break
        jtj = jac.T @ jac
        step = None
        for _ in range(25):
            try:
                step = np.linalg.solve(
                    jtj + lam * np.diag(np.diag(jtj)) + 1e-300 * np.eye(len(grad)),
                    -grad,
                )
            except np.linalg.LinAlgError:
                lam = max(lam * 10.0, 1e-8)
                continue
            new_cost, new_res, new_r = cost_and_res(theta + step)
            if new_cost < cost:
                theta = theta + step
                cost, res, r_cur = new_cost, new_res, new_r
                lam = lam / 3.0 if lam > 1e-12 else 0.0
                break
            lam = max(lam * 10.0, 1e-8)
        else:
            break  # no acceptable step found
        if step is not None and np.max(np.abs(step)) < 1e-15:
            converged = True
            break
    if np.max(np.abs(res)) < tol:
        converged = True
    return SolveResult(
        r_estimate=r_cur,
        method="nested",
        iterations=iterations,
        residual_norm=float(np.linalg.norm(res)),
        elapsed_seconds=time.perf_counter() - start,
        converged=converged,
    )


def solve_full(
    z: np.ndarray,
    voltage: float = 5.0,
    r0: np.ndarray | None = None,
    tol: float = 1e-10,
    max_nfev: int = 60,
    backend: str = "numpy",
    observer=None,
) -> SolveResult:
    """Joint solve over (θ, Ua, Ub) — the paper's literal formulation.

    Trust-region reflective least squares with the analytic sparse
    Jacobian; ``tr_solver='lsmr'`` keeps memory at the Jacobian's
    O(n^4) nonzeros.  The ``backend`` knob is accepted for interface
    symmetry but has no effect: this path is sparse end to end and
    never assembles the dense kernels the knob selects.
    """
    del backend, observer  # sparse path: no dense kernels to select
    z = require_positive_array(z, "z")
    if z.shape[0] != z.shape[1]:
        raise ValueError("full solver requires a square device")
    n = z.shape[0]
    system = JointSystem(n=n, z=z, voltage=voltage)
    start = time.perf_counter()
    x0 = system.initial_state(r0)
    result = scipy.optimize.least_squares(
        system.residual,
        x0,
        jac=system.jacobian,
        method="trf",
        tr_solver="lsmr",
        xtol=tol,
        ftol=tol,
        gtol=tol,
        max_nfev=max_nfev,
    )
    r_est, _, _ = system.unpack(result.x)
    return SolveResult(
        r_estimate=r_est,
        method="full",
        iterations=int(result.nfev),
        residual_norm=float(np.linalg.norm(result.fun)),
        elapsed_seconds=time.perf_counter() - start,
        converged=bool(result.success),
    )


def solve_bounded(
    z: np.ndarray,
    voltage: float = 5.0,
    r0: np.ndarray | None = None,
    tol: float = 1e-10,
    max_nfev: int = 200,
    spread: float = 6.0,
    backend: str = "numpy",
    observer=None,
) -> SolveResult:
    """Box-bounded trust-region solve on ``θ = log R`` (safety net).

    The last rung of the degradation ladder
    (:mod:`repro.resilience.degrade`): when Gauss–Newton diverges —
    wildly inconsistent measurements, a poisoned warm start — this
    solve cannot run away, because every iterate is confined to
    ``θ ∈ [θ_unif - spread, θ_unif + spread]`` around the uniform-field
    estimate (±``spread`` natural-log units ≈ a factor ``e^spread`` in
    resistance, generous for any physical device).  Slower and less
    accurate than :func:`solve_nested`, but it always returns a finite
    field.
    """
    from repro.observe.observer import as_observer

    z = require_positive_array(z, "z")
    require_positive(voltage, "voltage")
    backend = resolve_backend(backend, as_observer(observer))
    m, n = z.shape
    start = time.perf_counter()
    theta_unif = float(np.log(np.median(z) * m * n / (m + n - 1)))
    lo = theta_unif - spread
    hi = theta_unif + spread
    if r0 is None:
        theta0 = np.full(m * n, theta_unif)
    else:
        theta0 = np.log(require_positive_array(r0, "r0")).ravel()
    # least_squares requires a strictly interior start.
    margin = 1e-9 * max(1.0, abs(hi - lo))
    theta0 = np.clip(theta0, lo + margin, hi - margin)
    z_flat = z.ravel()

    def residual(th: np.ndarray) -> np.ndarray:
        r = np.exp(th).reshape(m, n)
        return (predict_z(r).ravel() - z_flat) / z_flat

    def jacobian(th: np.ndarray) -> np.ndarray:
        r = np.exp(th).reshape(m, n)
        return _scaled_jacobian(require_positive_array(r, "r"), z, backend)

    result = scipy.optimize.least_squares(
        residual,
        theta0,
        jac=jacobian,
        bounds=(lo, hi),
        method="trf",
        xtol=tol,
        ftol=tol,
        gtol=tol,
        max_nfev=max_nfev,
    )
    r_est = np.exp(result.x).reshape(m, n)
    return SolveResult(
        r_estimate=r_est,
        method="bounded",
        iterations=int(result.nfev),
        residual_norm=float(np.linalg.norm(result.fun)),
        elapsed_seconds=time.perf_counter() - start,
        converged=bool(result.success) and bool(np.all(np.isfinite(r_est))),
        backend=backend,
    )


def solve(
    z: np.ndarray,
    voltage: float = 5.0,
    method: str = "nested",
    backend: str = "numpy",
    observer=None,
    **kwargs,
) -> SolveResult:
    """Dispatch to a solver by name.

    ``"nested"`` (recommended), ``"full"`` (the paper's joint system),
    ``"regularized"`` (Tikhonov-smoothed nested; pass ``lam=...``,
    default 1e-3 — see :mod:`repro.core.regularized`), or ``"bounded"``
    (box-constrained trust region, the degradation ladder's safety
    net).  ``backend`` selects the dense-kernel implementation
    (``"numpy"``/``"compiled"``; see
    :mod:`repro.core.solver_backends`) and threads to every method —
    the sparse ``"full"`` solver accepts and ignores it.
    """
    if method == "nested":
        return solve_nested(
            z, voltage=voltage, backend=backend, observer=observer, **kwargs
        )
    if method == "full":
        return solve_full(
            z, voltage=voltage, backend=backend, observer=observer, **kwargs
        )
    if method == "regularized":
        from repro.core.regularized import solve_regularized

        kwargs.setdefault("lam", 1e-3)
        return solve_regularized(
            z, voltage=voltage, backend=backend, observer=observer, **kwargs
        )
    if method == "bounded":
        return solve_bounded(
            z, voltage=voltage, backend=backend, observer=observer, **kwargs
        )
    raise ValueError(
        f"unknown method {method!r}; use 'nested', 'full', 'regularized' "
        "or 'bounded'"
    )
