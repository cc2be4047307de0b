"""Regularized least-squares synthesis of boundary controls.

Controls are synthesized by conjugate gradients on the normal equations
(CGLS) for the misfit between the reachable final snapshot and a target,
measured in a smoothness-weighted modal norm, plus an optional Tikhonov
penalty on the control.  Because the forward and observation operators are
exact discrete adjoints, the normal equations are available without any
auxiliary PDE solves.  A Tikhonov sweep is one multi-shift CGLS: the Krylov
space of the normal equations does not depend on alpha, so the smallest
alpha's run carries every larger one as a shift, and the operator pair is
applied once per iteration, not once per alpha.

Restricted control classes are realized structurally by the class operator
of ``regularizer.class_operators``: candidates are masked to [delta, T] and
post-composed with time mollification, antisymmetrized about the horizon when
the class requires the final snapshot data and its even time derivatives to
vanish at t = T.  C* is folded into the sine time factors of the boundary
cylinder (``waveop.modal_factors``) once per horizon, step count, class,
delta and epsilon, and the folded cylinder is kept in the basis's memo, which
the alpha sweep and the H1 experiment share; C acts on the synthesized
control once, never per iteration.

The H1 experiment reconstructs reachable states as a boundary lifting plus a
modal correction.  Truncated modal sums vanish on the boundary, so without
the lifting no state with a nonzero boundary trace could be approached in a
gradient norm; the lifting carries exactly the control's final-time boundary
values, which is what the continuous solution does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import reduce

import numpy as np

from .geometry import DomainSpec, FilledRegion, filled_subdomain, grid_trapezoid_weights
from .regularizer import CONTROL_CLASSES, class_operators
from .spectral import SpectralBasis, _fd_stencil, fd_operator, project
from .waveop import (
    DEFAULT_TIME_STEPS,
    BoundaryControl,
    _last_entry,
    _window_mask,
    control_to_state,
    f_norm,
    modal_factors,
    observe,
)

__all__ = [
    "SynthesisProblem",
    "SynthesisResult",
    "ObservabilityVerdict",
    "DEFAULT_ALPHA_SCHEDULE",
    "synthesize_control",
    "residual_curve",
    "unreachability_bound",
    "observability_test",
    "h1_star_experiment",
    "lifted_final_state",
    "h1_inner",
]

DEFAULT_ALPHA_SCHEDULE = (1e-2, 1e-3, 1e-4, 1e-5, 1e-6)


@dataclass
class SynthesisProblem:
    """Target snapshot, horizon, norm weight, and solver knobs.

    control_class: "all_of_F" optimizes raw samples; "smooth" masks candidates
    to [delta, T] and mollifies in time; "smooth_vanishing_at_T" additionally
    antisymmetrizes the mollifier about the horizon.
    """

    target: np.ndarray  # grid values of the domain's shape
    T: float
    s: float = 0.0
    control_class: str = "all_of_F"
    alpha: float = 0.0
    budget: int = 500
    tol: float = 1e-8
    delta: float | None = None
    epsilon: float | None = None
    n_steps: int = DEFAULT_TIME_STEPS

    def __post_init__(self):
        if self.T <= 0:
            raise ValueError(f"horizon must be positive, got {self.T}")
        if self.s < 0:
            raise ValueError(f"norm weight s must be nonnegative, got {self.s}")
        if self.alpha < 0:
            raise ValueError(f"Tikhonov weight must be nonnegative, got {self.alpha}")
        if self.control_class not in CONTROL_CLASSES:
            raise ValueError(f"unknown control class {self.control_class!r}")
        if self.delta is None:
            self.delta = self.T / 10.0
        if self.epsilon is None:
            self.epsilon = self.delta / 2.0
        if self.control_class != "all_of_F" and not 0 < self.epsilon < self.delta < self.T:
            raise ValueError(
                f"need 0 < eps < delta < T, got eps={self.epsilon}, "
                f"delta={self.delta}, T={self.T}"
            )


@dataclass
class SynthesisResult:
    control: BoundaryControl
    residual_history: np.ndarray  # objective norm per iteration, nonincreasing
    final_residual: float  # misfit in the chosen norm
    target_norm: float
    relative_residual: float
    iterations: int
    converged: bool


def _cgls(apply_fwd, apply_adj, rhs, inner_data, inner_ctrl, alphas, budget, tol):
    """CGLS for min |A g - rhs|_data^2 + alpha |g|_ctrl^2, from g = 0, for
    every alpha of a strictly decreasing schedule.

    The last alpha is the seed, solved by plain CGLS.  Every other alpha is
    a shift sigma = alpha - alphas[-1] of the seed's normal equations, whose
    Krylov space does not depend on sigma: its normal residual is the seed's
    s times a scalar zeta (multi-shift CG, Jegerlehner hep-lat/9612014), so
    a shift applies neither A nor its adjoint.  It updates its own g and p
    rows, and its data residual through A p from the seed's A s_k = q_k -
    beta_{k-1} q_{k-1}, and stops once |zeta| |s| <= tol |s_0|.

    Returns one (g, history, iterations, converged) per alpha, in schedule
    order; history holds the augmented objective norm per iteration, which
    CGLS keeps nonincreasing.
    """
    alpha = alphas[-1]
    r = rhs.copy()  # data-space residual rhs - A g
    s_vec = apply_adj(r)  # gradient direction, minus alpha * g (g = 0)
    g = np.zeros_like(s_vec)
    p = s_vec.copy()
    gamma = inner_ctrl(s_vec, s_vec)
    norm0 = math.sqrt(max(gamma, 0.0))
    history = [math.sqrt(max(inner_data(r, r), 0.0))]
    converged = norm0 == 0.0
    # the running shifts: schedule index, alpha, zeta and its last ratio,
    # stacked g and p rows, data residuals and A p; the seed's last step,
    # beta and A p
    live, a_sh = list(range(len(alphas) - 1)), np.array(alphas[:-1], dtype=float)
    zeta, ratio = np.ones(len(live)), np.ones(len(live))
    G, P = np.zeros((len(live),) + g.shape), np.repeat(p[None], len(live), axis=0)
    R, W = np.repeat(r[None], len(live), axis=0), np.zeros((len(live),) + r.shape)
    hists = [history[:] for _ in live]
    step_old, beta, q_old = 1.0, 0.0, 0.0
    out = [None] * len(alphas)
    its = 0
    for its in range(1, budget + 1):
        if converged:
            its -= 1
            break
        q = apply_fwd(p)
        denom = inner_data(q, q) + alpha * inner_ctrl(p, p)
        if denom <= 0:
            its -= 1
            break
        step = gamma / denom
        if live:
            W *= (beta * ratio**2)[:, None]
            W += zeta[:, None] * (q - beta * q_old)  # A p = zeta A s + beta' A p_old
            sigma_step = (a_sh - alpha) * step
            ratio = step_old / (step_old * (1.0 + sigma_step) + step * beta * (1.0 - ratio))
            G += (step * ratio)[:, None, None] * P
            R -= (step * ratio)[:, None] * W
        g += step * p
        r -= step * q
        s_vec = apply_adj(r)
        s_vec -= alpha * g
        gamma_new = inner_ctrl(s_vec, s_vec)
        history.append(math.sqrt(max(inner_data(r, r) + alpha * inner_ctrl(g, g), 0.0)))
        if math.sqrt(max(gamma_new, 0.0)) <= tol * norm0:
            converged = True
        if live:
            step_old, beta, q_old = step, gamma_new / gamma, q
            zeta *= ratio
            P *= (beta * ratio**2)[:, None, None]
            P += zeta[:, None, None] * s_vec
            objective = [inner_data(rj, rj) for rj in R] + a_sh * inner_ctrl(G, G)
            for h, value in zip(hists, np.sqrt(np.maximum(objective, 0.0))):
                h.append(float(value))
            done = np.abs(zeta) * math.sqrt(max(gamma_new, 0.0)) <= tol * norm0
            if done.any():
                for j in np.flatnonzero(done):
                    out[live[j]] = (G[j].copy(), np.array(hists[j]), its, True)
                keep = np.flatnonzero(~done)
                live, hists = [live[j] for j in keep], [hists[j] for j in keep]
                a_sh, zeta, ratio, G, P, R, W = (x[keep] for x in (a_sh, zeta, ratio, G, P, R, W))
        p *= gamma_new / gamma
        p += s_vec
        gamma = gamma_new
    for j, h, gj in zip(live, hists, G):
        out[j] = (gj, np.array(h), its, norm0 == 0.0)
    out[-1] = (g, np.array(history), its, bool(converged))
    return out


def _solve(problem, alphas, fwd, adj, inner_ctrl, apply_c, rhs, inner_data) -> list:
    """CGLS over the control samples for the forward map fwd and its adjoint
    adj, one SynthesisResult per alpha of the decreasing schedule alphas.

    Both act through the class-folded cylinder: C acts in time only, so its
    adjoint folds into the sine time factors, and the class operator acts
    on those once and on each output (apply_c) once, never per iteration.
    inner_ctrl and inner_data are the control- and data-space inner
    products; the misfit and the target norm are measured in the latter.
    """
    norm = lambda u: float(np.sqrt(max(inner_data(u, u), 0.0)))
    target_norm = norm(rhs)
    results = []
    for g, history, its, converged in _cgls(
        fwd, adj, rhs, inner_data, inner_ctrl, alphas, problem.budget, problem.tol
    ):
        final = norm(fwd(g) - rhs)
        results.append(
            SynthesisResult(
                control=BoundaryControl(samples=apply_c(g), T=problem.T),
                residual_history=history,
                final_residual=final,
                target_norm=target_norm,
                relative_residual=final / target_norm if target_norm > 0 else final,
                iterations=its,
                converged=converged,
            )
        )
    return results


def _class_fold(problem: SynthesisProblem, basis: SpectralBasis):
    """The class operator (C, C*) and the folded cylinder: the boundary
    cylinder modal_factors(basis, T, n_steps) with C* folded into its sines.

    Kept, the sines read-only, in the basis's memo under (T, n_steps, class,
    delta, epsilon): an alpha sweep and the H1 experiment build the class
    operator and the fold once, and all of it is freed with the basis.
    """

    def build():
        apply_c, apply_ct = class_operators(
            problem.control_class, problem.T, problem.delta, problem.epsilon, problem.n_steps + 1
        )
        fac = modal_factors(basis, problem.T, problem.n_steps)
        V = apply_ct(fac.V)
        V.setflags(write=False)
        return apply_c, apply_ct, replace(fac, V=V)

    key = (problem.T, problem.n_steps, problem.control_class, problem.delta, problem.epsilon)
    return basis.memo(key, build)


def _synthesize(problem: SynthesisProblem, alphas, basis: SpectralBasis) -> list:
    """One CGLS for the schedule alphas on the s-weighted folded cylinder."""
    weights_s = basis.lambdas ** (problem.s / 2.0)
    y_hat = weights_s * project(problem.target, basis)
    apply_c, _, fac = _class_fold(problem, basis)
    if problem.s != 0:  # lambda^0 = 1 exactly: the memoised cylinder itself
        # the weighted forward map W: s-weighted traces x class-folded sines
        fac = replace(fac, U=weights_s[:, None] * fac.U)
    inner_data = lambda u, v: float(u @ v)
    return _solve(problem, alphas, fac.pair, fac.expand, fac.inner, apply_c, y_hat, inner_data)


def synthesize_control(problem: SynthesisProblem, basis: SpectralBasis) -> SynthesisResult:
    """Minimize the weighted modal misfit of the final snapshot.

    Objective: |W f - y|_{s-weighted, truncated}^2 + alpha |f|_F^2 over the
    chosen control class.  Never raises on non-convergence; the budget result
    is returned with converged = False.
    """
    return _synthesize(problem, (problem.alpha,), basis)[0]


def residual_curve(problem: SynthesisProblem, alphas, basis: SpectralBasis) -> list:
    """Synthesis sweep over a decreasing positive Tikhonov schedule.

    One multi-shift CGLS for the whole schedule: the smallest alpha is the
    seed, solved as synthesize_control solves it, and every other alpha
    rides its Krylov sequence with its own iteration count.  The results in
    schedule order.  The class operator, its fold into the time factors and
    the weighted cylinder are built once per sweep.
    """
    alphas = list(alphas)
    if any(a <= 0 for a in alphas):
        raise ValueError("alpha schedule must be positive")
    if any(b >= a for a, b in zip(alphas, alphas[1:])):
        raise ValueError("alpha schedule must be strictly decreasing")
    return _synthesize(problem, alphas, basis)


def unreachability_bound(target: np.ndarray, region: FilledRegion, band: float = 0.0) -> float:
    """Lower bound on the best final-snapshot misfit in H: the H-norm of the
    target outside the region dilated by ``band``.

    Any reachable snapshot is supported in the filled region, so the target
    mass outside bounds the misfit from below; a band of a few grid spacings
    discounts the discrete smearing layer and gives the honest certificate.
    """
    return math.sqrt(region.mass_outside(target, band))


@dataclass(frozen=True)
class ObservabilityVerdict:
    """Outcome of the vanishing-trace test on the tail window [delta, T]."""

    trace_ratio: float  # |observation|_F on the window / |y|_H
    inside_ratio: float  # target mass fraction inside the shrunken region
    observable: bool  # trace above tolerance
    support_ok: bool | None  # only meaningful when not observable
    passed: bool


# largest mass fraction of a silent perturbation inside the shrunken region
_COUPLED_TOL = 0.05


def observability_test(
    y: np.ndarray,
    T: float,
    delta: float,
    tol: float,
    basis: SpectralBasis,
    tau: np.ndarray,
    band: float = 0.0,
    n_steps: int = DEFAULT_TIME_STEPS,
) -> ObservabilityVerdict:
    """Near-zero observation on [delta, T] should force the perturbation
    to live outside the region filled within time T - delta, shrunk by band;
    tau is the eikonal distance of basis.domain."""
    if not 0 < delta < T:
        raise ValueError(f"need 0 < delta < T, got delta={delta}, T={T}")
    g = observe(y, T, basis, n_steps=n_steps)
    sel = _window_mask(T, n_steps, delta)
    tr = f_norm(g[:, sel], basis.boundary_weights, T / n_steps)
    y_norm = basis.h_norm(y)
    trace_ratio = tr / y_norm if y_norm > 0 else 0.0
    inside = filled_subdomain(basis.domain, tau, T - delta).dilated(-band)
    w = basis.mass_weights
    inside_ratio = float(
        np.sqrt(np.sum(w[inside] * y[inside] ** 2)) / y_norm if y_norm > 0 else 0.0
    )
    observable = trace_ratio > tol
    support_ok = None if observable else inside_ratio <= _COUPLED_TOL
    return ObservabilityVerdict(
        trace_ratio=trace_ratio,
        inside_ratio=inside_ratio,
        observable=observable,
        support_ok=support_ok,
        passed=observable or bool(support_ok),
    )


# ---------------------------------------------------------------------------
# gradient-norm experiment


def _axis_diff_weights(domain: DomainSpec, axis: int) -> np.ndarray:
    """Quadrature weights for squared difference quotients along one axis.

    Midpoint weights h along the differenced axis, trapezoid across it.
    """
    ws = [grid_trapezoid_weights((n,), (h,)) for n, h in zip(domain.shape, domain.spacings)]
    ws[axis] = np.full(domain.shape[axis] - 1, domain.spacings[axis])
    return reduce(np.multiply.outer, ws)


def _h1_apply(v: np.ndarray, basis: SpectralBasis) -> np.ndarray:
    """The grid H1 form as an operator: h1_inner(u, v) = <u, H v>.

    Mass weights times v, plus per axis the transposed forward differences
    of the weighted difference quotients of v.  v may be one grid function
    or a stack of them along a leading axis.
    """
    dom = basis.domain
    out = basis.mass_weights * v
    for axis, h in enumerate(dom.spacings):
        along = axis - dom.dimension  # the same axis of a stack
        flux = _axis_diff_weights(dom, axis) * np.diff(v, axis=along) / h**2
        # D^T flux: each quotient leaves its low node and enters its high one
        node, flux = np.moveaxis(out, along, 0), np.moveaxis(flux, along, 0)
        node[:-1] -= flux
        node[1:] += flux
    return out


def h1_inner(u: np.ndarray, v: np.ndarray, basis: SpectralBasis) -> float | np.ndarray:
    """Grid gradient quadrature plus the mass term.

    Uses forward difference quotients per axis, so boundary values enter;
    targets are not required to vanish on the boundary.  u and v may each be
    one grid function or a stack of them along a leading axis; the result is
    indexed by u's stack, then v's.
    """
    dim, size = basis.domain.dimension, basis.mass_weights.size
    total = np.dot(u.reshape(-1, size), _h1_apply(v, basis).reshape(-1, size).T)
    total = total.reshape(u.shape[: u.ndim - dim] + v.shape[: v.ndim - dim])
    return float(total) if total.ndim == 0 else total


def _boundary_lift(domain: DomainSpec) -> np.ndarray:
    """Columns lifting unit boundary-node data into the domain.

    Discrete harmonic extension under the assembled operator: each column is
    one on its boundary node, zero on the others, and annihilated by the
    interior rows of fd_operator.  Shape (n_nodes, n_bnd).
    """
    bnd = domain.boundary_mask.ravel()
    inner, outer = np.flatnonzero(~bnd), np.flatnonzero(bnd)
    cols = np.zeros((bnd.size, len(outer)))
    if domain.dimension == 1:
        # O(n) elimination from the node opposite the data, in the couplings
        # g = a/h^2 and q so that no step subtracts: pivot p_k = r_k + g_{k+1},
        # excess r_k = q_k + g_k r_{k-1}/p_{k-1}; then a running product
        _, (w,) = _fd_stencil(domain)
        q = np.zeros(bnd.size) if domain.potential is None else domain.potential
        for col, step in ((0, -1), (1, 1)):
            g, q_in = (-w[::step]).tolist(), q[1:-1][::step].tolist()
            ratio, decay = 1.0, []  # a boundary node is all excess
            for g_in, g_out, q_k in zip(g[:-1], g[1:], q_in):
                r = q_k + g_in * ratio
                ratio = r / (r + g_out)
                decay.append(g_out / (r + g_out))
            cols[inner, col] = np.cumprod(decay[::-1])[::-1][::step]
    else:
        from scipy.sparse.linalg import splu

        L_inner = fd_operator(domain)[inner]
        cols[inner] = splu(L_inner[:, inner].tocsc()).solve(-L_inner[:, outer].toarray())
    cols[outer, np.arange(len(outer))] = 1.0
    return cols


def _lift_rows(basis: SpectralBasis) -> np.ndarray:
    """The boundary part of the lifted space: one grid function per boundary node.

    Row b is lift column b less its modal shadow, so the lifted state with
    modal coefficients c and terminal boundary values b is c @ modes +
    b @ rows, and the lifted columns are R = [modes; rows].  Built once per
    basis (the 2D lift is a sparse LU solve) and kept, read-only, in the
    basis's memo.
    """

    def build():
        lift = _boundary_lift(basis.domain).T  # (n_bnd, n_nodes)
        flat = basis.modes.reshape(basis.n_modes, -1)
        rows = (lift @ (basis.mass_weights.ravel() * flat).T) @ flat
        np.subtract(lift, rows, out=rows)
        rows = rows.reshape((-1,) + basis.modes.shape[1:])
        rows.setflags(write=False)
        return rows

    return basis.memo("lift_rows", build)


def lifted_final_state(control: BoundaryControl, basis: SpectralBasis) -> np.ndarray:
    """Final snapshot carrying the control's terminal boundary values.

    The modal snapshot plus the lift rows weighted by f(., T); agrees with
    the plain modal snapshot whenever f(., T) = 0.
    """
    b = control.samples[:, -1]
    return control_to_state(control, basis) + np.tensordot(b, _lift_rows(basis), axes=1)


def h1_star_experiment(
    target: np.ndarray,
    T: float,
    basis: SpectralBasis,
    budget: int = 500,
    delta: float | None = None,
    epsilon: float | None = None,
    n_steps: int = DEFAULT_TIME_STEPS,
) -> SynthesisResult:
    """Gradient-norm synthesis with no terminal constraint on the control.

    The reachable state is reconstructed as the boundary lifting of the
    control's final-time values plus the modal correction, and the misfit is
    minimized in the grid H1 norm, so targets with nonzero boundary values
    are admissible.  Controls range over the "smooth" class, with no
    Tikhonov term, to a relative gradient tolerance of 1e-10.

    CGLS runs in the lifted coordinates: with the Gram Q1 of the J = K +
    n_bnd lifted columns R e_j and the split y = R y_J + y_perp of the
    target (_lifted_target), the data space holds the (J + 1)-vectors
    (coefficients, perpendicular norm) under u[:J]^T Q1 v[:J] + u[J] v[J].
    The reachable states are (modal pairs, final-time values, 0) and the
    target is (y_J, |y_perp|_H1), so every misfit is the grid H1 misfit and
    no iteration touches the grid.
    """
    problem = SynthesisProblem(
        target=target,
        T=T,
        control_class="smooth",
        budget=budget,
        tol=1e-10,
        delta=delta,
        epsilon=epsilon,
        n_steps=n_steps,
    )
    gram, rhs = _lifted_target(target, basis)
    K, J = basis.n_modes, len(gram)
    apply_c, apply_ct, fac = _class_fold(problem, basis)
    # the final-time values (C g)[:, -1] are g @ w_T: C* folds the terminal
    # spike delta_T / wt[-1] into one time row, which adj weights by q / bw
    spike = apply_ct(np.eye(1, n_steps + 1, n_steps) / fac.wt[-1])[0]
    w_T = fac.wt * spike
    fwd = lambda g: np.concatenate([fac.pair(g), g @ w_T, [0.0]])

    def adj(z):
        q = gram @ z[:J]
        return fac.expand(q[:K]) + np.outer(q[K:] / fac.bw, spike)

    inner_data = lambda u, v: float(u[:J] @ (gram @ v[:J]) + u[J] * v[J])
    return _solve(problem, (0.0,), fwd, adj, fac.inner, apply_c, rhs, inner_data)[0]


# multiply-adds up to which OpenBLAS keeps a GEMM on the calling thread; a
# threaded GEMM touches its worker's buffer: pairing the desk's 66-row stack
# with all 66 rows at once touched 0.26 MB of new pages, blocks of 7 none
_ONE_THREAD_GEMM = 2**18
# stack rows paired at once where one row alone passes that threshold
_GRAM_BLOCK = 64


def _h1_gram(basis: SpectralBasis, R: np.ndarray) -> np.ndarray:
    """Q1 = R^T H R, the H1 Gram of the lifted columns R = [modes; rows].

    R is paired with blocks of its own rows, so no temporary is as large
    as R.
    """
    step = _ONE_THREAD_GEMM // R[0].size // len(R) or _GRAM_BLOCK
    gram = np.concatenate(
        [h1_inner(R, R[lo : lo + step], basis) for lo in range(0, len(R), step)], axis=1
    )
    gram = (gram + gram.T) / 2.0
    gram.setflags(write=False)
    return gram


def _spd_solve(Q: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Q x = b for a symmetric positive definite Q, by Jacobi-preconditioned
    conjugate gradients to rounding level, or J steps.

    In numpy alone: one LAPACK solve of the desk's 66 x 66 Q1 touches
    0.25 MB of new pages, which no other desk run needs.
    """
    inv_diag = 1.0 / np.diag(Q)
    x = np.zeros_like(b)
    r = b.copy()
    z = inv_diag * r
    p = z.copy()
    rz = rz0 = float(r @ z)
    for _ in range(len(b)):
        if rz <= 1e-32 * rz0:
            break
        q = Q @ p
        step = rz / float(p @ q)
        x += step * p
        r -= step * q
        z = inv_diag * r
        rz_new = float(r @ z)
        p *= rz_new / rz
        p += z
        rz = rz_new
    return x


def _lifted_target(target: np.ndarray, basis: SpectralBasis):
    """(Q1, rhs): the lifted Gram and the target's data vector.

    The target splits as y = R y_J + y_perp with Q1 y_J = h1_inner(R, y), so
    y_perp is H1-orthogonal to every lifted column; rhs = (y_J, |y_perp|_H1).
    Q1 is built once per basis and kept, read-only, in the basis's memo next
    to the lift rows; the split of the last target is kept there too, by
    the target's bytes, so the CLI times it apart from the solve without a
    second split.  R is freed on return.
    """

    def build():
        R = np.concatenate([basis.modes, _lift_rows(basis)])
        gram = basis.memo("h1_gram", lambda: _h1_gram(basis, R))
        y_J = _spd_solve(gram, h1_inner(R, target, basis))
        y_perp = target - np.tensordot(y_J, R, axes=1)
        rhs = np.append(y_J, math.sqrt(max(h1_inner(y_perp, y_perp, basis), 0.0)))
        rhs.setflags(write=False)
        return gram, rhs

    return _last_entry(basis.memo("h1_target", dict), target.tobytes(), build)
