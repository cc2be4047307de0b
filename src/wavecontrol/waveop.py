"""Boundary control and observation operators for the wave equation.

The forward system drives zero initial data with Dirichlet boundary data f on
[0, T] and reads off the final snapshot u^f(., T).  The dual system runs a
velocity perturbation y backwards from t = T with zero boundary data; its
outward conormal trace on the boundary cylinder is the observation.

Both operators are one rank-K factor object, built by ``modal_factors``: the
conormal traces of a truncated eigenbasis x sine time factors, under the
boundary measure x trapezoid product.  Its pairing is the control operator,
by transposition against the observation of each mode, and its expansion is
the observation.  The two discrete operators are therefore exact adjoints:
(forward f, y)_H equals (f, observe y)_F up to float roundoff, independent of
grid resolution.  An explicit leapfrog time stepper provides an independent
oracle for the forward map.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .geometry import DomainSpec, FilledRegion, _write_node_csvs, grid_trapezoid_weights
from .spectral import SpectralBasis, fd_operator, project, reconstruct

__all__ = [
    "BoundaryControl",
    "DEFAULT_TIME_STEPS",
    "time_grid",
    "time_weights",
    "f_inner",
    "f_norm",
    "solve_dual",
    "observe",
    "control_to_modal",
    "control_to_state",
    "verify_duality",
    "fd_oracle_forward",
    "support_violation",
    "random_control",
    "random_state",
    "write_state_csv",
    "write_trace_csv",
]

DEFAULT_TIME_STEPS = 1024  # trapezoid grid has DEFAULT_TIME_STEPS + 1 samples


@dataclass
class BoundaryControl:
    """Dirichlet data on the boundary cylinder, sampled on a uniform time grid.

    samples : (n_boundary, n_t) values; column i is time i*T/(n_t-1)
    """

    samples: np.ndarray
    T: float

    def __post_init__(self):
        self.samples = np.atleast_2d(np.asarray(self.samples, dtype=float))
        if self.T <= 0:
            raise ValueError(f"horizon must be positive, got {self.T}")
        if self.samples.shape[1] < 2:
            raise ValueError("need at least two time samples")
        if not np.all(np.isfinite(self.samples)):
            raise ValueError("non-finite control samples")

    @property
    def n_t(self) -> int:
        return self.samples.shape[1]

    @property
    def dt(self) -> float:
        return self.T / (self.n_t - 1)

    @property
    def times(self) -> np.ndarray:
        return time_grid(self.T, self.n_t - 1)


def time_grid(T: float, n_steps: int = DEFAULT_TIME_STEPS) -> np.ndarray:
    return np.linspace(0.0, T, n_steps + 1)


def _window_mask(T: float, n_steps: int, delta: float) -> np.ndarray:
    """The samples of time_grid(T, n_steps) in [delta, T], with a 1e-12 T slack."""
    return time_grid(T, n_steps) >= delta - 1e-12 * T


def time_weights(n_t: int, dt: float) -> np.ndarray:
    return grid_trapezoid_weights((n_t,), (dt,))


def _f_product(f: np.ndarray, g: np.ndarray, bw: np.ndarray, wt: np.ndarray):
    # the time sum as one matrix-vector product, then the boundary sum; the
    # CGLS iteration count of an ill-conditioned solve moves with this order.
    # Stacks of cylinders along a leading axis give one product per row.
    total = ((f * g) @ wt * bw).sum(axis=-1)
    return float(total) if total.ndim == 0 else total


def f_inner(f: np.ndarray, g: np.ndarray, bweights: np.ndarray, dt: float) -> float:
    """Inner product on the boundary cylinder: boundary measure x trapezoid."""
    return _f_product(f, g, bweights, time_weights(f.shape[1], dt))


def f_norm(f: np.ndarray, bweights: np.ndarray, dt: float) -> float:
    return float(np.sqrt(max(f_inner(f, f, bweights, dt), 0.0)))


def _sin_factors(lambdas: np.ndarray, times: np.ndarray, T: float) -> np.ndarray:
    """Matrix S[k, i] = sin(sqrt(lambda_k)(t_i - T)) / sqrt(lambda_k)."""
    roots = np.sqrt(lambdas)
    return np.sin(np.outer(roots, times - T)) / roots[:, None]


@dataclass(frozen=True, eq=False)
class Factors:
    """A boundary-cylinder map of rank at most J, held as its factors.

    Every control-space operator here is a stack of boundary factors U
    (J, n_bnd) and time factors V (J, n_t) under the boundary weights bw and
    the trapezoid time weights wt.  ``pair`` maps g to <g, U_j x V_j>_F for
    every j, ``expand`` is its adjoint and ``inner`` the F inner product,
    one per row for stacks of cylinders.
    The weighted factors are built on first use, once per object, so a
    solver that builds its object once pays for them once.
    """

    U: np.ndarray
    V: np.ndarray
    bw: np.ndarray
    wt: np.ndarray

    @cached_property
    def _weighted(self):
        return self.U * self.bw, self.V * self.wt

    def pair(self, g: np.ndarray) -> np.ndarray:
        # the GEMM contracts the long time axis; the temporary is (J, n_bnd)
        Ub, Vw = self._weighted
        return (Ub * (Vw @ g.T)).sum(axis=1)

    def expand(self, c: np.ndarray) -> np.ndarray:
        """sum_j c_j U_j x V_j as (n_bnd, n_t) samples."""
        return (self.U.T * c) @ self.V

    def inner(self, f: np.ndarray, g: np.ndarray) -> float | np.ndarray:
        return _f_product(f, g, self.bw, self.wt)


def _last_entry(memo: dict, key, build, keep: int = 1):
    """memo[key], calling build() on a miss after dropping the oldest entry of
    a full memo, so a memo holds at most its last ``keep`` entries and the
    entry a new one replaces is freed before the new one is built."""
    if key not in memo:
        if len(memo) >= keep:
            del memo[next(iter(memo))]
        memo[key] = build()
    return memo[key]


# the sine tables of the last eigenvalues, by their bytes: the last two
# (T, n_steps) tables on them, so consecutive runs on one basis share them
# across the two horizons a verify works on, and other eigenpairs free all
_LAST_SINES = {}


def modal_factors(basis: SpectralBasis, T: float, n_steps: int) -> Factors:
    """Conormal traces x read-only sine time factors on time_grid(T, n_steps).

    The boundary cylinder, built once per basis, horizon and step count and
    kept in the basis's memo, so every operator on it shares one object.  It
    holds the basis's arrays, never the basis: no cycle keeps a basis alive.
    The sine table is taken from a process-wide memo of the last two built
    on the last eigenvalues, so a later run with the same eigenvalues, T and
    n_steps reuses it; the object itself and its weights are the run's own.
    """

    def sines():
        S = _sin_factors(basis.lambdas, time_grid(T, n_steps), T)
        S.setflags(write=False)
        return S

    def build():
        tables = _last_entry(_LAST_SINES, basis.lambdas.tobytes(), dict)
        S = _last_entry(tables, (T, n_steps), sines, keep=2)
        wt = time_weights(n_steps + 1, T / n_steps)
        return Factors(basis.conormal_traces, S, basis.boundary_weights, wt)

    return basis.memo((T, n_steps), build)


def solve_dual(
    y: np.ndarray,
    T: float,
    basis: SpectralBasis,
    times: np.ndarray,
) -> np.ndarray:
    """History of the dual wave driven by terminal velocity y.

    Returns an array of snapshots, one per requested time.  The modal form is
    valid for all t, so times beyond T evaluate the odd extension about t = T.
    """
    if T <= 0:
        raise ValueError(f"horizon must be positive, got {T}")
    times = np.atleast_1d(np.asarray(times, dtype=float))
    S = _sin_factors(basis.lambdas, times, T)
    alphas = project(y, basis)
    flat = basis.modes.reshape(basis.n_modes, -1)
    hist = (alphas[:, None] * S).T @ flat
    return hist.reshape((len(times),) + tuple(basis.domain.shape))


def observe(
    y: np.ndarray,
    T: float,
    basis: SpectralBasis,
    n_steps: int = DEFAULT_TIME_STEPS,
) -> np.ndarray:
    """Conormal trace of the dual wave on the boundary cylinder, as
    (n_boundary, n_steps + 1) samples on time_grid(T, n_steps)."""
    if T <= 0:
        raise ValueError(f"horizon must be positive, got {T}")
    alphas = project(y, basis)
    return modal_factors(basis, T, n_steps).expand(alphas)


def _control_factors(f: BoundaryControl, basis: SpectralBasis) -> Factors:
    """modal_factors on the control's own time grid, for a control whose rows
    are the basis's boundary nodes."""
    if f.samples.shape[0] != len(basis.boundary_weights):
        raise ValueError(
            f"control has {f.samples.shape[0]} boundary rows, "
            f"domain has {len(basis.boundary_weights)} boundary nodes"
        )
    return modal_factors(basis, f.T, f.n_t - 1)


def control_to_modal(f: BoundaryControl, basis: SpectralBasis) -> np.ndarray:
    """Modal coefficients of the final snapshot, by transposition.

    Coefficient k is the boundary-cylinder pairing of f with the observation
    of mode k, the same quantity the adjoint identity equates with
    (u^f(., T), e_k)_H.
    """
    return _control_factors(f, basis).pair(f.samples)


def control_to_state(f: BoundaryControl, basis: SpectralBasis) -> np.ndarray:
    """Final snapshot u^f(., T) of the boundary-driven wave."""
    return reconstruct(control_to_modal(f, basis), basis)


def verify_duality(f: BoundaryControl, y: np.ndarray, basis: SpectralBasis) -> float:
    """Relative discrepancy of the adjoint identity for one (f, y) pair.

    |(u^f(., T), y)_H - (f, observe y)_F| / (|f|_F |y|_H).  Both sides come
    from one factor object: the forward map is its pairing and the
    observation its expansion.
    """
    fac = _control_factors(f, basis)
    lhs = basis.h_inner(reconstruct(fac.pair(f.samples), basis), y)
    g = fac.expand(project(y, basis))
    denom = float(np.sqrt(max(fac.inner(f.samples, f.samples), 0.0))) * basis.h_norm(y)
    rhs = fac.inner(f.samples, g)
    if denom == 0:
        return 0.0
    return abs(lhs - rhs) / denom


# ---------------------------------------------------------------------------
# independent finite-difference oracle


def fd_oracle_forward(f: BoundaryControl, domain: DomainSpec) -> np.ndarray:
    """Leapfrog time stepping of the boundary-driven wave, u^f(., T).

    Independent of the modal pipeline: explicit second-order stepping of the
    assembled operator with Dirichlet injection of f.  Refuses time steps
    outside the stability bound dt <= h_min / sqrt(d * max coefficient
    eigenvalue).
    """
    if f.samples.shape[0] != len(domain.boundary_nodes()):
        raise ValueError("control rows do not match domain boundary nodes")
    dt = f.dt
    eig_max = float(np.max(domain._node_eigenvalues()[1]))
    h_min = min(domain.spacings)
    limit = h_min / np.sqrt(domain.dimension * eig_max)
    if dt > limit:
        raise ValueError(
            f"time step {dt:g} violates the stability bound {limit:g} "
            f"(grid spacing {h_min:g}, max coefficient eigenvalue {eig_max:g})"
        )
    L = fd_operator(domain)
    bnd = np.flatnonzero(domain.boundary_mask)  # ordered like boundary_nodes()
    prev = np.zeros(L.shape[0])
    curr = np.zeros(L.shape[0])
    prev[bnd] = f.samples[:, 0]
    curr[bnd] = f.samples[:, 1]
    for step in range(1, f.n_t - 1):
        nxt = 2 * curr - prev - dt**2 * (L @ curr)
        nxt[bnd] = f.samples[:, step + 1]
        prev, curr = curr, nxt
    return curr.reshape(domain.shape)


def support_violation(u: np.ndarray, region: FilledRegion, band: float) -> float:
    """Fraction of squared mass outside the region dilated by ``band``."""
    total = float(np.sum(region.weights * u**2))
    if total == 0:
        return 0.0
    return region.mass_outside(u, band) / total


# ---------------------------------------------------------------------------
# control utilities


def random_control(
    basis: SpectralBasis,
    T: float,
    rng,
    n_steps: int = DEFAULT_TIME_STEPS,
) -> BoundaryControl:
    """Seeded random control, white in space and time.

    ``rng`` is any source with a ``standard_normal(shape)`` method, such as
    a ``numpy.random.Generator``.
    """
    n_bnd = len(basis.boundary_weights)
    samples = rng.standard_normal((n_bnd, n_steps + 1))
    return BoundaryControl(samples=samples, T=T)


def random_state(basis: SpectralBasis, rng) -> np.ndarray:
    """Seeded random velocity perturbation over the grid, zero on the boundary.

    ``rng`` is any source with a ``standard_normal(shape)`` method.
    """
    values = rng.standard_normal(tuple(basis.domain.shape))
    values[basis.domain.boundary_mask] = 0.0
    return values


def _bump(s, k: float):
    """exp(-k/(1-s^2)) on (-1, 1), exact zero outside; a float for a scalar.

    The one bump of the package: the time window here, presets.bump and the
    regularizer's mollifier profile are this core times a constant.
    """
    s = np.asarray(s, dtype=float)
    out = np.zeros_like(s)
    inside = np.abs(s) < 1.0
    si = s[inside]
    out[inside] = np.exp(-k / (1.0 - si * si))
    return out if out.ndim else float(out)


# the last window and harmonic table of random_smooth_control, by (T,
# n_steps, support, n_harmonics): the trials of one verify share them
_LAST_HARMONICS = {}


def _harmonic_table(T: float, n_steps: int, a: float, b: float, n_harmonics: int):
    """The bump window on [a, b] and the (n_harmonics, n_steps + 1) sine
    harmonics of random_smooth_control, both read-only."""
    s = (2.0 * (time_grid(T, n_steps) - a) / (b - a)) - 1.0
    window = _bump(s, 1.0) * np.e
    phase = np.pi * (s[None, :] + 1.0) / 2.0
    harmonics = np.sin(np.arange(1, n_harmonics + 1)[:, None] * phase)
    window.setflags(write=False)
    harmonics.setflags(write=False)
    return window, harmonics


def random_smooth_control(
    basis: SpectralBasis,
    T: float,
    rng,
    n_steps: int = DEFAULT_TIME_STEPS,
    support: tuple | None = None,
    n_harmonics: int = 16,
) -> BoundaryControl:
    """Seeded random control that is smooth and compactly supported in time.

    Random harmonics on the support window, shaped by a bump so every time
    derivative vanishes at the window ends.  Sample-pointwise rough controls
    defeat trapezoid quadrature; identities stated at tight tolerances are
    exercised with these instead.  ``rng`` is any source with a
    ``standard_normal(shape)`` method.
    """
    a, b = support if support is not None else (0.0, T)
    if not 0.0 <= a < b <= T:
        raise ValueError(f"support must satisfy 0 <= a < b <= {T}, got ({a}, {b})")
    n_bnd = len(basis.boundary_weights)
    key = (T, n_steps, a, b, n_harmonics)
    window, harmonics = _last_entry(_LAST_HARMONICS, key, lambda: _harmonic_table(*key))
    coeffs = rng.standard_normal((n_bnd, n_harmonics)) / np.arange(1, n_harmonics + 1)
    return BoundaryControl(samples=window * (coeffs @ harmonics), T=T)


# ---------------------------------------------------------------------------
# CSV artifacts


def write_state_csv(path, domain: DomainSpec, state: np.ndarray) -> None:
    if domain.dimension == 2:
        _write_node_csvs(domain, [(path, "u", state, ".17g")])
        return
    # one join, rows ending in the \r\n terminator csv.writer emits
    rows = zip(domain.axes[0].tolist(), np.asarray(state).tolist())
    with open(path, "w", newline="") as fh:
        fh.write("x,u\r\n" + "".join(f"{x:.17g},{v:.17g}\r\n" for x, v in rows))


# the last trace row template, by (T, n_t): consecutive traces on one time
# grid share it
_LAST_TRACE_ROW = {}


def _trace_row(T: float, n_t: int) -> str:
    return "".join(f"\0{t:.17g},%.17g\r\n" for t in time_grid(T, n_t - 1).tolist())


def write_trace_csv(path, samples: np.ndarray, T: float) -> None:
    """(n_boundary, n_t) samples on time_grid(T, n_t - 1), one line per sample."""
    # One boundary row is one % over a template of its time stamps, \0
    # standing for "gamma_id,", with the \r\n terminator csv.writer emits, so
    # the bytes match a csv.writer rendering at a fraction of its cost.
    n_t = samples.shape[1]
    row = _last_entry(_LAST_TRACE_ROW, (T, n_t), lambda: _trace_row(T, n_t))
    with open(path, "w", newline="") as fh:
        fh.write("gamma_id,t,g\r\n")
        for g_id, values in enumerate(samples.tolist()):
            fh.write(row.replace("\0", f"{g_id},") % tuple(values))
