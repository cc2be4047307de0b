"""Dirichlet eigenpairs of the elliptic operator and modal calculus.

The operator -d/dx^i a^{ij}(x) d/dx^j + q(x) with zero boundary conditions is
discretized by symmetric second-order finite differences with harmonic
averaging of the coefficients at half-nodes.  Constant coefficients admit an
analytic backend (exact sine modes); 2D constant-isotropic grids reuse the 1D
finite-difference factors through the Kronecker-sum structure of the assembled
matrix, which yields the same eigenpairs as a dense solve of the 2D matrix.

Eigenvectors are normalized against the trapezoid mass weights, so the stored
Gram matrix is the identity to machine precision.  Conormal boundary traces
are taken with second-order one-sided differences; their accuracy bounds the
accuracy of the observation operator built on top of them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from itertools import product
from typing import TYPE_CHECKING

import numpy as np

from .geometry import DomainSpec, interval, trapezoid_weights

__all__ = [
    "SpectralBasis",
    "eigensolve",
    "fd_operator",
    "project",
    "reconstruct",
    "write_spectrum_csv",
]

if TYPE_CHECKING:
    from scipy.sparse import csr_matrix


@dataclass(frozen=True)
class SpectralBasis:
    """Leading Dirichlet eigenpairs on a grid domain.

    lambdas          : (N,) eigenvalues, nondecreasing
    modes            : (N,) + grid shape, eigenfunctions, zero on the boundary
    conormal_traces  : (N, n_boundary) outward conormal derivatives at the
                       boundary nodes, ordered like domain.boundary_nodes()
    mass_weights     : trapezoid quadrature weights of the H = L2 inner product
    boundary_weights : quadrature weights of the boundary measure
    sines            : the basis's memo, filled on first use through ``memo``;
                       its keys: each boundary cylinder's (T, n_steps), the
                       modal factor object (waveop), and control_lab's
                       "h1_target", the last target's split with its Q1.
                       It lives exactly as long as the basis.  What a process
                       keeps between runs is outside it: the CLI's last
                       eigenpairs, which the next run on the same preset
                       domain and mode count gets in a fresh basis, and
                       waveop's last two sine tables on those eigenvalues
    """

    domain: DomainSpec
    lambdas: np.ndarray
    modes: np.ndarray
    conormal_traces: np.ndarray
    mass_weights: np.ndarray
    boundary_weights: np.ndarray
    backend: str
    sines: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    @property
    def n_modes(self) -> int:
        return len(self.lambdas)

    def memo(self, key, build):
        """sines[key], calling build() to fill it on first use."""
        value = self.sines.get(key)
        if value is None:
            value = self.sines[key] = build()
        return value

    def h_inner(self, u: np.ndarray, v: np.ndarray) -> float:
        return float(np.sum(self.mass_weights * u * v))

    def h_norm(self, u: np.ndarray) -> float:
        return float(np.sqrt(np.sum(self.mass_weights * u * u)))

    def gram(self) -> np.ndarray:
        flat = self.modes.reshape(self.n_modes, -1)
        w = self.mass_weights.ravel()
        return (flat * w) @ flat.T


def eigensolve(domain: DomainSpec, n_modes: int, backend: str = "auto") -> SpectralBasis:
    """Compute the leading n_modes Dirichlet eigenpairs.

    backend = "fd"        assembled finite-difference matrix
              "analytic"  closed-form sine modes, constant coefficients only
              "auto"      analytic when the coefficients allow it, else fd
    """
    if n_modes < 1:
        raise ValueError("n_modes must be positive")
    n_interior = int(np.prod([n - 2 for n in domain.shape]))
    if n_modes > n_interior:
        raise ValueError(f"n_modes={n_modes} exceeds interior dimension {n_interior}")
    constant = _is_constant_isotropic(domain)
    if backend == "auto":
        backend = "analytic" if constant else "fd"
    if backend == "analytic":
        if not constant:
            raise ValueError("analytic backend needs constant isotropic coefficients")
        lambdas, modes = _separable_modes(domain, n_modes, lambda axis: _sine_modes(axis, n_modes))
    elif backend == "fd":
        lambdas, modes = _fd_modes(domain, n_modes, constant)
    else:
        raise ValueError(f"unknown backend {backend!r}")

    # eigensolvers return arbitrary global signs; orient each mode so its
    # first interior sample is positive, matching the analytic sine modes
    first_interior = (1,) * domain.dimension
    flip = np.sign(modes[(slice(None),) + first_interior])
    flip[flip == 0] = 1.0
    modes = modes * flip.reshape((-1,) + (1,) * domain.dimension)

    weights = trapezoid_weights(domain)
    traces = _conormal_traces(domain, modes)
    return SpectralBasis(
        domain=domain,
        lambdas=lambdas,
        modes=modes,
        conormal_traces=traces,
        mass_weights=weights,
        boundary_weights=domain.boundary_weights(),
        backend=backend,
    )


def _is_constant_isotropic(domain: DomainSpec) -> bool:
    """Whether coeff == coeff.flat[0] * I at every node and q is constant."""
    c, q = domain.coeff, domain.potential
    d = domain.dimension
    # entry by entry on the coefficient planes, stopping at the first that differs
    isotropic = all(
        np.all(c[..., i, j] == c.flat[0] * (i == j)) for i in range(d) for j in range(d)
    )
    return isotropic and (q is None or np.ptp(q) == 0)


def _mode_order(lams_1d: list) -> list:
    """Sorted (eigenvalue, mode index tuple) pairs; ties broken lexicographically."""
    sums = map(sum, product(*(lams.tolist() for lams in lams_1d)))
    indices = product(*(range(len(lams)) for lams in lams_1d))
    return sorted(zip(sums, indices))


def _separable_modes(domain: DomainSpec, n_modes: int, axis_modes):
    """Constant isotropic coefficients: products of per-axis 1D eigenpairs.

    axis_modes(axis) gives the eigenvalues and the node-sampled modes of the
    constant-coefficient interval of one axis; products are ordered by
    eigenvalue sum (_mode_order), and q shifts every eigenvalue.
    """
    a = float(domain.coeff[..., 0, 0].flat[0])
    q = 0.0 if domain.potential is None else float(domain.potential.flat[0])
    axes = zip(domain.extents, domain.shape)
    lams_1d, funcs_1d = zip(*(axis_modes(interval(n, lo, hi, a, None)) for (lo, hi), n in axes))
    order = _mode_order(lams_1d)[:n_modes]
    lambdas = np.array([lam + q for lam, _ in order])
    modes = np.stack(
        [reduce(np.multiply.outer, [f[k] for f, k in zip(funcs_1d, ks)]) for _, ks in order]
    )
    return lambdas, modes


def _sine_modes(axis: DomainSpec, n_modes: int):
    """Closed-form eigenpairs of a constant-coefficient interval, the first
    n_modes: a key past n_modes on an axis lies above n_modes smaller keys."""
    ((lo, hi),), (x,) = axis.extents, axis.axes
    L = hi - lo
    ks = np.arange(1, min(len(x) - 2, n_modes) + 1)
    a = float(axis.coeff[0, 0, 0])
    return a * (ks * np.pi / L) ** 2, np.sqrt(2.0 / L) * np.sin(np.outer(ks, (x - lo)) * np.pi / L)


def _fd_stencil(domain: DomainSpec):
    """fd_operator's node diagonal (grid-shaped) and, per axis, its couplings
    -a/h^2 at the half-nodes with that axis first: entry i joins nodes i, i + 1."""
    if domain.dimension == 2 and np.any(domain.coeff[..., 0, 1] != 0):
        raise NotImplementedError(
            "finite-difference eigensolve supports axis-aligned coefficients only"
        )
    diag = np.zeros(domain.shape)
    couplings = []
    for axis, h in enumerate(domain.spacings):
        a = np.moveaxis(domain.coeff[..., axis, axis], axis, 0)
        half = 2 * a[:-1] * a[1:] / (a[:-1] + a[1:])  # value at the half-node
        axis_diag = np.zeros_like(a)
        axis_diag[1:-1] = half[:-1] + half[1:]
        np.moveaxis(diag, axis, 0)[...] += axis_diag / h**2
        couplings.append(-half / h**2)
    if domain.potential is not None:
        diag += domain.potential
    return diag, couplings


def fd_operator(domain: DomainSpec) -> csr_matrix:
    """The discrete elliptic operator as a sparse matrix over all grid nodes.

    Interior rows hold the symmetric 3-point (1D) or 5-point (2D) stencil with
    the coefficients harmonically averaged at half-nodes, plus q.  Boundary
    rows are empty; the boundary columns carry the interior-to-boundary
    coupling, so L @ u is the interior action with boundary values read as
    data.  Nodes are numbered in C order, like domain.boundary_mask.ravel().
    """
    from scipy.sparse import csr_matrix

    diag, couplings = _fd_stencil(domain)
    index = np.arange(diag.size).reshape(domain.shape)
    rows, cols, vals = [index], [index], [diag]
    for axis, w in enumerate(couplings):
        node = np.moveaxis(index, axis, 0)
        rows += [node[:-1], node[1:]]
        cols += [node[1:], node[:-1]]
        vals += [w, w]
    rows, cols, vals = (np.concatenate([x.ravel() for x in xs]) for xs in (rows, cols, vals))
    keep = ~domain.boundary_mask.ravel()[rows]
    return csr_matrix((vals[keep], (rows[keep], cols[keep])), shape=(diag.size, diag.size))


def _fd_modes(domain: DomainSpec, n_modes: int, constant: bool):
    """``constant`` is _is_constant_isotropic(domain), which eigensolve has evaluated."""
    if domain.dimension == 1:
        return _fd_modes_1d(domain, n_modes)
    if constant:  # the Kronecker sum of the 1D interior matrices
        return _separable_modes(domain, n_modes, _fd_modes_1d)
    return _fd_modes_2d_general(domain, n_modes)


def _fd_modes_1d(domain: DomainSpec, n_modes: int | None = None):
    """The leading n_modes eigenpairs of a 1D operator, or all of them."""
    from scipy.linalg import eigh_tridiagonal

    diag, (w,) = _fd_stencil(domain)
    select = {} if n_modes is None else {"select": "i", "select_range": (0, n_modes - 1)}
    lambdas, vecs = eigh_tridiagonal(diag[1:-1], w[1:-1], **select)
    modes = np.zeros((len(lambdas),) + tuple(domain.shape))
    # eigh returns Euclid-orthonormal columns; mass weight h on the interior
    modes[:, 1:-1] = vecs.T / np.sqrt(domain.spacings[0])
    return lambdas, modes


def _fd_modes_2d_general(domain: DomainSpec, n_modes: int):
    nx, ny = domain.shape
    interior = (nx - 2) * (ny - 2)
    if interior > 5000:
        raise ValueError(
            f"dense 2D eigensolve limited to 5000 interior unknowns, got {interior}; "
            "use a coarser grid for variable 2D coefficients"
        )
    from scipy.linalg import eigh  # after the cap, so that a refusal loads no scipy

    inner = np.flatnonzero(~domain.boundary_mask.ravel())
    A = fd_operator(domain)[inner][:, inner].toarray()
    asym = np.max(np.abs(A - A.T))
    if asym != 0:
        raise RuntimeError(f"assembled matrix not symmetric, max deviation {asym:g}")
    hx, hy = domain.spacings
    lambdas, vecs = eigh(A, subset_by_index=(0, n_modes - 1))
    modes = np.zeros((n_modes, nx, ny))
    modes[:, 1:-1, 1:-1] = vecs.T.reshape(n_modes, nx - 2, ny - 2) / np.sqrt(hx * hy)
    return lambdas, modes


def _conormal_traces(domain: DomainSpec, modes: np.ndarray) -> np.ndarray:
    """Outward conormal derivative of each mode at each boundary node.

    Second-order one-sided differencing along the inward axis of each face;
    the tangential derivative vanishes on the boundary.  The high face of an
    axis is the low face of the reversed axis, so one stencil serves both.
    Corner values in 2D are left zero (they carry no limit direction;
    rectangle eigenmodes vanish there anyway).
    """
    full = np.zeros_like(modes)
    across = (slice(1, -1),) * (domain.dimension - 1)  # a face without its corners
    for axis, h in enumerate(domain.spacings):
        for side in (slice(None), slice(None, None, -1)):
            a = np.moveaxis(domain.coeff[..., axis, axis], axis, 0)[(side,) + across]
            m = np.moveaxis(modes, axis + 1, 1)[(slice(None), side) + across]
            out = np.moveaxis(full, axis + 1, 1)[(slice(None), side) + across]
            out[:, 0] = -a[0] * ((-3 * m[:, 0] + 4 * m[:, 1] - m[:, 2]) / (2 * h))
    return full[:, domain.boundary_mask]


def project(values: np.ndarray, basis: SpectralBasis) -> np.ndarray:
    """Mass-weighted modal coefficients of a grid function."""
    if values.shape != tuple(basis.domain.shape):
        raise ValueError(
            f"grid mismatch: values {values.shape}, domain {tuple(basis.domain.shape)}"
        )
    flat = basis.modes.reshape(basis.n_modes, -1)
    return flat @ (basis.mass_weights.ravel() * values.ravel())


def reconstruct(coeffs: np.ndarray, basis: SpectralBasis) -> np.ndarray:
    """Grid function of a modal coefficient vector."""
    alphas = np.asarray(coeffs)
    if len(alphas) != basis.n_modes:
        raise ValueError("coefficient count does not match basis")
    flat = basis.modes.reshape(basis.n_modes, -1)
    return (alphas @ flat).reshape(basis.domain.shape)


def write_spectrum_csv(path, basis: SpectralBasis) -> None:
    # one % over the table, rows ending in the \r\n terminator csv.writer emits
    rows = "".join(f"{k},%.17g\r\n" for k in range(1, basis.n_modes + 1))
    with open(path, "w", newline="") as fh:
        fh.write("k,lambda\r\n" + rows % tuple(basis.lambdas.tolist()))
