"""Mollifier regularization in the eigenbasis and in time.

The kernel is the standard even bump phi(t) = c exp(-1/(1-t^2)) on (-1, 1),
normalized to unit integral by quadrature.  Scaling phi_eps(t) = phi(t/eps)/eps
induces diagonal spectral multipliers

    beta_k(eps) = integral phi(t) cos(eps sqrt(lambda_k) t) dt,

which damp a velocity perturbation mode by mode.  The control classes are
defined once, by ``class_operators``: support in [delta, T] and phi_eps in
time, combined with its reflection about t = T when the result and all its
even time derivatives must vanish at the horizon.  phi_eps spans m = eps/dt
samples, so the smoothing is a banded Toeplitz correlation, never n_t x n_t.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .spectral import SpectralBasis, project, reconstruct
from .waveop import BoundaryControl, _bump, _window_mask, time_weights

__all__ = [
    "MollifierKernel",
    "bump_profile",
    "bump_normalization",
    "second_moment",
    "beta",
    "beta_table",
    "regularize_state",
    "CONTROL_CLASSES",
    "class_operators",
    "smooth_control",
    "write_beta_csv",
]

# Base rule of the composite Gauss-Legendre quadrature on (-1, 1).  The bump
# is smooth and its cosine transform decays like exp(-sqrt(w)) (S. G. Johnson,
# arXiv:1508.04376), so 32 nodes per panel, with a panel per 25 radians of
# phase, integrate phi(t) cos(w t) to roundoff.  The rule is
# numpy.polynomial.legendre.leggauss(32), written out so that no run pays the
# numpy.polynomial import: its output is exactly symmetric, so its
# nonnegative half, mirrored, reproduces it bit for bit.
_GL_HALF_NODES = np.array([
    0.048307665687738324, 0.1444719615827965, 0.23928736225213706, 0.33186860228212767,
    0.42135127613063533, 0.5068999089322294, 0.5877157572407623, 0.6630442669302152,
    0.7321821187402897, 0.7944837959679424, 0.84936761373257, 0.8963211557660521,
    0.9349060759377397, 0.9647622555875064, 0.9856115115452684, 0.9972638618494816,
])
_GL_HALF_WEIGHTS = np.array([
    0.09654008851472766, 0.09563872007927471, 0.09384439908080451, 0.09117387869576378,
    0.08765209300440378, 0.08331192422694671, 0.07819389578707023, 0.07234579410884834,
    0.06582222277636168, 0.058684093478535565, 0.05099805926237609, 0.042835898022226836,
    0.034273862913021765, 0.025392065309262024, 0.016274394730905743, 0.007018610009470506,
])
_GL_NODES = np.concatenate((-_GL_HALF_NODES[::-1], _GL_HALF_NODES))
_GL_WEIGHTS = np.concatenate((_GL_HALF_WEIGHTS[::-1], _GL_HALF_WEIGHTS))


def _composite_rule(m: int) -> tuple:
    """Nodes and weights of the m-panel rule on (-1, 1).

    The nodes are the mirror of their nonnegative half, so x[::-1] == -x
    exactly.  At 16 panels the panels' own nodes are already that exact mirror.
    """
    edges = np.linspace(-1.0, 1.0, m + 1)
    half = (edges[1] - edges[0]) / 2
    mids = (edges[:-1] + edges[1:]) / 2
    upper = (mids[:, None] + half * _GL_NODES[None, :]).ravel()[16 * m :]
    return np.concatenate((-upper[::-1], upper)), np.tile(half * _GL_WEIGHTS, m)


@lru_cache(maxsize=1)
def bump_normalization() -> float:
    """Constant c with integral of c exp(-1/(1-t^2)) over (-1, 1) equal to 1."""
    x, w = _composite_rule(16)
    return 1.0 / float(w @ _bump(x, 1.0))


def bump_profile(t):
    """Normalized even bump supported on (-1, 1), exact zero outside."""
    return bump_normalization() * _bump(t, 1.0)


@lru_cache(maxsize=1)
def second_moment() -> float:
    """integral t^2 phi(t) dt, the constant of the small-eps expansion."""
    x, w = _composite_rule(16)
    return float((w * x * x) @ bump_profile(x))


@dataclass(frozen=True)
class MollifierKernel:
    """Scaled mollifier phi_eps(t) = phi(t/eps)/eps."""

    epsilon: float

    def __post_init__(self):
        if not self.epsilon > 0:
            raise ValueError(f"mollifier width must be positive, got {self.epsilon}")

    def __call__(self, t):
        return bump_profile(np.asarray(t) / self.epsilon) / self.epsilon


# Past this phase the saddle-point envelope A w^(-3/4) exp(-sqrt(w)) of |beta|
# is below 1e-45, far under the rule's roundoff there (about 2e-15), so beta
# is returned as zero and the rule is never asked for more than 400 panels.
_ZERO_PHASE = 1e4


@lru_cache(maxsize=4)
def _cosine_rule(m: int) -> tuple:
    """Nonnegative nodes of the m-panel rule, and w * phi over all its nodes."""
    x, w = _composite_rule(m)
    return x[16 * m :], w * bump_profile(x)


def _cosine_transform(phases: np.ndarray) -> np.ndarray:
    """integral phi(t) cos(w t) dt at each phase w, exactly 1 at w = 0."""
    live = phases < _ZERO_PHASE
    max_phase = float(phases[live].max(initial=0.0))
    upper, weights = _cosine_rule(max(16, math.ceil(max_phase / 25.0)))
    # cos is even and the nodes mirror: cos on the nonnegative half, mirrored
    c = np.cos(np.outer(phases[live], upper))
    out = np.zeros(len(phases))
    out[live] = np.hstack((c[:, ::-1], c)) @ weights
    out[phases == 0.0] = 1.0
    return out


def _phases(epsilon: float, lambdas: np.ndarray) -> np.ndarray:
    if epsilon <= 0:
        raise ValueError(f"mollifier width must be positive, got {epsilon}")
    if np.any(lambdas < 0):
        raise ValueError(f"eigenvalue must be nonnegative, got {lambdas[lambdas < 0][0]}")
    return float(epsilon) * np.sqrt(lambdas)


@lru_cache(maxsize=100_000)
def _beta_cached(phase: float) -> float:
    return float(_cosine_transform(np.array([phase]))[0])


def beta(epsilon: float, lam: float) -> float:
    """Spectral multiplier of the mollifier at eigenvalue lam.

    Composite Gauss-Legendre quadrature of the defining cosine integral,
    cached by the phase eps*sqrt(lam).
    """
    return _beta_cached(float(_phases(epsilon, np.array([lam], dtype=float))[0]))


def beta_table(epsilon: float, lambdas: np.ndarray) -> np.ndarray:
    """beta(epsilon, lam) for every lam in lambdas, in one quadrature."""
    return _cosine_transform(_phases(epsilon, np.asarray(lambdas, dtype=float)))


def regularize_state(y: np.ndarray, epsilon: float, basis: SpectralBasis) -> np.ndarray:
    """Diagonal action in the eigenbasis: coefficient k scaled by beta_k."""
    alphas = project(y, basis)
    betas = beta_table(epsilon, basis.lambdas)
    return reconstruct(alphas * betas, basis)


def _toeplitz_blocks(epsilon: float, dt: float) -> np.ndarray:
    """The three B x B blocks of time correlation with phi_eps at step dt.

    phi_eps(k dt) vanishes past the half-width m = eps/dt, so with blocks of
    B = m samples an output block reads its own block of samples and the two
    next to it: blocks[d + 1][j, i] = phi_eps((d B + j - i) dt), d = -1, 0, 1.
    """
    B = max(1, int(epsilon / dt))
    kern = MollifierKernel(epsilon)(np.arange(2 * B) * dt)
    lags = np.arange(B)[:, None] - np.arange(B)[None, :]
    return kern[np.abs(np.array([-B, 0, B])[:, None, None] + lags)]


# samples, padding included, smoothed per pass: the passes take whole rows,
# so no temporary spans a tall stack.  A pass holds about 900 rows of 1025
# samples, so every stack of the experiment set (at most 512 rows) is one
# GEMM, as before passes; only verify's 2D smoothing suite (5120 rows) is
# split.  The split moves C and C* by the GEMM's rounding, which depends on
# the rows per call.
_PASS_SAMPLES = 1 << 20


def _smooth(x, pre, post, blocks, odd):
    """post * sum_j phi_eps(t_i - s_j) (x pre)_j for each row of the 2-D x.

    The samples sit in zero-padded blocks laid end to end over the rows of
    a pass, so the correlation is three GEMMs of that stack against the
    three blocks; an output block that straddles two rows is dropped.  With
    odd, each row is extended past t = T as -h(2T - t), which is the
    kernel's reflection about the horizon, and the output at t = T is its
    structural zero.
    """
    B = len(blocks[0])
    n_t = x.shape[-1]
    n_blocks = -(-n_t // B) + 2  # a zero block each side of the samples
    r = min(B, n_t - 1)  # samples of the odd extension
    y = np.empty(x.shape)
    step = max(1, _PASS_SAMPLES // (n_blocks * B))
    for lo in range(0, len(x), step):
        rows = x[lo : lo + step]
        flat = np.zeros((len(rows), n_blocks * B))
        h = flat[:, B : B + n_t]
        np.multiply(rows, pre, out=h)
        if odd:
            flat[:, B + n_t : B + n_t + r] = -h[:, -2 : -2 - r : -1]
            h[:, -1] = 0.0
        X = flat.reshape(-1, B)
        out = np.empty_like(X)
        np.matmul(X[:-2], blocks[0], out=out[:-2])
        out[:-2] += X[1:-1] @ blocks[1]
        out[:-2] += X[2:] @ blocks[2]
        np.multiply(out.reshape(len(rows), -1)[:, :n_t], post, out=y[lo : lo + step])
    if odd:
        y[:, -1] = 0.0
    return y


CONTROL_CLASSES = ("all_of_F", "smooth", "smooth_vanishing_at_T")


def _identity(x):
    return x


def class_operators(control_class: str, T: float, delta: float, epsilon: float, n_t: int):
    """Pair (C, C*) realizing a control class on n_t samples of [0, T].

    "all_of_F" is the identity; "smooth" masks samples to [delta, T] and
    mollifies in time, C g = smooth((g * mask) * w) and C* z = smooth(z * w)
    * mask with w the trapezoid weights; "smooth_vanishing_at_T" smooths the
    odd extension about the horizon.
    """
    if control_class not in CONTROL_CLASSES:
        raise ValueError(f"unknown control class {control_class!r}")
    if control_class == "all_of_F":
        return _identity, _identity
    dt = T / (n_t - 1)
    mask = _window_mask(T, n_t - 1, delta)
    w = time_weights(n_t, dt)
    blocks = _toeplitz_blocks(epsilon, dt)
    odd = control_class == "smooth_vanishing_at_T"

    def apply_c(g):
        return _smooth(g, mask * w, 1.0, blocks, odd)

    def apply_ct(z):
        # kernel symmetric, weights shared: the mask and smoothing swap order
        return _smooth(z, w, mask, blocks, odd)

    return apply_c, apply_ct


def smooth_control(f: BoundaryControl, epsilon: float, delta: float) -> BoundaryControl:
    """Time smoothing of a control supported in [delta, T].

    Applies the "smooth_vanishing_at_T" class operator, the convolution with
    phi_eps antisymmetrized about the horizon:
        out(t) = integral (phi_eps(t - s) - phi_eps(2T - t - s)) f(s) ds,
    discretized with the control's own trapezoid weights.  The output vanishes
    identically on [0, delta - eps], vanishes exactly at t = T, and its even
    time derivatives vanish at the horizon by the antisymmetry of the kernel.
    Requires 0 < eps < delta and f zero before t = delta.
    """
    if not 0 < epsilon < delta:
        raise ValueError(
            f"need 0 < eps < delta, got eps={epsilon}, delta={delta}"
        )
    if delta >= f.T:
        raise ValueError(f"support onset delta={delta} must lie inside (0, T={f.T})")
    early = ~_window_mask(f.T, f.n_t - 1, delta)
    if np.any(f.samples[:, early] != 0):
        bad = np.argwhere(f.samples[:, early] != 0)[0]
        raise ValueError(
            f"control must vanish before t=delta={delta}; "
            f"nonzero sample at boundary row {bad[0]}, t={f.times[early][bad[1]]:g}"
        )
    apply_c = class_operators("smooth_vanishing_at_T", f.T, delta, epsilon, f.n_t)[0]
    return BoundaryControl(samples=apply_c(f.samples), T=f.T)


def write_beta_csv(path, basis: SpectralBasis, epsilon: float) -> None:
    betas = beta_table(epsilon, basis.lambdas)
    # one % over the table, rows ending in the \r\n terminator csv.writer emits
    rows = "".join(f"{k},%.17g,%.17g\r\n" for k in range(1, basis.n_modes + 1))
    values = np.column_stack([basis.lambdas, betas]).ravel().tolist()
    with open(path, "w", newline="") as fh:
        fh.write("k,lambda,beta\r\n" + rows % tuple(values))
