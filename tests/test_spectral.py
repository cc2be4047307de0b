import csv

import numpy as np
import pytest

from wavecontrol import cli, geometry, spectral


def test_analytic_backend_eigenvalues(interval_domain):
    basis = spectral.eigensolve(interval_domain, 8, backend="analytic")
    k = np.arange(1, 9)
    np.testing.assert_allclose(basis.lambdas, (k * np.pi) ** 2, rtol=1e-12)
    assert basis.backend == "analytic"


def test_auto_backend_picks_analytic_for_constant(interval_domain):
    basis = spectral.eigensolve(interval_domain, 4)
    assert basis.backend == "analytic"


def test_auto_backend_picks_fd_for_variable():
    dom = geometry.interval(n=65, a=lambda x: 1.0 + 0.5 * x)
    basis = spectral.eigensolve(dom, 4)
    assert basis.backend == "fd"


def test_fd_matches_analytic_1d(interval_domain, interval_basis):
    exact = spectral.eigensolve(interval_domain, 64, backend="analytic")
    rel = np.abs(interval_basis.lambdas - exact.lambdas) / exact.lambdas
    # second-order stencil: relative error ~ (k pi h)^2 / 12
    assert rel[0] <= 1e-5
    assert rel[-1] <= 2e-2
    # eigenvectors agree up to sign
    overlaps = [
        abs(interval_basis.h_inner(interval_basis.modes[k], exact.modes[k]))
        for k in (0, 1, 7, 31)
    ]
    assert min(overlaps) >= 0.999


def test_gram_identity(interval_basis, square_basis):
    for basis in (interval_basis, square_basis):
        gram = basis.gram()
        off = np.abs(gram - np.eye(basis.n_modes)).max()
        assert off <= 1e-10


def test_mode_ordering_2d(square_basis):
    lam = square_basis.lambdas
    assert np.all(np.diff(lam) >= -1e-9 * lam[-1])
    # unit square spectrum: pi^2 (m^2 + n^2)
    assert lam[0] == pytest.approx(2 * np.pi**2, rel=1e-3)
    assert lam[1] == pytest.approx(5 * np.pi**2, rel=1e-3)
    assert lam[2] == pytest.approx(5 * np.pi**2, rel=1e-3)


def test_separable_2d_matches_dense():
    # 4 modes avoids splitting a degenerate pair across the truncation
    dom = geometry.rectangle(shape=(17, 17))
    fast = spectral.eigensolve(dom, 4, backend="fd")
    lam_dense, modes_dense = spectral._fd_modes_2d_general(dom, 4)
    np.testing.assert_allclose(fast.lambdas, lam_dense, rtol=1e-10)
    # degenerate eigenspaces may differ by a rotation; the cross-Gram of the
    # two bases must still be orthogonal
    flat_f = fast.modes.reshape(4, -1) * fast.mass_weights.ravel()
    flat_d = modes_dense.reshape(4, -1)
    cross = flat_f @ flat_d.T
    np.testing.assert_allclose(cross @ cross.T, np.eye(4), atol=1e-8)


def _full_table_modes(domain, n_modes):
    """Every sine row of every axis, sorted by eigenvalue, then cut to n_modes."""
    lams, funcs = [], []
    for (lo, hi), x in zip(domain.extents, domain.axes):
        L = hi - lo
        ks = np.arange(1, len(x) - 1)
        lams.append((ks * np.pi / L) ** 2)
        funcs.append(np.sqrt(2.0 / L) * np.sin(np.outer(ks, (x - lo)) * np.pi / L))
    if domain.dimension == 1:
        keys = sorted((lam, k) for k, lam in enumerate(lams[0]))[:n_modes]
        modes = [funcs[0][k] for _, k in keys]
    else:
        keys = sorted(
            (lx + ly, (kx, ky)) for kx, lx in enumerate(lams[0]) for ky, ly in enumerate(lams[1])
        )[:n_modes]
        modes = [np.outer(funcs[0][kx], funcs[1][ky]) for _, (kx, ky) in keys]
    return np.array([lam for lam, _ in keys]), np.stack(modes)


@pytest.mark.parametrize(
    "domain, n_modes",
    [
        (geometry.interval(), 64),
        (geometry.rectangle(shape=(129, 129)), 100),
        (geometry.rectangle(shape=(33, 17), extents=((0.0, 2.0), (0.0, 1.0))), 40),
    ],
    ids=["desk_interval", "square", "rectangle_33x17"],
)
def test_analytic_modes_match_full_table(domain, n_modes):
    """Building only the leading rows per axis keeps the sorted cut, ties included."""
    basis = spectral.eigensolve(domain, n_modes, backend="analytic")
    lam, modes = basis.lambdas, basis.modes
    lam_full, modes_full = _full_table_modes(domain, n_modes)
    assert np.array_equal(lam, lam_full)
    assert np.array_equal(modes, modes_full)
    if domain.dimension == 2:
        assert np.any(np.diff(lam) == 0)  # degenerate pairs are in the cut


_ISOTROPY_CASES = [
    ("1d_constant", lambda: geometry.interval(n=9, a=2.0), True),
    ("1d_variable", lambda: geometry.interval(n=9, a=lambda x: 1.0 + x), False),
    ("2d_constant", lambda: geometry.rectangle(shape=(7, 5), a11=2.0), True),
    ("2d_constant_q", lambda: geometry.rectangle(shape=(7, 5), a11=2.0, q=0.5), True),
    ("a11_ne_a22", lambda: geometry.rectangle(shape=(7, 5), a11=1.0, a22=2.5), False),
    ("constant_a12", lambda: geometry.rectangle(shape=(7, 5), a12=0.1), False),
    ("variable_a11", lambda: geometry.rectangle(shape=(7, 5), a11=lambda x, y: 1.0 + x * y), False),
    ("variable_q", lambda: geometry.rectangle(shape=(7, 5), q=lambda x, y: x + y), False),
]


@pytest.mark.parametrize(
    "build, expected", [case[1:] for case in _ISOTROPY_CASES], ids=[case[0] for case in _ISOTROPY_CASES]
)
def test_is_constant_isotropic_matches_broadcast_formula(build, expected):
    dom = build()
    c, q = dom.coeff, dom.potential
    broadcast = bool(np.all(c == c.flat[0] * np.eye(dom.dimension))) and (q is None or np.ptp(q) == 0)
    assert spectral._is_constant_isotropic(dom) == broadcast == expected


def test_variable_coefficient_2d_dense_path():
    a = geometry.radial_bump_coefficient(1.0, 0.5, (0.5, 0.5), 0.25)
    dom = geometry.rectangle(shape=(21, 21), a11=a, a22=a)
    basis = spectral.eigensolve(dom, 5, backend="fd")
    assert basis.backend == "fd"
    assert np.all(basis.lambdas > 0)
    # faster medium raises the spectrum above the unit-coefficient one
    assert basis.lambdas[0] > 2 * np.pi**2


def test_dense_2d_size_guard():
    a = geometry.radial_bump_coefficient(1.0, 0.5, (0.5, 0.5), 0.25)
    dom = geometry.rectangle(shape=(129, 129), a11=a, a22=a)
    with pytest.raises(ValueError, match="unknowns"):
        spectral.eigensolve(dom, 4, backend="fd")


def test_mixed_derivative_not_implemented():
    dom = geometry.rectangle(shape=(17, 17), a11=1.0, a12=0.1, a22=1.0)
    with pytest.raises(NotImplementedError):
        spectral.eigensolve(dom, 4)


# ---------------------------------------------------------------------------
# assembled operator


def _edge_energy(a, u, h, axis):
    """sum over grid edges of the half-node harmonic mean times (du/h)^2."""
    lo = np.take(a, np.arange(a.shape[axis] - 1), axis=axis)
    hi = np.take(a, np.arange(1, a.shape[axis]), axis=axis)
    return float(np.sum(2 * lo * hi / (lo + hi) * (np.diff(u, axis=axis) / h) ** 2))


@pytest.mark.parametrize(
    "dom",
    [
        geometry.rectangle(
            shape=(23, 19),
            extents=((0.0, 1.0), (0.0, 0.7)),
            a11=lambda X, Y: 1.0 + 0.5 * np.sin(3 * X) * Y,
            a22=lambda X, Y: 2.0 + X * Y,
            q=lambda X, Y: 3.0 + X,
        ),
        geometry.interval(n=41, a=lambda x: 1.0 + x**2, q=lambda x: 2.0 + x),
    ],
    ids=["2d", "1d"],
)
def test_fd_operator_quadratic_form(dom, rng):
    # zero boundary values: u.Lu is the edge energy plus the potential term
    u = rng.standard_normal(dom.shape)
    u[dom.boundary_mask] = 0.0
    Lu = spectral.fd_operator(dom) @ u.ravel()
    energy = float(np.sum(dom.potential * u**2))
    for axis, h in enumerate(dom.spacings):
        energy += _edge_energy(dom.coeff[..., axis, axis], u, h, axis)
    assert float(u.ravel() @ Lu) == pytest.approx(energy, rel=1e-12)


def test_fd_operator_annihilates_affine_functions():
    dom = geometry.rectangle(shape=(33, 29), extents=((0.0, 1.0), (0.0, 0.8)), a11=1.0, a22=2.5)
    X, Y = dom.grids()
    u = (0.3 + 1.7 * X - 0.9 * Y).ravel()
    L = spectral.fd_operator(dom)
    interior = ~dom.boundary_mask.ravel()
    scale = abs(L).sum(axis=1).max() * np.abs(u).max()
    assert np.abs((L @ u)[interior]).max() <= 1e-14 * scale
    # boundary rows carry no equation
    assert np.abs((L @ u)[~interior]).max() == 0.0


def test_fd_operator_mixed_derivative_not_implemented():
    dom = geometry.rectangle(shape=(17, 17), a11=1.0, a12=0.1, a22=1.0)
    with pytest.raises(NotImplementedError, match="axis-aligned"):
        spectral.fd_operator(dom)


def test_n_modes_guard(small_domain):
    with pytest.raises(ValueError, match="modes"):
        spectral.eigensolve(small_domain, 64)  # only 63 interior nodes


def test_modes_vanish_on_boundary(interval_basis, square_basis):
    for basis in (interval_basis, square_basis):
        b = basis.domain.boundary_mask
        assert np.abs(basis.modes[:, b]).max() == 0.0


def test_conormal_traces_1d_analytic(interval_domain):
    basis = spectral.eigensolve(interval_domain, 8, backend="fd")
    k = np.arange(1, 9)
    left = -np.sqrt(2.0) * k * np.pi
    right = np.sqrt(2.0) * k * np.pi * np.cos(k * np.pi)
    np.testing.assert_allclose(basis.conormal_traces[:, 0], left, rtol=2e-3)
    np.testing.assert_allclose(basis.conormal_traces[:, 1], right, rtol=2e-3)


def test_conormal_traces_2d_corners_zero(square_basis):
    nodes = square_basis.domain.boundary_nodes()
    nx, ny = square_basis.domain.shape
    corner_rows = [
        m
        for m, (i, j) in enumerate(nodes)
        if (i in (0, nx - 1)) and (j in (0, ny - 1))
    ]
    assert len(corner_rows) == 4
    assert np.abs(square_basis.conormal_traces[:, corner_rows]).max() == 0.0


def _reference_traces(basis):
    """Per-node one-sided stencil along the inward axis; corners zero."""
    dom, modes = basis.domain, basis.modes
    traces = np.zeros((basis.n_modes, len(dom.boundary_nodes())))
    for m, node in enumerate(dom.boundary_nodes()):
        faces = [ax for ax, i in enumerate(node) if i in (0, dom.shape[ax] - 1)]
        if len(faces) > 1:
            continue  # corner
        (axis,) = faces
        low = node[axis] == 0
        h, a = dom.spacings[axis], dom.coeff[tuple(node) + (axis, axis)]

        def inward(k):
            idx = list(node)
            idx[axis] += k if low else -k
            return modes[(slice(None),) + tuple(idx)]

        if low:
            traces[:, m] = -a * ((-3 * inward(0) + 4 * inward(1) - inward(2)) / (2 * h))
        else:
            traces[:, m] = a * ((3 * inward(0) - 4 * inward(1) + inward(2)) / (2 * h))
    return traces


_TRACE_CASES = {
    "interval_bump": lambda: cli.build_basis(cli.ExperimentConfig(preset="interval_bump")),
    "square_bump_33": lambda: cli.build_basis(
        cli.ExperimentConfig(preset="square_bump", nx=33, ny=33, n_modes=40)
    ),
    "rectangle_33x17": lambda: spectral.eigensolve(
        geometry.rectangle(shape=(33, 17), extents=((0.0, 2.0), (0.0, 1.0))), 40
    ),
    "anisotropic_21x17": lambda: spectral.eigensolve(
        geometry.rectangle(shape=(21, 17), a11=2.0, a22=lambda X, Y: 1.0 + X * Y), 12
    ),
}


@pytest.mark.parametrize("case", ["desk_basis", "square_basis", *_TRACE_CASES])
def test_conormal_traces_match_per_node_stencil(request, case):
    if case in _TRACE_CASES:
        basis = _TRACE_CASES[case]()
    else:
        basis = request.getfixturevalue(case)
    assert np.array_equal(basis.conormal_traces, _reference_traces(basis))


@pytest.mark.parametrize(
    "coefficients, backend",
    [
        ({"a11": 3.0}, "analytic"),
        ({"a11": 2.0, "a22": 1.0}, "fd"),
        ({"q": 0.5}, "analytic"),
        ({"q": lambda X, Y: 1.0 + X}, "fd"),
    ],
    ids=["isotropic", "a11_ne_a22", "constant_potential", "varying_potential"],
)
def test_auto_backend_2d(coefficients, backend):
    dom = geometry.rectangle(shape=(9, 11), **coefficients)
    assert spectral.eigensolve(dom, 4).backend == backend


def test_project_reconstruct_roundtrip(interval_basis, rng):
    alphas = rng.standard_normal(interval_basis.n_modes)
    field = spectral.reconstruct(alphas, interval_basis)
    back = spectral.project(field, interval_basis)
    np.testing.assert_allclose(back, alphas, atol=1e-12)


def test_project_shape_guard(interval_basis):
    with pytest.raises(ValueError, match="grid mismatch"):
        spectral.project(np.zeros(7), interval_basis)


def test_spectrum_csv(tmp_path, interval_basis):
    path = tmp_path / "spectrum.csv"
    spectral.write_spectrum_csv(path, interval_basis)
    lines = path.read_text().splitlines()
    assert lines[0] == "k,lambda"
    assert len(lines) == 1 + 64
    k, lam = lines[1].split(",")
    assert k == "1"
    assert float(lam) == pytest.approx(np.pi**2, rel=1e-3)
    expect = tmp_path / "expect.csv"
    with open(expect, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["k", "lambda"])
        for k, lam in enumerate(interval_basis.lambdas, start=1):
            writer.writerow([k, f"{lam:.17g}"])
    assert path.read_bytes() == expect.read_bytes()
