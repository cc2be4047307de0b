import csv
import heapq
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wavecontrol import cli, geometry, spectral, waveop


def test_interval_defaults(interval_domain):
    d = interval_domain
    assert d.dimension == 1
    assert d.shape == (513,)
    assert d.extents == ((0.0, 1.0),)
    (h,) = d.spacings
    assert h == pytest.approx(1.0 / 512)
    assert d.axes[0][0] == 0.0 and d.axes[0][-1] == 1.0


def test_interval_boundary_nodes(interval_domain):
    nodes = interval_domain.boundary_nodes()
    assert [tuple(n) for n in nodes] == [(0,), (512,)]
    w = interval_domain.boundary_weights()
    np.testing.assert_allclose(w, [1.0, 1.0])


def test_rectangle_boundary_weights(square_domain):
    w = square_domain.boundary_weights()
    nodes = square_domain.boundary_nodes()
    assert len(w) == len(nodes) == 4 * 129 - 4
    hx, hy = square_domain.spacings
    # total boundary measure: perimeter of the unit square
    assert w.sum() == pytest.approx(4.0)
    # nodes are lexicographic, so the first is the (0, 0) corner
    assert tuple(nodes[0]) == (0, 0)
    assert w[0] == pytest.approx((hx + hy) / 2)


def test_trapezoid_weights_integrate_constants(square_domain):
    w = geometry.trapezoid_weights(square_domain)
    assert w.sum() == pytest.approx(1.0)


def test_coefficient_validation_rejects_indefinite():
    bad = np.array([[1.0, 2.0], [2.0, 1.0]])  # eigenvalues 3 and -1
    with pytest.raises(ValueError, match="positive definite"):
        geometry.rectangle(shape=(5, 5), a11=1.0, a12=2.0, a22=1.0)
    assert np.linalg.eigvalsh(bad)[0] < 0  # sanity on the example itself


def _tensor(shape, a11=1.0, a12=0.0, a22=1.0):
    coeff = np.zeros(shape + (2, 2))
    coeff[..., 0, 0], coeff[..., 0, 1], coeff[..., 1, 0], coeff[..., 1, 1] = a11, a12, a12, a22
    return coeff


def test_coefficient_validation_rejects_asymmetric():
    coeff = _tensor((5, 4), a12=0.1)
    coeff[3, 2, 1, 0] = 0.1 + 3e-7
    old_dev = np.max(np.abs(coeff - np.swapaxes(coeff, -1, -2)))  # whole-tensor formula
    with pytest.raises(ValueError, match="not symmetric") as err:
        geometry.DomainSpec(_UNIT, (5, 4), coeff)
    assert str(err.value) == f"coefficient matrix not symmetric (max dev {old_dev:g})"


@pytest.mark.parametrize("asymmetric", [False, True], ids=["symmetric", "asymmetric"])
@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
def test_nonfinite_diagonal_is_not_positive_definite(bad, asymmetric):
    # an asymmetric node elsewhere does not turn the refusal into a symmetry
    # one: the whole-tensor deviation of the reference formula is NaN here
    coeff = _tensor((5, 4))
    coeff[2, 1, 1, 1] = bad
    if asymmetric:
        coeff[3, 2, 0, 1] = 0.25
    with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="not positive definite"):
        geometry.DomainSpec(_UNIT, (5, 4), coeff)


@pytest.mark.parametrize("entry", [(0, 1), (1, 0)], ids=["a12", "a21"])
@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
def test_nonfinite_off_diagonal_is_refused_at_its_node(bad, entry):
    # a NaN a21 beside a finite a12 once passed both checks, and the graph
    # fallback then returned tau = inf at that node
    coeff = _tensor((5, 5), a12=0.1)
    coeff[(2, 1) + entry] = bad
    with pytest.raises(ValueError, match=r"non-finite off-diagonal entry at node \(2, 1\)$"):
        geometry.DomainSpec(_UNIT, (5, 5), coeff)


def test_coefficient_validation_rejects_negative_potential():
    with pytest.raises(ValueError, match="potential"):
        geometry.interval(n=9, q=lambda x: -np.ones_like(x))


def test_validation_error_names_offending_node():
    a = lambda x: np.where(x > 0.7, -1.0, 1.0)
    with pytest.raises(ValueError, match=r"node"):
        geometry.interval(n=9, a=a)


def test_eikonal_interval_exact(interval_distance):
    tau = interval_distance
    x = np.linspace(0, 1, 513)
    np.testing.assert_allclose(tau, np.minimum(x, 1 - x), atol=1e-13)
    assert float(tau.max()) == pytest.approx(0.5, abs=1e-13)


def test_eikonal_interval_variable_coefficient():
    # medium twice as stiff: unit-speed metric is 1/sqrt(4) = 1/2, so the
    # midpoint distance halves
    dom = geometry.interval(n=257, a=4.0)
    tau = geometry.eikonal_distance(dom)
    assert float(tau.max()) == pytest.approx(0.25, abs=1e-12)


def test_eikonal_square_center(square_domain):
    tau = geometry.eikonal_distance(square_domain)
    h = max(square_domain.spacings)
    c = tau[64, 64]
    assert abs(c - 0.5) <= 2 * h
    # distance to the nearest edge for an off-center node
    assert abs(tau[16, 64] - 16 / 128) <= 2 * h


def test_eikonal_metric_scaling_2d():
    a = geometry.radial_bump_coefficient(1.0, 0.5, (0.5, 0.5), 0.25)
    dom1 = geometry.rectangle(shape=(65, 65), a11=a, a22=a)
    a4 = lambda x, y: 4.0 * a(x, y)
    dom4 = geometry.rectangle(shape=(65, 65), a11=a4, a22=a4)
    t1 = geometry.eikonal_distance(dom1)
    t4 = geometry.eikonal_distance(dom4)
    np.testing.assert_allclose(t4, t1 / 2.0, atol=1e-12)


def test_eikonal_mixed_coefficient_uses_graph_fallback():
    dom = geometry.rectangle(shape=(33, 33), a11=1.0, a12=0.2, a22=1.0)
    tau = geometry.eikonal_distance(dom)
    assert np.all(tau >= 0)
    assert np.all(tau[dom.boundary_mask] == 0.0)
    # graph paths overestimate the metric distance but stay within the
    # 8-neighbor anisotropy factor of the axis-aligned answer
    center = tau[16, 16]
    assert 0.3 <= center <= 0.65


def test_filled_region_interval(interval_domain, interval_distance):
    region = geometry.filled_subdomain(interval_domain, interval_distance, 0.2)
    x = np.linspace(0, 1, 513)
    expect = (x < 0.2) | (x > 0.8)
    mismatch = np.flatnonzero(region.indicator != expect)
    # only nodes within one cell of the frontier may disagree
    h = max(interval_domain.spacings)
    assert all(min(abs(x[i] - 0.2), abs(x[i] - 0.8)) <= h + 1e-12 for i in mismatch)


def test_filled_region_covers_all_after_fill_time(interval_domain, interval_distance):
    region = geometry.filled_subdomain(interval_domain, interval_distance, 0.75)
    assert region.indicator.all()


def test_filled_region_requires_positive_horizon(interval_domain, interval_distance):
    with pytest.raises(ValueError, match="positive"):
        geometry.filled_subdomain(interval_domain, interval_distance, 0.0)


def test_dilated_region_monotone(interval_domain, interval_distance):
    region = geometry.filled_subdomain(interval_domain, interval_distance, 0.2)
    grown = region.dilated(0.05)
    assert np.all(grown[region.indicator])
    assert grown.sum() > region.indicator.sum()


def _mass_outside_by_node(tau, spacings, T, band, u):
    """Squared mass of u where tau >= T + band, one node at a time."""
    total = 0.0
    for node in np.ndindex(tau.shape):
        if not tau[node] < T + band:
            w = 1.0
            for i, n, h in zip(node, tau.shape, spacings):
                w *= h / 2 if i in (0, n - 1) else h
            total += w * u[node] ** 2
    return total


@pytest.mark.parametrize(
    "domain", [geometry.interval(), geometry.rectangle(shape=(33, 17))], ids=["desk", "33x17"]
)
def test_mass_outside_matches_node_loop(domain):
    tau = geometry.eikonal_distance(domain)
    T = 0.5 * float(tau.max())
    region = geometry.filled_subdomain(domain, tau, T)
    u = 1.0 + sum(x**2 for x in domain.grids())
    total = float(np.sum(region.weights * u**2))
    masses = []
    h = max(domain.spacings)
    for band in (-2 * h, 0.0, 2 * h):
        masses.append(region.mass_outside(u, band))
        assert 0 < masses[-1] < total  # mass on both sides of the frontier
        by_node = _mass_outside_by_node(tau, domain.spacings, T, band, u)
        assert masses[-1] == pytest.approx(by_node, rel=1e-13)
    assert masses[0] > masses[1] > masses[2]  # a wider band leaves less outside
    assert region.mass_outside(u) == masses[1]


@pytest.mark.parametrize("preset", ["interval", "interval_bump", "square", "square_bump"])
def test_region_weights_are_the_basis_mass_weights(preset):
    cfg = cli.ExperimentConfig(preset=preset, nx=17, ny=9, n_modes=4)
    domain = cli.build_domain(cfg)
    region = geometry.filled_subdomain(domain, geometry.eikonal_distance(domain), cfg.T)
    weights = spectral.eigensolve(domain, 4).mass_weights
    assert region.weights.shape == weights.shape
    assert region.weights.tobytes() == weights.tobytes()


@settings(max_examples=20, deadline=None)
@given(
    t1=st.floats(min_value=0.05, max_value=0.45),
    t2=st.floats(min_value=0.05, max_value=0.45),
)
def test_filled_region_monotone_in_horizon(t1, t2):
    dom = geometry.interval(n=129)
    tau = geometry.eikonal_distance(dom)
    lo, hi = sorted((t1, t2))
    r_lo = geometry.filled_subdomain(dom, tau, lo)
    r_hi = geometry.filled_subdomain(dom, tau, hi)
    assert np.all(r_hi.indicator[r_lo.indicator])


@settings(max_examples=20, deadline=None)
@given(c=st.floats(min_value=0.5, max_value=3.0))
def test_eikonal_scaling_law_1d(c):
    dom1 = geometry.interval(n=65)
    domc = geometry.interval(n=65, a=c * c)
    t1 = geometry.eikonal_distance(dom1)
    tc = geometry.eikonal_distance(domc)
    np.testing.assert_allclose(tc, t1 / c, atol=1e-12)


def test_coefficient_csv_roundtrip(tmp_path):
    dom = geometry.rectangle(shape=(9, 9), a11=2.0, a22=3.0)
    rows = ["i,j,a11,a12,a22,q"]
    for i in range(9):
        for j in range(9):
            rows.append(f"{i},{j},2.0,0.0,3.0,0.0")
    path = tmp_path / "coeff.csv"
    path.write_text("\n".join(rows) + "\n")
    loaded = geometry.domain_from_coefficient_csv(path, (9, 9))
    np.testing.assert_allclose(loaded.coeff, dom.coeff)


def test_coefficient_csv_row_longer_than_header_loads(tmp_path):
    path = tmp_path / "coeff.csv"
    path.write_text("i,j,a11\n" + "".join(f"{i},0,2.0,extra\n" for i in range(5)))
    loaded = geometry.domain_from_coefficient_csv(path, (5,))
    assert np.all(loaded.coeff == 2.0)


def test_coefficient_csv_missing_node(tmp_path):
    path = tmp_path / "coeff.csv"
    path.write_text("i,j,a11,a12,a22\n0,0,1.0,0.0,1.0\n")
    with pytest.raises(ValueError, match="missing"):
        geometry.domain_from_coefficient_csv(path, (3, 3))


def test_distance_csv_format(tmp_path, interval_domain, interval_distance):
    path = tmp_path / "tau.csv"
    region = geometry.filled_subdomain(interval_domain, interval_distance, 0.2)
    geometry.write_eikonal_csvs(path, tmp_path / "region.csv", interval_domain, region)
    lines = path.read_text().splitlines()
    assert lines[0] == "i,j,x,y,tau"
    assert len(lines) == 1 + 513
    first = lines[1].split(",")
    assert first[:2] == ["0", "0"]
    assert float(first[4]) == 0.0


def test_region_csv_format(tmp_path, interval_domain, interval_distance):
    region = geometry.filled_subdomain(interval_domain, interval_distance, 0.2)
    path = tmp_path / "region.csv"
    geometry.write_eikonal_csvs(tmp_path / "tau.csv", path, interval_domain, region)
    lines = path.read_text().splitlines()
    assert lines[0] == "i,j,x,y,inside"
    assert set(line.split(",")[4] for line in lines[1:]) <= {"0", "1"}


# ---------------------------------------------------------------------------
# flat-array kernels against the per-node reference formulas


def _variable_rectangle(shape, a12=0.0):
    # non-unit extents and a11 != a22, both varying over the grid
    return geometry.rectangle(
        shape=shape,
        extents=((-0.3, 1.1), (0.2, 0.9)),
        a11=lambda x, y: 1.0 + 0.5 * np.sin(3 * x) * np.cos(2 * y),
        a12=a12,
        a22=lambda x, y: 0.7 + 0.4 * x * y,
    )


def _reference_fast_march(domain):
    """Fast marching with numpy-scalar indexing, one node at a time.

    Returns tau and the number of updates that had an accepted neighbour on
    both axes but took the one-sided update, because the two-term root was
    complex or fell below a neighbour.
    """
    nx, ny = domain.shape
    hx, hy = domain.spacings
    a11 = domain.coeff[..., 0, 0]
    a22 = domain.coeff[..., 1, 1]
    tau = np.full((nx, ny), np.inf)
    accepted = np.zeros((nx, ny), dtype=bool)
    heap = []
    fallbacks = 0
    for i, j in domain.boundary_nodes():
        tau[i, j] = 0.0
        heapq.heappush(heap, (0.0, i * ny + j))

    def update(i, j):
        nonlocal fallbacks
        ux = np.inf
        if i > 0 and accepted[i - 1, j]:
            ux = tau[i - 1, j]
        if i < nx - 1 and accepted[i + 1, j]:
            ux = min(ux, tau[i + 1, j])
        uy = np.inf
        if j > 0 and accepted[i, j - 1]:
            uy = tau[i, j - 1]
        if j < ny - 1 and accepted[i, j + 1]:
            uy = min(uy, tau[i, j + 1])
        p = a11[i, j] / hx**2
        q = a22[i, j] / hy**2
        best = np.inf
        if np.isfinite(ux) and np.isfinite(uy):
            s, t = p + q, p * ux + q * uy
            disc = t**2 - s * (p * ux**2 + q * uy**2 - 1.0)
            if disc >= 0:
                cand = (t + np.sqrt(disc)) / s
                if cand >= max(ux, uy):
                    best = cand
        if not np.isfinite(best):
            if np.isfinite(ux) and np.isfinite(uy):
                fallbacks += 1
            cand_x = ux + hx / np.sqrt(a11[i, j]) if np.isfinite(ux) else np.inf
            cand_y = uy + hy / np.sqrt(a22[i, j]) if np.isfinite(uy) else np.inf
            best = min(cand_x, cand_y)
        return best

    while heap:
        _, flat = heapq.heappop(heap)
        i, j = divmod(flat, ny)
        if accepted[i, j]:
            continue
        accepted[i, j] = True
        for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            ii, jj = i + di, j + dj
            if 0 <= ii < nx and 0 <= jj < ny and not accepted[ii, jj]:
                cand = update(ii, jj)
                if cand < tau[ii, jj]:
                    tau[ii, jj] = cand
                    heapq.heappush(heap, (cand, ii * ny + jj))
    return tau, fallbacks


def _reference_dijkstra(domain):
    """8-neighbor shortest paths with the edge length evaluated per edge."""
    nx, ny = domain.shape
    hx, hy = domain.spacings
    inv = np.linalg.inv(domain.coeff)
    tau = np.full((nx, ny), np.inf)
    done = np.zeros((nx, ny), dtype=bool)
    heap = []
    for i, j in domain.boundary_nodes():
        tau[i, j] = 0.0
        heapq.heappush(heap, (0.0, i * ny + j))
    steps = [(di, dj) for di in (-1, 0, 1) for dj in (-1, 0, 1) if (di, dj) != (0, 0)]
    while heap:
        val, flat = heapq.heappop(heap)
        i, j = divmod(flat, ny)
        if done[i, j]:
            continue
        done[i, j] = True
        for di, dj in steps:
            ii, jj = i + di, j + dj
            if not (0 <= ii < nx and 0 <= jj < ny) or done[ii, jj]:
                continue
            dx = np.array([di * hx, dj * hy])
            m = 0.5 * (inv[i, j] + inv[ii, jj])
            cand = val + np.sqrt(dx @ m @ dx)
            if cand < tau[ii, jj]:
                tau[ii, jj] = cand
                heapq.heappush(heap, (cand, ii * ny + jj))
    return tau


def _jump(x, y):
    # a = 1 | 100 across x = 0.5: along the jump the two-term root falls
    # below a neighbour, so the march takes its one-sided update
    return np.where(x < 0.5, 1.0, 100.0)


# (id, domain, whether the one-sided fallback must be taken); nx != ny, so a
# +-nx / +-ny mix-up in the flat offsets shows, and 3-node axes have a single
# interior line between two boundary faces
_MARCH_CASES = [
    ("3x3", lambda: _variable_rectangle((3, 3)), False),
    ("3x17", lambda: _variable_rectangle((3, 17)), False),
    ("17x3", lambda: _variable_rectangle((17, 3)), False),
    ("37x23", lambda: _variable_rectangle((37, 23)), False),
    ("jump_65", lambda: geometry.rectangle(shape=(65, 65), a11=_jump, a22=_jump), True),
    (
        "square_bump_33",
        lambda: cli.build_domain(cli.ExperimentConfig(preset="square_bump", nx=33, ny=33)),
        False,
    ),
]


@pytest.mark.parametrize(
    "build, falls_back", [case[1:] for case in _MARCH_CASES], ids=[case[0] for case in _MARCH_CASES]
)
def test_fast_march_matches_reference_loop(build, falls_back):
    dom = build()
    tau = geometry.eikonal_distance(dom)
    ref, fallbacks = _reference_fast_march(dom)
    assert np.all(np.isfinite(ref))
    assert np.array_equal(tau, ref)
    if falls_back:
        assert fallbacks > 0


def test_fast_march_peak_memory_per_node():
    # per-node tables of Python floats would cost about 94 bytes a node;
    # array("d") tables with the pad ring stay near 63
    dom = cli.build_domain(cli.ExperimentConfig(preset="square_bump"))
    tracemalloc.start()
    try:
        geometry._fast_march_2d(dom)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 80 * np.prod(dom.shape)


def test_square_bump_build_peak_memory_per_node():
    # the (n, n, 2, 2) tensor is 32 bytes a node; a symmetry check on
    # whole-tensor temporaries reads about 120
    cfg = cli.ExperimentConfig(preset="square_bump")
    tracemalloc.start()
    try:
        dom = cli.build_domain(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert dom.shape == (129, 129)
    assert peak < 104 * np.prod(dom.shape)


def test_square_bump_samples_its_bump_once(monkeypatch):
    calls = []
    real_bump = geometry.radial_bump_coefficient

    def counting_bump(*args):
        profile = real_bump(*args)
        return lambda *coords: calls.append(coords) or profile(*coords)

    monkeypatch.setattr(geometry, "radial_bump_coefficient", counting_bump)
    dom = cli.build_domain(cli.ExperimentConfig(preset="square_bump", nx=33, ny=33))
    assert len(calls) == 1
    assert np.array_equal(dom.coeff[..., 1, 1], dom.coeff[..., 0, 0])


def test_dijkstra_matches_reference_loop():
    # the second grid has nx < ny and a constant mixed term
    for dom in (
        _variable_rectangle((31, 19), a12=lambda x, y: 0.25 * np.cos(2 * x + y)),
        _variable_rectangle((17, 41), a12=0.25),
    ):
        assert not np.all(dom.coeff[..., 0, 1] == 0)  # takes the graph fallback
        tau = geometry.eikonal_distance(dom)
        ref = _reference_dijkstra(dom)
        assert np.all(np.isfinite(ref))
        assert np.all(np.abs(tau - ref) <= 1e-14 * np.abs(ref))


# Coefficients built from + and * only, so a node-by-node evaluation on
# scalars rounds exactly as the evaluation on the whole grid does.
def _stiff_1d(x):
    return 1.0 + x * x


def _q_1d(x):
    return 0.5 + 0.25 * x


def _stiff_2d(x, y):
    return 1.0 + 0.5 * x * y


def _soft_2d(x, y):
    return 0.7 + 0.25 * x * x


def _mixed_2d(x, y):
    return 0.1 * (x - y)


_UNIT = ((0.0, 1.0), (0.0, 1.0))
_OFFSET = ((-0.3, 1.1), (0.2, 0.9))
_FIELD = 1.0 + np.arange(35.0).reshape(7, 5) / 35.0

# (id, construction, extents, shape, (a11, a22) or (a,), a12, q) with every
# default written out: a22 = a11 where the construction leaves it None
_BOX_CASES = [
    ("interval_defaults", lambda: geometry.interval(n=9), ((0.0, 1.0),), (9,), (1.0,), 0.0, 0.0),
    (
        "interval_callables",
        lambda: geometry.interval(n=17, x0=-0.5, x1=2.0, a=_stiff_1d, q=_q_1d),
        ((-0.5, 2.0),), (17,), (_stiff_1d,), 0.0, _q_1d,
    ),
    (
        "interval_array_no_q",
        lambda: geometry.interval(n=9, a=np.linspace(1.0, 2.0, 9), q=None),
        ((0.0, 1.0),), (9,), (np.linspace(1.0, 2.0, 9),), 0.0, None,
    ),
    ("rectangle_defaults", lambda: geometry.rectangle(shape=(7, 5)), _UNIT, (7, 5), (1.0, 1.0), 0.0, 0.0),
    (
        "rectangle_callables",
        lambda: geometry.rectangle(
            shape=(7, 5), extents=_OFFSET, a11=_stiff_2d, a12=_mixed_2d, a22=_soft_2d, q=_soft_2d
        ),
        _OFFSET, (7, 5), (_stiff_2d, _soft_2d), _mixed_2d, _soft_2d,
    ),
    (
        "rectangle_callable_a22_default",
        lambda: geometry.rectangle(shape=(5, 9), extents=_OFFSET, a11=_stiff_2d, q=None),
        _OFFSET, (5, 9), (_stiff_2d, _stiff_2d), 0.0, None,
    ),
    (
        "rectangle_arrays",
        lambda: geometry.rectangle(shape=(7, 5), a11=_FIELD, a12=0.1, a22=2.0 * _FIELD, q=_FIELD),
        _UNIT, (7, 5), (_FIELD, 2.0 * _FIELD), 0.1, _FIELD,
    ),
    (
        "rectangle_array_a22_default_zero_q",
        lambda: geometry.rectangle(shape=(7, 5), a11=_FIELD, q=np.zeros((7, 5))),
        _UNIT, (7, 5), (_FIELD, _FIELD), 0.0, np.zeros((7, 5)),
    ),
]


def _reference_box(extents, shape, diagonal, a12, q):
    """Coefficient tensor and potential sampled one node at a time."""
    axes = [np.linspace(lo, hi, n) for (lo, hi), n in zip(extents, shape)]
    d = len(shape)

    def at(c, node):
        if callable(c):
            return c(*(ax[k] for ax, k in zip(axes, node)))
        return np.asarray(c, dtype=float)[node] if np.ndim(c) else c

    coeff = np.zeros(shape + (d, d))
    pot = np.zeros(shape)
    for node in np.ndindex(*shape):
        for k in range(d):
            coeff[node + (k, k)] = at(diagonal[k], node)
        if d == 2:
            coeff[node + (0, 1)] = coeff[node + (1, 0)] = at(a12, node)
        if q is not None:
            pot[node] = at(q, node)
    return coeff, (pot if pot.any() else None)


@pytest.mark.parametrize(
    "build, extents, shape, diagonal, a12, q",
    [case[1:] for case in _BOX_CASES],
    ids=[case[0] for case in _BOX_CASES],
)
def test_box_constructors_match_reference_loop(build, extents, shape, diagonal, a12, q):
    dom = build()
    coeff, pot = _reference_box(extents, shape, diagonal, a12, q)
    assert dom.extents == extents and dom.shape == shape
    assert np.array_equal(dom.coeff, coeff)
    if pot is None:
        assert dom.potential is None
    else:
        assert np.array_equal(dom.potential, pot)


def _reference_boundary_weights(domain):
    nodes = domain.boundary_nodes()
    if domain.dimension == 1:
        return np.ones(len(nodes))
    hx, hy = domain.spacings
    nx, ny = domain.shape
    w = np.zeros(len(nodes))
    for m, (i, j) in enumerate(nodes):
        wi = 0.0
        if i == 0 or i == nx - 1:
            wi += hy / 2 if (j == 0 or j == ny - 1) else hy
        if j == 0 or j == ny - 1:
            wi += hx / 2 if (i == 0 or i == nx - 1) else hx
        w[m] = wi
    return w


@pytest.mark.parametrize(
    "domain",
    [
        geometry.rectangle(),
        _variable_rectangle((37, 23)),
        geometry.interval(n=17, x0=-0.5, x1=2.0),
    ],
    ids=["129x129", "37x23", "1d"],
)
def test_boundary_weights_match_reference_loop(domain):
    w = domain.boundary_weights()
    assert len(w) == len(domain.boundary_nodes())
    assert np.array_equal(w, _reference_boundary_weights(domain))


def _csv_writer_rendering(path, domain, name, cells):
    xs = domain.axes[0]
    ys = domain.axes[1] if domain.dimension == 2 else [0.0]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["i", "j", "x", "y", name])
        for (i, j), cell in zip(np.ndindex(len(xs), len(ys)), cells):
            writer.writerow([i, j, f"{xs[i]:.17g}", f"{ys[j]:.17g}", cell])


# 19 x 130 spans three 1024-node writes of 8 + 8 + 3 grid lines
_NODE_TABLE_DOMAINS = pytest.mark.parametrize(
    "domain",
    [
        geometry.interval(n=17, x0=-0.5, x1=2.0),
        _variable_rectangle((37, 23)),
        _variable_rectangle((19, 130)),
    ],
    ids=["1d", "2d_37x23", "2d_19x130"],
)


@_NODE_TABLE_DOMAINS
def test_node_csv_matches_csv_writer(tmp_path, domain):
    tau = geometry.eikonal_distance(domain).copy()
    flat = tau.reshape(-1)
    flat[1], flat[2], flat[3] = -0.0, 5e-324, 1e300
    flat[-4], flat[-3], flat[-2] = -0.0, 5e-324, 1e300  # the same cells in the last block
    region = geometry.filled_subdomain(domain, tau, 0.5 * float(tau.max()))
    assert 0 < region.indicator.sum() < region.indicator.size

    geometry.write_eikonal_csvs(tmp_path / "tau.csv", tmp_path / "region.csv", domain, region)
    _csv_writer_rendering(
        tmp_path / "tau_ref.csv", domain, "tau", [f"{v:.17g}" for v in flat]
    )
    _csv_writer_rendering(
        tmp_path / "region_ref.csv", domain, "inside",
        [int(v) for v in region.indicator.reshape(-1)],
    )
    tau_bytes = (tmp_path / "tau.csv").read_bytes()
    assert b",-0\r\n" in tau_bytes and b",4.9406564584124654e-324\r\n" in tau_bytes
    assert b",1.0000000000000001e+300\r\n" in tau_bytes
    assert tau_bytes == (tmp_path / "tau_ref.csv").read_bytes()
    waveop.write_state_csv(tmp_path / "state.csv", domain, tau)
    if domain.dimension == 2:
        assert (tmp_path / "state.csv").read_bytes() == tau_bytes.replace(
            b",tau\r\n", b",u\r\n", 1
        )
    else:  # the 1D state table is x,u
        with open(tmp_path / "state_ref.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["x", "u"])
            for x, v in zip(domain.axes[0], flat):
                writer.writerow([f"{x:.17g}", f"{v:.17g}"])
        state_bytes = (tmp_path / "state.csv").read_bytes()
        assert b",-0\r\n" in state_bytes and b",1.0000000000000001e+300\r\n" in state_bytes
        assert state_bytes == (tmp_path / "state_ref.csv").read_bytes()
    assert (tmp_path / "region.csv").read_bytes() == (
        tmp_path / "region_ref.csv"
    ).read_bytes()


@_NODE_TABLE_DOMAINS
def test_eikonal_csvs_match_csv_writer(tmp_path, domain):
    """One pass writes tau.csv and region.csv as csv.writer renders each."""
    tau = geometry.eikonal_distance(domain)
    region = geometry.filled_subdomain(domain, tau, 0.5 * float(tau.max()))
    assert 0 < region.indicator.sum() < region.indicator.size
    geometry.write_eikonal_csvs(tmp_path / "tau.csv", tmp_path / "region.csv", domain, region)
    _csv_writer_rendering(
        tmp_path / "tau_ref.csv", domain, "tau", [f"{v:.17g}" for v in tau.reshape(-1)]
    )
    _csv_writer_rendering(
        tmp_path / "region_ref.csv", domain, "inside",
        [int(v) for v in region.indicator.reshape(-1)],
    )
    for name in ("tau", "region"):
        assert (tmp_path / f"{name}.csv").read_bytes() == (
            tmp_path / f"{name}_ref.csv"
        ).read_bytes()
