"""Grid domains, metric distance to the boundary, and filled subdomains.

The symmetric coefficient field a^{ij}(x) of the elliptic operator induces the
travel-time metric a_{ij} = (a^{ij})^{-1}.  ``eikonal_distance`` computes the
metric distance tau(x) from every node to the boundary, as a node array of
the domain's shape; the region filled by boundary-launched waves within time
T is Omega^T = {tau < T}, and the filling time of the whole domain is
tau.max().  ``FilledRegion`` holds Omega^T (T, tau and the trapezoid mass
weights); every mass off it is its ``mass_outside``.
"""

from __future__ import annotations

import csv
import heapq
import math
from array import array
from contextlib import ExitStack
from dataclasses import dataclass
from functools import reduce
from typing import Callable

import numpy as np

__all__ = [
    "DomainSpec",
    "FilledRegion",
    "interval",
    "rectangle",
    "radial_bump_coefficient",
    "domain_from_coefficient_csv",
    "eikonal_distance",
    "filled_subdomain",
    "grid_trapezoid_weights",
    "trapezoid_weights",
    "write_eikonal_csvs",
]


def _node(flat_index, shape) -> tuple:
    """Multi-index of a flat node index, as plain ints for messages."""
    return tuple(int(i) for i in np.unravel_index(int(flat_index), shape))


@dataclass(frozen=True)
class DomainSpec:
    """Axis-aligned box domain with node-sampled operator coefficients.

    extents   : ((x0, x1),) in 1D or ((x0, x1), (y0, y1)) in 2D
    shape     : node counts per axis, including boundary nodes
    coeff     : a^{ij} sampled at nodes, shape = shape + (d, d), symmetric,
                uniformly positive definite
    potential : optional q(x) >= 0 sampled at nodes
    """

    extents: tuple
    shape: tuple
    coeff: np.ndarray
    potential: np.ndarray | None = None

    def __post_init__(self):
        d = len(self.shape)
        if d not in (1, 2):
            raise ValueError(f"only 1D and 2D domains supported, got {d} axes")
        if len(self.extents) != d:
            raise ValueError("extents and shape disagree on dimension")
        for n in self.shape:
            if n < 3:
                raise ValueError("need at least 3 nodes per axis")
        for lo, hi in self.extents:
            if not hi > lo:
                raise ValueError(f"degenerate extent ({lo}, {hi})")
        expected = tuple(self.shape) + (d, d)
        if self.coeff.shape != expected:
            raise ValueError(f"coeff shape {self.coeff.shape}, expected {expected}")
        if d == 2:  # a 1x1 matrix is symmetric by shape
            a12, a21 = self.coeff[..., 0, 1], self.coeff[..., 1, 0]
            asym = np.max(np.abs(a12 - a21))
            # NaN where an off-diagonal entry is not finite; a tensor with a
            # non-finite diagonal entry is refused below as not positive
            # definite, whatever its off-diagonal planes hold
            if not asym <= 0 and np.isfinite(self.coeff[..., [0, 1], [0, 1]]).all():
                bad = ~(np.isfinite(a12) & np.isfinite(a21))
                if bad.any():  # the eigenvalue check below reads a12 alone
                    raise ValueError(
                        f"coefficient matrix has a non-finite off-diagonal entry at node "
                        f"{_node(np.argmax(bad), self.shape)}"
                    )
                raise ValueError(f"coefficient matrix not symmetric (max dev {asym:g})")
        if self.potential is not None:
            if self.potential.shape != tuple(self.shape):
                raise ValueError("potential shape does not match grid")
            if not np.all(np.isfinite(self.potential)) or np.min(self.potential) < 0:
                raise ValueError("potential must be finite and nonnegative")
        smallest = self._node_eigenvalues()[0]
        mu = float(np.min(smallest))
        if not (mu > 0) or not np.isfinite(mu):
            raise ValueError(
                f"coefficient matrix not positive definite at node "
                f"{_node(np.argmin(smallest), self.shape)} "
                f"(smallest eigenvalue {mu:g})"
            )

    def _node_eigenvalues(self) -> tuple:
        """(smallest, largest) coefficient eigenvalue at each node.

        Closed form (a + b -+ gap) / 2 with a, b the first and last diagonal
        entries; a 1x1 matrix has a = b and no off-diagonal, so no gap.
        """
        a, b = self.coeff[..., 0, 0], self.coeff[..., -1, -1]
        off = np.sum(self.coeff[..., 0, 1:] ** 2, axis=-1)
        gap = np.sqrt(np.maximum((a - b) ** 2 + 4 * off, 0.0))
        return (a + b - gap) / 2, (a + b + gap) / 2

    @property
    def dimension(self) -> int:
        return len(self.shape)

    @property
    def spacings(self) -> tuple:
        return tuple(
            (hi - lo) / (n - 1) for (lo, hi), n in zip(self.extents, self.shape)
        )

    @property
    def axes(self) -> tuple:
        return tuple(
            np.linspace(lo, hi, n) for (lo, hi), n in zip(self.extents, self.shape)
        )

    def grids(self) -> tuple:
        """Coordinate arrays broadcast over the full node grid."""
        return tuple(np.meshgrid(*self.axes, indexing="ij"))

    @property
    def boundary_mask(self) -> np.ndarray:
        mask = np.ones(self.shape, dtype=bool)
        mask[(slice(1, -1),) * self.dimension] = False
        return mask

    def boundary_nodes(self) -> np.ndarray:
        """Boundary node multi-indices, lexicographic, each node once."""
        return np.argwhere(self.boundary_mask)

    def face_midpoint_rows(self) -> tuple:
        """Boundary rows of the middle nodes of the low and high x faces.

        In 1D those faces are the two endpoints, rows 0 and 1.  In 2D they
        are the nodes (0, m) and (nx - 1, m), m = (ny - 1) // 2, away from
        the corners, where the conormal traces vanish.
        """
        middle = [(n - 1) // 2 for n in self.shape[1:]]
        nodes = [np.ravel_multi_index([end, *middle], self.shape) for end in (0, self.shape[0] - 1)]
        return tuple(int(r) for r in np.flatnonzero(self.boundary_mask).searchsorted(nodes))

    def boundary_weights(self) -> np.ndarray:
        """Quadrature weights of the boundary measure, aligned with boundary_nodes.

        1D boundary measure is the counting measure on the two endpoints.
        2D uses the trapezoid rule along each edge; corner nodes carry the
        half-weights of both incident edges.
        """
        ws = [grid_trapezoid_weights((n,), (h,)) for n, h in zip(self.shape, self.spacings)]
        w = np.zeros(self.shape)
        # the two faces across each axis carry the trapezoid rule of the
        # other axes; boolean-mask order is the argwhere order of boundary_nodes
        for axis in range(self.dimension):
            np.moveaxis(w, axis, 0)[[0, -1]] += reduce(
                np.multiply.outer, ws[:axis] + ws[axis + 1 :], 1.0
            )
        return w[self.boundary_mask]


def grid_trapezoid_weights(shape: tuple, spacings: tuple) -> np.ndarray:
    """Tensor trapezoid quadrature weights on a uniform grid of this shape."""
    ws = []
    for n, h in zip(shape, spacings):
        w = np.full(n, h)
        w[0] = w[-1] = h / 2
        ws.append(w)
    return reduce(np.multiply.outer, ws)


def trapezoid_weights(domain: DomainSpec) -> np.ndarray:
    """Tensor trapezoid quadrature weights over all nodes."""
    return grid_trapezoid_weights(domain.shape, domain.spacings)


@dataclass(frozen=True)
class FilledRegion:
    """Sublevel set {tau < T} with the trapezoid mass weights of its grid."""

    T: float
    tau: np.ndarray
    weights: np.ndarray

    @property
    def indicator(self) -> np.ndarray:
        return self.tau < self.T

    def dilated(self, band: float) -> np.ndarray:
        """Indicator of the region thickened by a metric margin."""
        return self.tau < self.T + band

    def mass_outside(self, u: np.ndarray, band: float = 0.0) -> float:
        """Squared trapezoid mass of the node values ``u`` off the dilated region."""
        out = ~self.dilated(band)
        return float(np.sum(self.weights[out] * u[out] ** 2))


# ---------------------------------------------------------------------------
# constructors


def _box(extents, shape, diagonal, a12, q) -> DomainSpec:
    """Box domain with each coefficient sampled once on its node grid.

    A coefficient is a constant, a node array, or a callable of the node
    coordinates.  ``diagonal`` holds a^{kk} per axis, None repeating a^{11};
    ``a12`` is used in 2D only; a potential that is None or zero everywhere
    is dropped.
    """
    grids = np.meshgrid(
        *(np.linspace(lo, hi, n) for (lo, hi), n in zip(extents, shape)), indexing="ij"
    )

    def sample(c):
        return np.broadcast_to(np.asarray(c(*grids) if callable(c) else c, dtype=float), shape)

    d = len(shape)
    coeff = np.zeros(shape + (d, d))
    for k, c in enumerate(diagonal):
        coeff[..., k, k] = coeff[..., 0, 0] if c is None else sample(c)
    if d == 2:
        coeff[..., 0, 1] = coeff[..., 1, 0] = sample(a12)
    pot = sample(0.0 if q is None else q).copy()
    return DomainSpec(extents, shape, coeff, pot if pot.any() else None)


def interval(
    n: int = 513,
    x0: float = 0.0,
    x1: float = 1.0,
    a: float | np.ndarray | Callable = 1.0,
    q: float | np.ndarray | None = 0.0,
) -> DomainSpec:
    """1D domain on [x0, x1] with n nodes.

    ``a`` may be a constant, a length-n array, or a callable of x.  The
    default grid has 2**9 cells so the midpoint is a node.
    """
    return _box(((x0, x1),), (n,), (a,), None, q)


def rectangle(
    shape: tuple = (129, 129),
    extents: tuple = ((0.0, 1.0), (0.0, 1.0)),
    a11: float | np.ndarray | Callable = 1.0,
    a12: float | np.ndarray = 0.0,
    a22: float | np.ndarray | Callable | None = None,
    q: float | np.ndarray | None = 0.0,
) -> DomainSpec:
    """2D box domain.  Scalar coefficients broadcast over the grid."""
    return _box(extents, tuple(shape), (a11, a22), a12, q)


def radial_bump_coefficient(
    base: float = 1.0, amplitude: float = 0.5, center=(0.5, 0.5), width: float = 0.25
) -> Callable:
    """Smooth isotropic coefficient preset: base + bump around ``center``."""

    def profile(*coords):
        r2 = sum((x - c) ** 2 for x, c in zip(coords, center))
        return base + amplitude * np.exp(-r2 / width**2)

    return profile


def domain_from_coefficient_csv(
    path, shape: tuple, extents: tuple = None
) -> DomainSpec:
    """Build a domain from a node table ``i,j,a11,a12,a22[,q]``.

    1D tables use j = 0 and only the a11 (and q) columns.  Extents default
    to the unit box.
    """
    d = len(shape)
    if extents is None:
        extents = ((0.0, 1.0),) * d
    coeff = np.zeros(tuple(shape) + (d, d))
    pot = np.zeros(tuple(shape))
    seen = np.zeros(tuple(shape), dtype=bool)
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or "a11" not in reader.fieldnames:
            raise ValueError(f"{path}: missing a11 column")
        if not {"i", "j"} <= set(reader.fieldnames):
            raise ValueError(f"{path}: missing i or j column")
        has_q = "q" in reader.fieldnames

        def cell(row, name, parse=float, blank=None):
            """Column ``name``, parsed; ``blank`` stands in for an absent or empty cell."""
            value = (row.get(name) or "").strip()
            if not value and blank is None:
                raise ValueError(f"{at}: column {name} is empty")
            try:  # the parsers' own messages name no line
                return parse(value) if value else blank
            except ValueError:
                raise ValueError(f"{at}: column {name}: cannot read {value!r}") from None

        for row in reader:
            at = f"{path}: line {reader.line_num}"
            if None in row.values():  # DictReader pads a short row with None
                got = sum(v is not None for v in row.values())
                raise ValueError(f"{at}: expected {len(reader.fieldnames)} fields, got {got}")
            i, j = cell(row, "i", int), cell(row, "j", int)
            if i < 0 or j < 0:  # numpy would wrap a negative index to the far end
                raise ValueError(f"{at}: negative node index ({i}, {j})")
            node = (i,) if d == 1 else (i, j)
            if d == 1 and j != 0:
                raise ValueError(f"{at}: 1D table must have j=0, got j={j}")
            if any(k >= n for k, n in zip(node, shape)):
                raise ValueError(f"{at}: node {node} is out of bounds for the grid shape {shape}")
            if seen[node]:
                raise ValueError(f"{at}: node {node} listed twice")
            a11 = coeff[node + (0, 0)] = cell(row, "a11")
            if d == 2:
                coeff[node + (0, 1)] = coeff[node + (1, 0)] = cell(row, "a12", blank=0.0)
                coeff[node + (1, 1)] = cell(row, "a22", blank=a11)
            if has_q:
                pot[node] = cell(row, "q")
            seen[node] = True
    if not seen.all():
        missing = np.argwhere(~seen)[0]
        raise ValueError(f"{path}: no row for node {tuple(missing)}")
    return DomainSpec(extents, tuple(shape), coeff, pot if has_q else None)


# ---------------------------------------------------------------------------
# eikonal solvers


def eikonal_distance(domain: DomainSpec) -> np.ndarray:
    """Metric distance tau from every node to the boundary, shaped like the grid.

    1D integrates 1/sqrt(a) exactly on the grid (closed form for constant
    coefficients).  2D with axis-aligned coefficients runs fast marching with
    the upwind two-term update, first-order accurate and monotone.
    Coefficients with a mixed term fall back to a shortest-path sweep over the
    8-neighbor graph with metric edge lengths: monotone, but its paths keep to
    8 directions, so its error does not shrink with h (ROADMAP item 15).
    """
    if domain.dimension == 1:
        return _eikonal_1d(domain)
    if np.all(domain.coeff[..., 0, 1] == 0):
        return _fast_march_2d(domain)
    return _dijkstra_2d(domain)


def _eikonal_1d(domain: DomainSpec) -> np.ndarray:
    (h,) = domain.spacings
    c = np.sqrt(domain.coeff[:, 0, 0])
    inv = 1.0 / c
    left = np.zeros_like(inv)
    left[1:] = np.cumsum(0.5 * (inv[1:] + inv[:-1]) * h)
    right = left[-1] - left
    return np.minimum(left, right)


def _padded_table(values: np.ndarray, fill: float) -> array:
    """Grid values inside a one-node ring of ``fill``, row-major, as an
    array("d") that indexes to Python floats; numpy writes into its buffer."""
    nx, ny = values.shape
    table = array("d", [fill]) * ((nx + 2) * (ny + 2))
    np.frombuffer(table).reshape(nx + 2, ny + 2)[1:-1, 1:-1] = values
    return table


def _fast_march_2d(domain: DomainSpec) -> np.ndarray:
    """Upwind fast marching for a11(x) tau_x^2 + a22(x) tau_y^2 = 1.

    The grid carries a one-node pad ring: node (i, j) has flat index
    f = (i+1)(ny+2) + (j+1), its neighbours are f +- (ny+2) and f +- 1, and
    the pad starts accepted, so no neighbour needs a bounds check.  ``ta``
    holds tau where a node is accepted and inf elsewhere, pad included, so
    the smallest accepted neighbour per axis is a min of two reads.  f grows
    with (i, j) as i*ny + j does, so equal times pop in row-major order.
    """
    nx, ny = domain.shape
    hx, hy = domain.spacings
    a11 = domain.coeff[..., 0, 0]
    a22 = domain.coeff[..., 1, 1]
    px, py = _padded_table(a11 / hx**2, 0.0), _padded_table(a22 / hy**2, 0.0)
    cx, cy = _padded_table(hx / np.sqrt(a11), 0.0), _padded_table(hy / np.sqrt(a22), 0.0)
    inf, sqrt = math.inf, math.sqrt
    boundary = domain.boundary_mask
    tau = _padded_table(np.where(boundary, 0.0, inf), inf)
    ta = array("d", [inf]) * len(tau)
    accepted = bytearray(np.pad(np.zeros((nx, ny), np.uint8), 1, constant_values=1))
    heap = [(0.0, f) for f in np.flatnonzero(np.pad(boundary, 1)).tolist()]
    heapq.heapify(heap)  # keys are distinct, so the pops come in one order
    heappush, heappop = heapq.heappush, heapq.heappop
    NY = ny + 2
    while heap:
        u, f = heappop(heap)
        if accepted[f]:
            continue
        accepted[f] = 1
        ta[f] = u
        for g in (f + NY, f - NY, f + 1, f - 1):
            if accepted[g]:
                continue
            # smallest accepted neighbour per axis, inf if none
            ux, v = ta[g - NY], ta[g + NY]
            if v < ux:
                ux = v
            uy, v = ta[g - 1], ta[g + 1]
            if v < uy:
                uy = v
            cand = inf
            if ux < inf and uy < inf:
                # two-term quadratic: p (u-ux)^2 + q (u-uy)^2 = 1
                p, q = px[g], py[g]
                s, t = p + q, p * ux + q * uy
                disc = t**2 - s * (p * ux**2 + q * uy**2 - 1.0)
                if disc >= 0:
                    cand = (t + sqrt(disc)) / s
                    if cand < ux or cand < uy:
                        cand = inf
            if cand == inf:
                # one-sided update; an axis without an accepted neighbour gives inf
                cand, v = ux + cx[g], uy + cy[g]
                if v < cand:
                    cand = v
            if cand < tau[g]:
                tau[g] = cand
                heappush(heap, (cand, g))
    return np.frombuffer(tau).reshape(nx + 2, ny + 2)[1:-1, 1:-1].copy()


def _dijkstra_2d(domain: DomainSpec) -> np.ndarray:
    """Shortest paths to the boundary over the 8-neighbor graph.

    Edge length is sqrt(dx^T m dx) with m the inverse coefficient matrix
    averaged over the edge endpoints.  The lengths of the edges in each of
    the 8 directions are computed once over the grid, and scipy runs one
    Dijkstra search seeded at every boundary node.
    """
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import dijkstra

    nx, ny = domain.shape
    hx, hy = domain.spacings
    inv = np.linalg.inv(domain.coeff)
    node = np.arange(nx * ny).reshape(nx, ny)
    rows, cols, lengths = [], [], []
    for di in (-1, 0, 1):
        for dj in (-1, 0, 1):
            if di == 0 and dj == 0:
                continue
            src = (slice(max(-di, 0), nx - max(di, 0)), slice(max(-dj, 0), ny - max(dj, 0)))
            dst = (slice(max(di, 0), nx - max(-di, 0)), slice(max(dj, 0), ny - max(-dj, 0)))
            m = 0.5 * (inv[src] + inv[dst])
            dx, dy = di * hx, dj * hy
            # dx^T m dx, evaluated as (dx^T m) dx
            v0 = dx * m[..., 0, 0] + dy * m[..., 1, 0]
            v1 = dx * m[..., 0, 1] + dy * m[..., 1, 1]
            rows.append(node[src].ravel())
            cols.append(node[dst].ravel())
            lengths.append(np.sqrt(v0 * dx + v1 * dy).ravel())
    graph = csr_matrix(
        (np.concatenate(lengths), (np.concatenate(rows), np.concatenate(cols))),
        shape=(nx * ny, nx * ny),
    )
    seeds = np.flatnonzero(domain.boundary_mask)
    return dijkstra(graph, indices=seeds, min_only=True).reshape(nx, ny)


def filled_subdomain(domain: DomainSpec, tau: np.ndarray, T: float) -> FilledRegion:
    """Region of ``domain`` reachable from the boundary within time T, tau its
    eikonal distance, with the domain's trapezoid mass weights."""
    if not T > 0:
        raise ValueError(f"horizon must be positive, got {T}")
    return FilledRegion(T=T, tau=tau, weights=trapezoid_weights(domain))


# ---------------------------------------------------------------------------
# CSV artifacts


def _write_node_csvs(domain: DomainSpec, tables) -> None:
    """Tables ``i,j,x,y,<name>`` with one row per node (1D: j = 0, y = 0).

    tables holds (path, name, values, fmt) per file.  Rows end in CRLF, as
    csv.writer writes them.  About 1024 nodes (whole grid lines) go out in
    one write per file, so no whole file is ever held as one string.  A
    grid line's ``j`` and ``y`` columns are rendered once per call, with
    ``\\0`` and ``\\1`` standing for ``i,`` and ``,x,`` and ``\\2`` for the
    value; a block's rows are spliced once for all tables, and each table
    renders the block with one ``%`` over its values.
    """
    xs = [f"{x:.17g}" for x in domain.axes[0]]
    ys = [f"{y:.17g}" for y in domain.axes[1]] if domain.dimension == 2 else ["0"]
    line = "".join(f"\0{j}\1{y},\2" for j, y in enumerate(ys))
    grids = [np.asarray(values).reshape(len(xs), len(ys)) for _, _, values, _ in tables]
    cells = [f"%{fmt}\r\n" for _, _, _, fmt in tables]
    lines = -(-1024 // len(ys))  # grid lines per write
    with ExitStack() as stack:
        files = [stack.enter_context(open(path, "w", newline="")) for path, *_ in tables]
        for fh, (_, name, _, _) in zip(files, tables):
            fh.write(f"i,j,x,y,{name}\r\n")
        for i0 in range(0, len(xs), lines):
            block = "".join(
                line.replace("\0", f"{i},").replace("\1", f",{x},")
                for i, x in enumerate(xs[i0 : i0 + lines], i0)
            )
            for fh, grid, cell in zip(files, grids, cells):
                fh.write(block.replace("\2", cell) % tuple(grid[i0 : i0 + lines].ravel().tolist()))


def write_eikonal_csvs(tau_path, region_path, domain: DomainSpec, region: FilledRegion) -> None:
    """The distance table (tau) and the region table (inside) in one pass over the nodes."""
    inside = region.indicator.astype(int)
    _write_node_csvs(domain, [(tau_path, "tau", region.tau, ".17g"), (region_path, "inside", inside, "d")])
