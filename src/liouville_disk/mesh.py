"""Graded polar triangulation of the unit disk and metric shortest paths.

The mesh carries the pulled-back boundary metric |Phi'| |dz|: edge weights
are |Phi'(midpoint)| times Euclidean edge length, and distances between
boundary points are Dijkstra shortest paths.  Ring spacing starts at the
boundary grid spacing 2*pi/n and grows inward by a fixed ratio, so the
metric-graph error is O(h) with a bounded node count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._kernels import dijkstra
from .errors import InvalidInput
from .spectral import TWO_PI


@dataclass(frozen=True)
class PolarMesh:
    """Nodes (complex, inside the closed disk), CSR adjacency, boundary ring."""

    nodes: np.ndarray
    indptr: np.ndarray
    indices: np.ndarray
    edge_lengths: np.ndarray
    n_boundary: int
    h_boundary: float

    @property
    def n_nodes(self) -> int:
        return self.nodes.size

    def boundary_node(self, z: complex) -> int:
        """Index of the boundary node nearest to a unit-circle point."""
        theta = np.angle(complex(z))
        j = int(np.round((theta + np.pi) * self.n_boundary / TWO_PI)) % self.n_boundary
        return j


def build_polar_mesh(n_boundary: int, grading: float = 1.15) -> PolarMesh:
    """Rings at radii 1 = r_0 > r_1 > ... with spacing h, h*g, h*g^2, ...
    (h = 2*pi/n), a center node, ring/radial/diagonal connectivity."""
    if n_boundary < 8:
        raise InvalidInput("mesh needs at least 8 boundary nodes")
    h = TWO_PI / n_boundary
    radii = [1.0]
    step = h
    while radii[-1] - step > 0.75 * step:
        radii.append(radii[-1] - step)
        step *= grading
    radii = np.asarray(radii)
    n_rings = radii.size
    thetas = TWO_PI * np.arange(n_boundary) / n_boundary - np.pi

    # node layout: ring-major, then the center node last
    nodes = np.concatenate(
        [r * np.exp(1j * thetas) for r in radii] + [np.zeros(1, dtype=complex)]
    )
    center = n_rings * n_boundary

    pairs = []
    for k in range(n_rings):
        base = k * n_boundary
        for j in range(n_boundary):
            u = base + j
            pairs.append((u, base + (j + 1) % n_boundary))
            if k + 1 < n_rings:
                inner = (k + 1) * n_boundary
                pairs.append((u, inner + j))
                pairs.append((u, inner + (j + 1) % n_boundary))
                pairs.append((u, inner + (j - 1) % n_boundary))
            else:
                pairs.append((u, center))
    pairs = np.asarray(pairs, dtype=np.int64)

    # symmetrize to a directed CSR
    u = np.concatenate([pairs[:, 0], pairs[:, 1]])
    v = np.concatenate([pairs[:, 1], pairs[:, 0]])
    order = np.lexsort((v, u))
    u, v = u[order], v[order]
    n_nodes = nodes.size
    indptr = np.searchsorted(u, np.arange(n_nodes + 1))
    lengths = np.abs(nodes[u] - nodes[v])
    return PolarMesh(
        nodes=nodes,
        indptr=indptr,
        indices=v,
        edge_lengths=lengths,
        n_boundary=n_boundary,
        h_boundary=h,
    )


def metric_weights(mesh: PolarMesh, speed) -> np.ndarray:
    """Edge weights speed(midpoint) * length for a conformal factor speed(z)."""
    src = np.repeat(np.arange(mesh.n_nodes), np.diff(mesh.indptr))
    mids = 0.5 * (mesh.nodes[src] + mesh.nodes[mesh.indices])
    sp = np.asarray(speed(mids), dtype=float)
    if np.any(sp < 0) or not np.all(np.isfinite(sp)):
        raise InvalidInput("conformal speed must be finite and nonnegative")
    return sp * mesh.edge_lengths


def shortest_path_distance(mesh: PolarMesh, weights: np.ndarray, a: int, b: int) -> float:
    dist = dijkstra(mesh.indptr, mesh.indices, weights, a, mesh.n_nodes)
    return float(dist[b])
