"""Graded polar triangulation of the unit disk and metric shortest paths.

The mesh is the fallback route of disk.conformal_distance: the route for
maps whose boundary image is not certified embedded, and for chords that
leave the image.  A certified chord needs no mesh (see conformal_distance).

The mesh carries the pulled-back boundary metric |Phi'| |dz|: edge weights
are |Phi'(midpoint)| times Euclidean edge length, and distances between
boundary points are Dijkstra shortest paths.  Ring spacing starts at the
boundary grid spacing 2*pi/n and grows inward by a fixed ratio, which
bounds the node count.  Paths on a fixed stencil carry a metrication error
that does not vanish with h: for Phi(z) = z - 1 the distance from 1 to i
reads 6.8% long at n = 256 and 10.5% at n = 4096; only the diameter, which
the radial edges trace, is exact.  The mesh lists its edge midpoints as
uniform polar rings, one per edge family, so a metric that is cheap to
evaluate ring by ring needs one value per undirected edge.

A mesh is built once per boundary size (disk caches it) and every array it
holds is read-only, the graph's int32 CSR structure included: a distance
call supplies only its edge weights, and no caller can write into the
lengths or the adjacency that every later distance reads.  Boundary node j
sits at the grid angle theta_j = -pi + 2 pi j / n (spectral.grid_node), on
both routes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._kernels import dijkstra
from .errors import InvalidInput
from .spectral import TWO_PI, grid_angles

# ratio by which the ring spacing grows from the boundary inward
MESH_GRADING = 1.15
MIN_BOUNDARY_NODES = 8


def check_boundary_size(n_boundary: int):
    """Raise InvalidInput unless a boundary of n_boundary nodes can carry a
    mesh: at least MIN_BOUNDARY_NODES."""
    if n_boundary < MIN_BOUNDARY_NODES:
        raise InvalidInput(f"mesh needs at least {MIN_BOUNDARY_NODES} boundary nodes")


@dataclass(frozen=True)
class PolarMesh:
    """Nodes (complex, inside the closed disk), CSR adjacency, boundary ring.

    indptr and indices are int32, scipy.sparse.csgraph's index type, so
    _kernels.dijkstra reads them without a conversion; every array is
    read-only.

    Every edge midpoint lies on a uniform polar ring: undirected edge j of
    family f has its midpoint at mid_centers[f] * e^{i theta_j}, theta_j =
    -pi + 2 pi j / n_boundary, and edge_ring holds f * n_boundary + j for
    each directed CSR edge (both directions of an edge share it).
    """

    nodes: np.ndarray
    indptr: np.ndarray
    indices: np.ndarray
    edge_lengths: np.ndarray
    mid_centers: np.ndarray
    edge_ring: np.ndarray
    n_boundary: int

    @property
    def n_nodes(self) -> int:
        return self.nodes.size


def build_polar_mesh(n_boundary: int) -> PolarMesh:
    """Rings at radii 1 = r_0 > r_1 > ... with spacing h, h*g, h*g^2, ...
    (h = 2*pi/n, g = MESH_GRADING), a center node, ring/radial/diagonal
    connectivity."""
    check_boundary_size(n_boundary)
    n = n_boundary
    h = TWO_PI / n
    radii = [1.0]
    step = h
    while radii[-1] - step > 0.75 * step:
        radii.append(radii[-1] - step)
        step *= MESH_GRADING
    radii = np.asarray(radii)
    n_rings = radii.size
    thetas = grid_angles(n)

    # node layout: ring-major, then the center node last
    nodes = np.concatenate(
        [r * np.exp(1j * thetas) for r in radii] + [np.zeros(1, dtype=complex)]
    )
    center = n_rings * n

    # edge families, each one edge per angle j: ring edges, then radial, +diagonal
    # and -diagonal edges to the next ring inward, then edges to the center
    j = np.arange(n)
    ring = np.arange(n_rings)[:, None] * n
    outer, inner = ring[:-1], ring[1:]
    turn = np.exp(1j * h)
    u = np.concatenate([ring + j, outer + j, outer + j, outer + j, ring[-1:] + j])
    v = np.concatenate([
        ring + (j + 1) % n,
        inner + j,
        inner + (j + 1) % n,
        inner + (j - 1) % n,
        np.full((1, n), center),
    ])
    r_out, r_in = radii[:-1], radii[1:]
    mid_centers = np.concatenate([
        0.5 * radii * (1.0 + turn),
        0.5 * (r_out + r_in),
        0.5 * (r_out + r_in * turn),
        0.5 * (r_out + r_in * np.conj(turn)),
        [0.5 * radii[-1]],
    ])
    u, v = u.ravel(), v.ravel()
    ring_point = np.arange(u.size)

    # symmetrize to a directed CSR
    u, v = np.concatenate([u, v]), np.concatenate([v, u])
    ring_point = np.concatenate([ring_point, ring_point])
    order = np.lexsort((v, u))
    u, v = u[order], v[order]
    n_nodes = nodes.size
    indptr = np.searchsorted(u, np.arange(n_nodes + 1)).astype(np.int32)
    lengths = np.abs(nodes[u] - nodes[v])
    indices, edge_ring = v.astype(np.int32), ring_point[order]
    for a in (nodes, indptr, indices, lengths, mid_centers, edge_ring):
        a.setflags(write=False)
    return PolarMesh(
        nodes=nodes,
        indptr=indptr,
        indices=indices,
        edge_lengths=lengths,
        mid_centers=mid_centers,
        edge_ring=edge_ring,
        n_boundary=n,
    )


def shortest_path_distance(mesh: PolarMesh, weights: np.ndarray, a: int, b: int) -> float:
    """Metric distance between nodes a and b.  The search always starts at
    the lower index, so the distance is symmetric bit for bit: Dijkstra adds
    the weights along a path from its source, and a sum taken from the other
    end can round differently."""
    a, b = min(a, b), max(a, b)
    dist = dijkstra(mesh.indptr, mesh.indices, weights, a)
    return float(dist[b])
