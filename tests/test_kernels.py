"""The hot kernels against brute-force oracles that live only in this file,
plus the graded mesh plumbing they serve.
"""

import heapq

import numpy as np

from liouville_disk import _kernels as K
from liouville_disk.mesh import build_polar_mesh, metric_weights, shortest_path_distance
from liouville_disk.predicates import orient2d


def random_graph(n, seed):
    rng = np.random.default_rng(seed)
    rows, cols, w = [], [], []
    for u in range(n):
        for v in rng.choice(n, size=5, replace=False):
            if int(v) != u:
                rows.append(u)
                cols.append(int(v))
                w.append(float(rng.uniform(0.1, 2.0)))
    order = np.lexsort((cols, rows))
    rows = np.asarray(rows)[order]
    cols = np.asarray(cols)[order]
    w = np.asarray(w)[order]
    indptr = np.searchsorted(rows, np.arange(n + 1))
    return indptr, cols, w


def heap_dijkstra(indptr, indices, weights, source, n):
    dist = [float("inf")] * n
    dist[source] = 0.0
    heap = [(0.0, source)]
    while heap:
        d, u = heapq.heappop(heap)
        if d > dist[u]:
            continue
        for e in range(indptr[u], indptr[u + 1]):
            v, nd = int(indices[e]), d + float(weights[e])
            if nd < dist[v]:
                dist[v] = nd
                heapq.heappush(heap, (nd, v))
    return np.array(dist)


def proper_crossings(pts, skip_neighbors=1):
    """{(i, j): (s, t)} for edges pts[k] -> pts[k+1] of the closed polyline
    that cross at interior points, decided by orient2d pair by pair."""
    n = len(pts)
    edges = [(pts[k], pts[(k + 1) % n]) for k in range(n)]
    out = {}
    for i in range(n):
        p1, p2 = edges[i]
        for j in range(i + 1, n):
            if min(j - i, n - (j - i)) <= skip_neighbors:
                continue
            q1, q2 = edges[j]
            if (orient2d(q1, q2, p1) * orient2d(q1, q2, p2) < 0
                    and orient2d(p1, p2, q1) * orient2d(p1, p2, q2) < 0):
                r, d, q = p2 - p1, q2 - q1, q1 - p1
                denom = r[0] * d[1] - r[1] * d[0]
                out[(i, j)] = ((q[0] * d[1] - q[1] * d[0]) / denom,
                               (q[0] * r[1] - q[1] * r[0]) / denom)
    return out


def crossing_number_winding(p, poly):
    w = 0
    n = len(poly)
    for i in range(n):
        (x0, y0), (x1, y1) = poly[i], poly[(i + 1) % n]
        left = (x1 - x0) * (p[1] - y0) - (p[0] - x0) * (y1 - y0)
        if y0 <= p[1] < y1 and left > 0:
            w += 1
        elif y1 <= p[1] < y0 and left < 0:
            w -= 1
    return w


def seeded_curve(amplitude, noise):
    rng = np.random.default_rng(7)
    t = np.linspace(0, 2 * np.pi, 301)[:-1]
    r = 1 + amplitude * np.cos(3 * t + 0.2) + noise * rng.normal(size=t.size)
    return np.column_stack([r * np.cos(t), r * np.sin(t)])


class TestDijkstraParity:
    def test_matches_heapq_oracle(self):
        n = 300
        indptr, cols, w = random_graph(n, seed=4)
        d_fast = K.dijkstra(indptr, cols, w, 0, n)
        d_ref = heap_dijkstra(indptr, cols, w, 0, n)
        assert np.isfinite(d_ref).sum() > n // 2
        assert np.max(np.abs(d_fast - d_ref)) < 1e-12

    def test_unreachable_nodes_infinite(self):
        indptr = np.array([0, 1, 1, 1], dtype=np.int64)
        cols = np.array([1], dtype=np.int64)
        w = np.array([1.0])
        d = K.dijkstra(indptr, cols, w, 0, 3)
        assert d[1] == 1.0 and np.isinf(d[2])


class TestSegmentHitsParity:
    def test_same_pairs_as_orient2d_oracle(self):
        curves = [
            seeded_curve(0.6, 0.05),  # no crossings
            seeded_curve(2.0, 0.05),  # three inner loops
            np.random.default_rng(11).normal(size=(120, 2)),  # random polygon
        ]
        total = 0
        for pts in curves:
            ref = proper_crossings(pts)
            i, j, s, t, suspect = K.segment_hits(pts, np.roll(pts, -1, axis=0))
            clean = {(a, b): (u, v) for a, b, u, v, f in zip(i, j, s, t, suspect) if not f}
            flagged = {(a, b) for a, b, f in zip(i, j, suspect) if f}
            # clean pairs are proper crossings; suspect pairs await exact re-evaluation
            assert set(clean) <= set(ref)
            assert set(ref) <= set(clean) | flagged
            for key, (u, v) in clean.items():
                assert abs(u - ref[key][0]) < 1e-9 and abs(v - ref[key][1]) < 1e-9
            total += len(ref)
        assert total > 100


class TestWindingParity:
    def test_matches_crossing_number_oracle(self):
        t = np.linspace(0, 2 * np.pi, 129)[:-1]
        poly = np.column_stack([(1 + 2 * np.cos(t)) * np.cos(t), (1 + 2 * np.cos(t)) * np.sin(t)])
        rng = np.random.default_rng(9)
        pts = rng.uniform(-3, 3, size=(50, 2))
        got = K.winding_batch(pts, poly)
        ref = [crossing_number_winding(p, poly) for p in pts]
        assert got.tolist() == ref
        assert {0, 1, 2} <= set(ref)

    def test_limacon_winding_two_inside_inner_loop(self):
        t = np.linspace(0, 2 * np.pi, 513)[:-1]
        poly = np.column_stack([(1 + 2 * np.cos(t)) * np.cos(t), (1 + 2 * np.cos(t)) * np.sin(t)])
        w = K.winding_batch(np.array([[0.5, 0.0], [2.0, 0.0], [9.0, 0.0]]), poly)
        assert list(w) == [2, 1, 0]


class TestMesh:
    def test_boundary_nodes_and_flat_distance(self):
        mesh = build_polar_mesh(128)
        j = mesh.boundary_node(1.0)
        assert abs(mesh.nodes[j] - 1.0) < 1e-12
        weights = metric_weights(mesh, lambda z: np.ones(z.shape))
        d = shortest_path_distance(mesh, weights, mesh.boundary_node(1.0), mesh.boundary_node(-1.0))
        assert abs(d - 2.0) <= 2 * (2 * np.pi / 128)

    def test_grading_reaches_center(self):
        mesh = build_polar_mesh(256)
        assert np.min(np.abs(mesh.nodes)) == 0.0  # center node present
        radii = np.unique(np.round(np.abs(mesh.nodes), 12))
        assert radii[-1] == 1.0
        assert len(radii) >= 8
