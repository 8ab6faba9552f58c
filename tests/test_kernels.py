"""The hot kernels against brute-force oracles that live only in this file,
plus the graded mesh plumbing they serve.
"""

import heapq

import numpy as np

from liouville_disk import _kernels as K
from liouville_disk.fixtures import FIXTURES
from liouville_disk.mesh import build_polar_mesh, shortest_path_distance
from liouville_disk.predicates import orient2d
from liouville_disk.spectral import grid_node


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


def on_segment(p, q, r):
    """r, collinear with p and q, lies on the closed segment pq."""
    return (min(p[0], q[0]) <= r[0] <= max(p[0], q[0])
            and min(p[1], q[1]) <= r[1] <= max(p[1], q[1]))


def oracle_pairs(pts, skip_neighbors=1):
    """({(i, j): (s, t)}, {(i, j)}) for edges pts[k] -> pts[k+1] of the closed
    polyline: pairs that cross at interior points, and pairs that meet
    otherwise (touch, share a point or overlap), decided by orient2d pair by
    pair.  Pairs whose closed bounding boxes miss cannot meet and are not
    asked."""
    n = len(pts)
    ends = np.roll(pts, -1, axis=0)
    lo, hi = np.minimum(pts, ends), np.maximum(pts, ends)
    proper, touching = {}, set()
    for i in range(n):
        p1, p2 = pts[i], ends[i]
        boxes_meet = np.all((lo[i + 1 :] <= hi[i]) & (lo[i] <= hi[i + 1 :]), axis=1)
        for j in (np.nonzero(boxes_meet)[0] + i + 1).tolist():
            if min(j - i, n - (j - i)) <= skip_neighbors:
                continue
            q1, q2 = pts[j], ends[j]
            o1, o2 = orient2d(q1, q2, p1), orient2d(q1, q2, p2)
            o3, o4 = orient2d(p1, p2, q1), orient2d(p1, p2, q2)
            if o1 * o2 < 0 and o3 * o4 < 0:
                r, d, q = p2 - p1, q2 - q1, q1 - p1
                denom = r[0] * d[1] - r[1] * d[0]
                proper[(i, j)] = ((q[0] * d[1] - q[1] * d[0]) / denom,
                                  (q[0] * r[1] - q[1] * r[0]) / denom)
            elif ((o1 == 0 and on_segment(q1, q2, p1)) or (o2 == 0 and on_segment(q1, q2, p2))
                    or (o3 == 0 and on_segment(p1, p2, q1)) or (o4 == 0 and on_segment(p1, p2, q2))):
                touching.add((i, j))
    return proper, touching


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
        d_fast = K.dijkstra(indptr, cols, w, 0)
        d_ref = heap_dijkstra(indptr, cols, w, 0, n)
        assert np.isfinite(d_ref).sum() > n // 2
        assert np.max(np.abs(d_fast - d_ref)) < 1e-12

    def test_unreachable_nodes_infinite(self):
        indptr = np.array([0, 1, 1, 1], dtype=np.int64)
        cols = np.array([1], dtype=np.int64)
        w = np.array([1.0])
        d = K.dijkstra(indptr, cols, w, 0)
        assert d.shape == (3,) and d[1] == 1.0 and np.isinf(d[2])


def grid_polyline(n, seed):
    """Random closed polyline on the 1/8 grid: collinear overlaps, shared
    vertices, T-touches and zero-length edges all occur."""
    return np.random.default_rng(seed).integers(0, 9, size=(n, 2)) / 8.0


def check_against_oracle(pts, skip_neighbors=1):
    """segment_hits on the closed polyline pts agrees with the orient2d
    oracle; returns the number of proper crossings."""
    ref, touching = oracle_pairs(pts, skip_neighbors)
    i, j, s, t, suspect = K.segment_hits(pts, np.roll(pts, -1, axis=0), skip_neighbors)
    keys = list(zip(i.tolist(), j.tolist()))
    assert keys == sorted(set(keys))  # each pair once, sorted by (i, j)
    clean = {(a, b): (u, v) for (a, b), u, v, f in zip(keys, s, t, suspect) if not f}
    flagged = {key for key, f in zip(keys, suspect) if f}
    # clean pairs are proper crossings; suspect pairs await exact re-evaluation,
    # and every pair that meets without crossing properly must be among them
    assert set(clean) <= set(ref)
    assert set(ref) <= set(clean) | flagged
    assert touching <= flagged
    for key, (u, v) in clean.items():
        assert abs(u - ref[key][0]) < 1e-9 and abs(v - ref[key][1]) < 1e-9
    for a, b in flagged:
        assert min(b - a, len(pts) - (b - a)) > skip_neighbors
    assert np.all(s[suspect == 1] == -1.0) and np.all(t[suspect == 1] == -1.0)
    return len(ref)


class TestSegmentHitsParity:
    def test_same_pairs_as_orient2d_oracle(self):
        curves = [
            seeded_curve(0.6, 0.05),  # no crossings
            seeded_curve(2.0, 0.05),  # three inner loops
            np.random.default_rng(11).normal(size=(120, 2)),  # random polygon
        ]
        total = sum(check_against_oracle(pts) for pts in curves)
        assert total > 100

    def test_random_polylines(self):
        rng = np.random.default_rng(12)
        total = 0
        for k in range(20):
            pts = rng.normal(size=(int(rng.integers(4, 90)), 2))
            total += check_against_oracle(pts, skip_neighbors=k % 3)
        assert total > 1000

    def test_degenerate_grid_polylines(self):
        # collinear overlaps and touches must come back flagged, never lost
        n_touching = 0
        for seed in range(20):
            pts = grid_polyline(60, seed)
            check_against_oracle(pts)
            n_touching += len(oracle_pairs(pts)[1])
        assert n_touching > 1000

    def test_fixtures(self):
        found = {name: check_against_oracle(make().vertices) for name, make in FIXTURES.items()}
        assert found["circle"] == 0 and found["limacon"] == 1 and found["double-pocket"] > 2

    def test_chunked_sweep_gives_the_same_hits(self, monkeypatch):
        pts = grid_polyline(80, 3)
        b = np.roll(pts, -1, axis=0)
        whole = K.segment_hits(pts, b)
        monkeypatch.setattr(K, "_PAIR_BUDGET", 7)
        chunked = K.segment_hits(pts, b)
        for x, y in zip(whole, chunked):
            assert np.array_equal(x, y)

    def test_sweep_lists_exactly_the_x_overlapping_pairs(self):
        pts = grid_polyline(50, 4)
        b = np.roll(pts, -1, axis=0)
        got = sorted(
            (int(i), int(j)) for ci, cj in K._candidate_pairs(pts, b) for i, j in zip(ci, cj)
        )
        lo, hi = np.minimum(pts[:, 0], b[:, 0]), np.maximum(pts[:, 0], b[:, 0])
        ref = [
            (i, j) for i in range(50) for j in range(i + 1, 50)
            if lo[j] <= hi[i] and lo[i] <= hi[j]
        ]
        assert got == ref

    def test_broadphase_is_near_linear_on_the_large_fixtures(self):
        # all pairs would be E^2 / 2: 2.1 M for fseifert, 8.6 M for double-pocket
        for name in ("fseifert", "double-pocket"):
            v = FIXTURES[name]().vertices
            n_pairs = sum(i.size for i, _ in K._candidate_pairs(v, np.roll(v, -1, axis=0)))
            assert n_pairs < 20 * len(v)


def segments_meet(p1, p2, q1, q2):
    """Whether the closed segments p1 -> p2 and q1 -> q2 share a point, by
    exact orientation."""
    o1, o2 = orient2d(q1, q2, p1), orient2d(q1, q2, p2)
    o3, o4 = orient2d(p1, p2, q1), orient2d(p1, p2, q2)
    if o1 * o2 < 0 and o3 * o4 < 0:
        return True
    return ((o1 == 0 and on_segment(q1, q2, p1)) or (o2 == 0 and on_segment(q1, q2, p2))
            or (o3 == 0 and on_segment(p1, p2, q1)) or (o4 == 0 and on_segment(p1, p2, q2)))


def check_meets(pts, chords):
    ends = np.roll(pts, -1, axis=0)
    met = 0
    for a, b in chords:
        got = K.segment_meets(pts[a], pts[b], pts, ends)
        ref = [segments_meet(pts[a], pts[b], u, v) for u, v in zip(pts, ends)]
        assert got.tolist() == ref
        met += sum(ref)
    return met


class TestSegmentMeets:
    def test_grid_polylines_against_orient2d(self):
        # on the 1/8 grid, touches, T-junctions and collinear overlaps are
        # exact, and pairs that do not meet are far apart beside the margin
        rng = np.random.default_rng(21)
        met = 0
        for seed in range(20):
            pts = grid_polyline(40, seed)
            chords = rng.integers(0, 40, size=(10, 2))
            met += check_meets(pts, chords)
            # translation does not move the verdicts
            check_meets(pts + 1e6, chords)
        assert met > 1000

    def test_random_polygons_against_orient2d(self):
        rng = np.random.default_rng(22)
        for _ in range(20):
            pts = rng.normal(size=(int(rng.integers(4, 60)), 2))
            check_meets(pts, rng.integers(0, len(pts), size=(5, 2)))

    def test_cases(self):
        p, q = np.array([0.0, 0.0]), np.array([1.0, 0.0])
        a = np.array([[0.5, -1.0], [1.0, 0.0], [2.0, 0.0], [0.5, 1e-9], [0.5, 1e-14], [0.0, 1.0]])
        b = np.array([[0.5, 1.0], [1.0, 1.0], [3.0, 0.0], [0.7, 1e-9], [0.7, 1e-14], [1.0, 1.0]])
        # crossing, touching at an end, collinear apart, parallel apart,
        # parallel within the margin (counted as meeting), apart
        assert K.segment_meets(p, q, a, b).tolist() == [True, True, False, False, True, False]


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
        j = grid_node(np.angle(1.0), 128)
        assert abs(mesh.nodes[j] - 1.0) < 1e-12
        weights = mesh.edge_lengths  # unit speed
        d = shortest_path_distance(mesh, weights, j, grid_node(np.angle(-1.0), 128))
        assert abs(d - 2.0) <= 2 * (2 * np.pi / 128)

    def test_graph_is_scipys_int32_csr(self):
        # read without a conversion by every distance call
        mesh = build_polar_mesh(64)
        assert mesh.indptr.dtype == mesh.indices.dtype == np.int32
        assert mesh.indptr.size == mesh.n_nodes + 1

    def test_grading_reaches_center(self):
        mesh = build_polar_mesh(256)
        assert np.min(np.abs(mesh.nodes)) == 0.0  # center node present
        radii = np.unique(np.round(np.abs(mesh.nodes), 12))
        assert radii[-1] == 1.0
        assert len(radii) >= 8
