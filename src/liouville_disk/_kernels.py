"""Hot numeric kernels, one numpy/scipy implementation each.

Kernels:
  - dijkstra: single-source shortest path over a CSR graph (the mesh
    metric of mesh.shortest_path_distance, which no package code calls)
  - segment_hits: proper intersections among polyline edges, candidate
    pairs from a sort-and-sweep on x-intervals
  - segment_meets: which segments of a set meet one given segment,
    touching included
  - winding_batch: winding numbers of a closed polyline around query points
"""

from __future__ import annotations

import numpy as np


def dijkstra(indptr, indices, weights, source: int) -> np.ndarray:
    """Distances from source over the CSR digraph of len(indptr) - 1 nodes
    with nonnegative weights.

    The structure is read as given: a graph built once with int32 indptr
    and indices, scipy.sparse.csgraph's own index type, as mesh.PolarMesh
    holds them read-only, passes without a copy or a conversion, so a call
    pays only for its weights and the search.  scipy is imported here, not
    at module load, so no command of the package loads it.
    """
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import dijkstra as cs_dijkstra

    n = len(indptr) - 1
    weights = np.ascontiguousarray(weights, dtype=np.float64)
    mat = csr_matrix((weights, indices, indptr), shape=(n, n))
    return cs_dijkstra(mat, directed=True, indices=source)


_PAIR_BUDGET = 2_000_000  # candidate pairs per array pass


def _candidate_pairs(a: np.ndarray, b: np.ndarray):
    """Sort-and-sweep broadphase: every pair of segments a[k] -> b[k] whose
    closed x-intervals overlap, each pair once with i < j.

    Edges are sorted by x-min; the partners of an edge are the edges after it
    whose x-min is at most its x-max (one searchsorted).  Yields (i, j) index
    arrays in chunks of at most _PAIR_BUDGET pairs (one edge's run may exceed
    it), so dense inputs keep a bounded working set.
    """
    lo = np.minimum(a[:, 0], b[:, 0])
    hi = np.maximum(a[:, 0], b[:, 0])
    order = np.argsort(lo, kind="stable")
    lo_sorted = lo[order]
    end = np.searchsorted(lo_sorted, hi[order], side="right")
    counts = np.maximum(end - np.arange(1, order.size + 1), 0)
    cum = np.cumsum(counts)
    p0 = 0
    while p0 < order.size:
        done = cum[p0 - 1] if p0 else 0
        p1 = max(int(np.searchsorted(cum, done + _PAIR_BUDGET, side="right")), p0 + 1)
        cnt = counts[p0:p1]
        first = np.repeat(np.arange(p0, p1), cnt)
        # partner q runs over first + 1, first + 2, ... within each edge's run
        step = np.arange(first.size) - np.repeat(np.cumsum(cnt) - cnt, cnt)
        u, v = order[first], order[first + 1 + step]
        yield np.minimum(u, v), np.maximum(u, v)
        p0 = p1


def _cross_solve(rx, ry, sx, sy, qx, qy):
    """Cramer's rule for a + u r = b + v s, q = b - a, elementwise: the
    determinant r x s and the numerators q x s of u and q x r of v."""
    return rx * sy - ry * sx, qx * sy - qy * sx, qx * ry - qy * rx


def segment_hits(a: np.ndarray, b: np.ndarray, skip_neighbors: int = 1):
    """Proper pairwise intersections among segments a[k] -> b[k].

    Candidate pairs come from the x-interval sweep; edges whose cyclic index
    distance is <= skip_neighbors are not tested (adjacent edges of a closed
    polyline share a vertex), nor are pairs whose y-intervals miss.  Returns
    (i, j, s, t, suspect) sorted by (i, j): parameters s on edge i, t on edge
    j, and a flag marking near-degenerate pairs that need exact re-evaluation.
    """
    ax = np.ascontiguousarray(a[:, 0], dtype=np.float64)
    ay = np.ascontiguousarray(a[:, 1], dtype=np.float64)
    bx = np.ascontiguousarray(b[:, 0], dtype=np.float64)
    by = np.ascontiguousarray(b[:, 1], dtype=np.float64)
    n = ax.size
    ylo, yhi = np.minimum(ay, by), np.maximum(ay, by)
    res_i, res_j, res_s, res_t, res_f = [], [], [], [], []
    for i, j in _candidate_pairs(a, b):
        gap = np.minimum(j - i, n - (j - i))
        mask = (gap > skip_neighbors) & ~((yhi[j] < ylo[i]) | (ylo[j] > yhi[i]))
        i, j = i[mask], j[mask]
        aix, aiy, bix, biy = ax[i], ay[i], bx[i], by[i]
        rx, ry = bix - aix, biy - aiy
        sx, sy = bx[j] - ax[j], by[j] - ay[j]
        denom, num_s, num_t = _cross_solve(rx, ry, sx, sy, ax[j] - aix, ay[j] - aiy)
        scale = (np.abs(rx) + np.abs(ry)) * (np.abs(sx) + np.abs(sy)) + 1e-300
        small = np.abs(denom) < 1e-9 * scale
        with np.errstate(divide="ignore", invalid="ignore"):
            s = np.where(small, -1.0, num_s / np.where(small, 1.0, denom))
            t = np.where(small, -1.0, num_t / np.where(small, 1.0, denom))
        margin = 1e-9
        inside = (~small) & (s >= -margin) & (s <= 1 + margin) & (t >= -margin) & (t <= 1 + margin)
        suspect_hit = inside & (
            (s < margin) | (s > 1 - margin) | (t < margin) | (t > 1 - margin)
        )
        clean = inside & ~suspect_hit
        sus = small | suspect_hit
        hit = clean | sus
        res_i.append(i[hit])
        res_j.append(j[hit])
        res_s.append(np.where(sus, -1.0, s)[hit])
        res_t.append(np.where(sus, -1.0, t)[hit])
        res_f.append(sus[hit].astype(np.uint8))
    if not res_i:
        return (np.empty(0, np.int64), np.empty(0, np.int64), np.empty(0),
                np.empty(0), np.empty(0, np.uint8))
    i, j = np.concatenate(res_i).astype(np.int64), np.concatenate(res_j).astype(np.int64)
    order = np.lexsort((j, i))
    return (i[order], j[order], np.concatenate(res_s)[order],
            np.concatenate(res_t)[order], np.concatenate(res_f)[order])


def segment_meets(p, q, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Whether each segment a[k] -> b[k] meets the segment p -> q, touching
    included, as a boolean array.

    The test errs only towards meeting.  A pair counts as apart when the
    line of one segment has both ends of the other strictly on one side,
    by more than the margin m = 1e-12 max|coordinate|, or when the bounding
    boxes are more than m apart.  A side is the cross product of a segment
    with the offset of the point from its start, |segment| times the
    distance, and is compared with m (|dx| + |dy|) >= m |segment| for the
    segment (dx, dy).  Each difference rounds to within eps of itself, so
    a side errs by at most about 6 eps (|dx| + |dy|) max|coordinate|, some
    700 times inside that threshold: no pair that meets is called apart.
    The margin covers this arithmetic only; the points are taken as given.
    """
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    m = 1e-12 * max(np.max(np.abs(a)), np.max(np.abs(b)), np.max(np.abs(p)), np.max(np.abs(q)))

    def apart(start, seg, u, v):
        # u and v strictly on one side of the line of seg from start
        su = seg[..., 0] * (u[..., 1] - start[..., 1]) - seg[..., 1] * (u[..., 0] - start[..., 0])
        sv = seg[..., 0] * (v[..., 1] - start[..., 1]) - seg[..., 1] * (v[..., 0] - start[..., 0])
        tol = m * (np.abs(seg[..., 0]) + np.abs(seg[..., 1]))
        return ((su > tol) & (sv > tol)) | ((su < -tol) & (sv < -tol))

    boxes_apart = np.any(
        (np.minimum(a, b) > np.maximum(p, q) + m) | (np.maximum(a, b) < np.minimum(p, q) - m), axis=1
    )
    return ~(boxes_apart | apart(p, q - p, a, b) | apart(a, b - a, p, q))


def winding_batch(points: np.ndarray, vertices: np.ndarray) -> np.ndarray:
    """Winding numbers of the closed polyline around each query point."""
    px = np.ascontiguousarray(points[:, 0], dtype=np.float64)
    py = np.ascontiguousarray(points[:, 1], dtype=np.float64)
    vx = np.ascontiguousarray(vertices[:, 0], dtype=np.float64)
    vy = np.ascontiguousarray(vertices[:, 1], dtype=np.float64)
    x0, y0 = vx[None, :], vy[None, :]
    x1 = np.concatenate([vx[1:], vx[:1]])[None, :]
    y1 = np.concatenate([vy[1:], vy[:1]])[None, :]
    x, y = px[:, None], py[:, None]
    left = (x1 - x0) * (y - y0) - (x - x0) * (y1 - y0)
    up = (y0 <= y) & (y1 > y) & (left > 0)
    down = (y0 > y) & (y1 <= y) & (left < 0)
    return (up.sum(axis=1) - down.sum(axis=1)).astype(np.int64)
