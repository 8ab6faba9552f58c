"""Hot numeric kernels, one numpy/scipy implementation each.

Kernels:
  - dijkstra: single-source shortest path over a CSR graph (mesh metric)
  - segment_hits: all-pairs proper intersections among polyline edges
  - winding_batch: winding numbers of a closed polyline around query points
"""

from __future__ import annotations

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra as cs_dijkstra


def dijkstra(indptr, indices, weights, source: int, n: int) -> np.ndarray:
    """Distances from source over a CSR digraph with nonnegative weights."""
    indptr = np.ascontiguousarray(indptr, dtype=np.int64)
    indices = np.ascontiguousarray(indices, dtype=np.int64)
    weights = np.ascontiguousarray(weights, dtype=np.float64)
    mat = csr_matrix((weights, indices, indptr), shape=(n, n))
    return cs_dijkstra(mat, directed=True, indices=source)


def segment_hits(a: np.ndarray, b: np.ndarray, skip_neighbors: int = 1, eps: float = 0.0):
    """Proper pairwise intersections among segments a[k] -> b[k].

    Edges whose cyclic index distance is <= skip_neighbors are not tested
    (adjacent edges of a closed polyline share a vertex).  Returns
    (i, j, s, t, suspect): parameters s on edge i, t on edge j, and a flag
    marking near-degenerate pairs that need exact re-evaluation.
    """
    ax = np.ascontiguousarray(a[:, 0], dtype=np.float64)
    ay = np.ascontiguousarray(a[:, 1], dtype=np.float64)
    bx = np.ascontiguousarray(b[:, 0], dtype=np.float64)
    by = np.ascontiguousarray(b[:, 1], dtype=np.float64)
    n = ax.size
    res_i, res_j, res_s, res_t, res_f = [], [], [], [], []
    chunk = max(1, 2_000_000 // max(n, 1))
    for i0 in range(0, n, chunk):
        i1 = min(i0 + chunk, n)
        ii = np.arange(i0, i1)[:, None]
        jj = np.arange(n)[None, :]
        gap = np.minimum(np.abs(jj - ii), n - np.abs(jj - ii))
        mask = (jj > ii) & (gap > skip_neighbors)
        aix, aiy = ax[i0:i1, None], ay[i0:i1, None]
        bix, biy = bx[i0:i1, None], by[i0:i1, None]
        mask &= ~(
            (np.maximum(ax, bx)[None, :] < np.minimum(aix, bix) - eps)
            | (np.minimum(ax, bx)[None, :] > np.maximum(aix, bix) + eps)
            | (np.maximum(ay, by)[None, :] < np.minimum(aiy, biy) - eps)
            | (np.minimum(ay, by)[None, :] > np.maximum(aiy, biy) + eps)
        )
        rx, ry = bix - aix, biy - aiy
        sx, sy = (bx - ax)[None, :], (by - ay)[None, :]
        denom = rx * sy - ry * sx
        qpx, qpy = ax[None, :] - aix, ay[None, :] - aiy
        num_s = qpx * sy - qpy * sx
        num_t = qpx * ry - qpy * rx
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
        sus = mask & (small | suspect_hit)
        keep = mask & clean
        for arr_mask, flag in ((keep, 0), (sus, 1)):
            wi, wj = np.nonzero(arr_mask)
            res_i.append(ii[wi, 0])
            res_j.append(jj[0, wj])
            if flag == 0:
                res_s.append(s[wi, wj])
                res_t.append(t[wi, wj])
            else:
                res_s.append(np.full(wi.size, -1.0))
                res_t.append(np.full(wi.size, -1.0))
            res_f.append(np.full(wi.size, flag, dtype=np.uint8))
    cat = lambda parts, dt: (
        np.concatenate(parts).astype(dt) if parts else np.empty(0, dtype=dt)
    )
    return (
        cat(res_i, np.int64),
        cat(res_j, np.int64),
        cat(res_s, np.float64),
        cat(res_t, np.float64),
        cat(res_f, np.uint8),
    )


def winding_batch(points: np.ndarray, vertices: np.ndarray) -> np.ndarray:
    """Winding numbers of the closed polyline around each query point."""
    px = np.ascontiguousarray(points[:, 0], dtype=np.float64)
    py = np.ascontiguousarray(points[:, 1], dtype=np.float64)
    vx = np.ascontiguousarray(vertices[:, 0], dtype=np.float64)
    vy = np.ascontiguousarray(vertices[:, 1], dtype=np.float64)
    x0, y0 = vx[None, :], vy[None, :]
    x1 = np.roll(vx, -1)[None, :]
    y1 = np.roll(vy, -1)[None, :]
    x, y = px[:, None], py[:, None]
    left = (x1 - x0) * (y - y0) - (x - x0) * (y1 - y0)
    up = (y0 <= y) & (y1 > y) & (left > 0)
    down = (y0 > y) & (y1 <= y) & (left < 0)
    return (up.sum(axis=1) - down.sum(axis=1)).astype(np.int64)
