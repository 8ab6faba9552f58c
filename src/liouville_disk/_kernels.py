"""Hot numeric kernels with numba-compiled primaries and numpy/scipy fallbacks.

Selection: the environment variable LIOUVILLE_DISK_NO_NUMBA=1 forces the
fallback path (also used automatically when numba is unavailable).  Both
implementations are importable side by side so the tests can compare them.

Kernels:
  - dijkstra: single-source shortest path over a CSR graph (mesh metric)
  - segment_hits: all-pairs proper intersections among polyline edges
  - winding_batch: winding numbers of a closed polyline around query points
"""

from __future__ import annotations

import os

import numpy as np

_DISABLE = os.environ.get("LIOUVILLE_DISK_NO_NUMBA", "") not in ("", "0")

try:
    if _DISABLE:
        raise ImportError("disabled by LIOUVILLE_DISK_NO_NUMBA")
    from numba import njit

    HAVE_NUMBA = True
except ImportError:
    HAVE_NUMBA = False

    def njit(*args, **kwargs):
        def wrap(f):
            return f

        if args and callable(args[0]):
            return args[0]
        return wrap


# --- dijkstra ---------------------------------------------------------------

@njit(cache=True)
def _dijkstra_nb(indptr, indices, weights, source, n):
    INF = np.inf
    dist = np.full(n, INF)
    done = np.zeros(n, dtype=np.uint8)
    # binary heap of (key, node); each edge relaxation pushes at most once
    cap = indices.size + n + 1
    heap_key = np.empty(cap, dtype=np.float64)
    heap_node = np.empty(cap, dtype=np.int64)
    size = 0

    def push(key, node, heap_key, heap_node, size):
        i = size
        heap_key[i] = key
        heap_node[i] = node
        while i > 0:
            p = (i - 1) >> 1
            if heap_key[p] <= heap_key[i]:
                break
            heap_key[p], heap_key[i] = heap_key[i], heap_key[p]
            heap_node[p], heap_node[i] = heap_node[i], heap_node[p]
            i = p
        return size + 1

    def pop(heap_key, heap_node, size):
        key = heap_key[0]
        node = heap_node[0]
        size -= 1
        heap_key[0] = heap_key[size]
        heap_node[0] = heap_node[size]
        i = 0
        while True:
            l = 2 * i + 1
            r = l + 1
            m = i
            if l < size and heap_key[l] < heap_key[m]:
                m = l
            if r < size and heap_key[r] < heap_key[m]:
                m = r
            if m == i:
                break
            heap_key[m], heap_key[i] = heap_key[i], heap_key[m]
            heap_node[m], heap_node[i] = heap_node[i], heap_node[m]
            i = m
        return key, node, size

    dist[source] = 0.0
    size = push(0.0, source, heap_key, heap_node, size)
    while size > 0:
        key, u, size = pop(heap_key, heap_node, size)
        if done[u]:
            continue
        done[u] = 1
        for e in range(indptr[u], indptr[u + 1]):
            v = indices[e]
            nd = key + weights[e]
            if nd < dist[v]:
                dist[v] = nd
                if size >= heap_key.size:
                    break
                size = push(nd, v, heap_key, heap_node, size)
    return dist


def _dijkstra_np(indptr, indices, weights, source, n):
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import dijkstra as cs_dijkstra

    mat = csr_matrix((weights, indices, indptr), shape=(n, n))
    return cs_dijkstra(mat, directed=True, indices=source)


def dijkstra(indptr, indices, weights, source: int, n: int) -> np.ndarray:
    """Distances from source over a CSR digraph with nonnegative weights."""
    indptr = np.ascontiguousarray(indptr, dtype=np.int64)
    indices = np.ascontiguousarray(indices, dtype=np.int64)
    weights = np.ascontiguousarray(weights, dtype=np.float64)
    if HAVE_NUMBA:
        return _dijkstra_nb(indptr, indices, weights, source, n)
    return _dijkstra_np(indptr, indices, weights, source, n)


# --- segment intersections --------------------------------------------------

@njit(cache=True)
def _segment_hits_nb(ax, ay, bx, by, skip_neighbors, eps):
    n = ax.size
    cap = 16
    out_i = np.empty(cap, dtype=np.int64)
    out_j = np.empty(cap, dtype=np.int64)
    out_s = np.empty(cap, dtype=np.float64)
    out_t = np.empty(cap, dtype=np.float64)
    out_flag = np.empty(cap, dtype=np.uint8)
    cnt = 0
    for i in range(n):
        aix, aiy, bix, biy = ax[i], ay[i], bx[i], by[i]
        lo_x = min(aix, bix) - eps
        hi_x = max(aix, bix) + eps
        lo_y = min(aiy, biy) - eps
        hi_y = max(aiy, biy) + eps
        for j in range(i + 1, n):
            gap = min(j - i, n - (j - i))
            if gap <= skip_neighbors:
                continue
            ajx, ajy, bjx, bjy = ax[j], ay[j], bx[j], by[j]
            if max(ajx, bjx) < lo_x or min(ajx, bjx) > hi_x:
                continue
            if max(ajy, bjy) < lo_y or min(ajy, bjy) > hi_y:
                continue
            rx = bix - aix
            ry = biy - aiy
            sx = bjx - ajx
            sy = bjy - ajy
            denom = rx * sy - ry * sx
            qpx = ajx - aix
            qpy = ajy - aiy
            num_s = qpx * sy - qpy * sx
            num_t = qpx * ry - qpy * rx
            scale = (abs(rx) + abs(ry)) * (abs(sx) + abs(sy)) + 1e-300
            suspect = 0
            if abs(denom) < 1e-9 * scale:
                suspect = 1
            else:
                s = num_s / denom
                t = num_t / denom
                margin = 1e-9
                if s < -margin or s > 1 + margin or t < -margin or t > 1 + margin:
                    continue
                if s < margin or s > 1 - margin or t < margin or t > 1 - margin:
                    suspect = 1
            if cnt >= cap:
                cap *= 2
                tmp_i = np.empty(cap, dtype=np.int64); tmp_i[:cnt] = out_i[:cnt]; out_i = tmp_i
                tmp_j = np.empty(cap, dtype=np.int64); tmp_j[:cnt] = out_j[:cnt]; out_j = tmp_j
                tmp_s = np.empty(cap, dtype=np.float64); tmp_s[:cnt] = out_s[:cnt]; out_s = tmp_s
                tmp_t = np.empty(cap, dtype=np.float64); tmp_t[:cnt] = out_t[:cnt]; out_t = tmp_t
                tmp_f = np.empty(cap, dtype=np.uint8); tmp_f[:cnt] = out_flag[:cnt]; out_flag = tmp_f
            if suspect == 1:
                out_i[cnt] = i; out_j[cnt] = j
                out_s[cnt] = -1.0; out_t[cnt] = -1.0
                out_flag[cnt] = 1
            else:
                out_i[cnt] = i; out_j[cnt] = j
                out_s[cnt] = num_s / denom; out_t[cnt] = num_t / denom
                out_flag[cnt] = 0
            cnt += 1
    return out_i[:cnt], out_j[:cnt], out_s[:cnt], out_t[:cnt], out_flag[:cnt]


def _segment_hits_np(ax, ay, bx, by, skip_neighbors, eps):
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
    if HAVE_NUMBA:
        return _segment_hits_nb(ax, ay, bx, by, skip_neighbors, eps)
    return _segment_hits_np(ax, ay, bx, by, skip_neighbors, eps)


# --- winding numbers --------------------------------------------------------

@njit(cache=True)
def _winding_batch_nb(px, py, vx, vy):
    m = px.size
    n = vx.size
    out = np.zeros(m, dtype=np.int64)
    for k in range(m):
        x, y = px[k], py[k]
        w = 0
        for i in range(n):
            x0, y0 = vx[i], vy[i]
            i1 = i + 1 if i + 1 < n else 0
            x1, y1 = vx[i1], vy[i1]
            if y0 <= y:
                if y1 > y and (x1 - x0) * (y - y0) - (x - x0) * (y1 - y0) > 0:
                    w += 1
            elif y1 <= y and (x1 - x0) * (y - y0) - (x - x0) * (y1 - y0) < 0:
                w -= 1
        out[k] = w
    return out


def _winding_batch_np(px, py, vx, vy):
    x0, y0 = vx[None, :], vy[None, :]
    x1 = np.roll(vx, -1)[None, :]
    y1 = np.roll(vy, -1)[None, :]
    x, y = px[:, None], py[:, None]
    left = (x1 - x0) * (y - y0) - (x - x0) * (y1 - y0)
    up = (y0 <= y) & (y1 > y) & (left > 0)
    down = (y0 > y) & (y1 <= y) & (left < 0)
    return (up.sum(axis=1) - down.sum(axis=1)).astype(np.int64)


def winding_batch(points: np.ndarray, vertices: np.ndarray) -> np.ndarray:
    """Winding numbers of the closed polyline around each query point."""
    px = np.ascontiguousarray(points[:, 0], dtype=np.float64)
    py = np.ascontiguousarray(points[:, 1], dtype=np.float64)
    vx = np.ascontiguousarray(vertices[:, 0], dtype=np.float64)
    vy = np.ascontiguousarray(vertices[:, 1], dtype=np.float64)
    if HAVE_NUMBA:
        return _winding_batch_nb(px, py, vx, vy)
    return _winding_batch_np(px, py, vx, vy)


def warmup():
    """Trigger JIT compilation of the hot kernels (no-op on the fallback path)."""
    if not HAVE_NUMBA:
        return
    tri = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    segment_hits(tri, np.roll(tri, -1, axis=0))
    winding_batch(np.array([[0.2, 0.2]]), tri)
    indptr = np.array([0, 1, 2, 2], dtype=np.int64)
    indices = np.array([1, 2], dtype=np.int64)
    weights = np.array([1.0, 1.0])
    dijkstra(indptr, indices, weights, 0, 3)


IMPLEMENTATIONS = {
    "numba": {
        "dijkstra": _dijkstra_nb if HAVE_NUMBA else None,
        "segment_hits": _segment_hits_nb if HAVE_NUMBA else None,
        "winding_batch": _winding_batch_nb if HAVE_NUMBA else None,
    },
    "numpy": {
        "dijkstra": _dijkstra_np,
        "segment_hits": _segment_hits_np,
        "winding_batch": _winding_batch_np,
    },
}
