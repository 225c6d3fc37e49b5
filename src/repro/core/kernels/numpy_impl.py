"""The numpy kernel backend — today's vectorized hot loops, extracted.

Each function here is the behavior-identical numpy formulation of one hot
loop, lifted out of its original module so the dispatch layer can swap it
for the compiled backend.  The heavy lifting still lives where it always
did (e.g. :meth:`LazyCostTracker.candidate_deltas`); these wrappers own the
*pass drivers* — the per-node / per-window Python orchestration that the
numba backend replaces with one compiled loop.
"""

from __future__ import annotations

import numpy as np

from .state import HccsState

__all__ = [
    "hc_pass_numpy",
    "hccs_front_mask",
    "hccs_front_numpy",
    "hccs_pass_numpy",
    "coarsen_reach_numpy",
    "pk_order_numpy",
    "symbolic_fill_quotient_numpy",
]

_EPS_DEFAULT = 1e-9


def hc_pass_numpy(tracker, start, stop, max_accept, eps, budget=None):
    """One HC pass over nodes ``[start, stop)`` via the batched tracker.

    Evaluates every node's ``3 x P`` candidate moves with
    ``tracker.candidate_deltas`` (read-only) and applies the first improving
    candidate through ``tracker.apply_move`` — exactly the pre-dispatch
    climb body.  Returns ``(accepted, moves)``.
    """
    P = tracker.machine.num_procs
    accepted = 0
    moves: list[tuple[int, int, int]] = []
    for v in range(start, stop):
        if max_accept >= 0 and accepted >= max_accept:
            break
        if budget is not None and budget.expired():
            break
        deltas, valid = tracker.candidate_deltas(v)
        hit = valid & (deltas < -eps)
        if not hit.any():
            continue
        # first improving candidate in the reference scan order:
        # steps (s-1, s, s+1) major, processors 0..P-1 minor
        flat = int(np.argmax(hit))
        step_offset, new_proc = divmod(flat, P)
        new_step = int(tracker.supersteps[v]) - 1 + step_offset
        tracker.apply_move(v, new_proc, new_step)
        accepted += 1
        moves.append((v, new_proc, new_step))
    return accepted, moves


def hccs_pass_numpy(state: HccsState, start, stop, max_accept, eps, budget=None):
    """One HCcs pass over ``state.movable[start:stop]`` (numpy row ops).

    The pre-dispatch window walk: one shared removal row scan per window,
    candidate phases scored against the maintained row maxima in one
    vectorized expression.  Returns ``(accepted, moves)``.
    """
    send = state.send
    recv = state.recv
    comm_max = state.comm_max
    choices = state.choices
    accepted = 0
    moves: list[tuple[int, int]] = []
    for mi in range(start, stop):
        if max_accept >= 0 and accepted >= max_accept:
            break
        if budget is not None and budget.expired():
            break
        index = int(state.movable[mi])
        current = int(choices[index])
        lo = int(state.earliest[index])
        hi = int(state.latest[index])
        volume = float(state.volumes[index])
        p1 = int(state.srcs[index])
        p2 = int(state.tgts[index])

        # removing the transfer from its current phase: one row scan,
        # shared by every candidate phase of the window
        send_row = send[current].copy()
        send_row[p1] -= volume
        recv_row = recv[current].copy()
        recv_row[p2] -= volume
        removal = max(float(send_row.max()), float(recv_row.max())) - comm_max[current]

        # adding it to a candidate phase only raises that row, so the
        # new maximum needs no row scan at all
        window_max = comm_max[lo : hi + 1]
        raised = np.maximum(
            window_max,
            np.maximum(send[lo : hi + 1, p1] + volume, recv[lo : hi + 1, p2] + volume),
        )
        deltas = ((raised - window_max) + removal).tolist()

        best_phase = current
        best_delta = 0.0
        for offset, delta in enumerate(deltas):
            candidate = lo + offset
            if candidate == current:
                continue
            if delta < best_delta - eps:
                best_delta = delta
                best_phase = candidate
        if best_phase != current:
            send[current, p1] -= volume
            recv[current, p2] -= volume
            send[best_phase, p1] += volume
            recv[best_phase, p2] += volume
            for s in (current, best_phase):
                comm_max[s] = float(np.maximum(send[s], recv[s]).max())
            choices[index] = best_phase
            accepted += 1
            moves.append((index, best_phase))
    return accepted, moves


def coarsen_reach_numpy(graph, u, v):
    """Alternative-path DFS over the flat adjacency pools.

    Python-native mirror of :func:`repro.core.kernels.loops.coarsen_reach_loops`
    — identical visit order (so every backend makes the same contract/skip
    decisions), but with list/set containers, which beat per-element numpy
    indexing by a wide margin when the loop body is not compiled.
    """
    succ_pool = graph.succ_pool
    succ_start = graph.succ_start
    succ_len = graph.succ_len
    base = int(succ_start[u])
    stack = [w for w in succ_pool[base : base + int(succ_len[u])].tolist() if w != v]
    seen = set(stack)
    while stack:
        x = stack.pop()
        xb = int(succ_start[x])
        for w in succ_pool[xb : xb + int(succ_len[x])].tolist():
            if w == v:
                return 1
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return 0


def pk_order_numpy(graph, op, u, v):
    """Pearce–Kelly order maintenance over the flat adjacency pools.

    Python-native mirror of :func:`repro.core.kernels.loops.pk_order_loops`.
    The discovered regions are *traversal-order independent* (each is the
    closure of a seed under one bounded step relation), and the reassignment
    sorts by the old positions, which are distinct — so every backend leaves
    ``graph.order`` in the bit-identical state.
    """
    succ_pool = graph.succ_pool
    succ_start = graph.succ_start
    succ_len = graph.succ_len
    order = graph.order
    if op == 0:
        limit = int(order[v])
        base = int(succ_start[u])
        stack = [
            w
            for w in succ_pool[base : base + int(succ_len[u])].tolist()
            if w != v and order[w] < limit
        ]
        seen = set(stack)
        while stack:
            x = stack.pop()
            xb = int(succ_start[x])
            for w in succ_pool[xb : xb + int(succ_len[x])].tolist():
                if w == v:
                    return 1
                if order[w] < limit and w not in seen:
                    seen.add(w)
                    stack.append(w)
        return 0

    lb = int(order[v])
    ub = int(order[u])
    if ub < lb:
        return 0
    forward = [v]
    seen_f = {v}
    stack = [v]
    while stack:
        x = stack.pop()
        xb = int(succ_start[x])
        for w in succ_pool[xb : xb + int(succ_len[x])].tolist():
            if w == u:
                return 1
            if order[w] <= ub and w not in seen_f:
                seen_f.add(w)
                forward.append(w)
                stack.append(w)
    pred_pool = graph.pred_pool
    pred_start = graph.pred_start
    pred_len = graph.pred_len
    backward = [u]
    seen_b = {u}
    stack = [u]
    while stack:
        x = stack.pop()
        xb = int(pred_start[x])
        for w in pred_pool[xb : xb + int(pred_len[x])].tolist():
            if order[w] >= lb and w not in seen_b:
                seen_b.add(w)
                backward.append(w)
                stack.append(w)
    backward.sort(key=lambda node: order[node])
    forward.sort(key=lambda node: order[node])
    region = backward + forward
    positions = sorted(int(order[node]) for node in region)
    for node, pos in zip(region, positions):
        order[node] = pos
    return 0


def hccs_front_mask(lo, hi, num_rows):
    """Scan-order greedy maximal set of row-disjoint HCcs windows.

    One vectorized conflict scan: window ``k`` (interval ``[lo[k], hi[k]]``)
    joins the front iff no earlier-scanned window's interval intersects it —
    *earlier-scanned*, not *earlier-accepted*, so a deferred window still
    claims its rows and the serial equivalence argument below holds.  Each
    phase row remembers the first window covering it (``np.minimum.at``);
    a window is kept iff it is its own interval-wide minimum.
    """
    k = lo.shape[0]
    widths = hi - lo + 1
    offsets = np.zeros(k + 1, dtype=np.int64)
    np.cumsum(widths, out=offsets[1:])
    total = int(offsets[-1])
    rows = np.repeat(lo, widths) + (
        np.arange(total, dtype=np.int64) - np.repeat(offsets[:-1], widths)
    )
    scan = np.repeat(np.arange(k, dtype=np.int64), widths)
    first = np.full(num_rows, k, dtype=np.int64)
    np.minimum.at(first, rows, scan)
    return np.minimum.reduceat(first[rows], offsets[:-1]) == np.arange(
        k, dtype=np.int64
    )


def hccs_front_numpy(state: HccsState, front, eps):
    """Evaluate and apply one row-disjoint window front in a batched sweep.

    ``front`` holds window indices whose feasible phase intervals are
    pairwise disjoint, so every window sees the same row maxima a serial
    walk would and the accepted moves scatter without conflicts.  The
    first-exact-argmin phase choice equals the serial eps-guarded ascending
    scan under the exact (integer/dyadic) weight regime, where distinct
    deltas differ by at least one volume unit >> eps.  Returns
    ``(accepted, moves)`` with moves in front order.
    """
    send = state.send
    recv = state.recv
    comm_max = state.comm_max
    choices = state.choices
    k = front.shape[0]
    cur = choices[front]
    lo = state.earliest[front]
    hi = state.latest[front]
    vol = state.volumes[front]
    p1 = state.srcs[front]
    p2 = state.tgts[front]

    # removal terms: one gathered row block, the moving volume subtracted
    send_rows = send[cur]
    send_rows[np.arange(k), p1] -= vol
    recv_rows = recv[cur]
    recv_rows[np.arange(k), p2] -= vol
    removal = np.maximum(send_rows.max(axis=1), recv_rows.max(axis=1)) - comm_max[cur]

    # candidate deltas over the concatenated feasible intervals
    widths = hi - lo + 1
    offsets = np.zeros(k + 1, dtype=np.int64)
    np.cumsum(widths, out=offsets[1:])
    total = int(offsets[-1])
    rep = np.repeat(np.arange(k, dtype=np.int64), widths)
    phases = np.repeat(lo, widths) + (
        np.arange(total, dtype=np.int64) - np.repeat(offsets[:-1], widths)
    )
    raised = np.maximum(
        comm_max[phases],
        np.maximum(send[phases, p1[rep]] + vol[rep], recv[phases, p2[rep]] + vol[rep]),
    )
    deltas = (raised - comm_max[phases]) + removal[rep]
    deltas[phases == cur[rep]] = np.inf  # staying put is not a move
    best = np.minimum.reduceat(deltas, offsets[:-1])
    accept = best < -eps
    if not accept.any():
        return 0, []
    # first phase attaining the window minimum (== the serial scan's pick)
    hit_pos = np.where(
        deltas == best[rep], np.arange(total, dtype=np.int64), total
    )
    firsts = np.minimum.reduceat(hit_pos, offsets[:-1])

    ai = np.flatnonzero(accept)
    new_phase = phases[firsts[ai]]
    idx = front[ai]
    cw = cur[ai]
    vw = vol[ai]
    p1w = p1[ai]
    p2w = p2[ai]
    # intervals are disjoint across the front, hence so are the touched
    # rows: the scatter below never collides
    send[cw, p1w] -= vw
    recv[cw, p2w] -= vw
    send[new_phase, p1w] += vw
    recv[new_phase, p2w] += vw
    touched = np.concatenate((cw, new_phase))
    comm_max[touched] = np.maximum(send[touched], recv[touched]).max(axis=1)
    choices[idx] = new_phase
    moves = list(zip(idx.tolist(), new_phase.tolist()))
    return len(moves), moves


def symbolic_fill_quotient_numpy(indptr, indices, n):
    """Row-merge-tree symbolic factorisation (pure-Python list walks).

    Same algorithm as :func:`repro.core.kernels.loops.
    symbolic_fill_quotient_loops` — Liu's path-compressed elimination tree
    followed by marked row-subtree traversals — with the interpreter-side
    constant factor squeezed out: the strictly-lower entries are extracted
    once with vectorised numpy (no per-entry triangle test in the loops),
    the walks chase plain Python lists (severalfold faster than ndarray
    scalar indexing), and the count/fill double traversal collapses into a
    single pass appending to per-column lists — rows are visited in
    increasing order, so each column comes out sorted and duplicate-free.
    Output is bit-identical to the compiled backend's.
    """
    rows = np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr))
    lower = indices < rows
    li = rows[lower].tolist()
    lj = np.ascontiguousarray(indices)[lower].tolist()
    parents = [-1] * n
    ancestor = [-1] * n
    # pass 1 — Liu's etree: entry (col, i) with i < col re-points i's
    # compressed ancestor chain at col; the first unset link is the parent
    for col, i in zip(li, lj):
        while True:
            nxt = ancestor[i]
            if nxt == -1:
                ancestor[i] = col
                parents[i] = col
                break
            if nxt == col:
                break
            ancestor[i] = col
            i = nxt
    # pass 2 — row subtrees: row i contributes i to column j, parent(j), ...
    # up to (excluded) i itself; marks cut every walk at the merge point
    counts = [0] * n
    mark = [-1] * n
    previous = -1
    for i, j in zip(li, lj):
        if i != previous:
            mark[i] = i
            previous = i
        while mark[j] != i:
            counts[j] += 1
            mark[j] = i
            j = parents[j]
    out_indptr = np.zeros(n + 1, dtype=np.int64)
    if n:
        np.cumsum(counts, out=out_indptr[1:])
    # pass 3 — the same walks, now scattering into the flat output pool;
    # rows arrive in increasing order, so every column comes out sorted
    out = [0] * int(out_indptr[n])
    cursor = out_indptr[:n].tolist()
    mark = [-1] * n
    previous = -1
    for i, j in zip(li, lj):
        if i != previous:
            mark[i] = i
            previous = i
        while mark[j] != i:
            c = cursor[j]
            out[c] = i
            cursor[j] = c + 1
            mark[j] = i
            j = parents[j]
    out_indices = np.asarray(out, dtype=np.int64)
    return out_indptr, out_indices, np.asarray(parents, dtype=np.int64)

