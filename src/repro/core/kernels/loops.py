"""Loop-form kernel bodies — the source the numba backend compiles.

Every function in this module is written in the nopython subset of Python
(flat numpy arrays, scalar indexing, ``for``/``while`` loops, no Python
containers), so the exact same code object serves two purposes:

* :mod:`repro.core.kernels.numba_impl` wraps each function with
  ``@numba.njit(nogil=True, cache=True)`` — the compiled, GIL-releasing
  backend;
* without numba the functions still run as plain (slow) Python, which is
  how the backend-parity suite exercises the compiled backend's *semantics*
  on machines where numba is not installed.

Each kernel is self-contained (no helper calls) so numba never has to
resolve a cross-function global into a dispatcher.  The arithmetic mirrors
the vectorized numpy backend exactly: all floating-point quantities are
sums/maxima of products of the instance weights, so under the repository's
exact (integer/dyadic) weight regime the two backends are bit-identical —
the same contract the numpy refiners already keep with the retained seed
walkers.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "NO_ENTRY",
    "hc_pass_loops",
    "hccs_pass_loops",
    "coarsen_reach_loops",
    "pk_order_loops",
    "symbolic_fill_quotient_loops",
]

#: Sentinel for "no entry" in first-need tables (== repro.core.csr.NO_ENTRY,
#: spelled as a literal so the constant freezes cleanly into compiled code).
NO_ENTRY = 9223372036854775807


def hc_pass_loops(
    succ_indptr,
    succ_indices,
    pred_indptr,
    pred_indices,
    work_w,
    comm_w,
    numa,
    g,
    procs,
    supersteps,
    work,
    send,
    recv,
    work_max,
    comm_max,
    need_min,
    need_cnt,
    start,
    stop,
    max_accept,
    eps,
    moves_out,
):
    """One fused HC pass over the nodes ``[start, stop)``.

    For every node the ``3 x P`` candidate moves are evaluated in the
    reference scan order (steps ``s0-1, s0, s0+1`` major, processors minor)
    and the first strictly improving candidate is applied immediately —
    work/send/recv matrices, their row maxima and the incremental
    first-need table are all updated in place.  Returns the number of
    accepted moves; accepted ``(node, proc, step)`` triples are written to
    ``moves_out``.  ``max_accept < 0`` means unlimited.
    """
    S = work.shape[0]
    P = work.shape[1]
    accepted = 0

    removed0 = np.empty(P, dtype=np.float64)
    dsend = np.zeros((S, P), dtype=np.float64)
    drecv = np.zeros((S, P), dtype=np.float64)
    phase_stamp = np.zeros(S, dtype=np.int64)
    stamp = 0

    for v in range(start, stop):
        if max_accept >= 0 and accepted >= max_accept:
            break
        p0 = procs[v]
        s0 = supersteps[v]
        ps = pred_indptr[v]
        pe = pred_indptr[v + 1]
        ss = succ_indptr[v]
        se = succ_indptr[v + 1]
        d = pe - ps

        # ---- step feasibility + forced processor per candidate step ---- #
        step_ok = np.zeros(3, dtype=np.bool_)
        forced = np.full(3, -1, dtype=np.int64)
        any_valid = False
        for i in range(3):
            s = s0 - 1 + i
            if s < 0 or s >= S:
                continue
            ok = True
            f = np.int64(-1)
            for k in range(ps, pe):
                u = pred_indices[k]
                su = supersteps[u]
                if su > s:
                    ok = False
                    break
                if su == s:
                    pu = procs[u]
                    if f < 0:
                        f = pu
                    elif f != pu:
                        ok = False
                        break
            if not ok:
                continue
            for k in range(ss, se):
                t = succ_indices[k]
                st = supersteps[t]
                if st < s:
                    ok = False
                    break
                if st == s:
                    pt = procs[t]
                    if f < 0:
                        f = pt
                    elif f != pt:
                        ok = False
                        break
            if not ok:
                continue
            step_ok[i] = True
            forced[i] = f
            if i != 1 or f != p0 or f < 0:
                any_valid = True
        if not any_valid:
            continue

        # ---- work component scaffolding (row s0 minus v, top-2) -------- #
        w_v = work_w[v]
        max1 = -np.inf
        max2 = -np.inf
        arg1 = -1
        for q in range(P):
            val = work[s0, q]
            if q == p0:
                val -= w_v
            removed0[q] = val
            if val > max1:
                max2 = max1
                max1 = val
                arg1 = q
            elif val > max2:
                max2 = val
        m0 = max1  # row s0 maximum once v's work is gone

        # ---- per-predecessor first-need table with v excluded ---------- #
        has_comm = d > 0 or se > ss
        table = np.empty((d, P), dtype=np.int64)
        pred_of = np.empty(d, dtype=np.int64)
        pred_pr = np.empty(d, dtype=np.int64)
        for k in range(d):
            u = pred_indices[ps + k]
            pred_of[k] = u
            pred_pr[k] = procs[u]
            for q in range(P):
                table[k, q] = need_min[u, q]
            if table[k, p0] == s0 and need_cnt[u, p0] == 1:
                # v is the sole achiever of the minimum: rescan without it
                m = NO_ENTRY
                for t in range(succ_indptr[u], succ_indptr[u + 1]):
                    w = succ_indices[t]
                    if w != v and procs[w] == p0:
                        sw = supersteps[w]
                        if sw < m:
                            m = sw
                table[k, p0] = m

        tlist = np.empty(2 * P + 4 * d + 8, dtype=np.int64)

        # ---- candidate scan: steps major, processors minor ------------- #
        done = False
        for i in range(3):
            if done or not step_ok[i]:
                continue
            s = s0 - 1 + i
            f = forced[i]
            for q in range(P):
                if f >= 0 and q != f:
                    continue
                if i == 1 and q == p0:
                    continue

                # work delta
                if s == s0:
                    excl = max2 if q == arg1 else max1
                    nr = removed0[q] + w_v
                    dwork = (excl if excl > nr else nr) - work_max[s0]
                else:
                    rp = work[s, q] + w_v
                    dwork = (rp if rp > work_max[s] else work_max[s]) - work_max[s]
                    dwork += m0 - work_max[s0]
                delta = dwork

                tcount = 0
                if has_comm:
                    stamp += 1
                    c_v = comm_w[v]
                    # v's own transfers move source p0 -> q (phases fixed)
                    if q != p0:
                        for p in range(P):
                            fv = need_min[v, p]
                            if fv == NO_ENTRY:
                                continue
                            t = fv - 1
                            if p != p0 or p != q:
                                if phase_stamp[t] != stamp:
                                    phase_stamp[t] = stamp
                                    tlist[tcount] = t
                                    tcount += 1
                            if p != p0:
                                vol = c_v * numa[p0, p]
                                dsend[t, p0] -= vol
                                drecv[t, p] -= vol
                            if p != q:
                                vol = c_v * numa[q, p]
                                dsend[t, q] += vol
                                drecv[t, p] += vol
                    # predecessors: their first need on p0 and q may move
                    for k in range(d):
                        u = pred_of[k]
                        pu = pred_pr[k]
                        if pu != p0:
                            old = need_min[u, p0]
                            new = table[k, p0]
                            if q == p0 and s < new:
                                new = s
                            if old != new:
                                vol = comm_w[u] * numa[pu, p0]
                                if old != NO_ENTRY:
                                    t = old - 1
                                    if phase_stamp[t] != stamp:
                                        phase_stamp[t] = stamp
                                        tlist[tcount] = t
                                        tcount += 1
                                    dsend[t, pu] -= vol
                                    drecv[t, p0] -= vol
                                if new != NO_ENTRY:
                                    t = new - 1
                                    if phase_stamp[t] != stamp:
                                        phase_stamp[t] = stamp
                                        tlist[tcount] = t
                                        tcount += 1
                                    dsend[t, pu] += vol
                                    drecv[t, p0] += vol
                        if q != p0 and pu != q:
                            old = need_min[u, q]
                            new = table[k, q]
                            if s < new:
                                new = s
                            if old != new:
                                vol = comm_w[u] * numa[pu, q]
                                if old != NO_ENTRY:
                                    t = old - 1
                                    if phase_stamp[t] != stamp:
                                        phase_stamp[t] = stamp
                                        tlist[tcount] = t
                                        tcount += 1
                                    dsend[t, pu] -= vol
                                    drecv[t, q] -= vol
                                t = new - 1
                                if phase_stamp[t] != stamp:
                                    phase_stamp[t] = stamp
                                    tlist[tcount] = t
                                    tcount += 1
                                dsend[t, pu] += vol
                                drecv[t, q] += vol
                    # communication delta over the touched phase rows
                    for ti in range(tcount):
                        t = tlist[ti]
                        rm = -np.inf
                        for p in range(P):
                            a = send[t, p] + dsend[t, p]
                            b = recv[t, p] + drecv[t, p]
                            m = a if a > b else b
                            if m > rm:
                                rm = m
                        delta += g * (rm - comm_max[t])

                if delta < -eps:
                    # ---- accept: apply the diffs for real -------------- #
                    for ti in range(tcount):
                        t = tlist[ti]
                        rm = -np.inf
                        for p in range(P):
                            send[t, p] += dsend[t, p]
                            recv[t, p] += drecv[t, p]
                            dsend[t, p] = 0.0
                            drecv[t, p] = 0.0
                            a = send[t, p]
                            b = recv[t, p]
                            m = a if a > b else b
                            if m > rm:
                                rm = m
                        comm_max[t] = rm
                    work[s0, p0] -= w_v
                    work[s, q] += w_v
                    rm = -np.inf
                    for p in range(P):
                        if work[s0, p] > rm:
                            rm = work[s0, p]
                    work_max[s0] = rm
                    rm = -np.inf
                    for p in range(P):
                        if work[s, p] > rm:
                            rm = work[s, p]
                    work_max[s] = rm
                    procs[v] = q
                    supersteps[v] = s
                    # incremental first-need maintenance for the preds
                    for k in range(d):
                        u = pred_of[k]
                        if s < need_min[u, q]:
                            need_min[u, q] = s
                            need_cnt[u, q] = 1
                        elif s == need_min[u, q]:
                            need_cnt[u, q] += 1
                        if s0 == need_min[u, p0]:
                            need_cnt[u, p0] -= 1
                            if need_cnt[u, p0] == 0:
                                m = NO_ENTRY
                                c = 0
                                for t in range(succ_indptr[u], succ_indptr[u + 1]):
                                    w = succ_indices[t]
                                    if procs[w] == p0:
                                        sw = supersteps[w]
                                        if sw < m:
                                            m = sw
                                            c = 1
                                        elif sw == m:
                                            c += 1
                                need_min[u, p0] = m
                                need_cnt[u, p0] = c
                    moves_out[accepted, 0] = v
                    moves_out[accepted, 1] = q
                    moves_out[accepted, 2] = s
                    accepted += 1
                    done = True
                    break
                # ---- reject: clear the scratch rows -------------------- #
                for ti in range(tcount):
                    t = tlist[ti]
                    for p in range(P):
                        dsend[t, p] = 0.0
                        drecv[t, p] = 0.0
    return accepted


def hccs_pass_loops(
    send,
    recv,
    comm_max,
    choices,
    movable,
    srcs,
    tgts,
    earliest,
    latest,
    volumes,
    start,
    stop,
    max_accept,
    eps,
    moves_out,
):
    """One HCcs pass over the movable windows ``movable[start:stop]``.

    Every feasible phase of a window is scored against the maintained row
    maxima (adding a transfer can only raise a row); the best strictly
    improving phase wins, exactly as in the vectorized numpy path.  Accepted
    ``(window_index, new_phase)`` pairs go to ``moves_out``; returns the
    number of accepted moves.  ``max_accept < 0`` means unlimited.
    """
    P = send.shape[1]
    accepted = 0
    for mi in range(start, stop):
        if max_accept >= 0 and accepted >= max_accept:
            break
        index = movable[mi]
        current = choices[index]
        lo = earliest[index]
        hi = latest[index]
        volume = volumes[index]
        p1 = srcs[index]
        p2 = tgts[index]

        # removing the transfer from its current phase: one shared row scan
        rm = -np.inf
        for p in range(P):
            a = send[current, p]
            if p == p1:
                a -= volume
            b = recv[current, p]
            if p == p2:
                b -= volume
            m = a if a > b else b
            if m > rm:
                rm = m
        removal = rm - comm_max[current]

        best_phase = current
        best_delta = 0.0
        for candidate in range(lo, hi + 1):
            if candidate == current:
                continue
            a = send[candidate, p1] + volume
            b = recv[candidate, p2] + volume
            raised = a if a > b else b
            if raised < comm_max[candidate]:
                raised = comm_max[candidate]
            delta = (raised - comm_max[candidate]) + removal
            if delta < best_delta - eps:
                best_delta = delta
                best_phase = candidate
        if best_phase != current:
            send[current, p1] -= volume
            recv[current, p2] -= volume
            send[best_phase, p1] += volume
            recv[best_phase, p2] += volume
            for t in range(2):
                s = current if t == 0 else best_phase
                rm = -np.inf
                for p in range(P):
                    a = send[s, p]
                    b = recv[s, p]
                    m = a if a > b else b
                    if m > rm:
                        rm = m
                comm_max[s] = rm
            choices[index] = best_phase
            moves_out[accepted, 0] = index
            moves_out[accepted, 1] = best_phase
            accepted += 1
    return accepted


def coarsen_reach_loops(
    succ_pool,
    succ_start,
    succ_len,
    u,
    v,
    stack,
    seen,
    stamp,
):
    """Alternative-path probe for the contraction acyclicity check.

    DFS over the descendants of ``u`` (entered through every successor
    except ``v``) looking for another route to ``v``.  Returns ``1`` when
    one exists (the edge is *not* contractable) and ``0`` when none does.
    ``seen`` is a stamp array and ``stack`` a preallocated scratch; both
    are reused across calls.
    """
    top = 0
    base = succ_start[u]
    for k in range(succ_len[u]):
        w = succ_pool[base + k]
        if w != v:
            stack[top] = w
            top += 1
            seen[w] = stamp
    while top > 0:
        top -= 1
        x = stack[top]
        xb = succ_start[x]
        for k in range(succ_len[x]):
            w = succ_pool[xb + k]
            if w == v:
                return 1
            if seen[w] != stamp:
                seen[w] = stamp
                stack[top] = w
                top += 1
    return 0


def pk_order_loops(
    succ_pool,
    succ_start,
    succ_len,
    pred_pool,
    pred_start,
    pred_len,
    order,
    op,
    u,
    v,
    stack,
    f_buf,
    b_buf,
    visited,
    stamp,
):
    """Pearce–Kelly dynamic topological order over pooled adjacency rows.

    ``order`` maps node -> position; positions of dead nodes are permanent
    holes (only relative order matters).  Two operations share the scratch
    buffers (``visited`` uses ``+stamp`` marks forward and ``-stamp``
    backward, so the array can be shared with ``coarsen_reach``):

    ``op == 0`` — contraction probe for an existing edge ``(u, v)``: DFS
    from ``u``'s other successors expanding only nodes with
    ``order < order[v]``.  Because the order is valid, every intermediate
    of an alternative ``u -> v`` path lies strictly inside that bound, so
    the pruned search is exact.  Returns ``1`` when an alternative path
    exists (not contractable), else ``0``.

    ``op == 1`` — insert edge ``u -> v`` (make the order consistent with
    it): when ``order[u] < order[v]`` nothing to do; otherwise discover
    the affected region — ``F`` forward from ``v`` bounded by
    ``order <= order[u]``, ``B`` backward from ``u`` bounded by
    ``order >= order[v]`` — and reassign the sorted union of their old
    positions, ``B`` first then ``F``, each in old relative order.
    Returns ``1`` (order untouched) if the forward search reaches ``u``,
    i.e. the edge closes a cycle.
    """
    if op == 0:
        limit = order[v]
        top = 0
        base = succ_start[u]
        for k in range(succ_len[u]):
            w = succ_pool[base + k]
            if w != v and order[w] < limit and visited[w] != stamp:
                visited[w] = stamp
                stack[top] = w
                top += 1
        while top > 0:
            top -= 1
            x = stack[top]
            xb = succ_start[x]
            for k in range(succ_len[x]):
                w = succ_pool[xb + k]
                if w == v:
                    return 1
                if order[w] < limit and visited[w] != stamp:
                    visited[w] = stamp
                    stack[top] = w
                    top += 1
        return 0

    lb = order[v]
    ub = order[u]
    if ub < lb:
        return 0
    # forward discovery: F = closure of v under "successor with order <= ub"
    nf = 0
    top = 0
    visited[v] = stamp
    stack[top] = v
    top += 1
    while top > 0:
        top -= 1
        x = stack[top]
        f_buf[nf] = x
        nf += 1
        xb = succ_start[x]
        for k in range(succ_len[x]):
            w = succ_pool[xb + k]
            if w == u:
                return 1
            if order[w] <= ub and visited[w] != stamp:
                visited[w] = stamp
                stack[top] = w
                top += 1
    # backward discovery: B = closure of u under "predecessor with order >= lb"
    nb = 0
    top = 0
    visited[u] = -stamp
    stack[top] = u
    top += 1
    while top > 0:
        top -= 1
        x = stack[top]
        b_buf[nb] = x
        nb += 1
        xb = pred_start[x]
        for k in range(pred_len[x]):
            w = pred_pool[xb + k]
            if order[w] >= lb and visited[w] != -stamp:
                visited[w] = -stamp
                stack[top] = w
                top += 1
    # reallocate the union of old positions: B then F, old order preserved
    keys_b = np.empty(nb, dtype=np.int64)
    keys_f = np.empty(nf, dtype=np.int64)
    pool = np.empty(nb + nf, dtype=np.int64)
    for i in range(nb):
        keys_b[i] = order[b_buf[i]]
        pool[i] = keys_b[i]
    for i in range(nf):
        keys_f[i] = order[f_buf[i]]
        pool[nb + i] = keys_f[i]
    pool = np.sort(pool)
    rank_b = np.argsort(keys_b)
    rank_f = np.argsort(keys_f)
    for i in range(nb):
        order[b_buf[rank_b[i]]] = pool[i]
    for i in range(nf):
        order[f_buf[rank_f[i]]] = pool[nb + i]
    return 0


def symbolic_fill_quotient_loops(indptr, indices, n):
    """Row-merge-tree symbolic factorisation over a sorted CSR pattern.

    The asymptotic replacement for the up-looking pass
    (:func:`repro.dagdb.reference.symbolic_fill_uplooking_reference`):
    instead of unioning child structures per column (which re-sorts every
    candidate set), compute the elimination tree first (Liu's ancestor
    walk with path compression), then obtain each row ``i``'s structure as the union of
    the etree paths ``j -> i`` for every entry ``A[i, j]`` with ``j < i``
    — a marked traversal that touches every output entry exactly once, so
    the whole pass is ``O(|A| · α + |L|)``.  Rows are visited in increasing
    ``i``, so each column's structure is emitted sorted and duplicate-free:
    the output is bit-identical to the up-looking reference.  Returns the
    ragged below-diagonal column structures as ``(out_indptr, out_indices,
    parents)`` with ``parents`` the elimination tree.
    """
    parents = np.full(n, -1, dtype=np.int64)
    ancestor = np.full(n, -1, dtype=np.int64)
    for j in range(n):
        for k in range(indptr[j], indptr[j + 1]):
            i = indices[k]
            if i >= j:
                continue
            # climb i's compressed ancestor chain, re-pointing it at j
            while ancestor[i] != -1 and ancestor[i] != j:
                nxt = ancestor[i]
                ancestor[i] = j
                i = nxt
            if ancestor[i] == -1:
                ancestor[i] = j
                parents[i] = j
    counts = np.zeros(n, dtype=np.int64)
    mark = np.full(n, -1, dtype=np.int64)
    for i in range(n):
        mark[i] = i
        for k in range(indptr[i], indptr[i + 1]):
            j = indices[k]
            if j >= i:
                continue
            # walk the row subtree: j, parent(j), ... until already marked
            while mark[j] != i:
                counts[j] += 1
                mark[j] = i
                j = parents[j]
    out_indptr = np.zeros(n + 1, dtype=np.int64)
    for j in range(n):
        out_indptr[j + 1] = out_indptr[j] + counts[j]
    out_indices = np.empty(out_indptr[n], dtype=np.int64)
    cursor = out_indptr[:n].copy()
    for j in range(n):
        mark[j] = -1
    for i in range(n):
        mark[i] = i
        for k in range(indptr[i], indptr[i + 1]):
            j = indices[k]
            if j >= i:
                continue
            while mark[j] != i:
                out_indices[cursor[j]] = i
                cursor[j] += 1
                mark[j] = i
                j = parents[j]
    return out_indptr, out_indices, parents
