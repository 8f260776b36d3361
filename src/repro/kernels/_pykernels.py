"""The ``"python"`` kernel tier, and the oracle of ``kernels.c``.

One plain-Python function per :data:`repro.kernels.KERNELS` row, under
the row's name, taking the row's arguments minus its ``len(...)`` ones.
Always importable, never fast: the ``"python"`` backend binds these
(after the same argument checks as the C tier), so the tests run the
kernel call paths on any machine, and the C code is checked against
them.

Each function is a line-for-line transliteration of the per-edge
reference loop ``kernels.c``'s header names for it, and the two files
are kept in lockstep (DESIGN.md §8).  The take kernels and
:func:`slot_index` index with caller data: they return the first bad row
(-1: none), which :func:`checked_take` raises as ``IndexError``.

Conventions shared with the C kernels: vertex partition sets are flat
multiword uint64 bitmask rows (``nw = ceil(k / 64)`` words per vertex,
vertex ``x`` owns ``words[x * nw : (x + 1) * nw]``); counters cross the
boundary in small int64 arrays so one signature fits ctypes and plain
Python.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "hdrf_chunk",
    "greedy_chunk",
    "clustering_chunk",
    "transform_chunk",
    "game_round",
    "game_cost_rows",
    "take_add_f64",
    "take_min_f64",
    "take_min_i64",
    "take_put_i64",
    "checked_take",
    "slot_index",
]

_ONE = np.uint64(1)
_U6 = np.uint64(6)  # word index shift (p >> 6 == p // 64)
_M63 = np.uint64(63)


def hdrf_chunk(u, v, k, nw, lam, eps, loads, degree, words, out):
    """HDRF decision core over one chunk (mutates loads/degree/words)."""
    m = u.shape[0]
    for i in range(m):
        ui = u[i]
        vi = v[i]
        degree[ui] += 1
        degree[vi] += 1
        du = degree[ui]
        dv = degree[vi]
        theta_u = du / (du + dv)
        gu = 1.0 + (1.0 - theta_u)
        gv = 1.0 + theta_u
        max_load = loads[0]
        min_load = loads[0]
        for p in range(1, k):
            if loads[p] > max_load:
                max_load = loads[p]
            if loads[p] < min_load:
                min_load = loads[p]
        scale = lam / (eps + (max_load - min_load))
        base_u = ui * nw
        base_v = vi * nw
        best_p = 0
        best_score = -1e300
        for p in range(k):
            score = scale * (max_load - loads[p])
            pw = np.uint64(p)
            bit = _ONE << (pw & _M63)
            if words[base_u + (p >> 6)] & bit:
                score += gu
            if words[base_v + (p >> 6)] & bit:
                score += gv
            if score > best_score:
                best_score = score
                best_p = p
        out[i] = best_p
        loads[best_p] += 1.0
        bw = np.uint64(best_p)
        bit = _ONE << (bw & _M63)
        words[base_u + (best_p >> 6)] |= bit
        words[base_v + (best_p >> 6)] |= bit


def greedy_chunk(u, v, k, nw, loads, words, out):
    """Greedy decision core over one chunk (mutates loads/words)."""
    m = u.shape[0]
    for i in range(m):
        ui = u[i]
        vi = v[i]
        base_u = ui * nw
        base_v = vi * nw
        any_common = False
        for w in range(nw):
            if words[base_u + w] & words[base_v + w]:
                any_common = True
                break
        # cases 1-3: argmin load over the candidate bits, ascending p with
        # strict < (the (load, id) lexicographic rule); case 4: first
        # least-loaded partition overall
        best_p = -1
        best_l = 0
        for p in range(k):
            pw = np.uint64(p)
            bit = _ONE << (pw & _M63)
            wu = words[base_u + (p >> 6)]
            wv = words[base_v + (p >> 6)]
            member = (wu & wv & bit) if any_common else ((wu | wv) & bit)
            if member:
                lp = loads[p]
                if best_p < 0 or lp < best_l:
                    best_l = lp
                    best_p = p
        if best_p < 0:
            best_p = 0
            best_l = loads[0]
            for p in range(1, k):
                if loads[p] < best_l:
                    best_l = loads[p]
                    best_p = p
        out[i] = best_p
        loads[best_p] += 1
        bw = np.uint64(best_p)
        bit = _ONE << (bw & _M63)
        words[base_u + (best_p >> 6)] |= bit
        words[base_v + (best_p >> 6)] |= bit


def clustering_chunk(
    u, v, vmax, splitting, clu, deg, divided, vol, mirror_v, mirror_c, counters
):
    """Pass-1 allocation/splitting/migration replay over one chunk.

    ``counters``: ``[num_raw, num_mirrors, splits, migrations,
    allocations]``; ``vol`` needs capacity ``num_raw + 4 * m`` and the
    mirror buffers ``2 * m`` (the caller guarantees both).
    """
    m = u.shape[0]
    next_raw = counters[0]
    n_mirrors = counters[1]
    splits = counters[2]
    migrations = counters[3]
    allocations = counters[4]
    for i in range(m):
        ui = u[i]
        vi = v[i]
        # --- allocation ---
        cu = clu[ui]
        if cu == -1:
            cu = next_raw
            next_raw += 1
            vol[cu] = 0
            clu[ui] = cu
            allocations += 1
        cv = clu[vi]
        if cv == -1:
            cv = next_raw
            next_raw += 1
            vol[cv] = 0
            clu[vi] = cv
            allocations += 1
        deg[ui] += 1
        deg[vi] += 1
        vol[cu] += 1
        vol[cv] += 1
        # --- splitting ---
        if splitting and ui != vi:
            du = deg[ui]
            if vol[cu] >= vmax and 1 < du < vmax and not divided[ui]:
                c_new = next_raw
                next_raw += 1
                divided[ui] = 1
                mirror_v[n_mirrors] = ui
                mirror_c[n_mirrors] = cu
                n_mirrors += 1
                vol[cu] -= du
                vol[c_new] = du
                clu[ui] = c_new
                splits += 1
            cv = clu[vi]  # u's split may have lowered vol[cv] when cv == cu
            dv = deg[vi]
            if vol[cv] >= vmax and 1 < dv < vmax and not divided[vi]:
                c_new = next_raw
                next_raw += 1
                divided[vi] = 1
                mirror_v[n_mirrors] = vi
                mirror_c[n_mirrors] = cv
                n_mirrors += 1
                vol[cv] -= dv
                vol[c_new] = dv
                clu[vi] = c_new
                splits += 1
        # --- migration ---
        cu = clu[ui]
        cv = clu[vi]
        if cu != cv and vol[cu] < vmax and vol[cv] < vmax:
            if vol[cu] <= vol[cv]:
                vol[cu] -= deg[ui]
                vol[cv] += deg[ui]
                clu[ui] = cv
            else:
                vol[cv] -= deg[vi]
                vol[cu] += deg[vi]
                clu[vi] = cu
            migrations += 1
    counters[0] = next_raw
    counters[1] = n_mirrors
    counters[2] = splits
    counters[3] = migrations
    counters[4] = allocations


def transform_chunk(u, v, k, vp, divided, deg, loads, caps, counters, check_mapped, out):
    """Pass-3 cap/agreement/mirror/degree replay over one chunk.

    ``counters``: ``[spill_ptr, agreement, mirror_reuse, degree_cut,
    balance_spill]``.  Returns 0 on success, 1 when no underfull
    partition exists (unreachable once caps were validated to hold the
    stream), 2 when ``check_mapped`` is set and an endpoint maps to -1
    (checked up front, before any state mutation).
    """
    m = u.shape[0]
    if check_mapped:
        for i in range(m):
            if vp[u[i]] < 0 or vp[v[i]] < 0:
                return 2
    sp = counters[0]
    agreement = counters[1]
    mirror_reuse = counters[2]
    degree_cut = counters[3]
    balance_spill = counters[4]
    for i in range(m):
        ui = u[i]
        vi = v[i]
        pu = vp[ui]
        pv = vp[vi]
        if loads[pu] >= caps[pu] or loads[pv] >= caps[pv]:
            if loads[pu] < caps[pu]:
                target = pu
            elif loads[pv] < caps[pv]:
                target = pv
            else:
                while loads[sp] >= caps[sp]:
                    sp += 1
                    if sp == k:
                        counters[0] = sp
                        return 1
                target = sp
            balance_spill += 1
        elif pu == pv:
            target = pu
            agreement += 1
        elif divided[ui] and not divided[vi]:
            target = pv  # u already has mirrors: cut u again
            mirror_reuse += 1
        elif divided[vi] and not divided[ui]:
            target = pu
            mirror_reuse += 1
        else:
            # both or neither divided: cut the higher-degree endpoint
            target = pu if deg[vi] > deg[ui] else pv
            degree_cut += 1
        out[i] = target
        loads[target] += 1
    counters[0] = sp
    counters[1] = agreement
    counters[2] = mirror_reuse
    counters[3] = degree_cut
    counters[4] = balance_spill
    return 0


def game_round(
    k, lam_over_k, eps, relaxed,
    indptr, indices, weights, in_indptr, in_indices, in_weights,
    internal, cut_degree,
    assignment, loads, adj, has_adj,
    last_eval, nbr_epoch, inc_epoch, dec_epoch,
    counters, phi, move_log, cost_buf, row_buf,
):
    """One best-response round over every cluster (mutates the game state).

    Transliteration of the in-place cost rewrite in
    ``ClusterPartitioningGame.run``: per cluster the k-vector
    ``(loads + size) * (lam_over_k * size) + (cut_degree - adj_row) * 0.5``
    (current column ``(loads[cur] - size) + size``), first-minimum argmin,
    strict-improvement test against ``eps``, move commit, and the O(deg)
    adjacency-table update.  ``adj`` is the flat ``(m, k)`` table when
    ``has_adj`` is set; otherwise rows are rebuilt on demand from the two
    CSR triples (the over-cap fallback), which changes nothing — the
    table entries are the same integer-valued sums.  A cluster's
    neighbors are its out-row, then its in-row (see ``kernels.c``).

    Skip rules (both decision-preserving, DESIGN.md §10): a cluster whose
    ``last_eval`` equals the move counter has seen zero moves anywhere
    since it last declined; with ``relaxed`` set, a cluster also skips
    when no neighbor moved (``nbr_epoch``), its own partition gained no
    load (``inc_epoch``), and no other partition lost load
    (``dec_epoch``) since its last evaluation — its stay cost can only
    have dropped and every alternative can only have risen.

    O(1) potential maintenance: ``phi`` carries ``[sum(loads^2),
    total_partition_cut]``; each move updates both by the mover's exact
    delta (pre-move loads, pre-move adjacency row), so the caller prices
    ``Phi`` per round without the O(|E|) recompute.

    ``counters``: ``[move_counter]``.  ``move_log`` records ``(cluster,
    target)`` pairs for the round's moves.  ``cost_buf``/``row_buf`` are
    k-sized scratch.  Returns the number of moves committed.
    """
    csrs = ((indptr, indices, weights), (in_indptr, in_indices, in_weights))
    mc = counters[0]
    moves = 0
    for c in range(assignment.shape[0]):
        le = last_eval[c]
        if le == mc:
            continue
        cur = assignment[c]
        if relaxed != 0 and le >= 0 and nbr_epoch[c] <= le and inc_epoch[cur] <= le:
            ok = True
            for p in range(k):
                if p != cur and dec_epoch[p] > le:
                    ok = False
                    break
            if ok:
                # the prior no-move decision provably stands at the
                # current state, so it counts as an evaluation *now*
                last_eval[c] = mc
                continue
        last_eval[c] = mc
        size = internal[c]
        if has_adj != 0:
            base = c * k
            for p in range(k):
                row_buf[p] = adj[base + p]
        else:
            for p in range(k):
                row_buf[p] = 0.0
            for ptr, nbrs, ws in csrs:
                for j in range(ptr[c], ptr[c + 1]):
                    row_buf[assignment[nbrs[j]]] += ws[j]
        a = lam_over_k * size
        best = 0
        best_cost = 0.0
        for p in range(k):
            t = loads[p] + size
            if p == cur:
                t = (loads[cur] - size) + size
            cost = t * a + (cut_degree[c] - row_buf[p]) * 0.5
            cost_buf[p] = cost
            if p == 0 or cost < best_cost:
                best_cost = cost
                best = p
        if best_cost < cost_buf[cur] - eps:
            l_cur = loads[cur]
            l_best = loads[best]
            phi[0] += (l_cur - size) * (l_cur - size) - l_cur * l_cur
            phi[0] += (l_best + size) * (l_best + size) - l_best * l_best
            phi[1] += row_buf[cur] - row_buf[best]
            loads[cur] = l_cur - size
            loads[best] = l_best + size
            assignment[c] = best
            mc += 1
            for ptr, nbrs, ws in csrs:
                for j in range(ptr[c], ptr[c + 1]):
                    nb = nbrs[j]
                    if has_adj != 0:
                        adj[nb * k + cur] -= ws[j]
                        adj[nb * k + best] += ws[j]
                    nbr_epoch[nb] = mc
            dec_epoch[cur] = mc
            inc_epoch[best] = mc
            move_log[2 * moves] = c
            move_log[2 * moves + 1] = best
            moves += 1
            last_eval[c] = -1  # movers are always re-evaluated
    counters[0] = mc
    return moves


def game_cost_rows(
    start, stop, k, lam_over_k,
    indptr, indices, weights, in_indptr, in_indices, in_weights,
    internal, cut_degree,
    assignment, loads, out,
):
    """Cost rows of clusters ``[start, stop)`` against a frozen state.

    Compiled form of ``ClusterPartitioningGame.batch_cost_matrix`` —
    ``out`` is the flat ``(stop - start, k)`` cost matrix, bit-identical
    to the numpy path (same per-element IEEE op sequence; the adjacency
    accumulation is an integer sum, exact in any order).
    """
    csrs = ((indptr, indices, weights), (in_indptr, in_indices, in_weights))
    for c in range(start, stop):
        base = (c - start) * k
        for p in range(k):
            out[base + p] = 0.0
        for ptr, nbrs, ws in csrs:
            for j in range(ptr[c], ptr[c + 1]):
                out[base + assignment[nbrs[j]]] += ws[j]
        size = internal[c]
        a = lam_over_k * size
        cur = assignment[c]
        for p in range(k):
            t = loads[p] + size
            if p == cur:
                t = (loads[cur] - size) + size
            out[base + p] = t * a + (cut_degree[c] - out[base + p]) * 0.5


# ---------------------------------------------------------------------- #
# fused take-and-combine: the walks of a dense GAS superstep
# ---------------------------------------------------------------------- #
#
# ``out[dst[i]] (+)= table[src[i]]`` for ``i`` ascending — ufunc.at's own
# sequential fold order, so float sums keep their bits.  ``out`` and
# ``table`` may be the same array.  Each returns the first row whose
# index is out of range (the rows before it are applied, none after it),
# or -1.


def take_add_f64(dst, src, table, out):
    """``np.add.at(out, dst, table[src])`` without the temporary."""
    n_out = out.shape[0]
    n_table = table.shape[0]
    for i in range(dst.shape[0]):
        d = dst[i]
        s = src[i]
        if d < 0 or d >= n_out or s < 0 or s >= n_table:
            return i
        out[d] = out[d] + table[s]
    return -1


def take_min_f64(dst, src, table, out):
    """``np.minimum.at(out, dst, table[src])`` on float64, np.minimum's
    NaN rule included: a NaN accumulator stays, a NaN addend lands."""
    n_out = out.shape[0]
    n_table = table.shape[0]
    for i in range(dst.shape[0]):
        d = dst[i]
        s = src[i]
        if d < 0 or d >= n_out or s < 0 or s >= n_table:
            return i
        x = table[s]
        o = out[d]
        if not (o < x) and o == o:
            out[d] = x
    return -1


def take_min_i64(dst, src, table, out):
    """``np.minimum.at(out, dst, table[src])`` on int64."""
    n_out = out.shape[0]
    n_table = table.shape[0]
    for i in range(dst.shape[0]):
        d = dst[i]
        s = src[i]
        if d < 0 or d >= n_out or s < 0 or s >= n_table:
            return i
        x = table[s]
        if x < out[d]:
            out[d] = x
    return -1


def take_put_i64(dst, src, table, out):
    """``out[dst] = table[src]`` for any 8-byte item viewed as int64."""
    n_out = out.shape[0]
    n_table = table.shape[0]
    for i in range(dst.shape[0]):
        d = dst[i]
        s = src[i]
        if d < 0 or d >= n_out or s < 0 or s >= n_table:
            return i
        out[d] = table[s]
    return -1


def slot_index(
    src, dst, part, n, k,
    edge_ids, edge_indptr, src_slot, dst_slot,
    vertices, part_indptr, master, replica_counts,
    is_master, master_slots, mirror_slot, master_slot, mirror_indptr,
    master_order, master_indptr,
    slot_of, words, sizes,
):
    """The flat replica-slot index of a vertex-cut assignment in counting
    passes — ``build_placement`` + the numpy ``build_local_index`` without
    a sort (``kernels.c`` has the pass-by-pass account).

    Every output is written in full; the per-slot arrays need capacity
    ``2 * m`` (``master_order`` holds the per-slot counts until the last
    pass) and ``sizes`` receives ``[slots, masters]``; ``slot_of`` (``n``)
    and ``words`` (``ceil(n / 64)``) are scratch.  Returns the
    first row whose partition id or endpoint is out of range, before
    anything is written, or -1.
    """
    m = src.shape[0]
    count = master_order
    for i in range(m):
        if part[i] < 0 or part[i] >= k or src[i] < 0 or src[i] >= n or dst[i] < 0 or dst[i] >= n:
            return i
    # 1: stable counting sort of the edges by partition; indptr[p + 1]
    # holds p's count, then p's start, then (bumped per edge) p's end
    for p in range(k + 1):
        edge_indptr[p] = 0
    for i in range(m):
        edge_indptr[part[i] + 1] += 1
    run = 0
    for p in range(k):
        c = edge_indptr[p + 1]
        edge_indptr[p + 1] = run
        run += c
    for i in range(m):
        at = edge_indptr[part[i] + 1]
        edge_indptr[part[i] + 1] = at + 1
        edge_ids[at] = i
        src_slot[at] = src[i]
        dst_slot[at] = dst[i]
    # 2: slots partition by partition, from a bitmap over the partition's
    # own word range read in ascending order; endpoints rewritten to slots
    nw = (n + 63) >> 6
    for w in range(nw):
        words[w] = 0
    slots = 0
    part_indptr[0] = 0
    for p in range(k):
        lo = edge_indptr[p]
        hi = edge_indptr[p + 1]
        w_lo = nw
        w_hi = -1
        # from both ends at once, as kernels.c (which says why); the
        # middle edge of an odd range is marked twice
        j = lo
        t = hi - 1
        while j <= t:
            for x in (src_slot[j], src_slot[t], dst_slot[j], dst_slot[t]):
                words[x >> 6] |= _ONE << (np.uint64(x) & _M63)
                w_lo = min(w_lo, x >> 6)
                w_hi = max(w_hi, x >> 6)
            j += 1
            t -= 1
        for w in range(w_lo, w_hi + 1):
            bits = words[w]
            words[w] = 0
            v = w << 6
            while bits:
                if bits & _ONE:
                    vertices[slots] = v
                    slot_of[v] = slots
                    count[slots] = 0
                    slots += 1
                bits >>= _ONE
                v += 1
        part_indptr[p + 1] = slots
        for j in range(lo, hi):
            s = slot_of[src_slot[j]]
            d = slot_of[dst_slot[j]]
            src_slot[j] = s
            dst_slot[j] = d
            count[s] += 1
            count[d] += 1
    # 3: masters — strict > over the slots in pid order keeps the first
    # maximal count; slot_of now maps a vertex to its master's slot
    for v in range(n):
        master[v] = -1
        replica_counts[v] = 0
    for p in range(k):
        for s in range(part_indptr[p], part_indptr[p + 1]):
            v = vertices[s]
            replica_counts[v] += 1
            if master[v] < 0 or count[s] > count[slot_of[v]]:
                master[v] = p
                slot_of[v] = s
    # 4: masters and mirror rows in slot order
    masters = 0
    rows = 0
    for p in range(k + 1):
        master_indptr[p] = 0
    for p in range(k):
        mirror_indptr[p] = rows
        for s in range(part_indptr[p], part_indptr[p + 1]):
            v = vertices[s]
            if slot_of[v] == s:
                is_master[s] = True
                master_slots[masters] = s
                masters += 1
            else:
                is_master[s] = False
                mirror_slot[rows] = s
                master_slot[rows] = slot_of[v]
                master_indptr[master[v] + 1] += 1
                rows += 1
    mirror_indptr[k] = rows
    # 5: rows stably grouped by master partition, as in pass 1
    run = 0
    for p in range(k):
        c = master_indptr[p + 1]
        master_indptr[p + 1] = run
        run += c
    for r in range(rows):
        p = master[vertices[mirror_slot[r]]]
        at = master_indptr[p + 1]
        master_indptr[p + 1] = at + 1
        master_order[at] = r
    sizes[0] = slots
    sizes[1] = masters
    return -1


def checked_take(kernel):
    """The numpy-level form of a take kernel (not itself compiled).

    ``kernel(dst, src, table, out)`` returns its first bad row or -1;
    the returned function raises that row as the ``IndexError``
    ``ufunc.at`` raises for it.  Unlike ``ufunc.at`` it rejects negative
    indices too, and the rows before the bad one have been applied.
    """

    def take(dst, src, table, out) -> None:
        if dst.shape != src.shape:
            raise ValueError(
                f"dst and src must pair up row by row, got shapes "
                f"{dst.shape} and {src.shape}"
            )
        row = kernel(dst, src, table, out)
        if row >= 0:
            raise IndexError(
                f"row {row}: dst {dst[row]} / src {src[row]} out of bounds "
                f"for sizes {out.shape[0]} / {table.shape[0]}"
            )

    return take
