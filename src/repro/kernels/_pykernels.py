"""The ``"python"`` kernel tier: what a host without a C compiler runs.

One plain-Python function per :data:`repro.kernels.KERNELS` row, under
the row's name, taking the row's arguments minus its ``len(...)`` ones;
the ``"python"`` backend binds these after the same argument checks as
the C tier.  Each computes exactly what its ``kernels.c`` twin computes
— both implement the per-edge oracle (``streaming_clustering``, the
partitioners' ``_per_edge``, ``best_response_dynamics``,
``transform_partitions``), and the differential tests compare both
tiers against it — but in whatever form numpy runs fastest:

* the sequential cores (HDRF, greedy, pass 1, pass 3) are list loops
  over the chunk: state goes in with ``tolist()`` and comes back by
  slice assignment; a vertex's uint64 mask words become one Python int
  (``int.from_bytes``) for the chunk, and HDRF's partial degrees and
  pass 3's rule table are precomputed for the whole chunk;
* the game scores one cluster as a numpy ``k``-vector, with the C
  kernel's epoch skip rule and maintained potential;
* the cluster-graph grouping is the sort-based numpy group-by:
  gathered labels packed per chunk, then one run-length encode;
* the take walks and :func:`slot_index` are vectorized over the rows
  before the first bad one (the rows they index with are caller data:
  they return that row, -1 for none, which :func:`checked_take` raises
  as ``IndexError``).

Conventions shared with the C kernels: HDRF's and Greedy's vertex
partition sets are flat multiword uint64 bitmask rows (``nw = ceil(k /
64)`` words per vertex, vertex ``x`` owns ``words[x * nw : (x + 1) *
nw]``), pass 3's replica summaries one uint64 word per vertex; counters
cross the boundary in small int64 arrays so one signature fits both
tiers.
"""

from __future__ import annotations

import numpy as np

from .._util import (
    adjacency_rows,
    first_max_partition,
    group_by_bounded,
    occurrence_ranks,
    replica_routes,
    row_pointers,
    run_starts,
    stable_argsort_bounded,
    vertex_partition_pairs,
)

__all__ = [
    "hdrf_chunk",
    "greedy_chunk",
    "clustering_chunk",
    "transform_chunk",
    "game_round",
    "pack_pairs_i32",
    "pack_pairs_i64",
    "group_keys_i32",
    "group_keys_i64",
    "take_add_f64",
    "take_min_f64",
    "take_min_i64",
    "take_put_i64",
    "checked_take",
    "slot_index",
]


def _local_ids(u, v, n):
    """The chunk's distinct vertices, ascending, and each endpoint's
    position among them (as lists): O(n) numpy, O(m) Python."""
    mark = np.zeros(n, dtype=bool)
    mark[u] = True
    mark[v] = True
    local = np.cumsum(mark) - 1
    return np.flatnonzero(mark), local[u].tolist(), local[v].tolist()


def _sets_in(u, v, words, nw):
    """The chunk's vertices as local ids: ``(vertices, local u, local v,
    sets)``, ``sets[i]`` the partition set of ``vertices[i]`` as one
    Python int (bit ``p`` = partition ``p``)."""
    vertices, lu, lv = _local_ids(u, v, words.shape[0] // nw)
    rows = words.reshape(-1, nw)[vertices]
    if nw == 1:
        sets = rows[:, 0].tolist()
    else:
        raw = rows.astype("<u8", copy=False).tobytes()
        step = 8 * nw
        sets = [int.from_bytes(raw[i : i + step], "little") for i in range(0, len(raw), step)]
    return vertices, lu, lv, sets


def _sets_out(words, nw, vertices, sets) -> None:
    """Write the chunk's partition sets back as mask words."""
    if nw == 1:
        words[vertices] = np.array(sets, dtype=np.uint64)
        return
    raw = b"".join(s.to_bytes(8 * nw, "little") for s in sets)
    words.reshape(-1, nw)[vertices] = np.frombuffer(raw, dtype="<u8").reshape(-1, nw)


_INF = float("inf")


def hdrf_chunk(u, v, k, nw, lam, eps, loads, degree, words, out):
    """HDRF decision core over one chunk (mutates loads/degree/words).

    The partial degrees are the only per-edge state independent of the
    placements, so the chunk's ``g`` terms are computed up front from
    within-chunk occurrence ranks; each edge then scores only the members
    of ``A(u) | A(v)`` and falls back to the full k-scan only when a
    non-member's balance score could tie or beat them (DESIGN.md §4.2).
    """
    m = u.shape[0]
    if m == 0:
        return
    rank_u, rank_v = occurrence_ranks(u, v, degree.shape[0])
    du = degree[u] + rank_u
    dv = degree[v] + rank_v
    theta_u = du / (du + dv)
    gu_list = (1.0 + (1.0 - theta_u)).tolist()
    gv_list = (1.0 + theta_u).tolist()
    vertices, lu, lv, sets = _sets_in(u, v, words, nw)
    loads_l = loads.tolist()
    picks = [0] * m
    max_load = max(loads_l)
    min_load = min(loads_l)
    nmin = loads_l.count(min_load)
    first_min = loads_l.index(min_load)
    for i in range(m):
        a = lu[i]
        b = lv[i]
        gu = gu_list[i]
        gv = gv_list[i]
        wu = sets[a]
        wv = sets[b]
        scale = lam / (eps + (max_load - min_load))
        w = wu | wv
        p = -1
        if scale != _INF:
            # (an infinite scale, lam / eps overflowed, makes inf * 0 a nan
            # score: the bound below fails and only the k-scan is exact)
            if w:
                # score only the member partitions; ascending bit order
                # and strict > keep the reference's first-maximum
                # tie-break
                best_s = 0.0
                while w:
                    bit = w & -w
                    q = bit.bit_length() - 1
                    w ^= bit
                    sc = scale * (max_load - loads_l[q])
                    if (wu >> q) & 1:
                        sc += gu
                    if (wv >> q) & 1:
                        sc += gv
                    if sc > best_s:
                        best_s = sc
                        p = q
                if not best_s > scale * (max_load - min_load):
                    # a non-member's pure balance score could tie or beat
                    # the best member
                    p = -1
            elif scale > 0.0:
                # no members: the argmax is the first least-loaded partition
                p = first_min
            else:
                # lambda_bal == 0: every score is +0.0, the first one wins
                p = 0
        if p < 0:
            # the exact k-scan
            p = 0
            best_s = -1e300
            for q in range(k):
                sc = scale * (max_load - loads_l[q])
                if (wu >> q) & 1:
                    sc += gu
                if (wv >> q) & 1:
                    sc += gv
                if sc > best_s:
                    best_s = sc
                    p = q
        picks[i] = p
        old = loads_l[p]
        new = old + 1.0
        loads_l[p] = new
        if new > max_load:
            max_load = new
        if old == min_load:
            nmin -= 1
            if nmin == 0:
                min_load = min(loads_l)
                nmin = loads_l.count(min_load)
                first_min = loads_l.index(min_load)
            elif p == first_min:
                # every partition before first_min is above the min, and
                # another still holds it: the next one at the min is first
                first_min = loads_l.index(min_load, p + 1)
        bit = 1 << p
        sets[a] = wu | bit
        sets[b] = wv | bit
    out[:] = picks
    loads[:] = loads_l
    _sets_out(words, nw, vertices, sets)
    np.add.at(degree, u, 1)
    np.add.at(degree, v, 1)


def _least_loaded(cand, loads_l):
    """The least-loaded partition among ``cand``'s set bits, ties to the
    lowest index (ascending bit order, strict <); -1 when ``cand`` is 0."""
    best_p = -1
    best_l = 0
    while cand:
        bit = cand & -cand
        p = bit.bit_length() - 1
        cand ^= bit
        if best_p < 0 or loads_l[p] < best_l:
            best_l = loads_l[p]
            best_p = p
    return best_p


def greedy_chunk(u, v, k, nw, loads, words, out):
    """Greedy decision core over one chunk (mutates loads/words): the
    least-loaded partition of ``A(u) & A(v)``, else of ``A(u) | A(v)``,
    else of all k, ties to the lowest id."""
    m = u.shape[0]
    if m == 0:
        return
    vertices, lu, lv, sets = _sets_in(u, v, words, nw)
    loads_l = loads.tolist()
    picks = [0] * m
    for i in range(m):
        a = lu[i]
        b = lv[i]
        wu = sets[a]
        wv = sets[b]
        w = wu & wv
        if not w:
            w = wu | wv  # cases 2/3 (either side may be empty)
        p = _least_loaded(w, loads_l)
        if p < 0:
            # case 4: list.index finds the first (lowest-id) minimum
            p = loads_l.index(min(loads_l))
        picks[i] = p
        loads_l[p] += 1
        bit = 1 << p
        sets[a] = wu | bit
        sets[b] = wv | bit
    out[:] = picks
    loads[:] = loads_l
    _sets_out(words, nw, vertices, sets)


def clustering_chunk(u, v, vmax, splitting, clu, deg, divided, vol, counters):
    """Pass-1 allocation/splitting/migration replay over one chunk.

    ``counters``: ``[num_raw, splits, migrations]``; ``vol`` needs
    capacity ``num_raw + 4 * m`` (the caller guarantees it).

    An edge only reads and writes its endpoints' rows and the volumes of
    clusters that held a chunk vertex when the chunk began or were born
    in it, so the loop runs over those rows alone, renumbered: vertices
    by rank among the chunk's, old clusters by rank among theirs, new
    ones after them in birth order — which is the order of their raw ids.
    """
    num_raw, splits, migrations = counters.tolist()
    vertices, us, vs = _local_ids(u, v, clu.shape[0])
    raw = clu[vertices]
    seen = raw >= 0
    held = np.zeros(num_raw, dtype=bool)
    held[raw[seen]] = True
    clusters = np.flatnonzero(held)
    raw[seen] = (np.cumsum(held) - 1)[raw[seen]]
    clu_l = raw.tolist()
    deg_l = deg[vertices].tolist()
    div_l = divided[vertices].tolist()
    vol_l = vol[clusters].tolist()
    vol_append = vol_l.append
    # vcu/vcv shadow vol_l[cui]/vol_l[cvi] through the edge body, so the
    # hot path reads each cluster's volume once; every write keeps the
    # shadow and the list in step
    for ui, vi in zip(us, vs):
        cui = clu_l[ui]
        if cui == -1:
            clu_l[ui] = cui = len(vol_l)
            vol_append(0)
        cvi = clu_l[vi]
        if cvi == -1:
            clu_l[vi] = cvi = len(vol_l)
            vol_append(0)
        du = deg_l[ui] + 1
        deg_l[ui] = du
        dv = deg_l[vi] + 1
        deg_l[vi] = dv
        if cui == cvi:
            vcu = vcv = vol_l[cui] + 2
            vol_l[cui] = vcu
        else:
            vcu = vol_l[cui] + 1
            vol_l[cui] = vcu
            vcv = vol_l[cvi] + 1
            vol_l[cvi] = vcv
        if splitting and ui != vi:
            if vcu >= vmax and 1 < du < vmax and not div_l[ui]:
                div_l[ui] = 1
                vcu -= du
                vol_l[cui] = vcu
                if cvi == cui:
                    vcv = vcu  # u split out of the shared cluster
                clu_l[ui] = cui = len(vol_l)
                vol_append(du)
                vcu = du
                splits += 1
            if vcv >= vmax and 1 < dv < vmax and not div_l[vi]:
                div_l[vi] = 1
                vcv -= dv
                vol_l[cvi] = vcv
                if cui == cvi:
                    vcu = vcv  # v split out of the shared cluster
                clu_l[vi] = cvi = len(vol_l)
                vol_append(dv)
                vcv = dv
                splits += 1
        if cui != cvi and vcu < vmax and vcv < vmax:
            if vcu <= vcv:
                vol_l[cui] = vcu - du
                vol_l[cvi] = vcv + du
                clu_l[ui] = cvi
            else:
                vol_l[cvi] = vcv - dv
                vol_l[cui] = vcu + dv
                clu_l[vi] = cui
            migrations += 1
    born = len(vol_l) - clusters.size
    ids = np.concatenate([clusters, np.arange(num_raw, num_raw + born)])
    clu[vertices] = ids[clu_l]
    deg[vertices] = deg_l
    divided[vertices] = div_l
    vol[ids] = vol_l
    counters[:] = (num_raw + born, splits, migrations)


def _summary_fields(w, width, field):
    """The partitions a k > 64 replica summary word holds, newest first
    (fields of ``width`` bits, ``p + 1`` each, 0 = empty)."""
    out = []
    while w:
        out.append((w & field) - 1)
        w >>= width
    return out


def _summary_spill(su, sv, width, field, loads_l, caps_l):
    """The least-loaded underfull partition in both summaries (k > 64),
    else in either, ties to the lowest index; -1 when there is none."""
    fu = _summary_fields(su, width, field)
    fv = _summary_fields(sv, width, field)
    for cand in ([p for p in fu if p in fv], fu + fv):
        best = [(loads_l[p], p) for p in cand if loads_l[p] < caps_l[p]]
        if best:
            return min(best)[1]
    return -1


def transform_chunk(
    u, v, k, vp, divided, deg, loads, caps, replicas, counters, check_mapped, out,
):
    """Pass-3 cap/agreement/mirror/degree replay over one chunk.

    ``counters``: ``[spill_ptr, agreement, mirror_reuse, degree_cut,
    balance_spill]``; ``replicas`` holds one summary word per vertex of
    the partitions its edges went to other than its own: for ``k <= 64``
    the set (bit ``p``), else the most recent distinct ones, ``p + 1`` per
    field of ``k.bit_length()`` bits, newest lowest.  Returns 0 on
    success, 1 when no underfull partition exists (unreachable once caps
    were validated to hold the stream), 2 when ``check_mapped`` is set
    and an endpoint maps to -1 (checked up front, before any state
    mutation).

    The rule table (agreement / mirror / degree) does not read the
    loads, so it is evaluated for the whole chunk as masks; the loop
    applies the hard cap and, when both endpoint partitions are full,
    the replica-aware spill (where u and v both are, else where either
    is, least loaded first) before the rotating pointer.
    """
    m = u.shape[0]
    if m == 0:
        return 0
    pu = vp[u]
    pv = vp[v]
    if check_mapped and (int(pu.min()) < 0 or int(pv.min()) < 0):
        return 2
    agree = pu == pv
    du = divided[u].view(np.bool_)
    dv = divided[v].view(np.bool_)
    mirror = du ^ dv  # exactly one endpoint already has mirrors
    mirror_u = du & mirror  # u is cut again: the edge follows v
    deg_to_u = deg[v] > deg[u]  # cut u (ties cut v): target pu
    take_pu = agree | (mirror & ~mirror_u) | (~mirror & deg_to_u)
    tentative = np.where(take_pu, pu, pv).tolist()
    rule = np.full(m, 2, dtype=np.int64)
    rule[mirror] = 1
    rule[agree] = 0
    rule_l = rule.tolist()
    pu_l = pu.tolist()
    pv_l = pv.tolist()
    caps_l = caps.tolist()
    loads_l = loads.tolist()
    vertices, lu, lv, sets = _sets_in(u, v, replicas, 1)
    exact = k <= 64
    width = int(k).bit_length()
    field = (1 << width) - 1
    keep = (1 << (64 // width * width)) - 1
    under = sum(1 << p for p in range(k) if loads_l[p] < caps_l[p]) if exact else 0
    sp, agreement, mirror_reuse, degree_cut, balance_spill = counters.tolist()
    out_l = [0] * m
    for i in range(m):
        p_u = pu_l[i]
        p_v = pv_l[i]
        a = lu[i]
        b = lv[i]
        if loads_l[p_u] < caps_l[p_u] and loads_l[p_v] < caps_l[p_v]:
            target = tentative[i]
            rc = rule_l[i]
            if rc == 0:
                agreement += 1
            elif rc == 1:
                mirror_reuse += 1
            else:
                degree_cut += 1
        else:
            if loads_l[p_u] < caps_l[p_u]:
                target = p_u
            elif loads_l[p_v] < caps_l[p_v]:
                target = p_v
            else:
                if exact:
                    w = sets[a] & sets[b] & under
                    target = _least_loaded(w or (sets[a] | sets[b]) & under, loads_l)
                else:
                    target = _summary_spill(sets[a], sets[b], width, field, loads_l, caps_l)
                if target < 0:
                    while loads_l[sp] >= caps_l[sp]:
                        sp += 1
                        if sp == k:
                            counters[0] = sp
                            return 1
                    target = sp
            balance_spill += 1
        out_l[i] = target
        bit = 1 << target
        if exact:
            if target != p_u:
                sets[a] |= bit
            if target != p_v:
                sets[b] |= bit
        else:
            for x, p_x in ((a, p_u), (b, p_v)):
                if target != p_x and target not in _summary_fields(sets[x], width, field):
                    sets[x] = (sets[x] << width | target + 1) & keep
        loads_l[target] += 1
        if loads_l[target] >= caps_l[target]:
            under &= ~bit
    out[:] = out_l
    loads[:] = loads_l
    _sets_out(replicas, 1, vertices, sets)
    counters[:] = (sp, agreement, mirror_reuse, degree_cut, balance_spill)
    return 0


#: cap on the (m, k) float64 table one :func:`game_round` call builds
#: (8 bytes per cell); larger games rebuild each evaluated row instead
_ROW_TABLE_MAX_CELLS = 1 << 26


def game_round(
    k, lam_over_k, eps,
    indptr, indices, weights, in_indptr, in_indices, in_weights,
    internal, cut_degree,
    assignment, loads,
    last_eval, nbr_epoch, inc_epoch, dec_epoch,
    counters, phi, move_log, cost_buf, row_buf,
):
    """One best-response round over every cluster (mutates the game state).

    Per cluster the k-vector ``(loads + size) * (lam_over_k * size) +
    (cut_degree - adj_row) * 0.5`` (current column ``(loads[cur] - size)
    + size``), first-minimum argmin, strict-improvement test against
    ``eps``, and the move commit.  While ``m * k`` fits
    :data:`_ROW_TABLE_MAX_CELLS` the adjacency rows come from one
    ``(m, k)`` table built from the two CSR triples for this call and
    updated per move; past it each evaluated row is rebuilt from the CSRs,
    as the C kernel always does — the same integer-valued sums either way.

    Skip rules (both decision-preserving for ``lam_over_k >= 0``, DESIGN.md
    §10): a cluster whose ``last_eval`` equals the move counter has seen
    zero moves anywhere since it last declined; a cluster also skips
    when no neighbor moved (``nbr_epoch``), its own partition gained no
    load (``inc_epoch``), and no other partition lost load
    (``dec_epoch``) since its last evaluation.  The latest and the
    runner-up ``dec_epoch`` make that last test O(1): the partition a
    move drains takes the move counter, larger than every epoch before.

    ``phi`` carries ``[sum(loads^2), total_partition_cut]``, updated per
    move by the mover's exact delta.  ``counters``: ``[move_counter]``;
    ``move_log`` records ``(cluster, target)`` pairs.  ``cost_buf`` and
    ``row_buf`` are the C kernel's scratch.  Returns the number of moves.
    """
    csrs = ((indptr, indices, weights), (in_indptr, in_indices, in_weights))
    m = assignment.shape[0]
    table = (
        adjacency_rows(0, m, k, assignment, csrs)
        if m * k <= _ROW_TABLE_MAX_CELLS else None
    )
    mc = int(counters[0])
    last = last_eval.tolist()
    cur_of = assignment.tolist()
    inc = inc_epoch.tolist()
    dec = dec_epoch.tolist()
    top_p = int(np.argmax(dec_epoch))
    top = dec[top_p]
    second = max(dec[:top_p] + dec[top_p + 1 :], default=-1)
    # float64 as the C kernel reads them (exact below 2**53)
    sizes = internal.astype(np.float64).tolist()
    cuts = cut_degree.astype(np.float64).tolist()
    s_loads, s_cut = phi.tolist()
    log: list[int] = []
    for c in range(len(cur_of)):
        le = last[c]
        if le == mc:
            continue
        cur = cur_of[c]
        if (
            le >= 0 and nbr_epoch[c] <= le and inc[cur] <= le
            and (top if top_p != cur else second) <= le
        ):
            # the prior no-move decision provably stands at the current
            # state, so it counts as an evaluation *now*
            last[c] = mc
            continue
        last[c] = mc
        size = sizes[c]
        row = table[c] if table is not None else adjacency_rows(c, c + 1, k, assignment, csrs)[0]
        costs = loads + size
        costs[cur] = (loads[cur] - size) + size
        costs *= lam_over_k * size
        cut = cuts[c] - row
        cut *= 0.5
        costs += cut
        best = int(costs.argmin())
        if costs[best] < costs[cur] - eps:
            l_cur = float(loads[cur])
            l_best = float(loads[best])
            s_loads += (l_cur - size) * (l_cur - size) - l_cur * l_cur
            s_loads += (l_best + size) * (l_best + size) - l_best * l_best
            s_cut += float(row[cur]) - float(row[best])
            loads[cur] = l_cur - size
            loads[best] = l_best + size
            assignment[c] = cur_of[c] = best
            mc += 1
            for ptr, nbrs, ws in csrs:
                lo, hi = ptr[c], ptr[c + 1]
                if lo != hi:
                    nb = nbrs[lo:hi]
                    if table is not None:
                        table[nb, cur] -= ws[lo:hi]
                        table[nb, best] += ws[lo:hi]
                    nbr_epoch[nb] = mc
            dec[cur] = mc
            if cur == top_p:
                top = mc
            else:
                top_p, top, second = cur, mc, top
            inc[best] = mc
            log += (c, best)
            last[c] = -1  # movers are always re-evaluated
    last_eval[:] = last
    inc_epoch[:] = inc
    dec_epoch[:] = dec
    counters[0] = mc
    phi[:] = (s_loads, s_cut)
    move_log[: len(log)] = log
    return len(log) // 2


# ---------------------------------------------------------------------- #
# pass 2 input: the cluster graph grouped from one key column
# ---------------------------------------------------------------------- #


def _below(col, top) -> np.ndarray:
    """``0 <= col < top`` per entry of an int64 column, as one compare."""
    return col.view(np.uint64) < np.uint64(max(top, 0))


def pack_pairs_i64(u, v, label, m, keys):
    """``keys[i] = label[u[i]] * m + label[v[i]]`` for one chunk; the first
    row whose endpoint ``label`` cannot index or whose label lies outside
    ``[0, m)``, or -1."""
    if u.shape[0] == 0:
        return -1
    n = label.shape[0]
    if max(u.view(np.uint64).max(), v.view(np.uint64).max()) < n:
        cu = label[u]
        cv = label[v]
        if max(cu.view(np.uint64).max(), cv.view(np.uint64).max()) < m:
            cu *= m
            cu += cv
            keys[:] = cu
            return -1
    ends = _below(u, n) & _below(v, n)
    ok = ends.copy()
    ok[ends] = _below(label[u[ends]], m) & _below(label[v[ends]], m)
    return int(ok.argmin())


pack_pairs_i32 = pack_pairs_i64


def group_keys_i64(keys, m, internal, indptr, in_indptr, indices, weights, in_indices, in_weights):
    """The sorted key column grouped, in the C kernel's two calls: with
    empty pair arrays ``internal`` and the out- and in-CSR row pointers,
    else the out-CSR and the in-CSR pairs (rows ascending within a
    column).  Returns the pair count; -1 when a key lies outside
    ``[0, m * m)``, the keys are not sorted, or the pairs do not fit."""
    starts = run_starts(keys)
    ukeys = keys[starts].astype(np.int64)
    if ukeys.size and (
        not _below(ukeys, m * m).all() or (ukeys[1:] <= ukeys[:-1]).any()
    ):
        return -1
    rows, cols = np.divmod(ukeys, max(m, 1))
    counts = np.diff(starts, append=keys.size)
    off = rows != cols
    cap = indices.shape[0]
    if cap == 0:
        internal[:] = 0
        internal[rows[~off]] = counts[~off]
        indptr[:] = row_pointers(rows[off], m)
        in_indptr[:] = row_pointers(cols[off], m)
        return int(off.sum())
    rows, cols, counts = rows[off], cols[off], counts[off]
    pairs = rows.size
    if pairs > cap:
        return -1
    by_col = stable_argsort_bounded(cols, max(m, 1))
    indices[:pairs] = cols
    weights[:pairs] = counts
    in_indices[:pairs] = rows[by_col]
    in_weights[:pairs] = counts[by_col]
    return pairs


group_keys_i32 = group_keys_i64


# ---------------------------------------------------------------------- #
# fused take-and-combine: the walks of a dense GAS superstep
# ---------------------------------------------------------------------- #
#
# ``out[dst[i]] (+)= table[src[i]]`` for ``i`` ascending — ufunc.at's own
# sequential fold order, so float sums keep their bits.  ``out`` and
# ``table`` may be the same array when the dst and src index sets are
# disjoint.  Each returns the first row whose index is out of range (the
# rows before it are applied, none after it), or -1.


def _valid_rows(dst, src, table, out) -> tuple[int, int]:
    """``(rows to apply, first bad row or -1)`` of a take walk."""
    m = dst.shape[0]
    if m == 0 or (
        dst.min() >= 0 and dst.max() < out.shape[0]
        and src.min() >= 0 and src.max() < table.shape[0]
    ):
        return m, -1
    bad = (dst < 0) | (dst >= out.shape[0]) | (src < 0) | (src >= table.shape[0])
    row = int(bad.argmax())
    return row, row


def take_add_f64(dst, src, table, out):
    """``np.add.at(out, dst, table[src])``."""
    rows, bad = _valid_rows(dst, src, table, out)
    np.add.at(out, dst[:rows], table[src[:rows]])
    return bad


def take_min_f64(dst, src, table, out):
    """``np.minimum.at(out, dst, table[src])`` on float64 (a NaN
    accumulator stays, a NaN addend lands)."""
    rows, bad = _valid_rows(dst, src, table, out)
    np.minimum.at(out, dst[:rows], table[src[:rows]])
    return bad


def take_min_i64(dst, src, table, out):
    """``np.minimum.at(out, dst, table[src])`` on int64."""
    rows, bad = _valid_rows(dst, src, table, out)
    np.minimum.at(out, dst[:rows], table[src[:rows]])
    return bad


def take_put_i64(dst, src, table, out):
    """``out[dst] = table[src]`` for any 8-byte item viewed as int64."""
    rows, bad = _valid_rows(dst, src, table, out)
    out[dst[:rows]] = table[src[:rows]]
    return bad


def slot_index(
    src, dst, part, n, k,
    edge_ids, edge_indptr, src_slot, dst_slot,
    vertices, part_indptr, master, replica_counts,
    is_master, master_slots, mirror_slot, master_slot, mirror_indptr,
    slot_of, words, sizes,
):
    """The flat replica-slot index of a vertex-cut assignment, built by
    sorting: the (vertex, partition) replica table regrouped by partition
    numbers the slots, each grouped edge's endpoints find their slots by
    one ``searchsorted`` over the slots' (partition, vertex) keys, and
    the masters are each vertex's first maximal incidence count.

    Every output is written in full (the per-slot arrays hold ``2 * m``;
    ``sizes`` receives ``[slots, masters]``; ``slot_of`` and ``words``
    are the C kernel's scratch).  Returns the first row whose partition id
    or endpoint is out of range, before anything is written, or -1.
    """
    bad = (part < 0) | (part >= k) | (src < 0) | (src >= n) | (dst < 0) | (dst >= n)
    if bad.any():
        return int(bad.argmax())
    edge_ids[:], edge_indptr[:] = group_by_bounded(part, k)
    verts, parts, counts = vertex_partition_pairs(src, dst, part, k)
    replica_counts[:] = np.bincount(verts, minlength=n)
    master[:] = first_max_partition(verts, parts, counts, replica_counts)
    by_part, part_indptr[:] = group_by_bounded(parts, k)
    slots = verts.size
    slot_vertices = verts[by_part]
    vertices[:slots] = slot_vertices
    keys = parts[by_part] * n + slot_vertices
    edge_part = part[edge_ids] * n
    src_slot[:] = np.searchsorted(keys, edge_part + src[edge_ids])
    dst_slot[:] = np.searchsorted(keys, edge_part + dst[edge_ids])
    flags, masters, mirrors, master_of, mirror_ptr = replica_routes(
        slot_vertices, part_indptr, master
    )
    rows = mirrors.size
    is_master[:slots] = flags
    master_slots[: masters.size] = masters
    mirror_slot[:rows] = mirrors
    master_slot[:rows] = master_of
    mirror_indptr[:] = mirror_ptr
    sizes[:] = (slots, masters.size)
    return -1


def checked_take(kernel, typed):
    """The numpy-level form of a take kernel (not itself compiled).

    ``kernel(dst, src, table, out)`` returns its first bad row or -1;
    the returned function raises that row as the ``IndexError``
    ``ufunc.at`` raises for it.  Unlike ``ufunc.at`` it rejects negative
    indices too, and the rows before the bad one have been applied.
    ``typed`` refuses a mistyped argument first, as the kernel's own
    call does, so that ``dst`` and ``src`` are arrays before they are
    paired.
    """

    def take(dst, src, table, out) -> None:
        typed((dst, src, table, out))
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
