/* Scalar decision cores for the chunked streaming partitioners, the
 * grouping of the cluster graph, the fused take-and-combine walks of
 * the GAS runtime, and the build of the runtime's replica-slot index.
 *
 * Each function computes exactly what its Python reference computes (see
 * DESIGN.md section 8 for the bit-identity argument):
 *
 *   hdrf_chunk        <- repro.partitioners.hdrf.HDRFPartitioner._per_edge
 *                        (scoring only the candidates, DESIGN.md s4.2)
 *   greedy_chunk      <- repro.partitioners.greedy.GreedyPartitioner._per_edge
 *   clustering_chunk  <- repro.core.clustering.streaming_clustering
 *   transform_chunk   <- repro.core.transform.transform_partitions
 *                        (generalized to per-partition caps)
 *   game_round        <- repro.core.game.best_response_dynamics
 *                        (one fused best-response round, DESIGN.md s10)
 *   pack_pairs_i32, pack_pairs_i64, group_keys_i32, group_keys_i64
 *                     <- repro.core.cluster_graph.grouped_cluster_graph:
 *                        a chunk's label pairs packed into the key
 *                        column (endpoints and labels checked per row),
 *                        and the sorted column grouped into the two CSRs
 *   take_add_f64, take_min_f64, take_min_i64, take_put_i64
 *                     <- ufunc.at(out, dst, table[src]) / out[dst] =
 *                        table[src]: the index-table walks of a dense
 *                        GAS superstep (repro.system.runtime, DESIGN.md
 *                        s5.3); the only kernels whose indices are
 *                        caller data, hence bounds-checked per row
 *   slot_index        <- repro.system.placement.build_placement +
 *                        the sort-based slot numbering: the whole
 *                        replica-slot index in counting passes, every
 *                        partition id and endpoint checked up front
 *
 * All state crosses the boundary as flat C-contiguous arrays; HDRF's and
 * Greedy's vertex partition sets are multiword uint64 bitmask rows
 * (nw = ceil(k / 64) words per vertex), pass 3's replica summaries one
 * uint64 word per vertex.  Integer kernels are bit-identical by construction;
 * hdrf_chunk keeps every floating-point expression in the reference's
 * evaluation order and must be compiled WITHOUT -ffast-math and with
 * -ffp-contract=off so IEEE double semantics match CPython's exactly.
 *
 * _pykernels.py implements the same references in Python and numpy (the
 * python tier); both tiers are tested against the references.  Every
 * function here is one row of repro.kernels.KERNELS.
 */

#include <stdint.h>

/* ------------------------------------------------------------------ */
/* HDRF: first-maximum argmax over k partitions (Petroni 2015), with  */
/* only A(u) | A(v) and the first least-loaded partition scored       */
/* ------------------------------------------------------------------ */

/* The least load, the first partition holding it (*first) and how many
 * partitions hold it (the return value). */
static int64_t least_load(const double *loads, int64_t k, double *min_load, int64_t *first)
{
    double lo = loads[0];
    int64_t at = 0, count = 1;
    for (int64_t p = 1; p < k; p++) {
        if (loads[p] < lo) {
            lo = loads[p];
            at = p;
            count = 1;
        } else if (loads[p] == lo) {
            count++;
        }
    }
    *min_load = lo;
    *first = at;
    return count;
}

/* The shortcut is exact by DESIGN.md s4.2: a non-member's score is pure
 * balance, scale*(max - L_p) <= scale*(max - min), and that bound is
 * reached first at the first least-loaded partition.  So a best member
 * strictly above the bound wins; otherwise the exact k-scan decides.
 * Loads are whole numbers that only grow: max is a running max, and
 * the min (with its first partition and its count) is rescanned only
 * when its last partition leaves it.  An infinite scale (lam / eps
 * overflowed) makes inf * 0 a NaN score, which breaks the bound, so it
 * takes the k-scan too. */
void hdrf_chunk(
    const int64_t *u, const int64_t *v, int64_t m,
    int64_t k, int64_t nw,
    double lam, double eps,
    double *loads, int64_t *degree, uint64_t *words,
    int64_t *out)
{
    double max_load = loads[0];
    for (int64_t p = 1; p < k; p++) {
        if (loads[p] > max_load) max_load = loads[p];
    }
    double min_load;
    int64_t first_min;
    int64_t nmin = least_load(loads, k, &min_load, &first_min);
    for (int64_t i = 0; i < m; i++) {
        int64_t ui = u[i];
        int64_t vi = v[i];
        degree[ui] += 1;
        degree[vi] += 1;
        double du = (double)degree[ui];
        double dv = (double)degree[vi];
        double theta_u = du / (du + dv);
        double gu = 1.0 + (1.0 - theta_u);
        double gv = 1.0 + theta_u;
        double scale = lam / (eps + (max_load - min_load));
        const uint64_t *wu = words + ui * nw;
        const uint64_t *wv = words + vi * nw;
        int64_t best_p = -1;
        if (__builtin_isfinite(scale)) {
            /* the members in ascending order; strict > keeps the
             * reference's first maximum */
            double best_s = 0.0;
            uint64_t any = 0;
            for (int64_t w = 0; w < nw; w++) {
                uint64_t a = wu[w], b = wv[w], cand = a | b;
                any |= cand;
                while (cand) {
                    int c = __builtin_ctzll(cand);
                    cand &= cand - 1;
                    int64_t p = (w << 6) + c;
                    double score = scale * (max_load - loads[p]);
                    if ((a >> c) & 1) score += gu;
                    if ((b >> c) & 1) score += gv;
                    if (score > best_s) {
                        best_s = score;
                        best_p = p;
                    }
                }
            }
            if (!any) {
                /* no members: balance alone, first least-loaded; with
                 * lam = 0 every score is +0.0 and partition 0 wins */
                best_p = scale > 0.0 ? first_min : 0;
            } else if (!(best_s > scale * (max_load - min_load))) {
                best_p = -1;
            }
        }
        if (best_p < 0) {
            double best_score = -1e300;
            best_p = 0;
            for (int64_t p = 0; p < k; p++) {
                double score = scale * (max_load - loads[p]);
                uint64_t bit = 1ULL << (p & 63);
                if (wu[p >> 6] & bit) score += gu;
                if (wv[p >> 6] & bit) score += gv;
                if (score > best_score) {
                    best_score = score;
                    best_p = p;
                }
            }
        }
        out[i] = best_p;
        double old = loads[best_p];
        loads[best_p] = old + 1.0;
        if (old + 1.0 > max_load) max_load = old + 1.0;
        if (old == min_load) {
            if (--nmin == 0) {
                nmin = least_load(loads, k, &min_load, &first_min);
            } else if (best_p == first_min) {
                /* every partition before first_min is above the min,
                 * and another one is still at it */
                do first_min++; while (loads[first_min] != min_load);
            }
        }
        uint64_t bit = 1ULL << (best_p & 63);
        words[ui * nw + (best_p >> 6)] |= bit;
        words[vi * nw + (best_p >> 6)] |= bit;
    }
}

/* ------------------------------------------------------------------ */
/* Greedy: PowerGraph coordinated placement (Gonzalez 2012)           */
/* ------------------------------------------------------------------ */

/* Fold the set bits of cand -- partitions base .. base + 63 -- into the
 * running least-loaded pick (*best_p, *best_l): ascending bits with a
 * strict < keep the lowest index on ties.  The min is written as
 * selects so it compiles to conditional moves: the comparison is
 * unpredictable.  Shared by greedy_chunk and pass 3's spill. */
static inline void least_loaded_bits(
    uint64_t cand, int64_t base, const int64_t *loads,
    int64_t *best_p, int64_t *best_l)
{
    int64_t bp = *best_p;
    int64_t bl = *best_l;
    while (cand) {
        int64_t p = base + __builtin_ctzll(cand);
        cand &= cand - 1;
        int64_t l = loads[p];
        int better = l < bl;
        bl = better ? l : bl;
        bp = better ? p : bp;
    }
    *best_p = bp;
    *best_l = bl;
}

void greedy_chunk(
    const int64_t *u, const int64_t *v, int64_t m,
    int64_t k, int64_t nw,
    int64_t *loads, uint64_t *words,
    int64_t *out)
{
    for (int64_t i = 0; i < m; i++) {
        int64_t ui = u[i];
        int64_t vi = v[i];
        uint64_t *wu = words + ui * nw;
        uint64_t *wv = words + vi * nw;
        /* cases 1-3: candidates = A(u) & A(v), else A(u) | A(v) (either
         * side may be empty); argmin over candidate bits with the
         * (load, id) lexicographic tie-break */
        int64_t best_p = -1;
        int64_t best_l = INT64_MAX;
        int64_t any_common = 0;
        for (int64_t w = 0; w < nw; w++) {
            if (wu[w] & wv[w]) { any_common = 1; break; }
        }
        for (int64_t w = 0; w < nw; w++) {
            uint64_t cand = any_common ? (wu[w] & wv[w]) : (wu[w] | wv[w]);
            least_loaded_bits(cand, w * 64, loads, &best_p, &best_l);
        }
        if (best_p < 0) {
            /* case 4: first least-loaded partition overall */
            best_p = 0;
            best_l = loads[0];
            for (int64_t p = 1; p < k; p++) {
                if (loads[p] < best_l) {
                    best_l = loads[p];
                    best_p = p;
                }
            }
        }
        out[i] = best_p;
        loads[best_p] += 1;
        uint64_t bit = 1ULL << (best_p & 63);
        wu[best_p >> 6] |= bit;
        wv[best_p >> 6] |= bit;
    }
}

/* ------------------------------------------------------------------ */
/* Pass 1: allocation / splitting / migration (Algorithm 2)           */
/* ------------------------------------------------------------------ */

/* counters: [num_raw, splits, migrations]; vol must have capacity
 * >= num_raw + 4 * m. */
void clustering_chunk(
    const int64_t *u, const int64_t *v, int64_t m,
    int64_t vmax, int64_t splitting,
    int64_t *clu, int64_t *deg, uint8_t *divided,
    int64_t *vol, int64_t *counters)
{
    int64_t next_raw = counters[0];
    int64_t splits = counters[1];
    int64_t migrations = counters[2];
    for (int64_t i = 0; i < m; i++) {
        int64_t ui = u[i];
        int64_t vi = v[i];
        /* --- allocation --- */
        int64_t cu = clu[ui];
        if (cu == -1) {
            cu = next_raw++;
            vol[cu] = 0;
            clu[ui] = cu;
        }
        int64_t cv = clu[vi];
        if (cv == -1) {
            cv = next_raw++;
            vol[cv] = 0;
            clu[vi] = cv;
        }
        deg[ui] += 1;
        deg[vi] += 1;
        vol[cu] += 1;
        vol[cv] += 1;
        /* --- splitting --- */
        if (splitting && ui != vi) {
            int64_t du = deg[ui];
            if (vol[cu] >= vmax && 1 < du && du < vmax && !divided[ui]) {
                int64_t c_new = next_raw++;
                divided[ui] = 1;
                vol[cu] -= du;
                vol[c_new] = du;
                clu[ui] = c_new;
                splits++;
            }
            cv = clu[vi]; /* u's split may have lowered vol[cv] when cv == cu */
            int64_t dv = deg[vi];
            if (vol[cv] >= vmax && 1 < dv && dv < vmax && !divided[vi]) {
                int64_t c_new = next_raw++;
                divided[vi] = 1;
                vol[cv] -= dv;
                vol[c_new] = dv;
                clu[vi] = c_new;
                splits++;
            }
        }
        /* --- migration --- */
        cu = clu[ui];
        cv = clu[vi];
        if (cu != cv && vol[cu] < vmax && vol[cv] < vmax) {
            if (vol[cu] <= vol[cv]) {
                vol[cu] -= deg[ui];
                vol[cv] += deg[ui];
                clu[ui] = cv;
            } else {
                vol[cv] -= deg[vi];
                vol[cu] += deg[vi];
                clu[vi] = cu;
            }
            migrations++;
        }
    }
    counters[0] = next_raw;
    counters[1] = splits;
    counters[2] = migrations;
}

/* ------------------------------------------------------------------ */
/* Pass 3: hard load cap + agreement / mirror / degree (Algorithm 1)  */
/* ------------------------------------------------------------------ */

/* Pass 3's replica summary: one uint64 per vertex recording the
 * partitions an edge of the vertex went to other than its own.  For
 * k <= 64 it is the exact set, bit p for partition p.  For k > 64 it
 * holds the most recent distinct such partitions, p + 1 per field of
 * width = bit length of k, newest in the lowest field, 0 = empty; the
 * filled fields are the low ones, so a walk stops at the first 0. */
static inline int summary_has(uint64_t w, uint64_t x, int64_t width, uint64_t field)
{
    for (; w; w >>= width) {
        if ((w & field) == x) return 1;
    }
    return 0;
}

/* Record partition p in summary w (k > 64): a new one shifts in as the
 * newest field and the oldest drops off the top (keep masks the whole
 * fields). */
static inline uint64_t summary_push(
    uint64_t w, int64_t p, int64_t width, uint64_t field, uint64_t keep)
{
    uint64_t x = (uint64_t)p + 1;
    return summary_has(w, x, width, field) ? w : ((w << width) | x) & keep;
}

/* The least-loaded underfull partition in both summaries (k > 64), else
 * in either, ties to the lowest index; -1 when there is none. */
static int64_t summary_spill(
    uint64_t su, uint64_t sv, int64_t width, uint64_t field,
    const int64_t *loads, const int64_t *caps)
{
    int64_t best_p = -1;
    int64_t best_l = INT64_MAX;
    for (int64_t both = 1; both >= 0 && best_p < 0; both--) {
        for (int64_t side = 0; side <= 1 - both; side++) {
            for (uint64_t w = side ? sv : su; w; w >>= width) {
                uint64_t x = w & field;
                if (both && !summary_has(sv, x, width, field)) continue;
                int64_t p = (int64_t)x - 1;
                int64_t l = loads[p];
                if (l < caps[p] && (l < best_l || (l == best_l && p < best_p))) {
                    best_l = l;
                    best_p = p;
                }
            }
        }
    }
    return best_p;
}

/* counters: [spill_ptr, agreement, mirror_reuse, degree_cut,
 * balance_spill]; replicas: one summary word per vertex (above).
 * Returns 0 on success, 1 if no underfull partition exists (unreachable
 * when caps were validated to hold the stream), 2 if check_mapped is set
 * and some endpoint's vp entry is -1 (checked up front, before any state
 * mutation). */
int64_t transform_chunk(
    const int64_t *u, const int64_t *v, int64_t m, int64_t k,
    const int64_t *vp, const uint8_t *divided, const int64_t *deg,
    int64_t *loads, const int64_t *caps, uint64_t *replicas,
    int64_t *counters,
    int64_t check_mapped,
    int64_t *out)
{
    if (check_mapped) {
        for (int64_t i = 0; i < m; i++) {
            if (vp[u[i]] < 0 || vp[v[i]] < 0) return 2;
        }
    }
    int64_t sp = counters[0];
    int64_t agreement = counters[1];
    int64_t mirror_reuse = counters[2];
    int64_t degree_cut = counters[3];
    int64_t balance_spill = counters[4];
    int64_t exact = k <= 64;
    int64_t width = 64 - __builtin_clzll((uint64_t)k);
    uint64_t field = (1ULL << width) - 1;
    int64_t fields = 64 / width;
    uint64_t keep = fields * width == 64 ? ~0ULL : (1ULL << (fields * width)) - 1;
    /* k <= 64: bit p while loads[p] < caps[p] */
    uint64_t under = 0;
    for (int64_t p = 0; exact && p < k; p++) {
        if (loads[p] < caps[p]) under |= 1ULL << p;
    }
    for (int64_t i = 0; i < m; i++) {
        int64_t ui = u[i];
        int64_t vi = v[i];
        int64_t pu = vp[ui];
        int64_t pv = vp[vi];
        int64_t target;
        if (loads[pu] >= caps[pu] || loads[pv] >= caps[pv]) {
            if (loads[pu] < caps[pu]) {
                target = pu;
            } else if (loads[pv] < caps[pv]) {
                target = pv;
            } else {
                /* both full: where u and v already are, else where
                 * either is, else the rotating pointer */
                uint64_t su = replicas[ui];
                uint64_t sv = replicas[vi];
                if (exact) {
                    uint64_t cand = su & sv & under;
                    int64_t best_l = INT64_MAX;
                    target = -1;
                    least_loaded_bits(cand ? cand : (su | sv) & under, 0, loads,
                                      &target, &best_l);
                } else {
                    target = summary_spill(su, sv, width, field, loads, caps);
                }
                if (target < 0) {
                    while (loads[sp] >= caps[sp]) {
                        sp++;
                        if (sp == k) return 1;
                    }
                    target = sp;
                }
            }
            balance_spill++;
        } else if (pu == pv) {
            target = pu;
            agreement++;
        } else if (divided[ui] && !divided[vi]) {
            target = pv; /* u already has mirrors: cut u again */
            mirror_reuse++;
        } else if (divided[vi] && !divided[ui]) {
            target = pu;
            mirror_reuse++;
        } else {
            /* both or neither divided: cut the higher-degree endpoint */
            target = deg[vi] > deg[ui] ? pu : pv;
            degree_cut++;
        }
        out[i] = target;
        uint64_t bit = 1ULL << (target & 63);
        if (target != pu) {
            replicas[ui] = exact ? replicas[ui] | bit
                                 : summary_push(replicas[ui], target, width, field, keep);
        }
        if (target != pv) {
            replicas[vi] = exact ? replicas[vi] | bit
                                 : summary_push(replicas[vi], target, width, field, keep);
        }
        if (++loads[target] >= caps[target]) under &= ~bit;
    }
    counters[0] = sp;
    counters[1] = agreement;
    counters[2] = mirror_reuse;
    counters[3] = degree_cut;
    counters[4] = balance_spill;
    return 0;
}

/* ------------------------------------------------------------------ */
/* Pass 2: fused best-response round (Algorithm 3, DESIGN.md s10)     */
/* ------------------------------------------------------------------ */

/* BODY for every neighbor nb of cluster c, with weight wt: its out-row,
 * then its in-row.  One held both ways comes twice, which is harmless:
 * weights are integer counts, converted as read (exact below 2^53, so
 * the sums are exact in any order), and nbr_epoch is assigned, not
 * counted. */
#define FOR_NEIGHBOR(c, BODY)                                           \
    for (int64_t d_ = 0; d_ < 2; d_++) {                                \
        const int64_t *ip_ = d_ ? in_indptr : indptr;                   \
        const int64_t *ix_ = d_ ? in_indices : indices;                 \
        const int64_t *w_ = d_ ? in_weights : weights;                  \
        for (int64_t j_ = ip_[c]; j_ < ip_[(c) + 1]; j_++) {            \
            int64_t nb = ix_[j_];                                       \
            double wt = (double)w_[j_];                                 \
            BODY;                                                       \
        }                                                               \
    }

/* One round over every cluster c = 0..m-1.  Float expressions keep the exact
 * op sequence of ClusterPartitioningGame.cost_vector:
 * (loads[p] + size) * (lam_over_k * size) + (cut_degree - row) * 0.5,
 * with the current column (loads[cur] - size) + size; no -ffast-math,
 * -ffp-contract=off (no FMA contraction of the final multiply-add).
 *
 * The evaluated cluster's adjacency row (its weight into each partition,
 * both directions summed) is rebuilt into row_buf from its out-row and
 * in-row: no (m, k) table is kept.  internal and cut_degree are the
 * cluster graph's int64 arrays, converted as read.
 *
 * Skip rules (decision-preserving): last_eval[c] == move_counter means
 * zero moves anywhere since c last declined; c also skips when
 * nbr_epoch[c] <= last_eval[c] (no neighbor moved), inc_epoch[cur] <=
 * last_eval[c] (own partition gained no load) and every other
 * partition's dec_epoch <= last_eval[c] (no alternative got cheaper)
 * — requires lam_over_k >= 0, the caller's precondition.
 *
 * phi = [sum(loads^2), total_partition_cut], updated per move by the
 * mover's exact delta (pre-move loads and adjacency row); counters =
 * [move_counter]; move_log records (cluster, target) pairs; cost_buf /
 * row_buf are k-sized scratch.  Returns the number of moves. */
int64_t game_round(
    int64_t k, double lam_over_k, double eps,
    const int64_t *indptr, const int64_t *indices, const int64_t *weights,
    const int64_t *in_indptr, const int64_t *in_indices, const int64_t *in_weights,
    const int64_t *internal, const int64_t *cut_degree,
    int64_t *assignment, int64_t m, double *loads,
    int64_t *last_eval, int64_t *nbr_epoch,
    int64_t *inc_epoch, int64_t *dec_epoch,
    int64_t *counters, double *phi, int64_t *move_log,
    double *cost_buf, double *row_buf)
{
    int64_t mc = counters[0];
    int64_t moves = 0;
    for (int64_t c = 0; c < m; c++) {
        int64_t le = last_eval[c];
        if (le == mc) continue;
        int64_t cur = assignment[c];
        if (le >= 0 && nbr_epoch[c] <= le && inc_epoch[cur] <= le) {
            int64_t ok = 1;
            for (int64_t p = 0; p < k; p++) {
                if (p != cur && dec_epoch[p] > le) { ok = 0; break; }
            }
            if (ok) {
                /* the prior no-move decision provably stands now */
                last_eval[c] = mc;
                continue;
            }
        }
        last_eval[c] = mc;
        double size = (double)internal[c];
        double cut = (double)cut_degree[c];
        for (int64_t p = 0; p < k; p++) row_buf[p] = 0.0;
        FOR_NEIGHBOR(c, row_buf[assignment[nb]] += wt);
        double a = lam_over_k * size;
        int64_t best = 0;
        double best_cost = 0.0;
        for (int64_t p = 0; p < k; p++) {
            double t = loads[p] + size;
            if (p == cur) t = (loads[cur] - size) + size;
            double cost = t * a + (cut - row_buf[p]) * 0.5;
            cost_buf[p] = cost;
            if (p == 0 || cost < best_cost) {
                best_cost = cost;
                best = p;
            }
        }
        if (best_cost < cost_buf[cur] - eps) {
            double l_cur = loads[cur];
            double l_best = loads[best];
            phi[0] += (l_cur - size) * (l_cur - size) - l_cur * l_cur;
            phi[0] += (l_best + size) * (l_best + size) - l_best * l_best;
            phi[1] += row_buf[cur] - row_buf[best];
            loads[cur] = l_cur - size;
            loads[best] = l_best + size;
            assignment[c] = best;
            mc++;
            FOR_NEIGHBOR(c, (void)wt; nbr_epoch[nb] = mc);
            dec_epoch[cur] = mc;
            inc_epoch[best] = mc;
            move_log[2 * moves] = c;
            move_log[2 * moves + 1] = best;
            moves++;
            last_eval[c] = -1; /* movers are always re-evaluated */
        }
    }
    counters[0] = mc;
    return moves;
}

/* ------------------------------------------------------------------ */
/* Pass 2 input: the cluster graph grouped from one key column        */
/* ------------------------------------------------------------------ */

/* BODY for every run of equal keys in the sorted keys[0..n): its key,
 * row r = key / m, column c = key % m and length count.  The row is
 * carried forward instead of divided out (keys ascend, so rows do).  A
 * key outside [0, mm) or below its predecessor returns -1 before it is
 * used. */
#define FOR_RUN(BODY)                                                   \
    for (int64_t i_ = 0, j_, r = 0, base_ = 0, prev_ = -1; i_ < n; i_ = j_) { \
        int64_t key = keys[i_];                                         \
        if (key <= prev_ || key >= mm) return -1;                       \
        prev_ = key;                                                    \
        for (j_ = i_ + 1; j_ < n && keys[j_] == keys[i_]; j_++) {}      \
        while (key - base_ >= m) {                                      \
            r++;                                                        \
            base_ += m;                                                 \
        }                                                               \
        int64_t count = j_ - i_, c = key - base_;                       \
        BODY;                                                           \
    }

/* keys[i] = label[u[i]] * m + label[v[i]] for one stream chunk, into a
 * key column of element type T (int32_t while m * m fits).  The
 * endpoints index label (labels entries) and the labels must lie in
 * [0, m): both are checked per row, and the first bad row is returned
 * (keys is then partly written); -1 = all rows packed. */
#define PACK_KERNEL(NAME, T)                                            \
    int64_t NAME(                                                       \
        const int64_t *u, const int64_t *v, int64_t n,                  \
        const int64_t *label, int64_t labels, int64_t m, T *keys)       \
    {                                                                   \
        /* unsigned compares: a negative id or label reads as huge */   \
        uint64_t nl = (uint64_t)labels, nm = (uint64_t)m;               \
        for (int64_t i = 0; i < n; i++) {                               \
            uint64_t a = (uint64_t)u[i], b = (uint64_t)v[i];            \
            if ((a >= nl) | (b >= nl)) return i;                        \
            uint64_t la = (uint64_t)label[a], lb = (uint64_t)label[b];  \
            if ((la >= nm) | (lb >= nm)) return i;                      \
            keys[i] = (T)(la * nm + lb);                                \
        }                                                               \
        return -1;                                                      \
    }

PACK_KERNEL(pack_pairs_i32, int32_t)
PACK_KERNEL(pack_pairs_i64, int64_t)

/* The sorted key column (key = row * m + col) grouped into the cluster
 * graph in two calls, one counting pass over its runs each, with no
 * |keys|-sized temporary:
 *
 *  1. cap = 0, the count: a diagonal run is internal[row], any other one
 *     pair of the out-CSR (counted into indptr[row + 1]) and of the
 *     in-CSR (into in_indptr[col + 1]); internal, indptr and in_indptr
 *     (m, m + 1 and m + 1 entries) are written in full, as the two row
 *     pointer arrays, and the number of pairs is returned;
 *  2. cap > 0, the fill, into pair arrays of cap entries each: the pairs
 *     in key order are the out-CSR (indices, weights) as they come, and
 *     a stable counting scatter by column, from the column starts call 1
 *     left in in_indptr, gives the in-CSR (in_indices, in_weights), rows
 *     ascending within each column.  in_indptr ends as it began; every
 *     write is checked against cap.
 *
 * Returns the number of pairs; -1 if a key lies outside [0, m * m), the
 * keys are not sorted, or (call 2) a pair falls outside the arrays —
 * nothing is indexed by such a key or written past cap. */
#define GROUP_KERNEL(NAME, T)                                           \
    int64_t NAME(                                                       \
        const T *keys, int64_t n, int64_t m,                            \
        int64_t *internal, int64_t *indptr, int64_t *in_indptr,         \
        int64_t *indices, int64_t cap, int64_t *weights,                \
        int64_t *in_indices, int64_t *in_weights)                       \
    {                                                                   \
        int64_t mm = m * m, pairs = 0;                                  \
        if (cap == 0) {                                                 \
            for (int64_t r = 0; r < m; r++) internal[r] = 0;            \
            for (int64_t r = 0; r <= m; r++) {                          \
                indptr[r] = 0;                                          \
                in_indptr[r] = 0;                                       \
            }                                                           \
            FOR_RUN({                                                   \
                if (r == c) {                                           \
                    internal[r] = count;                                \
                } else {                                                \
                    indptr[r + 1]++;                                    \
                    in_indptr[c + 1]++;                                 \
                    pairs++;                                            \
                }                                                       \
            });                                                         \
            for (int64_t r = 0; r < m; r++) {                           \
                indptr[r + 1] += indptr[r];                             \
                in_indptr[r + 1] += in_indptr[r];                       \
            }                                                           \
            return pairs;                                               \
        }                                                               \
        /* in_indptr[c + 1] becomes column c's cursor, ending at c's end */ \
        for (int64_t c = m; c > 0; c--) in_indptr[c] = in_indptr[c - 1]; \
        FOR_RUN({                                                       \
            if (r != c) {                                               \
                int64_t s = in_indptr[c + 1]++;                         \
                if (pairs >= cap || s < 0 || s >= cap) return -1;       \
                indices[pairs] = c;                                     \
                weights[pairs++] = count;                               \
                in_indices[s] = r;                                      \
                in_weights[s] = count;                                  \
            }                                                           \
        });                                                             \
        return pairs;                                                   \
    }

GROUP_KERNEL(group_keys_i32, int32_t)
GROUP_KERNEL(group_keys_i64, int64_t)

/* ------------------------------------------------------------------ */
/* Fused take-and-combine: the walks of a dense GAS superstep          */
/* ------------------------------------------------------------------ */

/* out[dst[i]] (+)= table[src[i]] for i ascending: ufunc.at(out, dst,
 * table[src]) without the |dst|-sized temporary, in ufunc.at's own
 * (sequential) fold order, so float sums keep their bits.  dst and src
 * are caller data (a vertex program's index tables): every row is
 * bounds-checked before memory is touched, and the first bad row is
 * returned (the rows before it are applied, none after it); -1 = all
 * rows applied.  out and table may be the same array: no restrict. */
#define TAKE_KERNEL(NAME, T, COMBINE)                                   \
    int64_t NAME(                                                       \
        const int64_t *dst, const int64_t *src, int64_t m,              \
        const T *table, int64_t table_len, T *out, int64_t out_len)     \
    {                                                                   \
        for (int64_t i = 0; i < m; i++) {                               \
            int64_t d = dst[i];                                         \
            int64_t s = src[i];                                         \
            if (d < 0 || d >= out_len || s < 0 || s >= table_len)       \
                return i;                                               \
            T x = table[s];                                             \
            T o = out[d];                                               \
            COMBINE;                                                    \
        }                                                               \
        return -1;                                                      \
    }

TAKE_KERNEL(take_add_f64, double, out[d] = o + x)
/* np.minimum's rule: a NaN accumulator stays, a NaN addend lands */
TAKE_KERNEL(take_min_f64, double, if (!(o < x) && o == o) out[d] = x)
TAKE_KERNEL(take_min_i64, int64_t, if (x < o) out[d] = x)
/* plain copy of any 8-byte item (the caller views it as int64) */
TAKE_KERNEL(take_put_i64, int64_t, (void)o; out[d] = x)

/* ------------------------------------------------------------------ */
/* Deployment: the flat replica-slot index in counting passes          */
/* ------------------------------------------------------------------ */

/* counts c[p] at indptr[p + 1] -> indptr[p + 1] = c[0] + ... + c[p - 1],
 * the cursor a stable counting scatter bumps to p's end */
static void exclusive_starts(int64_t *indptr, int64_t k)
{
    int64_t run = 0;
    for (int64_t p = 0; p < k; p++) {
        int64_t c = indptr[p + 1];
        indptr[p + 1] = run;
        run += c;
    }
}

/* set vertex x's bit, widening the marked word range [*lo, *hi] */
static inline void mark(uint64_t *words, int64_t x, int64_t *lo, int64_t *hi)
{
    int64_t w = x >> 6;
    words[w] |= 1ULL << (x & 63);
    *lo = w < *lo ? w : *lo;
    *hi = w > *hi ? w : *hi;
}

/* The executable layout of a vertex-cut assignment (edge i = (src[i],
 * dst[i]) in partition part[i]) without a sort, in four passes:
 *
 *  1. a stable counting sort of the edges by partition: edge_ids /
 *     edge_indptr, with each edge's endpoints carried into src_slot /
 *     dst_slot;
 *  2. per partition, a bitmap of its hosted vertices, scanned over that
 *     partition's own word range only and read in ascending order: the
 *     slots (vertices, part_indptr), numbered partition by partition,
 *     vertices ascending inside; the endpoint columns are rewritten in
 *     place from vertex ids to slots, and each slot's incident-edge
 *     count (a self-loop counts twice) goes to master_slot, which is
 *     free until pass 4;
 *  3. the slots in pid order: a strict > keeps each vertex's first
 *     maximal count, i.e. the master is the partition with the most
 *     incident edges, ties to the lowest pid; replica_counts counted;
 *  4. the slots once more: is_master, master_slots, the mirror rows
 *     (mirror_slot, master_slot) in slot order and mirror_indptr.
 *
 * Every output is written in full (no precondition on its contents);
 * the per-slot arrays (vertices, is_master, master_slots, mirror_slot,
 * master_slot) need capacity 2 * m, and sizes
 * receives [slots, masters].  slot_of (n entries) and words
 * (ceil(n / 64)) are scratch.  Cost O(m + slots + k + n / 64 + the sum of
 * the partitions' word ranges): no k * n term.  Partition ids and
 * endpoints are caller data: all of them are checked before anything is
 * written, and the first bad row is returned; -1 = built. */
int64_t slot_index(
    const int64_t *src, const int64_t *dst, const int64_t *part,
    int64_t m, int64_t n, int64_t k,
    int64_t *edge_ids, int64_t *edge_indptr,
    int64_t *src_slot, int64_t *dst_slot,
    int64_t *vertices, int64_t *part_indptr,
    int64_t *master, int64_t *replica_counts,
    uint8_t *is_master, int64_t *master_slots,
    int64_t *mirror_slot, int64_t *master_slot, int64_t *mirror_indptr,
    int64_t *slot_of, uint64_t *words, int64_t *sizes)
{
    int64_t *count = master_slot;
    for (int64_t i = 0; i < m; i++) {
        if (part[i] < 0 || part[i] >= k || src[i] < 0 || src[i] >= n
            || dst[i] < 0 || dst[i] >= n)
            return i;
    }
    /* 1: counting sort by partition; indptr[p + 1] is p's cursor and
     * ends at p's end */
    for (int64_t p = 0; p <= k; p++) edge_indptr[p] = 0;
    for (int64_t i = 0; i < m; i++) edge_indptr[part[i] + 1]++;
    exclusive_starts(edge_indptr, k);
    for (int64_t i = 0; i < m; i++) {
        int64_t at = edge_indptr[part[i] + 1]++;
        edge_ids[at] = i;
        src_slot[at] = src[i];
        dst_slot[at] = dst[i];
    }
    /* 2: slots, partition by partition */
    int64_t nw = (n + 63) >> 6;
    for (int64_t w = 0; w < nw; w++) words[w] = 0;
    int64_t slots = 0;
    part_indptr[0] = 0;
    for (int64_t p = 0; p < k; p++) {
        int64_t lo = edge_indptr[p], hi = edge_indptr[p + 1];
        int64_t w_lo = nw, w_hi = -1;
        /* from both ends at once: neighbouring edges mostly set bits of
         * one word, and a single chain of read-modify-writes through
         * memory runs at store-forwarding latency (1.8x slower on a
         * crawl); the middle edge of an odd range is marked twice */
        for (int64_t j = lo, t = hi - 1; j <= t; j++, t--) {
            mark(words, src_slot[j], &w_lo, &w_hi);
            mark(words, src_slot[t], &w_lo, &w_hi);
            mark(words, dst_slot[j], &w_lo, &w_hi);
            mark(words, dst_slot[t], &w_lo, &w_hi);
        }
        for (int64_t w = w_lo; w <= w_hi; w++) {
            uint64_t bits = words[w];
            if (!bits) continue;
            words[w] = 0;
            while (bits) {
                int64_t v = (w << 6) + __builtin_ctzll(bits);
                bits &= bits - 1;
                vertices[slots] = v;
                slot_of[v] = slots;
                count[slots] = 0;
                slots++;
            }
        }
        part_indptr[p + 1] = slots;
        for (int64_t j = lo; j < hi; j++) {
            int64_t s = slot_of[src_slot[j]], d = slot_of[dst_slot[j]];
            src_slot[j] = s;
            dst_slot[j] = d;
            count[s]++;
            count[d]++;
        }
    }
    /* 3: masters (slot_of now maps a vertex to its master's slot) */
    for (int64_t v = 0; v < n; v++) {
        master[v] = -1;
        replica_counts[v] = 0;
    }
    for (int64_t p = 0; p < k; p++) {
        for (int64_t s = part_indptr[p]; s < part_indptr[p + 1]; s++) {
            int64_t v = vertices[s];
            replica_counts[v]++;
            if (master[v] < 0 || count[s] > count[slot_of[v]]) {
                master[v] = p;
                slot_of[v] = s;
            }
        }
    }
    /* 4: masters and mirror rows in slot order */
    int64_t masters = 0, rows = 0;
    for (int64_t p = 0; p < k; p++) {
        mirror_indptr[p] = rows;
        for (int64_t s = part_indptr[p]; s < part_indptr[p + 1]; s++) {
            int64_t v = vertices[s];
            if (slot_of[v] == s) {
                is_master[s] = 1;
                master_slots[masters++] = s;
            } else {
                is_master[s] = 0;
                mirror_slot[rows] = s;
                master_slot[rows] = slot_of[v];
                rows++;
            }
        }
    }
    mirror_indptr[k] = rows;
    sizes[0] = slots;
    sizes[1] = masters;
    return -1;
}
