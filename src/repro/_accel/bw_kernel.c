/* Bowyer-Watson kernels: insertion, batched insertion, pre-validated
 * commit, and vertex removal.
 *
 * Compiled on demand (see __init__.py) and driven through ctypes on the
 * mesh's struct-of-arrays buffers.  Four entry points share the same
 * building blocks:
 *
 * - bw_insert        one insertion attempt: remembering walk -> cavity
 *                    search -> validation -> closure check -> commit.
 * - bw_insert_many   a batch of insertion attempts amortizing the
 *                    ctypes crossing; stops (with progress) at the
 *                    first point it cannot finish conclusively.
 * - bw_commit        validation + closure + commit of a cavity the
 *                    caller already computed (the speculative path:
 *                    Python grows the cavity under vertex locks, then
 *                    calls this holding the commit lock).
 * - bw_remove        one sequential vertex removal, start to finish:
 *                    ball, hole boundary, sorted link, gift-wrap fill,
 *                    fill verification, slot allocation, commit.
 *
 * Contract with the Python kernel (delaunay/triangulation.py):
 *
 * - Every floating point predicate is *filtered*: evaluated in double
 *   with a Shewchuk-style forward error bound.  A conclusive filter
 *   result is guaranteed to equal the exact predicate's sign, so every
 *   decision taken here is identical to the pure-Python filtered/exact
 *   path.  There is no exact stage in this file, with one exception
 *   that needs none: four points that share one coordinate bit for bit
 *   are coplanar, so orient3d concludes 0 for them (x - y == 0.0 in
 *   IEEE arithmetic iff x == y, gradual underflow included; no error
 *   bound is involved).  Isosurface samples sit on axis-aligned voxel
 *   faces, which makes this the common tie.  Its consumers take the
 *   Python kernel's decision for a zero: the walk stays in the tet,
 *   insertion validation refuses the point (BW_ERR_FACE), the gift-wrap
 *   candidate filter skips the vertex.  Every other inconclusive
 *   predicate returns RETRY without anything having been mutated and
 *   the caller re-runs the Python path (which has the exact Fraction
 *   fallback); the reason goes into a slot of out_i (BW_WHY_*).  This
 *   file must be compiled with -ffp-contract=off: FMA contraction would
 *   change the rounding behaviour the error bounds were derived for.
 * - Traversal orders replicate the Python implementation exactly — the
 *   walk's face order comes from the same inline LCG state, the cavity
 *   is enumerated by the same depth-first stack discipline, boundary
 *   faces are emitted in the same sequence, new tet slots are popped
 *   from the mesh's free-slot stack (LIFO) before fresh tail slots are
 *   taken and freed slots are pushed in cavity / ball order (as
 *   MeshArrays does), the removal ball is collected in incident_tets'
 *   stack order, and the removal front replicates dict popitem()/del
 *   semantics.  These orders determine new tet ids and therefore the
 *   entire downstream mesh, so they are part of the deterministic output
 *   contract (tests/test_kernel_parity.py, tests/test_kernel_ties.py).
 * - Mutation is strictly deferred: the read phases (walk, cavity,
 *   validation, closure, ball, hole filling, fill verification) only
 *   read mesh arrays and write caller-owned scratch; slot allocation
 *   and the commit phase write the mesh arrays and cannot fail.  Error
 *   returns (duplicate point / point on a cavity face / open boundary)
 *   are decided before any mutation, mirroring InsertionError
 *   semantics.
 * - What a commit owns: the tet allocator (the free-slot stack, its
 *   count, the tail and the per-slot epochs, bumped when a popped slot
 *   is handed out, before its row is written), tet rows, adjacency,
 *   dead-row markers and the v2t anchors of every vertex of a new tet
 *   except the vertex being inserted (whose slot the caller
 *   allocates).  The Python side keeps the vertex store and the
 *   counters, and stores into the vertex grid (vgrid.c), which
 *   bw_insert and bw_insert_many only probe for their first walk's
 *   seed.  The caller reserves headroom before each call; a cavity
 *   that would still outgrow the arrays RETRYs.
 *
 * The edge / face hash table and the per-tet tag array are
 * epoch-stamped with the caller's generation counter, so they are
 * never cleared between calls.
 */

#include <math.h>
#include <stddef.h>
#include <stdint.h>

/* The vertex grid's seed probe (vgrid.c). */
struct vg_grid;
int64_t vg_probe(const struct vg_grid *g, const double *coords,
                 const int32_t *v2t, int64_t nv, const int32_t *tv,
                 int64_t nt, double x, double y, double z, int64_t hint,
                 int64_t last, int64_t *which);

#define BW_OK 0
#define BW_RETRY 1
#define BW_ERR_DUP 2
#define BW_ERR_FACE 3
#define BW_ERR_CLOSED 4

/* Why a call returned RETRY (keep in sync with _accel.RETRY_REASONS).
 * The helpers below return BW_RETRY with the reason in the next byte;
 * entry points split the two and publish the reason in out_i. */
#define BW_WHY_OTHER 0    /* dead or cycling walk, stale anchor, ... */
#define BW_WHY_WALK 1     /* orientation filter, point location */
#define BW_WHY_INSPHERE 2 /* insphere filter */
#define BW_WHY_ORIENT 3   /* orientation filter, validation or fill */
#define BW_WHY_GROWTH 4   /* needs array growth */
#define BW_WHY_SCRATCH 5  /* scratch or hash table overflow */
#define BW_WHY_TIE 6      /* removal: degenerate sweep or refused fill */
#define RETRY_BECAUSE(why) (BW_RETRY | ((int64_t)(why) << 8))
#define STATUS(code) ((code) & 0xff)
#define REASON(code) ((code) >> 8)

#define EPSILON 1.1102230246251565e-16 /* 2^-53 */

static const double ORIENT3D_BOUND = (16.0 + 128.0 * EPSILON) * EPSILON;
static const double INSPHERE_BOUND = (64.0 + 512.0 * EPSILON) * EPSILON;

/* Sign of orient3d(a, b, c, d), or 2 when the filter is inconclusive.
 * Mirrors the stage-2 permanent bound of predicates.orient3d term for
 * term; the one exact zero it concludes is four points sharing a
 * coordinate (a zero column: the differences are exact zeros, so the
 * determinant is 0 with no bound to trust).  Every other exact zero
 * stays inconclusive. */
static int orient3d_f(const double *a, const double *b, const double *c,
                      const double *d)
{
    double adx = a[0] - d[0], ady = a[1] - d[1], adz = a[2] - d[2];
    double bdx = b[0] - d[0], bdy = b[1] - d[1], bdz = b[2] - d[2];
    double cdx = c[0] - d[0], cdy = c[1] - d[1], cdz = c[2] - d[2];

    if ((adx == 0.0 && bdx == 0.0 && cdx == 0.0)
        || (ady == 0.0 && bdy == 0.0 && cdy == 0.0)
        || (adz == 0.0 && bdz == 0.0 && cdz == 0.0))
        return 0;

    double bdxcdy = bdx * cdy, cdxbdy = cdx * bdy;
    double cdxady = cdx * ady, adxcdy = adx * cdy;
    double adxbdy = adx * bdy, bdxady = bdx * ady;

    double det = adz * (bdxcdy - cdxbdy)
               + bdz * (cdxady - adxcdy)
               + cdz * (adxbdy - bdxady);
    double permanent = (fabs(bdxcdy) + fabs(cdxbdy)) * fabs(adz)
                     + (fabs(cdxady) + fabs(adxcdy)) * fabs(bdz)
                     + (fabs(adxbdy) + fabs(bdxady)) * fabs(cdz);
    double bound = ORIENT3D_BOUND * permanent;
    if (det > bound)
        return 1;
    if (det < -bound)
        return -1;
    return 2;
}

/* Sign of insphere(a, b, c, d, e) for a positively oriented tet, or 2
 * when inconclusive.  Mirrors predicates._insphere_float term for term. */
static int insphere_f(const double *a, const double *b, const double *c,
                      const double *d, double ex, double ey, double ez)
{
    double aex = a[0] - ex, aey = a[1] - ey, aez = a[2] - ez;
    double bex = b[0] - ex, bey = b[1] - ey, bez = b[2] - ez;
    double cex = c[0] - ex, cey = c[1] - ey, cez = c[2] - ez;
    double dex = d[0] - ex, dey = d[1] - ey, dez = d[2] - ez;

    double aexbey = aex * bey, bexaey = bex * aey;
    double ab = aexbey - bexaey;
    double bexcey = bex * cey, cexbey = cex * bey;
    double bc = bexcey - cexbey;
    double cexdey = cex * dey, dexcey = dex * cey;
    double cd = cexdey - dexcey;
    double dexaey = dex * aey, aexdey = aex * dey;
    double da = dexaey - aexdey;
    double aexcey = aex * cey, cexaey = cex * aey;
    double ac = aexcey - cexaey;
    double bexdey = bex * dey, dexbey = dex * bey;
    double bd = bexdey - dexbey;

    double abc = aez * bc - bez * ac + cez * ab;
    double bcd = bez * cd - cez * bd + dez * bc;
    double cda = cez * da + dez * ac + aez * cd;
    double dab = dez * ab + aez * bd + bez * da;

    double alift = aex * aex + aey * aey + aez * aez;
    double blift = bex * bex + bey * bey + bez * bez;
    double clift = cex * cex + cey * cey + cez * cez;
    double dlift = dex * dex + dey * dey + dez * dez;

    double det = (dlift * abc - clift * dab) + (blift * cda - alift * bcd);

    double aezp = fabs(aez), bezp = fabs(bez);
    double cezp = fabs(cez), dezp = fabs(dez);
    double permanent =
        ((fabs(cexdey) + fabs(dexcey)) * bezp
         + (fabs(dexbey) + fabs(bexdey)) * cezp
         + (fabs(bexcey) + fabs(cexbey)) * dezp) * alift
        + ((fabs(dexaey) + fabs(aexdey)) * cezp
           + (fabs(aexcey) + fabs(cexaey)) * dezp
           + (fabs(cexdey) + fabs(dexcey)) * aezp) * blift
        + ((fabs(aexbey) + fabs(bexaey)) * dezp
           + (fabs(bexdey) + fabs(dexbey)) * aezp
           + (fabs(dexaey) + fabs(aexdey)) * bezp) * clift
        + ((fabs(bexcey) + fabs(cexbey)) * aezp
           + (fabs(cexaey) + fabs(aexcey)) * bezp
           + (fabs(aexbey) + fabs(bexaey)) * cezp) * dlift;
    double bound = INSPHERE_BOUND * permanent;
    if (det > bound)
        return 1;
    if (det < -bound)
        return -1;
    return 2;
}

static int insphere_tet(const double *coords, const int32_t *v,
                        double ex, double ey, double ez)
{
    return insphere_f(coords + 3 * (int64_t)v[0],
                      coords + 3 * (int64_t)v[1],
                      coords + 3 * (int64_t)v[2],
                      coords + 3 * (int64_t)v[3], ex, ey, ez);
}

/* The mesh's tet allocator (MeshArrays.tet_free / n_free_tets /
 * tet_top / tet_epoch): a stack of free slots, bottom first, and the
 * tail of never-used slots below cap. */
typedef struct {
    int32_t *stack;
    int32_t *epoch;
    int64_t n_free, tail, cap;
} slot_alloc;

/* Can k slots be taken without growing the arrays? */
static int slots_fit(const slot_alloc *al, int64_t k)
{
    return k <= al->n_free || al->tail + (k - al->n_free) <= al->cap;
}

/* Take k slots into out[]: LIFO pops, each bumping its slot's epoch,
 * then fresh tail slots (MeshArrays.add_tets_batch).  Check slots_fit
 * first. */
static void take_slots(slot_alloc *al, int32_t *out, int64_t k)
{
    for (int64_t r = 0; r < k; r++) {
        if (al->n_free > 0) {
            const int32_t t = al->stack[--al->n_free];
            al->epoch[t]++;
            out[r] = t;
        } else {
            out[r] = (int32_t)al->tail++;
        }
    }
}

/* Push the k slots of ids[] in order (MeshArrays.kill_tets_batch).
 * Every free slot lies below the tail, so the stack cannot overflow. */
static void put_slots(slot_alloc *al, const int32_t *ids, int64_t k)
{
    for (int64_t r = 0; r < k; r++)
        al->stack[al->n_free++] = ids[r];
}

/* ---- phase A1: remembering walk (read-only).  *t_io / *state_io are
 * updated in place; returns BW_OK when *t_io contains the point. ---- */
static int64_t walk_locate(const double *coords, const int32_t *tv,
                           const int32_t *adj, double px, double py,
                           double pz, int64_t n_live, int64_t *t_io,
                           uint64_t *state_io, int64_t *steps_io,
                           int64_t *n_orient_io)
{
    int64_t t = *t_io;
    uint64_t state = *state_io;
    const int64_t max_steps = n_live * 2 + 64;
    int64_t steps = 0;
    for (;;) {
        if (steps >= max_steps)
            return RETRY_BECAUSE(BW_WHY_OTHER); /* cycling: Python raises */
        steps++;
        const int32_t *v = tv + 4 * t;
        if (v[0] < 0) {
            *steps_io += steps;
            return RETRY_BECAUSE(BW_WHY_OTHER); /* tet died under our feet */
        }
        double pq[3] = {px, py, pz};
        const double *q[4] = {coords + 3 * (int64_t)v[0],
                              coords + 3 * (int64_t)v[1],
                              coords + 3 * (int64_t)v[2],
                              coords + 3 * (int64_t)v[3]};
        state = (state * 1103515245ULL + 12345ULL) & 0x7FFFFFFFULL;
        int start = (int)((state >> 13) & 3);
        int moved = 0;
        for (int k = 0; k < 4; k++) {
            int i = (start + k) & 3;
            const double *save = q[i];
            q[i] = pq;
            int s = orient3d_f(q[0], q[1], q[2], q[3]);
            q[i] = save;
            (*n_orient_io)++;
            if (s == 2) {
                *steps_io += steps;
                return RETRY_BECAUSE(BW_WHY_WALK);
            }
            if (s < 0) { /* a zero stays, as in locate() */
                int32_t nbr = adj[4 * t + i];
                if (nbr < 0) {
                    *steps_io += steps;
                    /* escapes the box: Python raises */
                    return RETRY_BECAUSE(BW_WHY_OTHER);
                }
                t = nbr;
                moved = 1;
                break;
            }
        }
        if (!moved)
            break;
    }
    *t_io = t;
    *state_io = state;
    *steps_io += steps;
    return BW_OK;
}

/* ---- phase A2: cavity search (reads mesh, writes scratch).  Emits the
 * cavity tets into cav[] and boundary codes (tt*4+i) into bnd[] in the
 * exact depth-first order of the Python kernel. ---- */
static int64_t cavity_search(const double *coords, const int32_t *tv,
                             const int32_t *adj, int64_t *tag, int32_t *cav,
                             int32_t *bnd, int32_t *stk, double px, double py,
                             double pz, int64_t t0, int64_t gen, int64_t scap,
                             int64_t *ncav_out, int64_t *nb_out,
                             int64_t *n_insphere_io)
{
    const int64_t genout = gen + 1;
    int64_t ncav = 0, nb = 0;
    {
        int s0 = insphere_tet(coords, tv + 4 * t0, px, py, pz);
        (*n_insphere_io)++;
        if (s0 == 2)
            return RETRY_BECAUSE(BW_WHY_INSPHERE);
        if (s0 < 0)
            return BW_ERR_DUP; /* located tet not in conflict */
    }
    tag[t0] = gen;
    cav[ncav++] = (int32_t)t0;
    int64_t sp = 0;
    stk[sp++] = (int32_t)t0;
    while (sp > 0) {
        int64_t tt = stk[--sp];
        const int32_t *arow = adj + 4 * tt;
        for (int i = 0; i < 4; i++) {
            int32_t nbr = arow[i];
            if (nbr < 0) { /* HULL */
                if (nb >= scap)
                    return RETRY_BECAUSE(BW_WHY_SCRATCH);
                bnd[nb++] = (int32_t)(tt * 4 + i);
                continue;
            }
            int64_t tg = tag[nbr];
            if (tg == gen)
                continue;
            if (tg == genout) {
                if (nb >= scap)
                    return RETRY_BECAUSE(BW_WHY_SCRATCH);
                bnd[nb++] = (int32_t)(tt * 4 + i);
                continue;
            }
            int s = insphere_tet(coords, tv + 4 * (int64_t)nbr, px, py, pz);
            (*n_insphere_io)++;
            if (s == 2)
                return RETRY_BECAUSE(BW_WHY_INSPHERE);
            if (s > 0) {
                if (ncav >= scap || sp >= scap)
                    return RETRY_BECAUSE(BW_WHY_SCRATCH);
                tag[nbr] = gen;
                cav[ncav++] = nbr;
                stk[sp++] = nbr;
            } else {
                if (nb >= scap)
                    return RETRY_BECAUSE(BW_WHY_SCRATCH);
                tag[nbr] = genout;
                bnd[nb++] = (int32_t)(tt * 4 + i);
            }
        }
    }
    *ncav_out = ncav;
    *nb_out = nb;
    return BW_OK;
}

/* ---- phases A3-B: validation, closure check, slot allocation, commit.
 * cav/bnd hold a precomputed cavity; nothing is mutated on a non-OK
 * return, and a cavity needing more slots than the arrays hold RETRYs.
 * The commit anchors every vertex of a new tet except vnew at that tet,
 * in new-tet order (the last tet naming a vertex wins); vnew's anchor
 * is its caller's. ---- */
static int64_t commit_cavity(const double *coords, int32_t *tv, int32_t *adj,
                             int32_t *v2t, slot_alloc *al,
                             const int32_t *cav, const int32_t *bnd,
                             int32_t *newt, int64_t *ekey, int64_t *estamp,
                             int32_t *eval, int32_t *pairs, double px,
                             double py, double pz, int64_t gen, int32_t vnew,
                             int64_t tcap, int64_t ncav, int64_t nb,
                             int64_t *n_orient_io)
{
    /* A3: every new tet (boundary face with the cavity-side vertex
     * replaced by p) must be strictly positively oriented, i.e. the
     * cavity is star-shaped around p. */
    for (int64_t r = 0; r < nb; r++) {
        int64_t tt = bnd[r] >> 2;
        int ii = bnd[r] & 3;
        const int32_t *w = tv + 4 * tt;
        double pq[3] = {px, py, pz};
        const double *q[4];
        for (int j = 0; j < 4; j++)
            q[j] = (j == ii) ? pq : coords + 3 * (int64_t)w[j];
        int o = orient3d_f(q[0], q[1], q[2], q[3]);
        (*n_orient_io)++;
        if (o == 2)
            return RETRY_BECAUSE(BW_WHY_ORIENT);
        if (o <= 0) /* on the face's plane or beyond it */
            return BW_ERR_FACE;
    }

    /* A4: closed-surface check + internal-face pairing.  Each
     * boundary-triangle edge must be shared by exactly two boundary
     * faces; the two new tets over those faces are adjacent across the
     * local slot opposite the edge. */
    if (3 * nb > tcap / 2) /* keep the open-addressing table sparse */
        return RETRY_BECAUSE(BW_WHY_SCRATCH);
    const uint64_t mask = (uint64_t)(tcap - 1);
    int64_t npairs = 0;
    for (int64_t r = 0; r < nb; r++) {
        int64_t tt = bnd[r] >> 2;
        int ii = bnd[r] & 3;
        const int32_t *w = tv + 4 * tt;
        int kept[3];
        int nk = 0;
        for (int j = 0; j < 4; j++)
            if (j != ii)
                kept[nk++] = j;
        for (int m = 0; m < 3; m++) {
            /* edges (kept0,kept1), (kept0,kept2), (kept1,kept2) sit
             * opposite local slots kept2, kept1, kept0 respectively */
            int ja = kept[m == 2 ? 1 : 0];
            int jb = kept[m == 0 ? 1 : 2];
            int slot = kept[2 - m];
            int64_t ga = w[ja], gb = w[jb];
            int64_t lo = ga < gb ? ga : gb;
            int64_t hi = ga < gb ? gb : ga;
            int64_t key = (lo << 32) | hi;
            uint64_t idx = ((uint64_t)key * 0x9E3779B97F4A7C15ULL >> 32)
                           & mask;
            for (;;) {
                if (estamp[idx] != gen) { /* empty (this call) */
                    estamp[idx] = gen;
                    ekey[idx] = key;
                    eval[idx] = (int32_t)(r * 4 + slot);
                    break;
                }
                if (ekey[idx] == key) {
                    int32_t prev = eval[idx];
                    if (prev < 0) /* third face on one edge */
                        return BW_ERR_CLOSED;
                    pairs[2 * npairs] = prev;
                    pairs[2 * npairs + 1] = (int32_t)(r * 4 + slot);
                    npairs++;
                    eval[idx] = -2;
                    break;
                }
                idx = (idx + 1) & mask;
            }
        }
    }
    if (npairs * 2 != 3 * nb)
        return BW_ERR_CLOSED; /* some edge only appeared once */
    if (!slots_fit(al, nb)) /* arrays need growth: Python path */
        return RETRY_BECAUSE(BW_WHY_GROWTH);

    /* A5: slot allocation, the first write (add_tets_batch's order). */
    take_slots(al, newt, nb);

    /* phase B: commit (cannot fail). */
    for (int64_t r = 0; r < nb; r++) {
        int64_t tt = bnd[r] >> 2;
        int ii = bnd[r] & 3;
        int64_t nt = newt[r];
        const int32_t *src = tv + 4 * tt; /* cavity rows stay intact here */
        int32_t *dv = tv + 4 * nt;
        int32_t *da = adj + 4 * nt;
        for (int j = 0; j < 4; j++) {
            dv[j] = (j == ii) ? vnew : src[j];
            da[j] = -1;
            if (j != ii)
                v2t[src[j]] = (int32_t)nt;
        }
        int32_t ext = adj[4 * tt + ii];
        da[ii] = ext;
        if (ext >= 0) {
            /* redirect the outside neighbor's back-pointer */
            int32_t *erow = adj + 4 * (int64_t)ext;
            for (int f = 0; f < 4; f++) {
                if (erow[f] == (int32_t)tt) {
                    erow[f] = (int32_t)nt;
                    break;
                }
            }
        }
    }
    for (int64_t m = 0; m < npairs; m++) {
        int32_t a = pairs[2 * m], b = pairs[2 * m + 1];
        adj[4 * (int64_t)newt[a >> 2] + (a & 3)] = newt[b >> 2];
        adj[4 * (int64_t)newt[b >> 2] + (b & 3)] = newt[a >> 2];
    }
    for (int64_t j = 0; j < ncav; j++) {
        int32_t *q = tv + 4 * (int64_t)cav[j];
        q[0] = q[1] = q[2] = q[3] = -1;
    }
    put_slots(al, cav, ncav); /* kill_tets_batch(cavity) */
    return BW_OK;
}

/* One insertion attempt.
 *
 * free_slots, epoch: the mesh's free-slot stack and slot epochs
 * in_f:  [px, py, pz]
 * in_i:  [seed, rng_state, n_live_tets, gen, vnew, tail, cap_t,
 *         n_free, scratch_cap, table_cap, last_located, cap_v]
 * out_i: [ncav, nb, n_free_out, tail_out, walk_steps, rng_state_out,
 *         located_tet, n_orient, n_insphere, retry_reason, seed_kind]
 *
 * With a vertex grid, seed is the caller's hint (-1: none) and the walk
 * starts where vg_probe says (seed_kind: which candidate; cap_v is the
 * rows of coords and v2t); without one, seed is the walk's first tet.  tag is an epoch-stamped per-tet scratch
 * (>= cap_t entries); gen and gen+1 mark in-cavity / checked-out for
 * this call only.  ekey/estamp/eval form the epoch-stamped edge hash
 * table (table_cap a power of 2).  On RETRY only out_i[9] and out_i[10]
 * are written.
 */
int64_t bw_insert(const double *coords, int32_t *tv, int32_t *adj,
                  int32_t *v2t, int32_t *free_slots, int32_t *epoch,
                  int64_t *tag, int32_t *cav, int32_t *bnd, int32_t *newt,
                  int32_t *stk, int64_t *ekey, int64_t *estamp,
                  int32_t *eval, int32_t *pairs, const double *in_f,
                  const int64_t *in_i, int64_t *out_i,
                  const struct vg_grid *grid)
{
    const double px = in_f[0], py = in_f[1], pz = in_f[2];
    int64_t t = in_i[0];
    uint64_t state = (uint64_t)in_i[1];
    const int64_t gen = in_i[3];
    slot_alloc al = {free_slots, epoch, in_i[7], in_i[5], in_i[6]};

    int64_t ncav = 0, nb = 0;
    int64_t steps = 0, n_orient = 0, n_insphere = 0;
    int64_t code;

    if (grid != NULL)
        t = vg_probe(grid, coords, v2t, in_i[11], tv, al.tail, px, py, pz,
                     t, in_i[10], &out_i[10]);
    code = walk_locate(coords, tv, adj, px, py, pz, in_i[2], &t, &state,
                       &steps, &n_orient);
    if (code == BW_OK)
        code = cavity_search(coords, tv, adj, tag, cav, bnd, stk, px, py, pz,
                             t, gen, in_i[8], &ncav, &nb, &n_insphere);
    if (code == BW_OK)
        code = commit_cavity(coords, tv, adj, v2t, &al, cav, bnd, newt, ekey,
                             estamp, eval, pairs, px, py, pz, gen,
                             (int32_t)in_i[4], in_i[9], ncav, nb, &n_orient);
    if (STATUS(code) == BW_RETRY) {
        out_i[9] = REASON(code);
        return BW_RETRY;
    }
    out_i[0] = ncav; out_i[1] = nb;
    out_i[2] = al.n_free; out_i[3] = al.tail;
    out_i[4] = steps; out_i[5] = (int64_t)state;
    out_i[6] = t; out_i[7] = n_orient; out_i[8] = n_insphere;
    return code;
}

/* Commit a cavity the caller already computed under vertex locks (the
 * speculative path).  cav holds ncav cavity tet ids, bnd the
 * nb boundary codes (tt*4+i) in Python's emission order.
 *
 * in_f:  [px, py, pz]
 * in_i:  [gen, vnew, tail, cap_t, n_free, table_cap, ncav, nb]
 * out_i: [n_free_out, tail_out, n_orient, retry_reason]
 */
int64_t bw_commit(const double *coords, int32_t *tv, int32_t *adj,
                  int32_t *v2t, int32_t *free_slots, int32_t *epoch,
                  const int32_t *cav, const int32_t *bnd, int32_t *newt,
                  int64_t *ekey, int64_t *estamp, int32_t *eval,
                  int32_t *pairs, const double *in_f, const int64_t *in_i,
                  int64_t *out_i)
{
    slot_alloc al = {free_slots, epoch, in_i[4], in_i[2], in_i[3]};
    int64_t n_orient = 0;
    int64_t code = commit_cavity(
        coords, tv, adj, v2t, &al, cav, bnd, newt, ekey, estamp, eval, pairs,
        in_f[0], in_f[1], in_f[2], in_i[0], (int32_t)in_i[1], in_i[5],
        in_i[6], in_i[7], &n_orient);
    out_i[0] = al.n_free;
    out_i[1] = al.tail;
    out_i[2] = n_orient;
    out_i[3] = REASON(code);
    return STATUS(code);
}

/* A batch of insertion attempts (the initial-sampling fast path).
 *
 * Caller guarantees the vertex free list is empty, so the k-th
 * committed point gets vertex id v_base + k; this routine writes the
 * new coords rows and v2t anchors itself so later points' predicates
 * and anchors see them.  Each commit allocates through the mesh's
 * free-slot stack as a scalar insert would; the batch stops — reporting
 * progress — at the first point needing anything it cannot do
 * conclusively in-place (filter failure, scratch overflow, any error
 * status) or crossing one of its bounds (a slot at or past slot_bound,
 * a vertex id at or past vert_bound: both lie within the arrays).  The
 * walk seed for point k+1 is the tet located for point k (remembering
 * walk).
 *
 * free_slots, epoch: the mesh's free-slot stack and slot epochs
 * in_f:  the (npts, 3) points
 * in_i:  [seed, rng_state, n_live, gen0, v_base, tail, slot_bound,
 *         n_free, scratch_cap, table_cap, npts, vert_bound, last_located]
 * out_i: [n_done, n_gens, rng_state_out, last_located, walk_steps,
 *         n_orient, n_insphere, cavity_tets_total, n_free_out,
 *         n_live_out, tail_out, stop_reason, seed_kind]
 * stop_reason says why the batch stopped short of npts (an error
 * status of the stopping point reads BW_WHY_OTHER).  With a vertex
 * grid the first walk starts where vg_probe says for the first point
 * (no hint; seed_kind: which candidate; every stored vertex is below
 * vert_bound, the rows it may read), else at seed.
 */
int64_t bw_insert_many(double *coords, int32_t *tv, int32_t *adj,
                       int32_t *v2t, int32_t *free_slots, int32_t *epoch,
                       int64_t *tag, int32_t *cav, int32_t *bnd,
                       int32_t *newt, int32_t *stk, int64_t *ekey,
                       int64_t *estamp, int32_t *eval, int32_t *pairs,
                       const double *in_f, const int64_t *in_i,
                       int64_t *out_i, const struct vg_grid *grid)
{
    int64_t t = in_i[0];
    if (grid != NULL && in_i[10] > 0)
        t = vg_probe(grid, coords, v2t, in_i[11], tv, in_i[5], in_f[0],
                     in_f[1], in_f[2], -1, in_i[12], &out_i[12]);
    uint64_t state = (uint64_t)in_i[1];
    int64_t n_live = in_i[2];
    int64_t gen = in_i[3];
    int64_t vnew = in_i[4];
    slot_alloc al = {free_slots, epoch, in_i[7], in_i[5], in_i[6]};
    const int64_t scap = in_i[8];
    const int64_t tcap = in_i[9];
    const int64_t npts = in_i[10];
    const int64_t vert_bound = in_i[11];

    int64_t n_done = 0, n_gens = 0, steps = 0;
    int64_t n_orient = 0, n_insphere = 0, cav_total = 0;
    int64_t why = BW_WHY_OTHER;

    for (int64_t k = 0; k < npts; k++) {
        if (vnew >= vert_bound) {
            why = BW_WHY_GROWTH;
            break;
        }
        const double px = in_f[3 * k];
        const double py = in_f[3 * k + 1];
        const double pz = in_f[3 * k + 2];
        int64_t ncav = 0, nb = 0;
        int64_t t_try = t;
        uint64_t state_try = state;
        int64_t code;
        n_gens++;
        code = walk_locate(coords, tv, adj, px, py, pz, n_live, &t_try,
                           &state_try, &steps, &n_orient);
        if (code == BW_OK)
            code = cavity_search(coords, tv, adj, tag, cav, bnd, stk, px, py,
                                 pz, t_try, gen, scap, &ncav, &nb,
                                 &n_insphere);
        if (code == BW_OK)
            code = commit_cavity(coords, tv, adj, v2t, &al, cav, bnd, newt,
                                 ekey, estamp, eval, pairs, px, py, pz, gen,
                                 (int32_t)vnew, tcap, ncav, nb, &n_orient);
        if (code != BW_OK) { /* RETRYs and errors resolve on the scalar path */
            why = REASON(code);
            break;
        }
        double *cr = coords + 3 * vnew;
        cr[0] = px;
        cr[1] = py;
        cr[2] = pz;
        v2t[vnew] = newt[nb - 1]; /* every new tet names vnew; the last wins */
        vnew++;
        n_live += nb - ncav;
        cav_total += ncav;
        /* The located tet just died with the cavity; seed the next walk
         * from the first new tet (the scalar path's hint convention). */
        t = newt[0];
        state = state_try;
        gen += 2;
        n_done++;
    }

    out_i[0] = n_done;
    out_i[1] = n_gens;
    out_i[2] = (int64_t)state;
    out_i[3] = t;
    out_i[4] = steps;
    out_i[5] = n_orient;
    out_i[6] = n_insphere;
    out_i[7] = cav_total;
    out_i[8] = al.n_free;
    out_i[9] = n_live;
    out_i[10] = al.tail;
    out_i[11] = why;
    return n_done;
}

/* ---- vertex removal ---------------------------------------------------
 *
 * bw_remove is the sequential removal of one vertex.  Everything up to
 * the commit is read-only on the mesh; a RETRY leaves it untouched and
 * the caller runs the Python gift-wrap (the same fill, with the exact
 * arithmetic and the cospherical-tie handling).
 */
#define BW_REMOVE_RETRY (-1)

/* Gift-wrap hole filling: replicates Triangulation3D._fill_hole_giftwrap
 * exactly for the conclusive case — an advancing front seeded with the
 * hole's boundary faces, apex selection by empty-circumsphere sweep over
 * the sorted link.  A link vertex on or behind a front face's plane is
 * no candidate for it (orient <= 0, the shared-coordinate zero
 * included); any inconclusive filter — which includes every cospherical
 * tie — and every degenerate sweep the Python code has special handling
 * for gives up.
 *
 * The front replicates Python dict semantics: entries are appended in
 * insertion order, popitem() takes the most recently inserted alive
 * entry, cancellation tombstones an entry in place.  Lookups scan the
 * alive entries linearly — fronts are tens of faces, so this beats a
 * hash table's constant factor.
 *
 * faces:  nh * 5 ints: [template0..3, slot] per hole face, in ball
 *         order (= the Python hole_faces dict's insertion order).
 * link:   nl sorted link vertex ids.
 * ents:   entry scratch, ent_cap * 9 ints:
 *         [key0, key1, key2, t0, t1, t2, t3, slot, alive].
 * cand:   nl ints (candidate scratch).
 * fill:   fill_cap * 4 output tet ids (template order, apex at slot:
 *         the order in which the candidate filter found the tet
 *         positively oriented, so it is stored as is).
 * canon:  fill_cap * 4 sorted tet ids (duplicate detection).
 * Returns n_fill >= 0, or -1 - BW_WHY_* when it gives up.
 */
static int64_t giftwrap_fill(const double *coords, const int32_t *faces,
                             const int32_t *link, int32_t *ents,
                             int32_t *cand, int32_t *fill, int32_t *canon,
                             int64_t nh, int64_t nl, int64_t n_ball,
                             int64_t ent_cap, int64_t fill_cap,
                             int64_t *n_orient_io, int64_t *n_insphere_io)
{
    int64_t n_ents = 0, n_alive = 0, n_fill = 0;

#define GIVE_UP(why) return -1 - (why)

    if (nh > ent_cap)
        GIVE_UP(BW_WHY_SCRATCH);
    for (int64_t f = 0; f < nh; f++) {
        const int32_t *src = faces + 5 * f;
        int32_t *e = ents + 9 * n_ents;
        int32_t k[3];
        int nk = 0;
        for (int j = 0; j < 4; j++)
            if (j != src[4])
                k[nk++] = src[j];
        /* sort the 3 face ids (the dict key) */
        int32_t tmp;
        if (k[0] > k[1]) { tmp = k[0]; k[0] = k[1]; k[1] = tmp; }
        if (k[1] > k[2]) { tmp = k[1]; k[1] = k[2]; k[2] = tmp; }
        if (k[0] > k[1]) { tmp = k[0]; k[0] = k[1]; k[1] = tmp; }
        e[0] = k[0]; e[1] = k[1]; e[2] = k[2];
        e[3] = src[0]; e[4] = src[1]; e[5] = src[2]; e[6] = src[3];
        e[7] = src[4];
        e[8] = 1;
        n_ents++;
        n_alive++;
    }

    const int64_t max_iter = 8 * n_ball + 64;
    int64_t it = 0;
    int64_t top = n_ents - 1;
    while (n_alive > 0) {
        if (++it > max_iter)
            GIVE_UP(BW_WHY_TIE); /* did not converge */
        while (top >= 0 && !ents[9 * top + 8])
            top--;
        int32_t *e = ents + 9 * top;
        e[8] = 0;
        n_alive--;
        top--; /* the next popitem starts below (appends move it back up) */
        int32_t template_[4] = {e[3], e[4], e[5], e[6]};
        const int slot = e[7];

        const double *q[4];
        for (int j = 0; j < 4; j++)
            q[j] = coords + 3 * (int64_t)template_[j];

        int64_t n_cand = 0;
        int32_t best = -1;
        for (int64_t w = 0; w < nl; w++) {
            int32_t cv = link[w];
            if (cv == template_[(slot + 1) & 3]
                || cv == template_[(slot + 2) & 3]
                || cv == template_[(slot + 3) & 3])
                continue; /* face vertex */
            const double *save = q[slot];
            q[slot] = coords + 3 * (int64_t)cv;
            int o = orient3d_f(q[0], q[1], q[2], q[3]);
            q[slot] = save;
            (*n_orient_io)++;
            if (o == 2)
                GIVE_UP(BW_WHY_ORIENT);
            if (o <= 0) /* behind the face, or flat on its plane */
                continue;
            cand[n_cand++] = cv;
            if (best < 0) {
                best = cv;
                continue;
            }
            const double *b0 = q[0], *b1 = q[1], *b2 = q[2], *b3 = q[3];
            const double *bq[4] = {b0, b1, b2, b3};
            bq[slot] = coords + 3 * (int64_t)best;
            const double *cp = coords + 3 * (int64_t)cv;
            int s = insphere_f(bq[0], bq[1], bq[2], bq[3], cp[0], cp[1],
                               cp[2]);
            (*n_insphere_io)++;
            if (s == 2)
                GIVE_UP(BW_WHY_INSPHERE);
            if (s > 0)
                best = cv;
        }
        if (best < 0) /* no apex: Python raises RemovalError */
            GIVE_UP(BW_WHY_TIE);
        /* Dominance re-check.  A conclusive s > 0 makes Python raise
         * RemovalError; an exact zero (cospherical tie) is never
         * conclusive here, so the tie handling stays in Python. */
        {
            const double *bq[4];
            for (int j = 0; j < 4; j++)
                bq[j] = (j == slot) ? coords + 3 * (int64_t)best : q[j];
            for (int64_t w = 0; w < n_cand; w++) {
                if (cand[w] == best)
                    continue;
                const double *cp = coords + 3 * (int64_t)cand[w];
                int s = insphere_f(bq[0], bq[1], bq[2], bq[3], cp[0], cp[1],
                                   cp[2]);
                (*n_insphere_io)++;
                if (s == 2)
                    GIVE_UP(BW_WHY_INSPHERE);
                if (s > 0)
                    GIVE_UP(BW_WHY_TIE); /* apex not dominant */
            }
        }

        int32_t nv[4] = {template_[0], template_[1], template_[2],
                         template_[3]};
        nv[slot] = best;
        if (n_fill >= fill_cap)
            GIVE_UP(BW_WHY_SCRATCH);
        {
            int32_t c[4] = {nv[0], nv[1], nv[2], nv[3]};
            int32_t tmp;
            for (int a = 0; a < 3; a++)
                for (int b = 0; b < 3 - a; b++)
                    if (c[b] > c[b + 1]) {
                        tmp = c[b]; c[b] = c[b + 1]; c[b + 1] = tmp;
                    }
            for (int64_t m = 0; m < n_fill; m++) {
                const int32_t *cm = canon + 4 * m;
                if (cm[0] == c[0] && cm[1] == c[1] && cm[2] == c[2]
                    && cm[3] == c[3])
                    GIVE_UP(BW_WHY_TIE); /* repeated tet */
            }
            int32_t *cm = canon + 4 * n_fill;
            cm[0] = c[0]; cm[1] = c[1]; cm[2] = c[2]; cm[3] = c[3];
        }
        int32_t *out = fill + 4 * n_fill;
        out[0] = nv[0]; out[1] = nv[1]; out[2] = nv[2]; out[3] = nv[3];
        n_fill++;

        /* Push / cancel the three faces containing the new apex. */
        for (int j = 0; j < 4; j++) {
            if (j == slot)
                continue;
            int32_t k[3];
            int nk = 0;
            for (int m = 0; m < 4; m++)
                if (m != j)
                    k[nk++] = nv[m];
            int32_t tmp;
            if (k[0] > k[1]) { tmp = k[0]; k[0] = k[1]; k[1] = tmp; }
            if (k[1] > k[2]) { tmp = k[1]; k[1] = k[2]; k[2] = tmp; }
            if (k[0] > k[1]) { tmp = k[0]; k[0] = k[1]; k[1] = tmp; }
            int64_t found = -1;
            for (int64_t m = n_ents - 1; m >= 0; m--) {
                int32_t *em = ents + 9 * m;
                if (em[8] && em[0] == k[0] && em[1] == k[1] && em[2] == k[2]) {
                    found = m;
                    break;
                }
            }
            if (found >= 0) {
                ents[9 * found + 8] = 0;
                n_alive--;
            } else {
                if (n_ents >= ent_cap)
                    GIVE_UP(BW_WHY_SCRATCH);
                /* Flip parity so an apex beyond this face orients
                 * positively: swap two slots other than j. */
                int32_t fv[4] = {nv[0], nv[1], nv[2], nv[3]};
                int o0 = -1, o1 = -1;
                for (int m = 0; m < 4; m++) {
                    if (m == j)
                        continue;
                    if (o0 < 0)
                        o0 = m;
                    else if (o1 < 0)
                        o1 = m;
                }
                tmp = fv[o0]; fv[o0] = fv[o1]; fv[o1] = tmp;
                int32_t *en = ents + 9 * n_ents;
                en[0] = k[0]; en[1] = k[1]; en[2] = k[2];
                en[3] = fv[0]; en[4] = fv[1]; en[5] = fv[2]; en[6] = fv[3];
                en[7] = j;
                en[8] = 1;
                if (n_ents > top)
                    top = n_ents;
                n_ents++;
                n_alive++;
            }
        }
    }
    return n_fill;
#undef GIVE_UP
}

/* |6 * volume| of the tet with vertex ids w (the removal tolerance
 * check only: same expression as Triangulation3D._abs_volume_sum). */
static double abs_vol6(const double *coords, const int32_t *w)
{
    const double *a = coords + 3 * (int64_t)w[0];
    const double *b = coords + 3 * (int64_t)w[1];
    const double *c = coords + 3 * (int64_t)w[2];
    const double *d = coords + 3 * (int64_t)w[3];
    double ad0 = a[0] - d[0], ad1 = a[1] - d[1], ad2 = a[2] - d[2];
    double bd0 = b[0] - d[0], bd1 = b[1] - d[1], bd2 = b[2] - d[2];
    double cd0 = c[0] - d[0], cd1 = c[1] - d[1], cd2 = c[2] - d[2];
    return fabs(ad0 * (bd1 * cd2 - bd2 * cd1)
                + ad1 * (bd2 * cd0 - bd0 * cd2)
                + ad2 * (bd0 * cd1 - bd1 * cd0));
}

/* Position of id in the sorted array link[0..nl), or -1. */
static int64_t link_index(const int32_t *link, int64_t nl, int32_t id)
{
    int64_t lo = 0, hi = nl;
    while (lo < hi) {
        int64_t mid = (lo + hi) >> 1;
        if (link[mid] < id)
            lo = mid + 1;
        else
            hi = mid;
    }
    return (lo < nl && link[lo] == id) ? lo : -1;
}

/* Remove vertex v and re-triangulate its ball (sequential path).
 *
 * Read phase, in the Python kernel's orders: the ball by
 * MeshArrays.incident_tets' stack discipline from v2t[v]; the hole
 * boundary (the face opposite v of every ball tet) in ball order; the
 * sorted link; the gift-wrap fill.  The fill is then verified exactly
 * as Triangulation3D._verify_fill does before anything is written:
 * every face lies in at most two fill tets, the faces lying in one are
 * exactly the hole boundary, and |fill volume - ball volume| <=
 * 1e-6 * max(1, ball volume).  The same pass pairs every fill face
 * with its mate (mate[]: a fill face code, or -1 - hole face).
 *
 * Commit (cannot fail): the slots kill_tet x ball followed by add_tet x
 * fill allocate — the ball's slots pushed in ball order, the fill's
 * popped LIFO (so the ball's own come back in reverse), then the tail —
 * dead rows for the ball, rows + adjacency for the fill (outside
 * neighbours' back-pointers, resolved before any write, redirected),
 * v2t anchors of the link vertices in new-tet order.  The caller keeps
 * kill_vertex(v), the vertex grid and the counters.
 *
 * free_slots, epoch: the mesh's free-slot stack and slot epochs
 * ball:   ball tet ids (out), ball_cap ints; stk the same size.
 * mate:   4 * fill_cap ints; ext: 2 * ball_cap ints
 *         ([outside tet, its back slot] per hole face).
 * in_i:   [v, gen, tail, cap_t, n_free, ball_cap, link_cap, ent_cap,
 *          fill_cap, table_cap]
 * out_i:  [n_ball, n_free_out, tail_out, n_orient, n_insphere,
 *          retry_reason]
 * Returns n_fill > 0 (new tet ids in newt, ball ids in ball), or
 * BW_REMOVE_RETRY with nothing mutated.
 */
int64_t bw_remove(const double *coords, int32_t *tv, int32_t *adj,
                  int32_t *v2t, int32_t *free_slots, int32_t *epoch,
                  int64_t *tag, int32_t *ball, int32_t *stk, int32_t *faces,
                  int32_t *link, int32_t *ents, int32_t *cand, int32_t *fill,
                  int32_t *canon, int32_t *newt, int32_t *mate, int32_t *ext,
                  int64_t *ekey, int64_t *estamp, int32_t *eval,
                  const int64_t *in_i, int64_t *out_i)
{
    const int32_t v = (int32_t)in_i[0];
    const int64_t gen = in_i[1];
    slot_alloc al = {free_slots, epoch, in_i[4], in_i[2], in_i[3]};
    const int64_t ball_cap = in_i[5];
    const int64_t link_cap = in_i[6];
    const int64_t ent_cap = in_i[7];
    const int64_t fill_cap = in_i[8];
    const int64_t tcap = in_i[9];
    int64_t n_ball = 0, nl = 0;
    int64_t n_orient = 0, n_insphere = 0;

#define REMOVE_RETRY(why)                                                   \
    do {                                                                    \
        out_i[3] = n_orient; out_i[4] = n_insphere;                         \
        out_i[5] = (why);                                                   \
        return BW_REMOVE_RETRY;                                             \
    } while (0)

    /* ---- ball: incident_tets' traversal from the anchor ---- */
    const int64_t seed = v2t[v];
    if (seed < 0 || seed >= al.tail || tv[4 * seed] < 0)
        REMOVE_RETRY(BW_WHY_OTHER); /* stale anchor: Python's slow scan */
    tag[seed] = gen;
    ball[n_ball++] = (int32_t)seed;
    int64_t sp = 0;
    stk[sp++] = (int32_t)seed;
    while (sp > 0) {
        const int64_t t = stk[--sp];
        const int32_t *w = tv + 4 * t;
        const int32_t *arow = adj + 4 * t;
        for (int i = 0; i < 4; i++) {
            const int32_t nbr = arow[i];
            /* the face shared with nbr contains v iff v is not the
             * vertex opposite it */
            if (nbr < 0 || tag[nbr] == gen || w[i] == v)
                continue;
            const int32_t *nw = tv + 4 * (int64_t)nbr;
            if (nw[0] < 0
                || (nw[0] != v && nw[1] != v && nw[2] != v && nw[3] != v))
                continue;
            if (n_ball >= ball_cap)
                REMOVE_RETRY(BW_WHY_SCRATCH);
            tag[nbr] = gen;
            ball[n_ball++] = nbr;
            stk[sp++] = nbr;
        }
    }

    /* ---- hole boundary (ball order), sorted link, ball volume ---- */
    double ball_vol6 = 0.0;
    for (int64_t b = 0; b < n_ball; b++) {
        const int32_t *w = tv + 4 * (int64_t)ball[b];
        int32_t *f = faces + 5 * b;
        int li = -1;
        for (int j = 0; j < 4; j++) {
            f[j] = w[j];
            if (w[j] == v)
                li = j;
        }
        if (li < 0)
            REMOVE_RETRY(BW_WHY_OTHER); /* anchor tet does not name v */
        f[4] = li;
        for (int j = 0; j < 4; j++) {
            if (j == li)
                continue;
            /* sorted insert, duplicates dropped */
            int64_t at = nl;
            while (at > 0 && link[at - 1] > w[j])
                at--;
            if (at > 0 && link[at - 1] == w[j])
                continue;
            if (nl >= link_cap)
                REMOVE_RETRY(BW_WHY_SCRATCH);
            for (int64_t m = nl; m > at; m--)
                link[m] = link[m - 1];
            link[at] = w[j];
            nl++;
        }
        ball_vol6 += abs_vol6(coords, w);
    }

    /* ---- fill ---- */
    const int64_t n_fill = giftwrap_fill(coords, faces, link, ents, cand,
                                         fill, canon, n_ball, nl, n_ball,
                                         ent_cap, fill_cap, &n_orient,
                                         &n_insphere);
    if (n_fill < 0)
        REMOVE_RETRY(-1 - n_fill);

    /* ---- verification: face pairing, boundary equality, volume ----
     * Faces are keyed by their three link positions (12 bits each);
     * the table holds -1 - h for hole face h until a fill face claims
     * it, a fill face code until its mate arrives, -2 once closed. */
    if (nl > 4096 || 2 * (n_ball + 4 * n_fill) > tcap)
        REMOVE_RETRY(BW_WHY_SCRATCH);
    const uint64_t mask = (uint64_t)(tcap - 1);
    const int64_t CLOSED = INT32_MIN;
    int64_t n_claimed = 0, n_paired = 0;
    double fill_vol6 = 0.0;
    for (int64_t r = -n_ball; r < n_fill; r++) {
        /* r < 0: hole face n_ball + r; r >= 0: the four faces of fill r */
        const int32_t *w = r < 0 ? faces + 5 * (n_ball + r) : fill + 4 * r;
        int64_t loc[4];
        for (int j = 0; j < 4; j++)
            loc[j] = (r < 0 && j == w[4]) ? -1 : link_index(link, nl, w[j]);
        if (r >= 0)
            fill_vol6 += abs_vol6(coords, w);
        for (int i = 0; i < 4; i++) {
            if (r < 0 && i != w[4])
                continue;
            int64_t k[3];
            int nk = 0;
            for (int j = 0; j < 4; j++)
                if (j != i)
                    k[nk++] = loc[j];
            int64_t tmp;
            if (k[0] > k[1]) { tmp = k[0]; k[0] = k[1]; k[1] = tmp; }
            if (k[1] > k[2]) { tmp = k[1]; k[1] = k[2]; k[2] = tmp; }
            if (k[0] > k[1]) { tmp = k[0]; k[0] = k[1]; k[1] = tmp; }
            const int64_t key = (k[0] << 24) | (k[1] << 12) | k[2];
            uint64_t idx = ((uint64_t)key * 0x9E3779B97F4A7C15ULL >> 32)
                           & mask;
            while (estamp[idx] == gen && ekey[idx] != key)
                idx = (idx + 1) & mask;
            const int32_t code = (int32_t)(r < 0 ? -1 - (n_ball + r)
                                                 : 4 * r + i);
            if (estamp[idx] != gen) { /* first sight of this face */
                estamp[idx] = gen;
                ekey[idx] = key;
                eval[idx] = code;
                continue;
            }
            const int32_t prev = eval[idx];
            if (r < 0 || prev == CLOSED) /* twice in the hole / third tet */
                REMOVE_RETRY(BW_WHY_TIE);
            if (prev < 0)
                n_claimed++;
            else {
                n_paired++;
                mate[prev] = code;
            }
            mate[code] = prev;
            eval[idx] = (int32_t)CLOSED;
        }
    }
    /* every hole face claimed once, every other fill face paired */
    if (n_claimed != n_ball || n_claimed + 2 * n_paired != 4 * n_fill)
        REMOVE_RETRY(BW_WHY_TIE);
    {
        const double ball_vol = ball_vol6 / 6.0;
        const double fill_vol = fill_vol6 / 6.0;
        if (fabs(fill_vol - ball_vol)
            > 1e-6 * (ball_vol > 1.0 ? ball_vol : 1.0))
            REMOVE_RETRY(BW_WHY_TIE);
    }

    if (n_fill > n_ball && !slots_fit(&al, n_fill - n_ball))
        REMOVE_RETRY(BW_WHY_GROWTH);

    /* ---- outside neighbours and their back slots, before any write:
     * recycled ball ids would make a later search ambiguous ---- */
    for (int64_t h = 0; h < n_ball; h++) {
        const int32_t t = ball[h];
        const int32_t o = adj[4 * (int64_t)t + faces[5 * h + 4]];
        int back = -1;
        if (o >= 0) {
            const int32_t *orow = adj + 4 * (int64_t)o;
            for (int f = 0; f < 4 && back < 0; f++)
                if (orow[f] == t)
                    back = f;
            if (back < 0)
                REMOVE_RETRY(BW_WHY_OTHER);
        }
        ext[2 * h] = o;
        ext[2 * h + 1] = back;
    }

    /* ---- commit (cannot fail): slots first ---- */
    put_slots(&al, ball, n_ball);
    take_slots(&al, newt, n_fill);
    for (int64_t b = 0; b < n_ball; b++) {
        int32_t *q = tv + 4 * (int64_t)ball[b];
        q[0] = q[1] = q[2] = q[3] = -1;
    }
    for (int64_t r = 0; r < n_fill; r++) {
        const int32_t nt = newt[r];
        const int32_t *src = fill + 4 * r;
        int32_t *dv = tv + 4 * (int64_t)nt;
        int32_t *da = adj + 4 * (int64_t)nt;
        for (int i = 0; i < 4; i++) {
            dv[i] = src[i];
            const int32_t m = mate[4 * r + i];
            if (m >= 0) {
                da[i] = newt[m >> 2];
            } else {
                const int32_t *e = ext + 2 * (int64_t)(-1 - m);
                da[i] = e[0];
                if (e[0] >= 0)
                    adj[4 * (int64_t)e[0] + e[1]] = nt;
            }
        }
        for (int i = 0; i < 4; i++)
            v2t[src[i]] = nt;
    }

    out_i[0] = n_ball;
    out_i[1] = al.n_free;
    out_i[2] = al.tail;
    out_i[3] = n_orient;
    out_i[4] = n_insphere;
    out_i[5] = BW_WHY_OTHER;
    return n_fill;
#undef REMOVE_RETRY
}
