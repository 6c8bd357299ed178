/* The triangulation's vertex grid and the walk's seed probe:
 * delaunay/triangulation.py's DictSeedGrid (cell -> last vertex stored
 * there) and its probe when the accelerator is loaded, answering as the
 * reference does, tie for tie, because the tet it picks seeds the walk
 * and so its LCG state.
 *
 * A vertex lives in cell trunc((p - lo) * inv) per axis (Python's int()
 * of a float: toward zero).  The grid starts at res = 16 cells along the
 * box's longest axis, inv = res / extent; once the vertex store has more
 * than res^3 / 8 slots it doubles res and re-bins every live vertex in
 * ascending id order, so a cell's owner is its largest live id.  A store
 * makes the vertex its cell's owner; a drop empties the cell only if the
 * vertex owns it.  The grid holds cells only: a vertex's point is its
 * row of the mesh's coords, and it is live unless its v2t anchor is
 * DEAD (MeshArrays.kill_vertex), so every call is handed those arrays.
 *
 * The probe: the home cell's owner, else the nearest owner among the 26
 * neighbouring cells (x, y, z ascending, strict <), whose anchor tet
 * seeds the walk unless the live hint's first vertex is strictly nearer;
 * then the hint, the last located tet, a scan for the first live tet.
 * It reads no vertex row at or past nv and no tet row at or past nt: a
 * walk on another thread may hold arrays a peer's commit has since
 * outgrown, whose anchors and owners can name rows past their end.  An
 * owner past nv reads as an empty cell, a tet past nt as dead.
 *
 * Python binds the vg_* entry points through ctypes.PyDLL, so each call
 * runs whole under the interpreter lock; bw_insert and bw_insert_many
 * call vg_probe themselves. */

#include <math.h>
#include <stdbool.h>
#include <stdint.h>
#include <stdlib.h>

/* Which candidate the probe returned (KernelCounters.seed_*). */
#define VG_GRID 0
#define VG_HINT 1
#define VG_SCAN 2

#define VG_DEAD (-2)            /* delaunay.mesh.DEAD */

typedef struct vg_grid {
    double lo[3], extent, inv;
    int64_t res, cap;           /* re-bin once the slots pass cap */
    int64_t owned;              /* cells with an owner (the dict's len) */
    /* cells: key (kx, ky, kz) and owner (-1: none); an emptied cell
     * stays in the table */
    int64_t *key, *own, ncells, ccap;
    int64_t *tab;               /* open addressing, 2 * ccap, -1 empty */
} vg_grid;

static int64_t vg_coord(double v)
{
    if (!(v > -4.0e18)) return -4000000000000000000LL;
    if (v > 4.0e18) return 4000000000000000000LL;
    return (int64_t)v;          /* truncation toward zero, as int() */
}

static int64_t vg_slot(const vg_grid *g, int64_t kx, int64_t ky, int64_t kz)
{
    uint64_t h = (uint64_t)kx * 0x9E3779B97F4A7C15ULL
        ^ (uint64_t)ky * 0xC2B2AE3D27D4EB4FULL
        ^ (uint64_t)kz * 0x165667B19E3779F9ULL;
    uint64_t m = 2 * (uint64_t)g->ccap - 1;
    for (h = (h ^ (h >> 29)) & m;; h = (h + 1) & m) {
        int64_t c = g->tab[h];
        if (c < 0 || (g->key[3 * c] == kx && g->key[3 * c + 1] == ky
                      && g->key[3 * c + 2] == kz))
            return (int64_t)h;
    }
}

/* Owner of cell (kx, ky, kz), or -1. */
static int64_t vg_owner(const vg_grid *g, int64_t kx, int64_t ky, int64_t kz)
{
    int64_t c = g->tab[vg_slot(g, kx, ky, kz)];
    return c < 0 ? -1 : g->own[c];
}

static void vg_keys(const vg_grid *g, double x, double y, double z,
                    int64_t *k)
{
    k[0] = vg_coord((x - g->lo[0]) * g->inv);
    k[1] = vg_coord((y - g->lo[1]) * g->inv);
    k[2] = vg_coord((z - g->lo[2]) * g->inv);
}

static int vg_realloc(void *arr, int64_t n, size_t size)
{
    void *p = realloc(*(void **)arr, (size_t)n * size);
    if (p == NULL) return -1;
    *(void **)arr = p;
    return 0;
}

/* An empty table of room for cap cells, at most half full. */
static int vg_reset_cells(vg_grid *g, int64_t cap)
{
    int64_t *tab = malloc(2 * (size_t)cap * sizeof(int64_t));
    if (tab == NULL || vg_realloc(&g->key, 3 * cap, sizeof(int64_t))
        || vg_realloc(&g->own, cap, sizeof(int64_t))) {
        free(tab);
        return -1;
    }
    free(g->tab);
    g->tab = tab;
    g->ccap = cap;
    for (int64_t i = 0; i < 2 * cap; i++) tab[i] = -1;
    return 0;
}

/* Make v, at coords row v, the owner of its cell: 0, or -1 when out of
 * memory. */
static int vg_put(vg_grid *g, const double *coords, int64_t v)
{
    const double *p = coords + 3 * v;
    int64_t k[3], h, c;
    vg_keys(g, p[0], p[1], p[2], k);
    if ((c = g->tab[h = vg_slot(g, k[0], k[1], k[2])]) < 0) {
        if (g->ncells == g->ccap) {
            /* Rehash the cells into a table twice the size. */
            int64_t n = g->ncells;
            int64_t *key = g->key, *own = g->own;
            g->key = g->own = NULL;
            if (vg_reset_cells(g, 2 * n)) {
                g->key = key;
                g->own = own;
                return -1;
            }
            for (int64_t i = 0; i < n; i++) {
                g->key[3 * i] = key[3 * i];
                g->key[3 * i + 1] = key[3 * i + 1];
                g->key[3 * i + 2] = key[3 * i + 2];
                g->own[i] = own[i];
                g->tab[vg_slot(g, key[3 * i], key[3 * i + 1],
                               key[3 * i + 2])] = i;
            }
            free(key);
            free(own);
            h = vg_slot(g, k[0], k[1], k[2]);
        }
        c = g->ncells++;
        g->key[3 * c] = k[0];
        g->key[3 * c + 1] = k[1];
        g->key[3 * c + 2] = k[2];
        g->own[c] = -1;
        g->tab[h] = c;
    }
    if (g->own[c] < 0) g->owned++;
    g->own[c] = v;
    return 0;
}

/* Double the resolution and re-bin the live vertices among the first
 * nslots, ids ascending. */
static int vg_regrid(vg_grid *g, const double *coords, const int32_t *v2t,
                     int64_t nslots)
{
    g->res *= 2;
    g->inv = (double)g->res / g->extent;
    g->cap = g->res * g->res * g->res / 8;
    g->ncells = 0;
    g->owned = 0;
    for (int64_t i = 0; i < 2 * g->ccap; i++) g->tab[i] = -1;
    for (int64_t v = 0; v < nslots; v++)
        if (v2t[v] != VG_DEAD && vg_put(g, coords, v)) return -1;
    return 0;
}

void vg_free(vg_grid *g)
{
    if (g == NULL) return;
    free(g->key); free(g->own); free(g->tab);
    free(g);
}

vg_grid *vg_new(double lox, double loy, double loz, double extent,
                int64_t res)
{
    vg_grid *g = calloc(1, sizeof(vg_grid));
    if (g == NULL) return NULL;
    g->lo[0] = lox;
    g->lo[1] = loy;
    g->lo[2] = loz;
    g->extent = extent;
    g->res = res;
    g->inv = (double)res / extent;
    g->cap = res * res * res / 8;
    if (vg_reset_cells(g, 64)) {
        vg_free(g);
        return NULL;
    }
    return g;
}

/* Vertex v, just stored in a store of nslots slots (coords and v2t hold
 * at least that many rows), owns its cell; re-bin if the slots now pass
 * the cap.  0, or -1 for an id outside the slots or when out of
 * memory. */
int64_t vg_add(vg_grid *g, const double *coords, const int32_t *v2t,
               int64_t nslots, int64_t v)
{
    if (v < 0 || v >= nslots) return -1;
    if (vg_put(g, coords, v)) return -1;
    if (nslots > g->cap && vg_regrid(g, coords, v2t, nslots)) return -1;
    return 0;
}

/* Vertex v died: its cell, by its row of coords (nv rows), loses it if
 * v owns it. */
void vg_drop(vg_grid *g, const double *coords, int64_t nv, int64_t v)
{
    if (v < 0 || v >= nv) return;
    const double *p = coords + 3 * v;
    int64_t k[3];
    vg_keys(g, p[0], p[1], p[2], k);
    int64_t c = g->tab[vg_slot(g, k[0], k[1], k[2])];
    if (c >= 0 && g->own[c] == v) {
        g->own[c] = -1;
        g->owned--;
    }
}

/* The cells' (kx, ky, kz, owner) rows, for comparing with the reference:
 * the count, and the first `cap` owned cells written to out. */
int64_t vg_cells(const vg_grid *g, int64_t *out, int64_t cap)
{
    int64_t n = 0;
    for (int64_t c = 0; c < g->ncells; c++) {
        if (g->own[c] < 0) continue;
        if (n < cap) {
            out[4 * n] = g->key[3 * c];
            out[4 * n + 1] = g->key[3 * c + 1];
            out[4 * n + 2] = g->key[3 * c + 2];
            out[4 * n + 3] = g->own[c];
        }
        n++;
    }
    return n;
}

/* The owner of cell k + (i, j, l) if it is a row of the arrays, or -1. */
static int64_t vg_owner_in(const vg_grid *g, const int64_t *k, int64_t i,
                           int64_t j, int64_t l, int64_t nv)
{
    int64_t v = vg_owner(g, k[0] + i, k[1] + j, k[2] + l);
    return v < nv ? v : -1;
}

static double vg_sqdist(const double *coords, int64_t v, double x, double y,
                       double z)
{
    const double *q = coords + 3 * v;
    double dx = q[0] - x, dy = q[1] - y, dz = q[2] - z;
    return dx * dx + dy * dy + dz * dz;
}

static bool vg_live(const int32_t *tv, int64_t nt, int64_t t)
{
    return t >= 0 && t < nt && tv[4 * t] >= 0;
}

/* The walk's seed tet for (x, y, z); *which says which candidate it was.
 * coords and v2t have nv readable rows, tv has nt (at most the
 * allocator's tail).  hint and last are -1 when there is none. */
int64_t vg_probe(const vg_grid *g, const double *coords, const int32_t *v2t,
                 int64_t nv, const int32_t *tv, int64_t nt, double x,
                 double y, double z, int64_t hint, int64_t last,
                 int64_t *which)
{
    /* The hint's first vertex, read once: a peer thread's commit may
     * kill the hint meanwhile (the walk then restarts from a live tet). */
    int64_t hint_v = -1;
    if (hint >= 0 && hint < nt) hint_v = tv[4 * hint];
    if (hint_v < 0 || hint_v >= nv) hint = -1;
    int64_t k[3];
    vg_keys(g, x, y, z, k);
    int64_t best_v = vg_owner_in(g, k, 0, 0, 0, nv);
    double best_d = INFINITY;
    if (best_v >= 0) {
        best_d = vg_sqdist(coords, best_v, x, y, z);
    } else if (g->owned > 0) {
        for (int64_t i = -1; i <= 1; i++)
            for (int64_t j = -1; j <= 1; j++)
                for (int64_t l = -1; l <= 1; l++) {
                    if (i == 0 && j == 0 && l == 0) continue;
                    int64_t v = vg_owner_in(g, k, i, j, l, nv);
                    if (v < 0) continue;
                    double d = vg_sqdist(coords, v, x, y, z);
                    if (d < best_d) {
                        best_d = d;
                        best_v = v;
                    }
                }
    }
    /* The anchor, read once: an unlocked C commit may rewrite it. */
    int64_t t = best_v >= 0 ? v2t[best_v] : -1;
    if (vg_live(tv, nt, t)) {
        if (hint >= 0 && vg_sqdist(coords, hint_v, x, y, z) < best_d) {
            *which = VG_HINT;
            return hint;
        }
        *which = VG_GRID;
        return t;
    }
    if (hint >= 0) {
        *which = VG_HINT;
        return hint;
    }
    if (vg_live(tv, nt, last)) {
        *which = VG_HINT;
        return last;
    }
    *which = VG_SCAN;
    for (t = 0; t < nt; t++)
        if (tv[4 * t] >= 0) return t;
    return -1;
}

/* vg_probe for Python: the seed tet * 4 + which. */
int64_t vg_seed(const vg_grid *g, const double *coords, const int32_t *v2t,
                int64_t nv, const int32_t *tv, int64_t nt, double x,
                double y, double z, int64_t hint, int64_t last)
{
    int64_t which = VG_SCAN;
    int64_t t = vg_probe(g, coords, v2t, nv, tv, nt, x, y, z, hint, last,
                         &which);
    return t * 4 + which;
}
