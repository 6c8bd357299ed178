/* Uniform hash grid over vertex ids: core/pointgrid.py's PointGrid when
 * the accelerator is loaded, answering as the dict-of-cells reference
 * does, order included.  A point p lives in cell floor(p / cell); a
 * query of radius r visits the cells floor((p -+ s) / cell), s = r +
 * 1e-9 * (|x| + |y| + |z| + r), x then y then z ascending, and a cell's
 * ids in insertion order (a doubly linked list per cell: a re-add moves
 * the id to the end); the test is
 * dx*dx + dy*dy + dz*dz <= r*r, d = q - p, left to right (built with
 * -ffp-contract=off, as bw_kernel.c is).  Ids are non-negative and index
 * dense arrays (they are vertex-store slots); an emptied cell stays in
 * the table.  Nothing here locks: Python binds these entry points
 * through ctypes.PyDLL, so each call runs whole under the interpreter
 * lock. */

#include <math.h>
#include <stdbool.h>
#include <stdint.h>
#include <stdlib.h>

typedef struct pg_grid {
    double cell;
    int64_t n;                  /* ids stored */
    /* cells: key (ix, iy, iz) and the first / last id of the list */
    int64_t *key, *head, *tail, ncells, ccap;
    /* open-addressing table of cell numbers (-1 empty), 2 * ccap long */
    int64_t *tab;
    /* per id: point, cell number (-1 absent), list links */
    double *pt;
    int64_t *cid, *nxt, *prv, vcap;
} pg_grid;

/* Cell index of a coordinate divided by the cell size; the clamp (NaN
 * goes low) keeps the conversion defined far outside any mesh. */
static int64_t pg_floor(double v)
{
    double f = floor(v);
    if (!(f > -4.0e18)) return -4000000000000000000LL;
    if (f > 4.0e18) return 4000000000000000000LL;
    return (int64_t)f;
}

/* Table position of cell (ix, iy, iz), or of the empty slot for it. */
static int64_t pg_probe(const pg_grid *g, int64_t ix, int64_t iy, int64_t iz)
{
    uint64_t h = (uint64_t)ix * 0x9E3779B97F4A7C15ULL
        ^ (uint64_t)iy * 0xC2B2AE3D27D4EB4FULL
        ^ (uint64_t)iz * 0x165667B19E3779F9ULL;
    uint64_t m = 2 * (uint64_t)g->ccap - 1;
    for (h = (h ^ (h >> 29)) & m;; h = (h + 1) & m) {
        int64_t c = g->tab[h];
        if (c < 0 || (g->key[3 * c] == ix && g->key[3 * c + 1] == iy
                      && g->key[3 * c + 2] == iz))
            return (int64_t)h;
    }
}

static int pg_grow(void *arr, int64_t n, size_t size)
{
    void *p = realloc(*(void **)arr, (size_t)n * size);
    if (p == NULL) return -1;
    *(void **)arr = p;
    return 0;
}

/* Room for ids below cap; -1 when out of memory. */
static int pg_reserve_ids(pg_grid *g, int64_t cap)
{
    if (pg_grow(&g->pt, 3 * cap, sizeof(double))
        || pg_grow(&g->cid, cap, sizeof(int64_t))
        || pg_grow(&g->nxt, cap, sizeof(int64_t))
        || pg_grow(&g->prv, cap, sizeof(int64_t)))
        return -1;
    for (int64_t i = g->vcap; i < cap; i++) g->cid[i] = -1;
    g->vcap = cap;
    return 0;
}

/* Room for cap cells, the table at most half full; -1 out of memory. */
static int pg_reserve_cells(pg_grid *g, int64_t cap)
{
    int64_t *tab = malloc(2 * (size_t)cap * sizeof(int64_t));
    if (tab == NULL || pg_grow(&g->key, 3 * cap, sizeof(int64_t))
        || pg_grow(&g->head, cap, sizeof(int64_t))
        || pg_grow(&g->tail, cap, sizeof(int64_t))) {
        free(tab);
        return -1;
    }
    free(g->tab);
    g->tab = tab;
    g->ccap = cap;
    for (int64_t i = 0; i < 2 * cap; i++) tab[i] = -1;
    for (int64_t c = 0; c < g->ncells; c++)
        tab[pg_probe(g, g->key[3 * c], g->key[3 * c + 1], g->key[3 * c + 2])]
            = c;
    return 0;
}

void pg_free(pg_grid *g)
{
    if (g == NULL) return;
    free(g->key); free(g->head); free(g->tail); free(g->tab);
    free(g->pt); free(g->cid); free(g->nxt); free(g->prv);
    free(g);
}

pg_grid *pg_new(double cell)
{
    pg_grid *g = calloc(1, sizeof(pg_grid));
    if (g == NULL) return NULL;
    g->cell = cell;
    if (pg_reserve_ids(g, 32) || pg_reserve_cells(g, 32)) {
        pg_free(g);
        return NULL;
    }
    return g;
}

int64_t pg_len(const pg_grid *g) { return g->n; }

bool pg_contains(const pg_grid *g, int64_t vid)
{
    return vid >= 0 && vid < g->vcap && g->cid[vid] >= 0;
}

void pg_remove(pg_grid *g, int64_t vid)
{
    if (!pg_contains(g, vid)) return;
    int64_t c = g->cid[vid], p = g->prv[vid], q = g->nxt[vid];
    if (p >= 0) g->nxt[p] = q; else g->head[c] = q;
    if (q >= 0) g->prv[q] = p; else g->tail[c] = p;
    g->cid[vid] = -1;
    g->n--;
}

/* Register vid at (x, y, z), moving it if present: 0, or -1 with
 * nothing changed for a negative id or when out of memory. */
int64_t pg_add(pg_grid *g, int64_t vid, double x, double y, double z)
{
    int64_t ix = pg_floor(x / g->cell), iy = pg_floor(y / g->cell);
    int64_t iz = pg_floor(z / g->cell), h, c;
    if (vid < 0 || (vid >= g->vcap && pg_reserve_ids(
            g, vid + 1 > 2 * g->vcap ? vid + 1 : 2 * g->vcap)))
        return -1;
    if ((c = g->tab[h = pg_probe(g, ix, iy, iz)]) < 0) {
        if (g->ncells == g->ccap) {
            if (pg_reserve_cells(g, 2 * g->ccap)) return -1;
            h = pg_probe(g, ix, iy, iz);
        }
        c = g->ncells++;
        g->key[3 * c] = ix;
        g->key[3 * c + 1] = iy;
        g->key[3 * c + 2] = iz;
        g->head[c] = g->tail[c] = -1;
        g->tab[h] = c;
    }
    pg_remove(g, vid);
    g->pt[3 * vid] = x;
    g->pt[3 * vid + 1] = y;
    g->pt[3 * vid + 2] = z;
    g->cid[vid] = c;
    g->prv[vid] = g->tail[c];
    g->nxt[vid] = -1;
    if (g->tail[c] >= 0) g->nxt[g->tail[c]] = vid; else g->head[c] = vid;
    g->tail[c] = vid;
    g->n++;
    return 0;
}

/* Ids other than `exclude` within r of (x, y, z), in query order.  With
 * out == NULL: 1 at the first one, else 0.  Otherwise the first `cap`
 * go to out and the count is returned. */
static int64_t pg_scan(const pg_grid *g, double x, double y, double z,
                       double r, int64_t exclude, int64_t *out, int64_t cap)
{
    const double cell = g->cell, r2 = r * r;
    int64_t n = 0;
    if (g->n == 0) return 0;
    /* The distance test is rounded, so a point a hair past r can pass
     * it from a cell just outside floor((p -+ r) / cell); padding r by
     * far more than that rounding widens a side only there. */
    const double s = r + 1e-9 * (fabs(x) + fabs(y) + fabs(z) + r);
    int64_t x0 = pg_floor((x - s) / cell), x1 = pg_floor((x + s) / cell);
    int64_t y0 = pg_floor((y - s) / cell), y1 = pg_floor((y + s) / cell);
    int64_t z0 = pg_floor((z - s) / cell), z1 = pg_floor((z + s) / cell);
    for (int64_t ix = x0; ix <= x1; ix++)
        for (int64_t iy = y0; iy <= y1; iy++)
            for (int64_t iz = z0; iz <= z1; iz++) {
                int64_t c = g->tab[pg_probe(g, ix, iy, iz)];
                for (int64_t v = c < 0 ? -1 : g->head[c]; v >= 0;
                     v = g->nxt[v]) {
                    const double *q = g->pt + 3 * v;
                    double dx = q[0] - x, dy = q[1] - y, dz = q[2] - z;
                    if (dx * dx + dy * dy + dz * dz <= r2 && v != exclude) {
                        if (out == NULL) return 1;
                        if (n < cap) out[n] = v;
                        n++;
                    }
                }
            }
    return n;
}

int64_t pg_query_ball(const pg_grid *g, double x, double y, double z,
                      double r, int64_t *out, int64_t cap)
{
    return pg_scan(g, x, y, z, r, -1, out, cap);
}

bool pg_any_within(const pg_grid *g, double x, double y, double z,
                   double r, int64_t exclude)
{
    return pg_scan(g, x, y, z, r, exclude, NULL, 0);
}

/* pg_any_within(row, r, -1) for each of the m rows of pts. */
void pg_any_within_many(const pg_grid *g, const double *pts, int64_t m,
                        double r, bool *out)
{
    for (int64_t i = 0; i < m; i++, pts += 3)
        out[i] = pg_scan(g, pts[0], pts[1], pts[2], r, -1, NULL, 0);
}
