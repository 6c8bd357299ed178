/* The refinement rules' judge: core/domain.py's RefineDomain.judge for
 * the sequential path, deciding R1-R5 for one live tet and the point the
 * rule inserts, as the Python judge does.
 *
 * It reads what the Python judge reads, through the judge_ctx the caller
 * keeps current: the circumball store's rows (a stale row is computed
 * with circumcenter_tet's operation order and written back, as
 * CircumballStore.ball does), the EDT feature index and the label
 * volume with rays.c's site, closest-point and crossing routines, the
 * R1 point grid (pointgrid.c), the int8 vertex kinds, the hull planes of
 * the insertion gate and the R5 size bound.  Built with
 * -ffp-contract=off, every expression keeps the reference's operand
 * order.
 *
 * Where the reference's arithmetic is not this file's, the judge decides
 * only outside a tie band and otherwise returns a defer code, and Python
 * judges the tet: math.dist in R1's reach test and R4's shortest edge
 * (here the root of a sum of squares), math.acos at R3's 30 degree bound
 * (here a cosine compared with the bound's), the choice of the longest
 * edge whose midpoint replaces a circumcentre outside the virtual
 * simplex (math.dist again), and a point that is not finite (where the
 * reference raises).  R5 with a size
 * function other than a constant is left to Python too (JUDGE_SIZE).
 *
 * Nothing is kept between calls.  Python binds judge through
 * ctypes.PyDLL, so a call runs whole under the interpreter lock. */

#include <math.h>
#include <stdbool.h>
#include <stddef.h>
#include <stdint.h>

struct pg_grid;
bool pg_any_within(const struct pg_grid *g, double x, double y, double z,
                   double r, int64_t exclude);
int64_t ray_site(const int32_t *feature, const double *g, double px,
                 double py, double pz, double *out);
int64_t ray_closest(const int16_t *labels, const int32_t *feature,
                    const double *g, double px, double py, double pz,
                    double *out);
int64_t ray_crossing(const int16_t *labels, const double *g, double ax,
                     double ay, double az, double bx, double by, double bz,
                     double *out);

/* Verdicts (keep in sync with _accel/__init__.py).  A defer is
 * JUDGE_DEFER - reason. */
#define JUDGE_NONE 0
#define JUDGE_R1 1
#define JUDGE_R2 2
#define JUDGE_R3 3
#define JUDGE_R4 4
#define JUDGE_R5 5
#define JUDGE_SIZE 6
#define JUDGE_MIDPOINT 8   /* flag: the longest edge's midpoint instead */
#define JUDGE_DEFER (-1)
#define WHY_REACH 0
#define WHY_ANGLE 1
#define WHY_EDGE 2
#define WHY_MIDPOINT 3
#define WHY_NONFINITE 4

/* Relative room around a bound where math.dist's rounding may decide
 * otherwise; absolute room around the bound's cosine. */
#define TIE 1e-12
#define COS_TIE 1e-12

#define ISOSURFACE 1

typedef struct {
    const double *coords;        /* (n_vertices, 3) */
    const int32_t *tv, *adj;     /* (tets, 4) rows and face neighbours */
    const int32_t *epoch;        /* per tet slot */
    double *rows;                /* circumball store: (n_rows, 5) */
    int64_t n_rows;
    const int8_t *kinds;         /* per vertex; past n_kinds: circumcentre */
    int64_t n_kinds;
    const int16_t *labels;
    const int32_t *feature;
    const double *geometry;      /* origin[3], spacing[3], shape[3] */
    const struct pg_grid *iso;   /* R1's point grid */
    double delta, slack;         /* R1's sampling distance, reach slack */
    double re_bound, cos_bound;  /* R4's ratio, cos(R3's angle) */
    double size;                 /* R5's bound; NaN: Python's sf decides */
    double hull[16];             /* (n, off) of the simplex's four faces */
    double hull_margin;
} judge_ctx;

static bool finite3(const double *p)
{
    return isfinite(p[0]) && isfinite(p[1]) && isfinite(p[2]);
}

/* CircumballStore.ball: centre c and radius *r of live tet t. */
static void jd_ball(const judge_ctx *x, int64_t t, double *c, double *r)
{
    const double epoch = (double)x->epoch[t];
    double *row = t < x->n_rows ? x->rows + 5 * t : NULL;
    if (row != NULL && row[4] == epoch) {
        c[0] = row[0];
        c[1] = row[1];
        c[2] = row[2];
        *r = row[3];
        return;
    }
    const int32_t *v = x->tv + 4 * t;
    const double *a = x->coords + 3 * (int64_t)v[0];
    const double *b = x->coords + 3 * (int64_t)v[1];
    const double *cc = x->coords + 3 * (int64_t)v[2];
    const double *d = x->coords + 3 * (int64_t)v[3];
    const double bax = b[0] - a[0], bay = b[1] - a[1], baz = b[2] - a[2];
    const double cax = cc[0] - a[0], cay = cc[1] - a[1], caz = cc[2] - a[2];
    const double dax = d[0] - a[0], day = d[1] - a[1], daz = d[2] - a[2];
    const double b2 = bax * bax + bay * bay + baz * baz;
    const double c2 = cax * cax + cay * cay + caz * caz;
    const double d2 = dax * dax + day * day + daz * daz;
    const double cxdx = cay * daz - caz * day;
    const double cxdy = caz * dax - cax * daz;
    const double cxdz = cax * day - cay * dax;
    const double dxbx = day * baz - daz * bay;
    const double dxby = daz * bax - dax * baz;
    const double dxbz = dax * bay - day * bax;
    const double bxcx = bay * caz - baz * cay;
    const double bxcy = baz * cax - bax * caz;
    const double bxcz = bax * cay - bay * cax;
    const double det = 2.0 * (bax * cxdx + bay * cxdy + baz * cxdz);
    if (det == 0.0) {
        /* circumcenter_tet raises: the centroid, an infinite radius */
        c[0] = (a[0] + b[0] + cc[0] + d[0]) / 4.0;
        c[1] = (a[1] + b[1] + cc[1] + d[1]) / 4.0;
        c[2] = (a[2] + b[2] + cc[2] + d[2]) / 4.0;
        *r = INFINITY;
    } else {
        const double ox = (b2 * cxdx + c2 * dxbx + d2 * bxcx) / det;
        const double oy = (b2 * cxdy + c2 * dxby + d2 * bxcy) / det;
        const double oz = (b2 * cxdz + c2 * dxbz + d2 * bxcz) / det;
        c[0] = a[0] + ox;
        c[1] = a[1] + oy;
        c[2] = a[2] + oz;
        const double dx = c[0] - a[0], dy = c[1] - a[1], dz = c[2] - a[2];
        *r = sqrt(dx * dx + dy * dy + dz * dz);
    }
    if (row != NULL) {
        row[0] = c[0];
        row[1] = c[1];
        row[2] = c[2];
        row[3] = *r;
        row[4] = epoch;
    }
}

/* SegmentedImage.label_at for a point with no NaN. */
static int64_t jd_label(const judge_ctx *x, const double *p)
{
    const double *g = x->geometry;
    const double rx = (p[0] - g[0]) / g[3];
    if (rx < 0.0 || rx >= g[6]) return 0;
    const double ry = (p[1] - g[1]) / g[4];
    if (ry < 0.0 || ry >= g[7]) return 0;
    const double rz = (p[2] - g[2]) / g[5];
    if (rz < 0.0 || rz >= g[8]) return 0;
    const int64_t ny = (int64_t)g[7], nz = (int64_t)g[8];
    return x->labels[((int64_t)rx * ny + (int64_t)ry) * nz + (int64_t)rz];
}

/* A circumcentre rule's point for tet t: c itself inside the virtual
 * simplex (Triangulation3D.inside_domain), else the midpoint of the
 * longest edge, the first of the longest in edge order
 * (_longest_edge_midpoint), and the rule flagged JUDGE_MIDPOINT.  When
 * another edge's length is within the tie band of the longest, which
 * one math.dist ranks first is not known here: defer. */
static int64_t jd_centre(const judge_ctx *x, int64_t t, const double *c,
                         int64_t rule, double *out)
{
    bool inside = true;
    for (int k = 0; k < 4 && inside; k++) {
        const double *n = x->hull + 4 * k;
        inside = n[0] * c[0] + n[1] * c[1] + n[2] * c[2] - n[3]
            > x->hull_margin;
    }
    if (inside) {
        out[0] = c[0];
        out[1] = c[1];
        out[2] = c[2];
        return rule;
    }
    const int32_t *v = x->tv + 4 * t;
    double len[6];
    int best = 0, e = 0;
    for (int i = 0; i < 4; i++)
        for (int j = i + 1; j < 4; j++, e++) {
            const double *a = x->coords + 3 * (int64_t)v[i];
            const double *b = x->coords + 3 * (int64_t)v[j];
            const double dx = a[0] - b[0], dy = a[1] - b[1],
                dz = a[2] - b[2];
            len[e] = sqrt(dx * dx + dy * dy + dz * dz);
            if (len[e] > len[best]) best = e;
        }
    for (e = 0; e < 6; e++)
        if (e != best && len[best] - len[e] <= TIE * len[best])
            return JUDGE_DEFER - WHY_MIDPOINT;
    static const int EDGE[6][2] = {{0, 1}, {0, 2}, {0, 3},
                                   {1, 2}, {1, 3}, {2, 3}};
    const double *a = x->coords + 3 * (int64_t)v[EDGE[best][0]];
    const double *b = x->coords + 3 * (int64_t)v[EDGE[best][1]];
    out[0] = 0.5 * (a[0] + b[0]);
    out[1] = 0.5 * (a[1] + b[1]);
    out[2] = 0.5 * (a[2] + b[2]);
    return rule | JUDGE_MIDPOINT;
}

/* Does the facet a, b, c have a planar angle below R3's bound?  1 yes,
 * 0 no, -1 within the tie band (triangle_angles' largest cosine). */
static int jd_sharp(const judge_ctx *x, const double *const *p)
{
    double most = -INFINITY;
    for (int i = 0; i < 3; i++) {
        const double *o = p[i], *q = p[(i + 1) % 3], *r = p[(i + 2) % 3];
        const double u[3] = {q[0] - o[0], q[1] - o[1], q[2] - o[2]};
        const double v[3] = {r[0] - o[0], r[1] - o[1], r[2] - o[2]};
        const double lu = sqrt(u[0] * u[0] + u[1] * u[1] + u[2] * u[2]);
        const double lv = sqrt(v[0] * v[0] + v[1] * v[1] + v[2] * v[2]);
        if (lu == 0.0 || lv == 0.0) return 1;   /* an angle of 0 */
        double cosang = (u[0] * v[0] + u[1] * v[1] + u[2] * v[2])
            / (lu * lv);
        if (cosang > 1.0) cosang = 1.0;
        if (cosang < -1.0) cosang = -1.0;
        if (cosang > most) most = cosang;
    }
    if (fabs(most - x->cos_bound) <= COS_TIE) return -1;
    return most > x->cos_bound;
}

static const int FACE[4][3] = {{1, 2, 3}, {0, 2, 3}, {0, 1, 3}, {0, 1, 2}};

/* The verdict on live tet t: JUDGE_NONE, a rule JUDGE_R1..R5 (R2, R4
 * and R5 maybe flagged JUDGE_MIDPOINT) with its point in out[0..2],
 * JUDGE_SIZE (R5 is Python's: out holds c and r), or a defer,
 * JUDGE_DEFER - reason. */
int64_t judge(const judge_ctx *x, int64_t t, double *out)
{
    double c[3], r, site[3];
    jd_ball(x, t, c, &r);
    if (!finite3(c)) return JUDGE_DEFER - WHY_NONFINITE;
    ray_site(x->feature, x->geometry, c[0], c[1], c[2], site);

    /* ---- R1, then R2 ---- */
    bool reaches = r == INFINITY;
    if (!reaches) {
        const double dx = c[0] - site[0], dy = c[1] - site[1],
            dz = c[2] - site[2];
        const double gap = sqrt(dx * dx + dy * dy + dz * dz);
        const double bound = r + x->slack;
        if (fabs(gap - bound) <= TIE * bound)
            return JUDGE_DEFER - WHY_REACH;
        reaches = gap <= bound;
    }
    if (reaches) {
        double z[3];
        if (ray_closest(x->labels, x->feature, x->geometry, c[0], c[1],
                        c[2], z) > 0
            && !pg_any_within(x->iso, z[0], z[1], z[2], x->delta, -1)) {
            out[0] = z[0];
            out[1] = z[1];
            out[2] = z[2];
            return JUDGE_R1;
        }
        if (r > 2.0 * x->delta) return jd_centre(x, t, c, JUDGE_R2, out);
    }

    /* ---- R3: the first restricted facet that wants refining ---- */
    const int64_t label = jd_label(x, c);
    const int32_t *v = x->tv + 4 * t;
    for (int i = 0; i < 4; i++) {
        const int64_t nbr = x->adj[4 * t + i];
        if (nbr < 0) continue;   /* the hull */
        double cn[3], rn;
        jd_ball(x, nbr, cn, &rn);
        if (isnan(cn[0]) || isnan(cn[1]) || isnan(cn[2]))
            return JUDGE_DEFER - WHY_NONFINITE;
        if (jd_label(x, cn) == label) continue;
        bool non_iso = false;
        const double *p[3];
        for (int k = 0; k < 3; k++) {
            const int64_t w = v[FACE[i][k]];
            non_iso = non_iso || w >= x->n_kinds
                || x->kinds[w] != ISOSURFACE;
            p[k] = x->coords + 3 * w;
        }
        if (!non_iso) {
            const int sharp = jd_sharp(x, p);
            if (sharp < 0) return JUDGE_DEFER - WHY_ANGLE;
            if (!sharp) continue;
        }
        if (!finite3(cn)) return JUDGE_DEFER - WHY_NONFINITE;
        if (ray_crossing(x->labels, x->geometry, c[0], c[1], c[2], cn[0],
                         cn[1], cn[2], out) > 0)
            return JUDGE_R3;
        break;   /* no crossing: on to R4, as the reference goes */
    }

    if (label == 0) return JUDGE_NONE;
    /* ---- R4 ---- */
    if (r == INFINITY) return jd_centre(x, t, c, JUDGE_R4, out);
    double se = INFINITY;
    for (int i = 0; i < 4; i++)
        for (int j = i + 1; j < 4; j++) {
            const double *a = x->coords + 3 * (int64_t)v[i];
            const double *b = x->coords + 3 * (int64_t)v[j];
            const double dx = a[0] - b[0], dy = a[1] - b[1],
                dz = a[2] - b[2];
            const double e = sqrt(dx * dx + dy * dy + dz * dz);
            if (e < se) se = e;
        }
    if (se == 0.0) return jd_centre(x, t, c, JUDGE_R4, out);
    const double ratio = r / se;
    if (fabs(ratio - x->re_bound) <= TIE * x->re_bound)
        return JUDGE_DEFER - WHY_EDGE;
    if (ratio > x->re_bound) return jd_centre(x, t, c, JUDGE_R4, out);
    /* ---- R5 ---- */
    if (isnan(x->size)) {
        out[0] = c[0];
        out[1] = c[1];
        out[2] = c[2];
        out[3] = r;
        return JUDGE_SIZE;
    }
    if (r > x->size) return jd_centre(x, t, c, JUDGE_R5, out);
    return JUDGE_NONE;
}
