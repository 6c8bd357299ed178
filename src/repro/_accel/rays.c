/* The surface oracle's traversal: imaging/isosurface.py's LabelRays and
 * SurfaceOracle queries when the accelerator is loaded, answering as the
 * Python reference (_first_crossing, voxel_of + the feature lookup +
 * voxel_center) does, float for float.  Every expression keeps the
 * reference's operand order and its floor / ceil / truncation, and the
 * library is built with -ffp-contract=off, so no product is fused into a
 * sum.  A double is clamped to its index range before it is converted:
 * the reference's int() of a huge value is exact, a C cast of it is
 * undefined.
 *
 * The image travels as three arrays: the int16 labels (C order), the
 * int32 feature transform (flat index of each voxel's nearest surface
 * voxel) and the geometry g = origin[3], spacing[3], shape[3] as
 * doubles.  Nothing is stored between calls.  Python binds these entry
 * points through ctypes.PyDLL, so each call runs whole under the
 * interpreter lock. */

#include <math.h>
#include <stdbool.h>
#include <stdint.h>

/* First point of a + t*d, 0 <= t <= t_max, where the label changes
 * (_first_crossing): Amanatides-Woo in voxel coordinates, the ray
 * clipped to the image box first, faces reached at one t stepped
 * together.  Writes the point to out and returns true, or returns
 * false. */
static bool ray_walk(const int16_t *labels, const double *g,
                     const double *a, const double *d, double t_max,
                     double *out)
{
    const double ox = g[0], oy = g[1], oz = g[2];
    const double sx = g[3], sy = g[4], sz = g[5];
    const double nx = g[6], ny = g[7], nz = g[8];
    const int64_t iny = (int64_t)ny, inz = (int64_t)nz;
    const double rx = (a[0] - ox) / sx, ry = (a[1] - oy) / sy,
        rz = (a[2] - oz) / sz;
    const double vx = d[0] / sx, vy = d[1] / sy, vz = d[2] / sz;
    double t = 0.0;
    int64_t i, j, k;

    const bool outside = !(0.0 <= rx && rx < nx && 0.0 <= ry && ry < ny
                           && 0.0 <= rz && rz < nz);
    if (outside) {
        /* Clip to the box: the ray is in background until it enters. */
        const double r3[3] = {rx, ry, rz}, v3[3] = {vx, vy, vz},
            n3[3] = {nx, ny, nz};
        double t_exit = INFINITY;
        for (int c = 0; c < 3; c++) {
            const double r = r3[c], v = v3[c], n = n3[c];
            double t_in, t_out;
            if (v > 0.0) {
                t_in = -r / v;
                t_out = (n - r) / v;
            } else if (v < 0.0) {
                t_in = (n - r) / v;
                t_out = -r / v;
            } else if (0.0 <= r && r < n) {
                continue;
            } else {
                return false;
            }
            if (t_in > t) t = t_in;
            if (t_out < t_exit) t_exit = t_out;
        }
        if (t >= t_exit || t > t_max) return false;
        /* The voxel entered: a descending axis takes the voxel below an
         * integer coordinate; the clamp catches rounding past a face. */
        double x[3] = {rx + t * vx, ry + t * vy, rz + t * vz};
        int64_t idx[3];
        for (int c = 0; c < 3; c++) {
            double f = v3[c] < 0.0 ? ceil(x[c]) - 1.0 : floor(x[c]);
            if (!(f >= 0.0)) f = 0.0;
            if (f > n3[c] - 1.0) f = n3[c] - 1.0;
            idx[c] = (int64_t)f;
        }
        i = idx[0];
        j = idx[1];
        k = idx[2];
    } else {
        i = (int64_t)rx;
        j = (int64_t)ry;
        k = (int64_t)rz;
    }

    /* Per axis: st the index step, f the next face, e the face past the
     * box, t? where the ray reaches face f. */
    int64_t stx, fx, ex, sty, fy, ey, stz, fz, ez;
    if (vx > 0.0) {
        stx = 1; fx = i + 1; ex = (int64_t)nx + 1;
    } else {
        stx = vx < 0.0 ? -1 : 0; fx = i; ex = -1;
    }
    if (vy > 0.0) {
        sty = 1; fy = j + 1; ey = iny + 1;
    } else {
        sty = vy < 0.0 ? -1 : 0; fy = j; ey = -1;
    }
    if (vz > 0.0) {
        stz = 1; fz = k + 1; ez = inz + 1;
    } else {
        stz = vz < 0.0 ? -1 : 0; fz = k; ez = -1;
    }
    double tx = stx ? ((double)fx - rx) / vx : INFINITY;
    double ty = sty ? ((double)fy - ry) / vy : INFINITY;
    double tz = stz ? ((double)fz - rz) / vz : INFINITY;
    const int64_t ax = stx * iny * inz, ay = sty * inz;
    int64_t at = (i * iny + j) * inz + k;
    const int16_t label = labels[at];

    if (!outside || label == 0) {
        bool left_box = false;
        for (;;) {
            if (tx <= ty && tx <= tz) {
                t = tx;
                if (t > t_max) return false;
                fx += stx;
                at += ax;
                tx = ((double)fx - rx) / vx;
                left_box = left_box || fx == ex;
                if (ty == t || tz == t) continue;
            } else if (ty <= tz) {
                t = ty;
                if (t > t_max) return false;
                fy += sty;
                at += ay;
                ty = ((double)fy - ry) / vy;
                left_box = left_box || fy == ey;
                if (tz == t) continue;
            } else {
                t = tz;
                if (t > t_max) return false;
                fz += stz;
                at += stz;
                tz = ((double)fz - rz) / vz;
                left_box = left_box || fz == ez;
            }
            if (left_box) {
                if (label == 0) return false;
                break;
            }
            if (labels[at] != label) break;
        }
    }

    /* The crossing: a + t*d, exactly on every face reached at t. */
    out[0] = a[0] + t * d[0];
    out[1] = a[1] + t * d[1];
    out[2] = a[2] + t * d[2];
    if (stx && ((double)(fx - stx) - rx) / vx == t)
        out[0] = ox + (double)(fx - stx) * sx;
    if (sty && ((double)(fy - sty) - ry) / vy == t)
        out[1] = oy + (double)(fy - sty) * sy;
    if (stz && ((double)(fz - stz) - rz) / vz == t)
        out[2] = oz + (double)(fz - stz) * sz;
    return true;
}

static bool ray_finite(const double *p)
{
    return isfinite(p[0]) && isfinite(p[1]) && isfinite(p[2]);
}

/* Index of the voxel holding relative coordinate r, clamped to
 * [0, n - 1] (voxel_of: int() truncation is floor above 0). */
static int64_t ray_index(double r, double n)
{
    if (r <= 0.0) return 0;
    if (r >= n) return (int64_t)n - 1;
    return (int64_t)r;
}

/* World centre of the surface voxel the feature transform assigns to
 * p's clamped voxel (nearest_surface_voxel); p is finite. */
static void ray_site_of(const int32_t *feature, const double *g,
                        const double *p, double *q)
{
    const int64_t ny = (int64_t)g[7], nz = (int64_t)g[8];
    const int64_t i = ray_index((p[0] - g[0]) / g[3], g[6]);
    const int64_t j = ray_index((p[1] - g[1]) / g[4], g[7]);
    const int64_t k = ray_index((p[2] - g[2]) / g[5], g[8]);
    const int64_t f = feature[(i * ny + j) * nz + k];
    const int64_t si = f / (ny * nz), rem = f % (ny * nz);
    q[0] = g[0] + ((double)si + 0.5) * g[3];
    q[1] = g[1] + ((double)(rem / nz) + 0.5) * g[4];
    q[2] = g[2] + ((double)(rem % nz) + 0.5) * g[5];
}

/* closest_surface_point for a finite p: the ray from p through its
 * site, extended two voxels past it; from a site's own centre, the six
 * axis directions in turn. */
static bool ray_closest_of(const int16_t *labels, const int32_t *feature,
                           const double *g, const double *p, double *out)
{
    double q[3], d[3];
    ray_site_of(feature, g, p, q);
    d[0] = q[0] - p[0];
    d[1] = q[1] - p[1];
    d[2] = q[2] - p[2];
    const double length = sqrt(d[0] * d[0] + d[1] * d[1] + d[2] * d[2]);
    double big = g[3];
    if (g[4] > big) big = g[4];
    if (g[5] > big) big = g[5];
    const double overshoot = 2.0 * big;
    if (length == 0.0) {
        for (int c = 0; c < 3; c++) {
            for (int sign = 0; sign < 2; sign++) {
                double e[3] = {0.0, 0.0, 0.0};
                e[c] = (sign ? -1.0 : 1.0) * g[3 + c];
                if (ray_walk(labels, g, p, e, 1.0 + overshoot / g[3 + c],
                             out))
                    return true;
            }
        }
        return false;
    }
    return ray_walk(labels, g, p, d, 1.0 + overshoot / length, out);
}

/* surface_crossing(a, b): 1 and the crossing in out, 0 for none (a
 * zero-length segment included), -1 when an end is not finite. */
int64_t ray_crossing(const int16_t *labels, const double *g, double ax,
                     double ay, double az, double bx, double by, double bz,
                     double *out)
{
    const double a[3] = {ax, ay, az};
    const double d[3] = {bx - ax, by - ay, bz - az};
    if (!ray_finite(a) || !isfinite(bx) || !isfinite(by) || !isfinite(bz))
        return -1;
    if (d[0] == 0.0 && d[1] == 0.0 && d[2] == 0.0) return 0;
    return ray_walk(labels, g, a, d, 1.0, out);
}

/* nearest_surface_voxel(p): 0 and the site's centre in out, or -1 when
 * p is not finite. */
int64_t ray_site(const int32_t *feature, const double *g, double px,
                 double py, double pz, double *out)
{
    const double p[3] = {px, py, pz};
    if (!ray_finite(p)) return -1;
    ray_site_of(feature, g, p, out);
    return 0;
}

/* closest_surface_point(p): 1 and the point in out, 0 for none, -1 when
 * p is not finite. */
int64_t ray_closest(const int16_t *labels, const int32_t *feature,
                    const double *g, double px, double py, double pz,
                    double *out)
{
    const double p[3] = {px, py, pz};
    if (!ray_finite(p)) return -1;
    return ray_closest_of(labels, feature, g, p, out);
}

/* nearest_surface_voxels: ray_site for each of the n rows of pts into
 * the rows of out.  Returns -1 at the first row that is not finite, else
 * 0. */
int64_t ray_sites_many(const int32_t *feature, const double *g,
                       const double *pts, int64_t n, double *out)
{
    for (int64_t r = 0; r < n; r++) {
        if (!ray_finite(pts + 3 * r)) return -1;
        ray_site_of(feature, g, pts + 3 * r, out + 3 * r);
    }
    return 0;
}

/* closest_surface_points: ray_closest for each of the n rows of pts;
 * hit[r] says whether row r of z holds a point (a miss leaves NaN).
 * Returns -1 at the first row that is not finite, else the number of
 * hits. */
int64_t ray_closest_many(const int16_t *labels, const int32_t *feature,
                         const double *g, const double *pts, int64_t n,
                         bool *hit, double *z)
{
    int64_t hits = 0;
    for (int64_t r = 0; r < n; r++) {
        double *row = z + 3 * r;
        if (!ray_finite(pts + 3 * r)) return -1;
        hit[r] = ray_closest_of(labels, feature, g, pts + 3 * r, row);
        if (hit[r]) {
            hits++;
        } else {
            row[0] = row[1] = row[2] = NAN;
        }
    }
    return hits;
}
