/*
 * Exact Ward clustering: the nearest-neighbour chain and its dendrogram
 * cut (see clustering/agglomerative.py).
 *
 * ward_chain walks the chain exactly as _nn_chain_merges does: the same
 * stack, the same restart at the first live slot, the same merge test
 * (the top's nearest is the slot below it), the same Ward distance
 *
 *     w = size * s;  w /= size + s;  w *= sq,
 *
 * with sq the squared coordinate differences summed in column order, and
 * the same merged centroid (size * c_a + s_b * c_b) / total.  Only the
 * slots it evaluates differ.  Live slots sit in a uniform grid over the
 * first one or two coordinates, and the scan for the top's nearest visits
 * rings of cells around the top's cell.  A slot in ring r >= 2 lies more
 * than (r - 1) cell widths away along a grid axis, and
 * f = size / (size + 1) is the least weight size * s / (size + s) takes
 * over sizes s >= 1, so no slot from ring r on can come nearer than
 * f * ((r - 1) * width)^2.  The scan stops before the first ring whose
 * bound, shrunk by BOUND_SLACK, is strictly above the best distance
 * found, and keeps the lowest slot among equal distances: the slot
 * NumPy's argmin returns over every slot.  Build with -O2
 * -ffp-contract=off; -ffast-math or FMA contraction would change the
 * rounding.
 *
 * Every buffer is allocated per call: calls from several threads share
 * nothing.
 */
#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

/* Relative slack on a ring's bound, far above the rounding of the
 * distances and cell indices it bounds. */
#define BOUND_SLACK 1e-9
/* No skip on a bound below this: near the subnormal range rounding is no
 * longer relative. */
#define BOUND_FLOOR 1e-250
/* Live slots per cell when the grid is (re)built, and cells per axis at
 * most (which keeps the cell-index rounding far below BOUND_SLACK). */
#define SLOTS_PER_CELL 2
#define MAX_AXIS_CELLS 65536

enum { WARD_OK = 0, WARD_NO_MEMORY = -1, WARD_CHAIN_FAILED = -2 };

typedef struct {
    int64_t cells[2];  /* per grid axis; the second is 1 for d == 1 */
    double origin[2], width[2];
    double reach;      /* least width of an axis with more than one cell */
    int64_t *head;     /* each cell's first slot, -1 when empty */
    int64_t *next, *prev, *cell;  /* per slot; cell is -1 once dead */
} Grid;

/* Cells along one axis of extent `extent` when the grid is `ratio`
 * times as long on this axis as on the other, for `target` cells. */
static int64_t axis_cells(double extent, double ratio, int64_t target)
{
    if (!(extent > 0))
        return 1;
    double cells = sqrt((double)target * ratio);
    if (!(cells >= 1))
        return 1;
    if (cells > (double)target)
        cells = (double)target;
    if (cells > MAX_AXIS_CELLS)
        cells = MAX_AXIS_CELLS;
    return (int64_t)ceil(cells);
}

static int64_t axis_index(const Grid *g, int axis, double v)
{
    int64_t cells = g->cells[axis];
    if (cells == 1)
        return 0;
    double q = (v - g->origin[axis]) / g->width[axis];
    if (!(q >= 0))
        return 0;
    if (q >= (double)(cells - 1))
        return cells - 1;
    return (int64_t)q;
}

static int64_t cell_of(const Grid *g, const double *c, int64_t d, int64_t slot)
{
    const double *p = c + slot * d;
    int64_t i = axis_index(g, 0, p[0]);
    return d > 1 ? i * g->cells[1] + axis_index(g, 1, p[1]) : i;
}

static void insert(Grid *g, int64_t slot, int64_t at)
{
    g->cell[slot] = at;
    g->prev[slot] = -1;
    g->next[slot] = g->head[at];
    if (g->head[at] >= 0)
        g->prev[g->head[at]] = slot;
    g->head[at] = slot;
}

static void unlink_slot(Grid *g, int64_t slot)
{
    int64_t at = g->cell[slot];
    if (g->prev[slot] >= 0)
        g->next[g->prev[slot]] = g->next[slot];
    else
        g->head[at] = g->next[slot];
    if (g->next[slot] >= 0)
        g->prev[g->next[slot]] = g->prev[slot];
}

/* Lay a fresh grid over the `live` live slots of the `n`, about
 * SLOTS_PER_CELL to a cell.  axis_cells gives at most 3 * live / 2 + 1
 * cells, for which g->head has room. */
static void build_grid(Grid *g, const double *c, int64_t n, int64_t d, int64_t live)
{
    double lo[2] = {INFINITY, INFINITY}, hi[2] = {-INFINITY, -INFINITY};
    int axes = d > 1 ? 2 : 1;
    for (int64_t s = 0; s < n; s++) {
        if (g->cell[s] < 0)
            continue;
        for (int k = 0; k < axes; k++) {
            double v = c[s * d + k];
            if (v < lo[k])
                lo[k] = v;
            if (v > hi[k])
                hi[k] = v;
        }
    }
    int64_t target = live / SLOTS_PER_CELL > 1 ? live / SLOTS_PER_CELL : 1;
    double extent[2] = {hi[0] - lo[0], axes > 1 ? hi[1] - lo[1] : 0};
    /* A flat axis gets one cell, and x / 0 = inf gives the other all. */
    g->cells[0] = axis_cells(extent[0], extent[0] / extent[1], target);
    g->cells[1] = axis_cells(extent[1], extent[1] / extent[0], target);
    g->reach = INFINITY;  /* only read when some axis has two cells or more */
    for (int k = 0; k < 2; k++) {
        g->origin[k] = k < axes ? lo[k] : 0;
        g->width[k] = g->cells[k] > 1 ? extent[k] / (double)g->cells[k] : 0;
        if (g->cells[k] > 1 && g->width[k] < g->reach)
            g->reach = g->width[k];
    }
    int64_t total = g->cells[0] * g->cells[1];
    for (int64_t i = 0; i < total; i++)
        g->head[i] = -1;
    for (int64_t s = 0; s < n; s++)
        if (g->cell[s] >= 0)
            insert(g, s, cell_of(g, c, d, s));
}

/* Ward distances from `top` to the slots of one cell: keep the least,
 * and the lowest slot among equals. */
static void scan_cell(const Grid *g, int64_t at, const double *c, const double *sizes,
                      int64_t d, int64_t top, double *best, int64_t *nearest)
{
    const double *t = c + top * d;
    double size = sizes[top];
    for (int64_t s = g->head[at]; s >= 0; s = g->next[s]) {
        if (s == top)
            continue;
        const double *p = c + s * d;
        double diff = p[0] - t[0];
        double sq = diff * diff;
        for (int64_t k = 1; k < d; k++) {
            diff = p[k] - t[k];
            sq += diff * diff;
        }
        double w = size * sizes[s];
        w /= size + sizes[s];
        w *= sq;
        if (w < *best || (w == *best && s < *nearest)) {
            *best = w;
            *nearest = s;
        }
    }
}

/* The nearest live slot to `top` (argmin semantics), and its distance. */
static int64_t nearest_slot(const Grid *g, const double *c, const double *sizes,
                            int64_t d, int64_t top, double *best)
{
    int64_t cx = g->cell[top] / g->cells[1], cy = g->cell[top] % g->cells[1];
    int64_t gx = g->cells[0], gy = g->cells[1];
    int64_t last = cx > gx - 1 - cx ? cx : gx - 1 - cx;
    if (cy > last)
        last = cy;
    if (gy - 1 - cy > last)
        last = gy - 1 - cy;
    double floor_weight = sizes[top] / (sizes[top] + 1.0);
    int64_t nearest = -1;
    *best = INFINITY;
    for (int64_t r = 0; r <= last; r++) {
        if (r >= 2) {
            double gap = (double)(r - 1) * g->reach;
            double bound = floor_weight * (gap * gap) * (1.0 - BOUND_SLACK);
            if (bound >= BOUND_FLOOR && bound > *best)
                break;
        }
        int64_t x_lo = cx - r > 0 ? cx - r : 0, x_hi = cx + r < gx - 1 ? cx + r : gx - 1;
        for (int64_t x = x_lo; x <= x_hi; x++) {
            if (x == cx - r || x == cx + r) {
                /* The ring's outer columns: every cell in range. */
                int64_t y_lo = cy - r > 0 ? cy - r : 0, y_hi = cy + r < gy - 1 ? cy + r : gy - 1;
                for (int64_t y = y_lo; y <= y_hi; y++)
                    scan_cell(g, x * gy + y, c, sizes, d, top, best, &nearest);
                continue;
            }
            if (cy - r >= 0)
                scan_cell(g, x * gy + cy - r, c, sizes, d, top, best, &nearest);
            if (cy + r < gy)
                scan_cell(g, x * gy + cy + r, c, sizes, d, top, best, &nearest);
        }
    }
    return nearest;
}

/* Stable merge sort of order[0..m) by key (ties keep index order). */
static void sort_stable(const double *key, int64_t *order, int64_t *spare, int64_t m)
{
    for (int64_t i = 0; i < m; i++)
        order[i] = i;
    for (int64_t run = 1; run < m; run *= 2) {
        for (int64_t lo = 0; lo < m; lo += 2 * run) {
            int64_t mid = lo + run < m ? lo + run : m;
            int64_t hi = lo + 2 * run < m ? lo + 2 * run : m;
            int64_t i = lo, j = mid, o = lo;
            while (i < mid && j < hi)
                spare[o++] = key[order[j]] < key[order[i]] ? order[j++] : order[i++];
            while (i < mid)
                spare[o++] = order[i++];
            while (j < hi)
                spare[o++] = order[j++];
        }
        memcpy(order, spare, sizeof(int64_t) * (size_t)m);
    }
}

static int64_t find(int64_t *parent, int64_t x)
{
    while (parent[x] != x) {
        parent[x] = parent[parent[x]];
        x = parent[x];
    }
    return x;
}

/* Labels of the cut into k clusters: the n - k lowest merges, in stable
 * height order, joined by parent[root(b)] = root(a), and each point
 * labelled by its root's rank among the roots. */
static int cut(int64_t n, int64_t k, const int64_t *merge_a, const int64_t *merge_b,
               const double *heights, int64_t *labels)
{
    int64_t m = n - 1;
    int64_t *order = malloc(sizeof(int64_t) * (size_t)(m > 0 ? m : 1));
    int64_t *spare = malloc(sizeof(int64_t) * (size_t)(n));
    int64_t *parent = malloc(sizeof(int64_t) * (size_t)(n));
    if (!order || !spare || !parent) {
        free(order);
        free(spare);
        free(parent);
        return WARD_NO_MEMORY;
    }
    sort_stable(heights, order, spare, m);
    for (int64_t i = 0; i < n; i++)
        parent[i] = i;
    for (int64_t t = 0; t < n - k; t++) {
        int64_t ra = find(parent, merge_a[order[t]]);
        int64_t rb = find(parent, merge_b[order[t]]);
        parent[rb] = ra;
    }
    /* A root's label is its rank among the roots, as np.unique gives. */
    for (int64_t i = 0; i < n; i++)
        spare[i] = 0;
    for (int64_t i = 0; i < n; i++)
        spare[find(parent, i)] = 1;
    for (int64_t i = 0, rank = 0; i < n; i++)
        if (spare[i])
            spare[i] = rank++;
    for (int64_t i = 0; i < n; i++)
        labels[i] = spare[find(parent, i)];
    free(order);
    free(spare);
    free(parent);
    return WARD_OK;
}

/*
 * All n - 1 merges of the exact Ward NN-chain over points (n, d), in chain
 * order: merge_a survives, merge_b is merged away, heights are the Ward
 * distances, merge_sizes the new cluster sizes.  With 1 <= k <= n, also
 * the labels (n) of the cut into k clusters.  Returns 0, or a negative
 * error (no memory, or a chain deeper than n or without a neighbour)
 * after which the caller runs the NumPy chain.
 */
int64_t ward_chain(int64_t n, int64_t d, const double *points, int64_t k,
                   int64_t *merge_a, int64_t *merge_b, double *heights,
                   int64_t *merge_sizes, int64_t *labels)
{
    double *c = malloc(sizeof(double) * (size_t)(n * d));
    double *sizes = malloc(sizeof(double) * (size_t)n);
    int64_t *chain = malloc(sizeof(int64_t) * (size_t)n);
    Grid g;
    g.head = malloc(sizeof(int64_t) * (size_t)(3 * n + 1));
    g.next = malloc(sizeof(int64_t) * (size_t)n);
    g.prev = malloc(sizeof(int64_t) * (size_t)n);
    g.cell = malloc(sizeof(int64_t) * (size_t)n);
    int64_t status = WARD_OK;
    if (!c || !sizes || !chain || !g.head || !g.next || !g.prev || !g.cell) {
        status = WARD_NO_MEMORY;
        goto done;
    }
    for (int64_t i = 0; i < n * d; i++)
        c[i] = points[i];
    for (int64_t s = 0; s < n; s++) {
        sizes[s] = 1.0;
        g.cell[s] = 0;
    }
    build_grid(&g, c, n, d, n);
    int64_t remaining = n, capacity = n, depth = 0, first = 0, merges = 0;
    while (remaining > 1) {
        if (depth == 0) {
            while (g.cell[first] < 0)
                first++;
            chain[depth++] = first;
        }
        int64_t top = chain[depth - 1];
        double best;
        int64_t nearest = nearest_slot(&g, c, sizes, d, top, &best);
        if (depth >= 2 && nearest == chain[depth - 2]) {
            int64_t a = top, b = nearest;
            depth -= 2;
            double size = sizes[a], total = size + sizes[b];
            for (int64_t j = 0; j < d; j++)
                c[a * d + j] = (size * c[a * d + j] + sizes[b] * c[b * d + j]) / total;
            sizes[a] = total;
            merge_a[merges] = a;
            merge_b[merges] = b;
            heights[merges] = best;
            merge_sizes[merges] = (int64_t)total;
            merges++;
            remaining--;
            unlink_slot(&g, b);
            g.cell[b] = -1;
            unlink_slot(&g, a);
            insert(&g, a, cell_of(&g, c, d, a));
            if (2 * remaining <= capacity) {
                /* Where the NumPy chain compacts: fewer, wider cells. */
                capacity = remaining;
                build_grid(&g, c, n, d, remaining);
            }
        } else {
            if (nearest < 0 || depth >= n) {
                status = WARD_CHAIN_FAILED;
                goto done;
            }
            chain[depth++] = nearest;
        }
    }
    if (k >= 1 && k <= n)
        status = cut(n, k, merge_a, merge_b, heights, labels);
done:
    free(c);
    free(sizes);
    free(chain);
    free(g.head);
    free(g.next);
    free(g.prev);
    free(g.cell);
    return status;
}
