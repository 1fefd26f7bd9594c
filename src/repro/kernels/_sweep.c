/*
 * Compiled sweeps of the ``fast`` macro kernel (see macro.py).
 *
 * One call anneals every row of a padded ragged batch (macro.py's
 * ``_Batch``) through every sweep of a schedule.  Each sweep first draws
 * every chunk's random blocks, in the batch's rank order and in the order
 * a solo NumPy anneal of the chunk draws them, through the chunk's own
 * bit generator (``next_double`` is the function ``Generator.random``
 * calls).  Each step then follows ``_Batch.step`` operation by operation,
 * so orders, positions and guard proxies are bit-identical to the NumPy
 * loop.  Build with -O2 -ffp-contract=off; -ffast-math or FMA contraction
 * would change the rounding.
 */
#include <math.h>
#include <stdint.h>
#include <string.h>

typedef double (*next_double_fn)(void *state);

/* The gate bias of a failing (0) and a passing (1) unit. */
static const double gate_bias[2] = {-INFINITY, 0.0};

/* NumPy's pairwise summation of n terms (DOUBLE_pairwise_sum). */
static double pairwise_sum(const double *a, int64_t n)
{
    if (n < 8) {
        double res = 0.;
        for (int64_t i = 0; i < n; i++)
            res += a[i];
        return res;
    }
    if (n <= 128) {
        double r[8], res;
        int64_t i;
        for (i = 0; i < 8; i++)
            r[i] = a[i];
        for (i = 8; i < n - (n % 8); i += 8) {
            r[0] += a[i + 0];
            r[1] += a[i + 1];
            r[2] += a[i + 2];
            r[3] += a[i + 3];
            r[4] += a[i + 4];
            r[5] += a[i + 5];
            r[6] += a[i + 6];
            r[7] += a[i + 7];
        }
        res = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]));
        for (; i < n; i++)
            res += a[i];
        return res;
    }
    int64_t n2 = n / 2;
    n2 -= n2 % 8;
    return pairwise_sum(a, n2) + pairwise_sum(a + n2, n - n2);
}

/*
 * NumPy's argmax: the first maximum, or the first NaN if there is one
 * (-0.0 and 0.0 tie, so the first of them wins).  A select loop with no
 * early exit: once the best is NaN, no later element is better.
 */
static int64_t argmax(const double *s, int64_t n)
{
    double best = s[0];
    int64_t at = 0;
    for (int64_t i = 1; i < n; i++) {
        const int better = !(s[i] <= best) & !isnan(best);
        best = better ? s[i] : best;
        at = better ? i : at;
    }
    return at;
}

/* Fill a (steps, rows, cols) block of a (.., m, width) array in C order. */
static void draw_block(double *out, int64_t m, int64_t width, int64_t steps,
                       int64_t first, int64_t rows, int64_t cols,
                       next_double_fn next_double, void *state)
{
    for (int64_t t = 0; t < steps; t++)
        for (int64_t r = 0; r < rows; r++) {
            double *row = out + (t * m + first + r) * width;
            for (int64_t c = 0; c < cols; c++)
                row[c] = next_double(state);
        }
}

/*
 * Anneal a padded batch of m rows of width n through every sweep.
 *
 * weights (m, n, n), order and pos_of (m, n), allowed (m, n) and proxy
 * (m) are _Batch's arrays; order, pos_of and proxy are updated in place.
 * sum_width and last (m) are each row's guard-proxy sum width and last
 * real index.  active (steps) counts the rows still annealing at each
 * position step; tables (3, steps, m) holds each row's position and its
 * previous and next neighbours' positions per step.  lanes (chunks, 4)
 * holds each chunk's first row, row count, city count and step count,
 * in rank order, and states/draws its bit generator.  gate, jitter
 * (steps, m, n) and override (steps, m) are one sweep's zeroed scratch.
 * Returns the sweeps run.
 */
int64_t anneal_sweeps(
    int64_t m, int64_t n, const double *weights, int64_t *order,
    int64_t *pos_of, const uint8_t *allowed, double *proxy,
    const int64_t *sum_width, const int64_t *last,
    int64_t steps, const int64_t *active, const int64_t *tables,
    int64_t chunks, const int64_t *lanes, void *const *states,
    void *const *draws, const double *probabilities, int64_t sweeps,
    int closed, double resolution, int guarded,
    double *gate, double *jitter, double *override)
{
    double scores[n];
    int64_t cand[n];
    uint8_t pass[n];
    const int64_t *pos_tab = tables, *prev_tab = tables + steps * m,
                  *next_tab = tables + 2 * steps * m;
    for (int64_t sweep = 0; sweep < sweeps; sweep++) {
        const double p_sw = probabilities[sweep];
        for (int64_t c = 0; c < chunks; c++) {
            const int64_t *lane = lanes + 4 * c;
            next_double_fn next_double = (next_double_fn)draws[c];
            draw_block(gate, m, n, lane[3], lane[0], lane[1], lane[2],
                       next_double, states[c]);
            if (resolution > 0)
                draw_block(jitter, m, n, lane[3], lane[0], lane[1], lane[2],
                           next_double, states[c]);
            if (guarded)
                draw_block(override, m, 1, lane[3], lane[0], lane[1], 1,
                           next_double, states[c]);
        }
        for (int64_t t = 0; t < steps; t++) {
            for (int64_t i = 0; i < active[t]; i++) {
                const double *w = weights + i * n * n;
                const uint8_t *ok = allowed + i * n;
                const double *g = gate + (t * m + i) * n;
                int64_t *ord = order + i * n, *at = pos_of + i * n;
                const int64_t pos = pos_tab[t * m + i];
                const int64_t prev = prev_tab[t * m + i];
                const int64_t next = next_tab[t * m + i];

                /* Gate: passing units, else every allowed city (NAND
                 * fallback).  No branch depends on a draw. */
                int any = 0;
                for (int64_t k = 0; k < n; k++) {
                    pass[k] = (g[k] < p_sw) & (ok[k] != 0);
                    any |= pass[k];
                }
                if (!any)
                    memcpy(pass, ok, (size_t)n);

                /* Scores: previous plus next neighbour's weight row, or
                 * the previous alone where both are one position, plus
                 * the gate bias.  Adding 0.0 turns -0.0 into 0.0, as
                 * NumPy's ``scores += bias`` does. */
                const double *a = w + ord[prev] * n, *b = w + ord[next] * n;
                if (prev == next)
                    for (int64_t k = 0; k < n; k++)
                        scores[k] = a[k] + gate_bias[pass[k]];
                else
                    for (int64_t k = 0; k < n; k++)
                        scores[k] = (a[k] + b[k]) + gate_bias[pass[k]];
                if (resolution > 0) {
                    const double *j = jitter + (t * m + i) * n;
                    const double scale = resolution * fabs(scores[argmax(scores, n)]);
                    for (int64_t k = 0; k < n; k++)
                        scores[k] += j[k] * scale;
                }
                const int64_t won = argmax(scores, n);
                const int64_t held = ord[pos];
                if (won == held)
                    continue;
                const int64_t swap = at[won];
                if (guarded) {
                    /* Current-comparison guard at the row's own sum
                     * width; the scores buffer holds the edges. */
                    memcpy(cand, ord, (size_t)n * sizeof *cand);
                    cand[pos] = won;
                    cand[swap] = held;
                    double *edges = scores;
                    for (int64_t e = 0; e < sum_width[i]; e++)
                        edges[e] = w[cand[e] * n + cand[e + 1]];
                    double total = 0.0 + pairwise_sum(edges, sum_width[i]);
                    if (closed)
                        total += w[cand[last[i]] * n + cand[0]];
                    if (!(total >= proxy[i] || override[t * m + i] < p_sw))
                        continue;
                    proxy[i] = total;
                }
                ord[pos] = won;
                ord[swap] = held;
                at[won] = pos;
                at[held] = swap;
            }
        }
    }
    return sweeps;
}
