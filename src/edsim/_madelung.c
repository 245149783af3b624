/* The density-phase engine's RK4 step, and whole runs of steps, compiled.

   edsim.dynamics builds this file on first use with
   cc -O3 -fno-math-errno -fno-trapping-math -ffp-contract=off -fPIC -shared
   and calls it through ctypes. Each element goes through the same IEEE 754
   operations, on the same operands, in the same order as
   _MadelungEngine's numpy step (its _rhs, _numpy_rk4 and step), so the two
   give the same bits: +, -, *, /, sqrt and nearbyint are each rounded
   correctly, and with contraction off no a * b + c becomes one fused
   multiply-add. The rows of rhs do not overlap (restrict), so GCC
   vectorizes its loops; lanes do the same operations as the scalar code,
   and no flag lets it reorder a sum. Only the sign and payload of a NaN
   may differ, and a step with a NaN fails.

   madelung_rk4 is one step before the renormalization, left out of line
   (not static): inlined into madelung_run, it ran 1-2% slower at n = 1024
   on x86-64. madelung_run takes up to a snapshot stride of steps, each
   renormalized and checked as _MadelungEngine.run does in numpy: max(rho,
   0), numpy's pairwise sum (madelung_sum) times dx, the finite checks, the
   division, the renormalization limit and the node floor. See
   _MadelungEngine for the algebra.

   Work layout, madelung_work_size(n) values, s = n + 4: padded rho (s),
   padded phi (s), padded flux (s), padded sqrt(rho + floor) (s), then the
   four RK4 stages, each drho/dt (n) then dphi/dt (n). Every value is
   written before it is read, so the buffer may start as anything. */

#include <math.h>
#include <stddef.h>

/* the folded constants, in the order _MadelungEngine passes them */
enum { KR, KQ, KG, C1, C0, FLOOR, FLOOR2, G2, R4S_G2 };

static const double TWO_PI = 2.0 * 3.141592653589793;

size_t madelung_work_size(long n)
{
    return 4 * (size_t)(n + 4) + 8 * (size_t)n;
}

/* Two ghost cells per side of a padded row b: periodic images shifted by
   -+off, or a mirror about the wall (odd: the field changes sign there). */
static void ghosts(double *b, ptrdiff_t n, int periodic, int odd, double off)
{
    if (periodic) {
        b[0] = b[n] - off;
        b[1] = b[n + 1] - off;
        b[n + 2] = b[2] + off;
        b[n + 3] = b[3] + off;
    } else if (odd) {
        b[0] = -b[3];
        b[1] = -b[2];
        b[n + 2] = -b[n + 1];
        b[n + 3] = -b[n];
    } else {
        b[0] = b[3];
        b[1] = b[2];
        b[n + 2] = b[n + 1];
        b[n + 3] = b[n];
    }
}

/* np.maximum(r, 0.0): NaN passes through, and a zero of either sign
   gives the second operand, +0. */
static double nonneg(double r)
{
    return r <= 0.0 ? 0.0 : r;
}

/* drho/dt and dphi/dt of the state in the padded rows re and pe. */
static void rhs(ptrdiff_t n, int periodic, const double *K, const double *vq,
                double *restrict re, double *restrict pe, double *restrict fe,
                double *restrict se, double *restrict drho, double *restrict dphi)
{
    ptrdiff_t j;
    double off = 0.0;

    if (periodic) {
        /* the unwrapped phase advances by a whole number of turns across
           the ring: estimate it from the end-to-end slope */
        double west = ((pe[n + 1] - pe[2]) * (double)n) / ((double)n - 1.0);
        off = TWO_PI * nearbyint(west / TWO_PI);
    }
    ghosts(pe, n, periodic, 0, off);
    ghosts(re, n, periodic, 0, 0.0);
    for (j = 0; j < n; j++) {
        fe[j + 2] = re[j + 2] * (pe[j + 3] - pe[j + 1]);
        se[j + 2] = sqrt(nonneg(re[j + 2]) + K[FLOOR]);
    }
    ghosts(fe, n, periodic, 1, 0.0);
    ghosts(se, n, periodic, 1, 0.0);
    for (j = 0; j < n; j++) {
        double gp = pe[j + 3] - pe[j + 1];
        double rp = nonneg(re[j + 2]);
        double rp2 = rp * rp;
        double q = ((se[j + 3] + se[j + 1]) * K[KQ]) / se[j + 2];
        double dp = ((gp * gp) * K[KG] + vq[j]) + q;
        double msk = K[R4S_G2] / (rp2 + K[G2]);
        double sr = ((re[j + 3] + re[j + 1]) * K[C1] - re[j + 2] * K[C0])
                    - (re[j + 4] + re[j]);
        double sp = ((pe[j + 3] + pe[j + 1]) * K[C1] - pe[j + 2] * K[C0])
                    - (pe[j + 4] + pe[j]);
        dp = dp * (rp2 / (rp2 + K[FLOOR2]));
        drho[j] = (fe[j + 1] - fe[j + 3]) * K[KR] + sr * msk;
        dphi[j] = dp + sp * msk;
    }
}

/* One RK4 step of (rho, phi) by dt into (rho_out, phi_out), before the
   renormalization. rho_out may be rho and phi_out phi: each is read at an
   index only before that index is written. */
void madelung_rk4(const double *K, const double *vq, double *work, long n, int periodic,
                  const double *rho, const double *phi, double dt,
                  double *rho_out, double *phi_out)
{
    const ptrdiff_t s = n + 4;
    double *re = work, *pe = work + s, *fe = work + 2 * s, *se = work + 3 * s;
    double *k = work + 4 * s, *k1 = k, *k2 = k + 2 * n, *k3 = k + 4 * n, *k4 = k + 6 * n;
    const double h[3] = {0.5 * dt, 0.5 * dt, dt};
    const double sixth = dt / 6.0;
    ptrdiff_t i, j;

    for (j = 0; j < n; j++) {
        re[j + 2] = rho[j];
        pe[j + 2] = phi[j];
    }
    rhs(n, periodic, K, vq, re, pe, fe, se, k1, k1 + n);
    /* stage i integrates from (rho, phi) + h k_(i-1) */
    for (i = 1; i < 4; i++) {
        const double *kp = k + 2 * n * (i - 1);
        double *ki = k + 2 * n * i;
        for (j = 0; j < n; j++) {
            re[j + 2] = rho[j] + kp[j] * h[i - 1];
            pe[j + 2] = phi[j] + kp[n + j] * h[i - 1];
        }
        rhs(n, periodic, K, vq, re, pe, fe, se, ki, ki + n);
    }
    /* (rho, phi) + (dt/6) (2 (k2 + k3) + k1 + k4) */
    for (j = 0; j < n; j++) {
        rho_out[j] = rho[j] + ((((k2[j] + k3[j]) * 2.0 + k1[j]) + k4[j]) * sixth);
        phi_out[j] = phi[j] + ((((k2[n + j] + k3[n + j]) * 2.0 + k1[n + j]) + k4[n + j]) * sixth);
    }
}

/* numpy's pairwise sum of a[0, n) (pairwise_sum in its loops_utils.h.src):
   under 8 values one after another, up to 128 in 8 interleaved
   accumulators and the rest one after another, and above that the two
   halves, split at a multiple of 8. */
static double pairwise(const double *a, ptrdiff_t n)
{
    ptrdiff_t i;

    if (n < 8) {
        double res = 0.0;
        for (i = 0; i < n; i++)
            res += a[i];
        return res;
    }
    if (n <= 128) {
        double r[8], res;
        int j;
        for (j = 0; j < 8; j++)
            r[j] = a[j];
        for (i = 8; i < n - (n % 8); i += 8)
            for (j = 0; j < 8; j++)
                r[j] += a[i + j];
        res = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]));
        for (; i < n; i++)
            res += a[i];
        return res;
    }
    i = n / 2;
    i -= i % 8;
    return pairwise(a, i) + pairwise(a + i, n - i);
}

/* np.sum of a contiguous float64 array: its identity, +0, plus the
   pairwise sum, so values that are all -0.0 sum to +0. */
double madelung_sum(const double *a, long n)
{
    return 0.0 + pairwise(a, n);
}

/* how a run of steps ends */
enum { RAN, NON_FINITE, RENORM, NODE };

/* Up to steps RK4 steps of (rho, phi) by dt, in place, each followed by
   the renormalization and the checks of _MadelungEngine.run: rho becomes
   max(rho, 0) / Z with Z = sum(rho) dx, and a step fails when Z or a phase
   is not finite or Z <= 0 (NON_FINITE), when |Z - 1| exceeds limit
   (RENORM), or, with node_floor > 0, when its least density is below
   node_floor (NODE). Returns how the run ended; out holds the worst
   |Z - 1| of the steps that passed, their number, and what the failing
   step failed on: its |Z - 1| or its least density. */
int madelung_run(const double *K, const double *vq, double *work, double *out, long n,
                 int periodic, double dx, double limit, double *rho, double *phi, double dt,
                 double node_floor, long steps)
{
    double worst = 0.0, value = 0.0;
    int kind = RAN;
    long i;

    for (i = 0; i < steps; i++) {
        ptrdiff_t j;
        int finite = 1;
        double z, dev;

        madelung_rk4(K, vq, work, n, periodic, rho, phi, dt, rho, phi);
        for (j = 0; j < n; j++) {
            rho[j] = nonneg(rho[j]);
            finite &= isfinite(phi[j]) != 0;
        }
        z = madelung_sum(rho, n) * dx;
        if (!(isfinite(z) && z > 0.0 && finite)) {
            kind = NON_FINITE;
            break;
        }
        for (j = 0; j < n; j++)
            rho[j] /= z;
        dev = fabs(z - 1.0);
        if (!(dev <= limit)) {
            kind = RENORM;
            value = dev;
            break;
        }
        if (node_floor > 0.0) {
            double least = rho[0];
            for (j = 1; j < n; j++)
                least = rho[j] < least ? rho[j] : least;
            if (least < node_floor) {
                kind = NODE;
                value = least;
                break;
            }
        }
        if (dev > worst)
            worst = dev;
    }
    out[0] = worst;
    out[1] = (double)i;
    out[2] = value;
    return kind;
}
