/* Hand-written untiled ADI integration (paper section 4.3).
 *
 *   X[t,i,j] = X[t-1,i,j] + X[t-1,i,j-1]*A[i,j]/B[t-1,i,j-1]
 *                         - X[t-1,i-1,j]*A[i,j]/B[t-1,i-1,j]
 *   B[t,i,j] = B[t-1,i,j] - A[i,j]^2/B[t-1,i,j-1] - A[i,j]^2/B[t-1,i-1,j]
 *              1 <= t <= tt, 1 <= i,j <= n
 *
 * `x` and `b` are row-major (tt+1) x (n+1) x (n+1), `a` is
 * (n+1) x (n+1); index 0 of i and j is the boundary.  The caller fills
 * the t = 0 planes, the i = 0 and j = 0 borders of every plane, and
 * `a`.  Operation order follows the app's kernels.
 */
void ref_adi(long tt, long n, const double *a, double *x, double *b)
{
    const long sj = n + 1, st = (n + 1) * (n + 1);
    for (long t = 1; t <= tt; t++)
        for (long i = 1; i <= n; i++)
            for (long j = 1; j <= n; j++) {
                const long o = (t - 1) * st + i * sj + j;
                const double av = a[i * sj + j];
                x[o + st] = (x[o] + ((x[o - 1] * av) / b[o - 1]))
                            - ((x[o - sj] * av) / b[o - sj]);
                b[o + st] = (b[o] - ((av * av) / b[o - 1]))
                            - ((av * av) / b[o - sj]);
            }
}
