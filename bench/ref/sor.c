/* Hand-written untiled SOR (paper section 4.1) in original coordinates.
 *
 *   A[t,i,j] = w4*(A[t,i-1,j] + A[t,i,j-1] + A[t-1,i+1,j] + A[t-1,i,j+1])
 *              + w1*A[t-1,i,j]            1 <= t <= m, 1 <= i,j <= n
 *
 * `a` is row-major (m+1) x (n+2) x (n+2).  The caller fills the t = 0
 * plane and the i,j in {0, n+1} border of every plane (the initial and
 * boundary values) and passes w4 = OMEGA/4 and w1 = 1-OMEGA as the app
 * folds them.  The sum associates left to right, as the app's kernels
 * do, so the result is comparable at tolerance 0.
 */
void ref_sor(long m, long n, double w4, double w1, double *a)
{
    const long sj = n + 2, st = (n + 2) * (n + 2);
    for (long t = 1; t <= m; t++)
        for (long i = 1; i <= n; i++)
            for (long j = 1; j <= n; j++) {
                double *c = a + t * st + i * sj + j;
                *c = w4 * (((c[-sj] + c[-1]) + c[-st + sj]) + c[-st + 1])
                     + w1 * c[-st];
            }
}
