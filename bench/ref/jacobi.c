/* Hand-written untiled Jacobi relaxation (paper section 4.2).
 *
 *   A[t,i,j] = coef*(A[t-1,i,j] + A[t-1,i-1,j] + A[t-1,i+1,j]
 *                    + A[t-1,i,j-1] + A[t-1,i,j+1])
 *              1 <= t <= tt, 1 <= i <= ni, 1 <= j <= nj
 *
 * `a` is row-major (tt+1) x (ni+2) x (nj+2); the caller fills the t = 0
 * plane and the border of every plane.  Left-to-right sum, as in the
 * app's kernels.
 */
void ref_jacobi(long tt, long ni, long nj, double coef, double *a)
{
    const long sj = nj + 2, st = (ni + 2) * (nj + 2);
    for (long t = 1; t <= tt; t++)
        for (long i = 1; i <= ni; i++)
            for (long j = 1; j <= nj; j++) {
                const double *p = a + (t - 1) * st + i * sj + j;
                a[t * st + i * sj + j] =
                    coef * ((((p[0] + p[-sj]) + p[sj]) + p[-1]) + p[1]);
            }
}
