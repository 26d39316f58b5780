/* 'sddmm': its stage-III loop nests in the interpreter's order, sizes in ipar.
 * Generated by repro.core.codegen.emit_c v8; do not edit. */
#include <stdint.h>
#define _IN(i, n) ((uint64_t)(i) < (uint64_t)(n))
#define _ROW(t, p, nnz, rows) ((p) < 0 ? -1 : (p) >= (nnz) ? (rows) : (t)[p])
static void _k0(float *OUT, const int32_t *J_indptr, const int32_t *J_rowof, const int64_t *ip)
{
	for (int64_t i_it_j_it_fused = 0, _t1 = ip[0]; i_it_j_it_fused < _t1; ++i_it_j_it_fused)
		if (ip[1] > 0) {
			const int64_t _t2 = (int64_t)J_indptr[(int64_t)_ROW(J_rowof, i_it_j_it_fused, ip[4], ip[5])] + (i_it_j_it_fused - (int64_t)J_indptr[(int64_t)_ROW(J_rowof, i_it_j_it_fused, ip[4], ip[5])]);
			if (_IN(_t2, ip[2])) OUT[_t2] = 0.0f;
		}
}
static void _k1(float *OUT, const int32_t *J_indptr, const int32_t *J_rowof, const float *A, const float *X, const float *Y, const int32_t *J_indices, const int32_t *J_dense_indptr, const int64_t *ip)
{
	for (int64_t i_it_j_it_fused = 0, _t1 = ip[0]; i_it_j_it_fused < _t1; ++i_it_j_it_fused) {
		const int64_t _t3 = (int64_t)J_indptr[(int64_t)_ROW(J_rowof, i_it_j_it_fused, ip[4], ip[5])];
		const float _t4 = A[_t3 + (i_it_j_it_fused - _t3)];
		const int64_t _t5 = ((int64_t)_ROW(J_rowof, i_it_j_it_fused, ip[4], ip[5])) * ip[8];
		const int64_t _t6 = (int64_t)J_indices[(int64_t)J_dense_indptr[(int64_t)_ROW(J_rowof, i_it_j_it_fused, ip[4], ip[5])] + (i_it_j_it_fused - _t3)];
		for (int64_t k = 0, _t2 = ip[1]; k < _t2; ++k)
			OUT[_t3 + (i_it_j_it_fused - _t3)] = OUT[_t3 + (i_it_j_it_fused - _t3)] + ((_t4 * X[_t5 + k]) * Y[(k * ip[10]) + _t6]);
	}
}
/* The passes that store nothing but +0 where no pass before them reads or writes:
 * called in front of run(), and skipped by a caller whose buffers arrive zeroed. */
int zero(void **bufs, void **tabs, const int64_t *ipar, const double *fpar)
{
	/* init pass */
	_k0(bufs[0], tabs[0], tabs[1], ipar);
	return 0;
}
int run(void **bufs, void **tabs, const int64_t *ipar, const double *fpar)
{
	/* compute pass */
	_k1(bufs[0], tabs[0], tabs[1], bufs[1], bufs[2], bufs[3], tabs[2], tabs[3], ipar + 6);
	return 0;
}
