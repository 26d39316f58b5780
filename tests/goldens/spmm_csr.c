/* 'spmm': its stage-III loop nests in the interpreter's order, sizes in ipar.
 * Generated by repro.core.codegen.emit_c v8; do not edit. */
#include <stdint.h>
#define _IN(i, n) ((uint64_t)(i) < (uint64_t)(n))
static void _k0(const int32_t *J_indptr, float *C, const int64_t *ip)
{
	for (int64_t i = 0, _t1 = ip[0]; i < _t1; ++i) {
		const int64_t _t3 = i * ip[4];
		if (((int64_t)J_indptr[i + 1] - (int64_t)J_indptr[i]) > 0)
			for (int64_t k = 0, _t2 = ip[2]; k < _t2; ++k)
				if (_IN(_t3 + k, ip[3])) C[_t3 + k] = 0.0f;
	}
}
static void _k1(const int32_t *J_indptr, float *C, const float *A, const float *B, const int32_t *J_indices, const int32_t *J_dense_indptr, const int64_t *ip)
{
	for (int64_t i = 0, _t1 = ip[0]; i < _t1; ++i) {
		const int64_t _t4 = i * ip[4];
		const int64_t _t5 = (int64_t)J_indptr[i];
		const int64_t _t7 = (int64_t)J_dense_indptr[i];
		for (int64_t j = 0, _t2 = (int64_t)J_indptr[i + 1] - (int64_t)J_indptr[i]; j < _t2; ++j) {
			const float _t6 = A[_t5 + j];
			const int64_t _t8 = (int64_t)J_indices[_t7 + j] * ip[9];
			const int64_t _t3 = ip[2];
			#pragma omp simd
			for (int64_t k = 0; k < _t3; ++k)
				C[_t4 + k] = C[_t4 + k] + (_t6 * B[_t8 + k]);
		}
	}
}
/* The passes that store nothing but +0 where no pass before them reads or writes:
 * called in front of run(), and skipped by a caller whose buffers arrive zeroed. */
int zero(void **bufs, void **tabs, const int64_t *ipar, const double *fpar)
{
	/* init pass */
	_k0(tabs[0], bufs[0], ipar);
	return 0;
}
int run(void **bufs, void **tabs, const int64_t *ipar, const double *fpar)
{
	/* compute pass */
	_k1(tabs[0], bufs[0], bufs[1], bufs[2], tabs[1], tabs[2], ipar + 5);
	return 0;
}
