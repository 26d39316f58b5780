/* 'spmm_hyb': its stage-III loop nests in the interpreter's order, sizes in ipar.
 * Generated by repro.core.codegen.emit_c v8; do not edit. */
#include <stdint.h>
#define _IN(i, n) ((uint64_t)(i) < (uint64_t)(n))
static void _k0(float *C, const int64_t *ip)
{
	for (int64_t i = 0, _t1 = ip[0]; i < _t1; ++i) {
		const int64_t _t3 = i * ip[3];
		for (int64_t k = 0, _t2 = ip[1]; k < _t2; ++k)
			if (_IN(_t3 + k, ip[2])) C[_t3 + k] = 0.0f;
	}
}
static void _k1(const int32_t *J_p0_w2_0_indices, float *C, const int32_t *rowmap_p0_w2_0, const float *A_p0_w2_0, const float *B, const int64_t *ip)
{
	for (int64_t i_p0_w2_0 = 0, _t1 = ip[0]; i_p0_w2_0 < _t1; ++i_p0_w2_0) {
		const int64_t _t3 = i_p0_w2_0 * ip[3];
		const int64_t _t5 = (int64_t)rowmap_p0_w2_0[i_p0_w2_0] * ip[7];
		const int64_t _t6 = i_p0_w2_0 * ip[9];
		for (int64_t j_p0_w2_0 = 0, _t2 = ip[1]; j_p0_w2_0 < _t2; ++j_p0_w2_0) {
			const float _t7 = A_p0_w2_0[_t6 + j_p0_w2_0];
			const int64_t _t8 = (int64_t)J_p0_w2_0_indices[_t3 + j_p0_w2_0] * ip[11];
			if ((int64_t)J_p0_w2_0_indices[_t3 + j_p0_w2_0] >= 0) {
				const int64_t _t4 = ip[4];
				#pragma omp simd
				for (int64_t k_p0_w2_0 = 0; k_p0_w2_0 < _t4; ++k_p0_w2_0)
					C[_t5 + k_p0_w2_0] = C[_t5 + k_p0_w2_0] + (_t7 * B[_t8 + k_p0_w2_0]);
			}
		}
	}
}
/* The passes that store nothing but +0 where no pass before them reads or writes:
 * called in front of run(), and skipped by a caller whose buffers arrive zeroed. */
int zero(void **bufs, void **tabs, const int64_t *ipar, const double *fpar)
{
	/* compute pass */
	_k0(bufs[0], ipar);
	return 0;
}
int run(void **bufs, void **tabs, const int64_t *ipar, const double *fpar)
{
	/* compute pass */
	_k1(tabs[0], bufs[0], tabs[1], bufs[1], bufs[2], ipar + 4);
	_k1(tabs[2], bufs[0], tabs[3], bufs[3], bufs[2], ipar + 16);
	return 0;
}
