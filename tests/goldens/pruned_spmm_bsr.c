/* 'pruned_spmm_bsr': its stage-III loop nests in the interpreter's order, sizes in ipar.
 * Generated by repro.core.codegen.emit_c v8; do not edit. */
#include <stdint.h>
#define _IN(i, n) ((uint64_t)(i) < (uint64_t)(n))
static void _k0(const int32_t *JB_indptr, float *Y, const int64_t *ip)
{
	for (int64_t ib = 0, _t1 = ip[0]; ib < _t1; ++ib) {
		const int64_t _t4 = ib * ip[6];
		if (((int64_t)JB_indptr[ib + 1] - (int64_t)JB_indptr[ib]) > 0)
			for (int64_t bi = 0, _t2 = ip[2]; bi < _t2; ++bi) {
				const int64_t _t5 = (_t4 + bi) * ip[7];
				if (ip[3] > 0)
					for (int64_t k = 0, _t3 = ip[4]; k < _t3; ++k)
						if (_IN(_t5 + k, ip[5])) Y[_t5 + k] = 0.0f;
			}
	}
}
static void _k1(const int32_t *JB_indptr, float *Y, const float *W, const float *X, const int32_t *JB_indices, const int32_t *JB_dense_indptr, const int64_t *ip)
{
	for (int64_t ib = 0, _t1 = ip[0]; ib < _t1; ++ib) {
		const int64_t _t6 = ib * ip[6];
		const int64_t _t8 = (int64_t)JB_indptr[ib];
		const int64_t _t12 = (int64_t)JB_dense_indptr[ib];
		for (int64_t jb = 0, _t2 = (int64_t)JB_indptr[ib + 1] - (int64_t)JB_indptr[ib]; jb < _t2; ++jb) {
			const int64_t _t9 = (_t8 + jb) * ip[9];
			const int64_t _t13 = (int64_t)JB_indices[_t12 + jb] * ip[14];
			for (int64_t bi = 0, _t3 = ip[2]; bi < _t3; ++bi) {
				const int64_t _t7 = (_t6 + bi) * ip[7];
				const int64_t _t10 = (_t9 + bi) * ip[10];
				for (int64_t bj = 0, _t4 = ip[3]; bj < _t4; ++bj) {
					const float _t11 = W[_t10 + bj];
					const int64_t _t14 = (_t13 + bj) * ip[15];
					const int64_t _t5 = ip[4];
					#pragma omp simd
					for (int64_t k = 0; k < _t5; ++k)
						Y[_t7 + k] = Y[_t7 + k] + (_t11 * X[_t14 + k]);
				}
			}
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
	_k1(tabs[0], bufs[0], bufs[1], bufs[2], tabs[1], tabs[2], ipar + 8);
	return 0;
}
