/* 'gemm': its stage-III loop nests in the interpreter's order, sizes in ipar.
 * Generated by repro.core.codegen.emit_c v8; do not edit. */
#include <stdint.h>
#define _IN(i, n) ((uint64_t)(i) < (uint64_t)(n))
static void _k0(float *C, const int64_t *ip)
{
	for (int64_t i = 0, _t1 = ip[0]; i < _t1; ++i) {
		const int64_t _t3 = i * ip[4];
		if (ip[1] > 0)
			for (int64_t j = 0, _t2 = ip[2]; j < _t2; ++j)
				if (_IN(_t3 + j, ip[3])) C[_t3 + j] = 0.0f;
	}
}
static void _k1(float *C, const float *A, const float *B, const int64_t *ip)
{
	int64_t i = 0;
	for (const int64_t _t22 = ip[0] - 3; i < _t22; i += 4) {
		const int64_t _t9 = i * ip[4];
		const int64_t _t10 = i * ip[6];
		const int64_t _t13 = (i + 1) * ip[4];
		const int64_t _t14 = (i + 1) * ip[6];
		const int64_t _t16 = (i + 2) * ip[4];
		const int64_t _t17 = (i + 2) * ip[6];
		const int64_t _t19 = (i + 3) * ip[4];
		const int64_t _t20 = (i + 3) * ip[6];
		for (int64_t k = 0, _t7 = ip[1]; k < _t7; ++k) {
			const float _t11 = A[_t10 + k];
			const int64_t _t12 = k * ip[8];
			const float _t15 = A[_t14 + k];
			const float _t18 = A[_t17 + k];
			const float _t21 = A[_t20 + k];
			const int64_t _t8 = ip[2];
			#pragma omp simd
			for (int64_t j = 0; j < _t8; ++j) {
				C[_t9 + j] = C[_t9 + j] + (_t11 * B[_t12 + j]);
				C[_t13 + j] = C[_t13 + j] + (_t15 * B[_t12 + j]);
				C[_t16 + j] = C[_t16 + j] + (_t18 * B[_t12 + j]);
				C[_t19 + j] = C[_t19 + j] + (_t21 * B[_t12 + j]);
			}
		}
	}
	for (; i < ip[0]; ++i) {
		const int64_t _t3 = i * ip[4];
		const int64_t _t4 = i * ip[6];
		for (int64_t k = 0, _t1 = ip[1]; k < _t1; ++k) {
			const float _t5 = A[_t4 + k];
			const int64_t _t6 = k * ip[8];
			const int64_t _t2 = ip[2];
			#pragma omp simd
			for (int64_t j = 0; j < _t2; ++j)
				C[_t3 + j] = C[_t3 + j] + (_t5 * B[_t6 + j]);
		}
	}
}
/* The passes that store nothing but +0 where no pass before them reads or writes:
 * called in front of run(), and skipped by a caller whose buffers arrive zeroed. */
int zero(void **bufs, void **tabs, const int64_t *ipar, const double *fpar)
{
	/* init pass */
	_k0(bufs[0], ipar);
	return 0;
}
int run(void **bufs, void **tabs, const int64_t *ipar, const double *fpar)
{
	/* compute pass */
	_k1(bufs[0], bufs[1], bufs[2], ipar + 5);
	return 0;
}
