/* 'fused_rgms_rgms_add_gemm_add_relu_rgms_rgms_add_gemm_add': its stage-III loop nests in the interpreter's order, sizes in ipar.
 * Generated by repro.core.codegen.emit_c v8; do not edit. */
#include <stdint.h>
#include <stdlib.h>
static int _alloc(void **bufs, const int64_t *bytes, int lo, int hi) {
	for (int n = lo; n < hi; ++n)
		if (!(bufs[n] = calloc(bytes[n] > 0 ? bytes[n] : 1, 1))) return 0;
	return 1;
}
#define _IN(i, n) ((uint64_t)(i) < (uint64_t)(n))
#define _IN2(i, j, n) (_IN(i, n) && _IN(j, n))
static void _k0(float *n3_C, const int64_t *ip)
{
	for (int64_t n3_i = 0, _t1 = ip[0]; n3_i < _t1; ++n3_i) {
		const int64_t _t3 = n3_i * ip[4];
		if (ip[1] > 0)
			for (int64_t n3_j = 0, _t2 = ip[2]; n3_j < _t2; ++n3_j)
				if (_IN(_t3 + n3_j, ip[3])) n3_C[_t3 + n3_j] = 0.0f;
	}
}
static inline void _k1(int64_t row, int64_t start, float *restrict n3_C_t, const int64_t *ip)
{
	for (int64_t lane = 0; lane < 8; ++lane)
		n3_C_t[lane] = 0.0f;
}
static void _k2(int64_t row, int64_t start, const int32_t *n0_J0_indptr, float *restrict n0_Y_t, const float *n0_A0, const float *n0_X, const int32_t *n0_J0_indices, const int32_t *n0_J0_dense_indptr, const float *n0_W0, const int64_t *ip)
{
	const int64_t _t3 = (int64_t)n0_J0_indptr[row];
	const int64_t _t5 = (int64_t)n0_J0_dense_indptr[row];
	for (int64_t n0_j0 = 0, _t1 = (int64_t)n0_J0_indptr[row + 1] - (int64_t)n0_J0_indptr[row]; n0_j0 < _t1; ++n0_j0) {
		const float _t4 = n0_A0[_t3 + n0_j0];
		const int64_t _t6 = (int64_t)n0_J0_indices[_t5 + n0_j0] * ip[8];
		for (int64_t n0_k0 = 0, _t2 = ip[3]; n0_k0 < _t2; ++n0_k0) {
			const float _t7 = _t4 * n0_X[_t6 + n0_k0];
			const int64_t _t8 = n0_k0 * ip[10];
			#pragma omp simd
			for (int64_t n0_l0 = 0; n0_l0 < 8; ++n0_l0)
				n0_Y_t[n0_l0] = n0_Y_t[n0_l0] + (_t7 * n0_W0[_t8 + (start + n0_l0)]);
		}
	}
}
static inline void _k3(int64_t row, int64_t start, float *restrict n2_C_t, const float *n0_Y_t, const float *n1_Y_t, const int64_t *ip)
{
	#pragma omp simd
	for (int64_t n2_j = 0; n2_j < 8; ++n2_j)
		n2_C_t[n2_j] = n0_Y_t[n2_j] + n1_Y_t[n2_j];
}
static void _k4(int64_t row, int64_t start, float *restrict n3_C_t, const float *n0_X, const float *n3_B, const int64_t *ip)
{
	if (ip[2] > 0)
		for (int64_t n3_j = 0; n3_j < 8; ++n3_j)
			n3_C_t[n3_j] = 0.0f;
	const int64_t _t2 = row * ip[4];
	for (int64_t n3_k = 0, _t1 = ip[2]; n3_k < _t1; ++n3_k) {
		const float _t3 = n0_X[_t2 + n3_k];
		const int64_t _t4 = n3_k * ip[6];
		#pragma omp simd
		for (int64_t n3_j = 0; n3_j < 8; ++n3_j)
			n3_C_t[n3_j] = n3_C_t[n3_j] + (_t3 * n3_B[_t4 + (start + n3_j)]);
	}
}
static inline void _k5(int64_t row, int64_t start, float *restrict n5_C_t, const float *n4_C_t, const int64_t *ip)
{
	#pragma omp simd
	for (int64_t n5_j = 0; n5_j < 8; ++n5_j)
		n5_C_t[n5_j] = (0.0f > n4_C_t[n5_j]) ? 0.0f : n4_C_t[n5_j];
}
static inline void _k6(int64_t row, int64_t start, float *n5_C, float *restrict n5_C_t, const int64_t *ip)
{
	const int64_t _t1 = row * ip[3];
	for (int64_t lane = 0; lane < 8; ++lane)
		n5_C[_t1 + (start + lane)] = n5_C_t[lane];
}
static int _k7(const int64_t *ip)
{
	const int64_t _t3 = ip[4] * (ip[0] - 1);
	const int _t4 = _IN2(0, (ip[1] - 1) + _t3, ip[2]);
	return _t4;
}
static int _r0(void **bufs, void **tabs, const int64_t *ipar, const double *fpar)
{
	if (!(ipar[67] % 8 == 0 && _k7(ipar + 61))) return 0;
	for (int64_t row = 0; row < ipar[66]; ++row)
		for (int64_t start = 0; start < ipar[67]; start += 8) {
			float t0[8], t1[8], t2[8], t3[8], t4[8], t5[8];
			_k1(row, start, t3, ipar + 20);
			_k1(row, start, t0, ipar + 22);
			_k2(row, start, tabs[0], t0, bufs[10], bufs[11], tabs[1], tabs[2], bufs[12], ipar + 24);
			_k1(row, start, t1, ipar + 35);
			_k2(row, start, tabs[3], t1, bufs[13], bufs[11], tabs[4], tabs[5], bufs[14], ipar + 37);
			_k3(row, start, t2, t0, t1, ipar + 48);
			_k4(row, start, t3, bufs[11], bufs[15], ipar + 50);
			_k3(row, start, t4, t2, t3, ipar + 57);
			_k5(row, start, t5, t4, ipar + 59);
			_k6(row, start, bufs[0], t5, ipar + 61);
		}
	return 1;
}
static void _k8(float *n0_Y, const int64_t *ip)
{
	for (int64_t n0_i = 0, _t1 = ip[0]; n0_i < _t1; ++n0_i) {
		const int64_t _t3 = n0_i * ip[3];
		for (int64_t n0_l = 0, _t2 = ip[1]; n0_l < _t2; ++n0_l)
			if (_IN(_t3 + n0_l, ip[2])) n0_Y[_t3 + n0_l] = 0.0f;
	}
}
static void _k9(const int32_t *n0_J0_indptr, float *n0_Y, const float *n0_A0, const float *n0_X, const int32_t *n0_J0_indices, const int32_t *n0_J0_dense_indptr, const float *n0_W0, const int64_t *ip)
{
	for (int64_t n0_i = 0, _t1 = ip[0]; n0_i < _t1; ++n0_i) {
		const int64_t _t5 = n0_i * ip[5];
		const int64_t _t6 = (int64_t)n0_J0_indptr[n0_i];
		const int64_t _t8 = (int64_t)n0_J0_dense_indptr[n0_i];
		for (int64_t n0_j0 = 0, _t2 = (int64_t)n0_J0_indptr[n0_i + 1] - (int64_t)n0_J0_indptr[n0_i]; n0_j0 < _t2; ++n0_j0) {
			const float _t7 = n0_A0[_t6 + n0_j0];
			const int64_t _t9 = (int64_t)n0_J0_indices[_t8 + n0_j0] * ip[10];
			for (int64_t n0_k0 = 0, _t3 = ip[2]; n0_k0 < _t3; ++n0_k0) {
				const float _t10 = _t7 * n0_X[_t9 + n0_k0];
				const int64_t _t11 = n0_k0 * ip[12];
				const int64_t _t4 = ip[3];
				#pragma omp simd
				for (int64_t n0_l0 = 0; n0_l0 < _t4; ++n0_l0)
					n0_Y[_t5 + n0_l0] = n0_Y[_t5 + n0_l0] + (_t10 * n0_W0[_t11 + n0_l0]);
			}
		}
	}
}
static void _k10(float *n2_C, const float *n0_Y, const float *n1_Y, const int64_t *ip)
{
	for (int64_t n2_i = 0, _t1 = ip[0]; n2_i < _t1; ++n2_i) {
		const int64_t _t3 = n2_i * ip[3];
		const int64_t _t4 = n2_i * ip[5];
		const int64_t _t5 = n2_i * ip[7];
		const int64_t _t2 = ip[1];
		#pragma omp simd
		for (int64_t n2_j = 0; n2_j < _t2; ++n2_j)
			n2_C[_t3 + n2_j] = n0_Y[_t4 + n2_j] + n1_Y[_t5 + n2_j];
	}
}
static void _k11(float *n3_C, const float *n0_X, const float *n3_B, const int64_t *ip)
{
	for (int64_t n3_i = 0, _t1 = ip[0]; n3_i < _t1; ++n3_i) {
		const int64_t _t4 = n3_i * ip[4];
		const int64_t _t5 = n3_i * ip[6];
		for (int64_t n3_k = 0, _t2 = ip[1]; n3_k < _t2; ++n3_k) {
			const float _t6 = n0_X[_t5 + n3_k];
			const int64_t _t7 = n3_k * ip[8];
			const int64_t _t3 = ip[2];
			#pragma omp simd
			for (int64_t n3_j = 0; n3_j < _t3; ++n3_j)
				n3_C[_t4 + n3_j] = n3_C[_t4 + n3_j] + (_t6 * n3_B[_t7 + n3_j]);
		}
	}
}
static void _k12(float *n5_C, const float *n4_C, const int64_t *ip)
{
	for (int64_t n5_i = 0, _t1 = ip[0]; n5_i < _t1; ++n5_i) {
		const int64_t _t3 = n5_i * ip[3];
		const int64_t _t4 = n5_i * ip[5];
		const int64_t _t2 = ip[1];
		#pragma omp simd
		for (int64_t n5_j = 0; n5_j < _t2; ++n5_j)
			n5_C[_t3 + n5_j] = (0.0f > n4_C[_t4 + n5_j]) ? 0.0f : n4_C[_t4 + n5_j];
	}
}
static int _r1(void **bufs, void **tabs, const int64_t *ipar, const double *fpar)
{
	if (!(ipar[178] % 8 == 0 && _k7(ipar + 172))) return 0;
	for (int64_t row = 0; row < ipar[177]; ++row)
		for (int64_t start = 0; start < ipar[178]; start += 8) {
			float t0[8], t1[8], t2[8], t3[8], t4[8];
			_k1(row, start, t3, ipar + 133);
			_k1(row, start, t0, ipar + 135);
			_k2(row, start, tabs[6], t0, bufs[16], bufs[0], tabs[7], tabs[8], bufs[17], ipar + 137);
			_k1(row, start, t1, ipar + 148);
			_k2(row, start, tabs[9], t1, bufs[18], bufs[0], tabs[10], tabs[11], bufs[19], ipar + 150);
			_k3(row, start, t2, t0, t1, ipar + 161);
			_k4(row, start, t3, bufs[0], bufs[20], ipar + 163);
			_k3(row, start, t4, t2, t3, ipar + 170);
			_k6(row, start, bufs[21], t4, ipar + 172);
		}
	return 1;
}
int run(void **bufs, void **tabs, const int64_t *ipar, const double *fpar)
{
	int rc = 0;
	if (!_alloc(bufs, ipar, 0, 1)) { rc = -1; goto done; }
	/* compute pass */
	if (!_r0(bufs, tabs, ipar, fpar)) {
		++rc;
		if (!_alloc(bufs, ipar, 1, 6)) { rc = -1; goto done; }
		_k8(bufs[1], ipar + 68);
		_k9(tabs[0], bufs[1], bufs[10], bufs[11], tabs[1], tabs[2], bufs[12], ipar + 72);
		_k8(bufs[2], ipar + 85);
		_k9(tabs[3], bufs[2], bufs[13], bufs[11], tabs[4], tabs[5], bufs[14], ipar + 89);
		_k10(bufs[3], bufs[1], bufs[2], ipar + 102);
		_k0(bufs[4], ipar + 10);
		_k11(bufs[4], bufs[11], bufs[15], ipar + 110);
		_k10(bufs[5], bufs[3], bufs[4], ipar + 119);
		_k12(bufs[0], bufs[5], ipar + 127);
	}
	if (!_r1(bufs, tabs, ipar, fpar)) {
		++rc;
		if (!_alloc(bufs, ipar, 6, 10)) { rc = -1; goto done; }
		_k8(bufs[6], ipar + 179);
		_k9(tabs[6], bufs[6], bufs[16], bufs[0], tabs[7], tabs[8], bufs[17], ipar + 183);
		_k8(bufs[7], ipar + 196);
		_k9(tabs[9], bufs[7], bufs[18], bufs[0], tabs[10], tabs[11], bufs[19], ipar + 200);
		_k10(bufs[8], bufs[6], bufs[7], ipar + 213);
		_k0(bufs[9], ipar + 15);
		_k11(bufs[9], bufs[0], bufs[20], ipar + 221);
		_k10(bufs[21], bufs[8], bufs[9], ipar + 230);
	}
	done:
	for (int n = 0; n < 10; ++n) free(bufs[n]);
	return rc;
}
