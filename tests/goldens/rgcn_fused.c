/* 'fused_rgms_rgms_add_gemm_add_relu_rgms_rgms_add_gemm_add': its stage-III loop nests in the interpreter's order, sizes in ipar.
 * Generated by repro.core.codegen.emit_c v4; do not edit. */
#include <stdint.h>
#include <stdlib.h>
static int _alloc(void **bufs, const int64_t *bytes, int lo, int hi) {
	for (int n = lo; n < hi; ++n)
		if (!(bufs[n] = calloc(bytes[n] > 0 ? bytes[n] : 1, 1))) return 0;
	return 1;
}
#define _IN(i, n) ((uint64_t)(i) < (uint64_t)(n))
#define _IN2(i, j, n) (_IN(i, n) && _IN(j, n))
#define _LD(b, i, n) (_IN(i, n) ? (b)[i] : 0)
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
	const int64_t _t3 = (int64_t)_LD(n0_J0_indptr, row, ip[2]);
	const int64_t _t5 = (int64_t)_LD(n0_J0_dense_indptr, row, ip[7]);
	for (int64_t n0_j0 = 0, _t1 = (int64_t)_LD(n0_J0_indptr, row + 1, ip[2]) - (int64_t)_LD(n0_J0_indptr, row, ip[2]); n0_j0 < _t1; ++n0_j0) {
		const float _t4 = _LD(n0_A0, _t3 + n0_j0, ip[4]);
		const int64_t _t6 = (int64_t)_LD(n0_J0_indices, _t5 + n0_j0, ip[6]) * ip[8];
		for (int64_t n0_k0 = 0, _t2 = ip[3]; n0_k0 < _t2; ++n0_k0) {
			const float _t7 = _t4 * _LD(n0_X, _t6 + n0_k0, ip[5]);
			const int64_t _t8 = n0_k0 * ip[10];
			#pragma omp simd
			for (int64_t n0_l0 = 0; n0_l0 < 8; ++n0_l0)
				n0_Y_t[n0_l0] = n0_Y_t[n0_l0] + (_t7 * n0_W0[_t8 + (start + n0_l0)]);
		}
	}
}
static int _k3(const int64_t *ip)
{
	const int64_t _t9 = ip[11] * (ip[3] - 1);
	const int _t10 = _IN2(0, (ip[1] - 1) + _t9, ip[9]);
	return _t10;
}
static inline void _k4(int64_t row, int64_t start, float *restrict n2_C_t, const float *n0_Y_t, const float *n1_Y_t, const int64_t *ip)
{
	#pragma omp simd
	for (int64_t n2_j = 0; n2_j < 8; ++n2_j)
		n2_C_t[n2_j] = n0_Y_t[n2_j] + n1_Y_t[n2_j];
}
static void _k5(int64_t row, int64_t start, float *restrict n3_C_t, const float *n0_X, const float *n3_B, const int64_t *ip)
{
	if (ip[2] > 0)
		for (int64_t n3_j = 0; n3_j < 8; ++n3_j)
			n3_C_t[n3_j] = 0.0f;
	const int64_t _t2 = row * ip[4];
	for (int64_t n3_k = 0, _t1 = ip[2]; n3_k < _t1; ++n3_k) {
		const float _t3 = _LD(n0_X, _t2 + n3_k, ip[3]);
		const int64_t _t4 = n3_k * ip[6];
		#pragma omp simd
		for (int64_t n3_j = 0; n3_j < 8; ++n3_j)
			n3_C_t[n3_j] = n3_C_t[n3_j] + (_t3 * n3_B[_t4 + (start + n3_j)]);
	}
}
static int _k6(const int64_t *ip)
{
	const int64_t _t5 = ip[7] * (ip[2] - 1);
	const int _t6 = _IN2(0, (ip[1] - 1) + _t5, ip[5]);
	return _t6;
}
static inline void _k7(int64_t row, int64_t start, float *restrict n5_C_t, const float *n4_C_t, const int64_t *ip)
{
	#pragma omp simd
	for (int64_t n5_j = 0; n5_j < 8; ++n5_j)
		n5_C_t[n5_j] = (0.0f > n4_C_t[n5_j]) ? 0.0f : n4_C_t[n5_j];
}
static inline void _k8(int64_t row, int64_t start, float *n5_C, float *restrict n5_C_t, const int64_t *ip)
{
	const int64_t _t1 = row * ip[3];
	for (int64_t lane = 0; lane < 8; ++lane)
		n5_C[_t1 + (start + lane)] = n5_C_t[lane];
}
static int _k9(const int64_t *ip)
{
	const int64_t _t3 = ip[4] * (ip[0] - 1);
	const int _t4 = _IN2(0, (ip[1] - 1) + _t3, ip[2]);
	return _t4;
}
static int _r0(void **bufs, void **tabs, const int64_t *ipar, const double *fpar)
{
	if (!(ipar[70] % 8 == 0 && _k3(ipar + 24) && _k3(ipar + 38) && _k6(ipar + 52) && _k9(ipar + 64))) return 0;
	for (int64_t row = 0; row < ipar[69]; ++row)
		for (int64_t start = 0; start < ipar[70]; start += 8) {
			float t0[8], t1[8], t2[8], t3[8], t4[8], t5[8];
			_k1(row, start, t3, ipar + 20);
			_k1(row, start, t0, ipar + 22);
			_k2(row, start, tabs[0], t0, bufs[10], bufs[11], tabs[1], tabs[2], bufs[12], ipar + 24);
			_k1(row, start, t1, ipar + 36);
			_k2(row, start, tabs[3], t1, bufs[13], bufs[11], tabs[4], tabs[5], bufs[14], ipar + 38);
			_k4(row, start, t2, t0, t1, ipar + 50);
			_k5(row, start, t3, bufs[11], bufs[15], ipar + 52);
			_k4(row, start, t4, t2, t3, ipar + 60);
			_k7(row, start, t5, t4, ipar + 62);
			_k8(row, start, bufs[0], t5, ipar + 64);
		}
	return 1;
}
static void _k10(float *n0_Y, const int64_t *ip)
{
	for (int64_t n0_i = 0, _t1 = ip[0]; n0_i < _t1; ++n0_i) {
		const int64_t _t3 = n0_i * ip[3];
		for (int64_t n0_l = 0, _t2 = ip[1]; n0_l < _t2; ++n0_l)
			if (_IN(_t3 + n0_l, ip[2])) n0_Y[_t3 + n0_l] = 0.0f;
	}
}
static void _k11(const int32_t *n0_J0_indptr, float *n0_Y, const float *n0_A0, const float *n0_X, const int32_t *n0_J0_indices, const int32_t *n0_J0_dense_indptr, const float *n0_W0, const int64_t *ip)
{
	for (int64_t n0_i = 0, _t1 = ip[0]; n0_i < _t1; ++n0_i) {
		const int64_t _t5 = n0_i * ip[5];
		const int64_t _t6 = (int64_t)_LD(n0_J0_indptr, n0_i, ip[1]);
		const int64_t _t8 = (int64_t)_LD(n0_J0_dense_indptr, n0_i, ip[9]);
		const int _t12 = _IN2(_t5, _t5 + (ip[3] - 1), ip[4]);
		for (int64_t n0_j0 = 0, _t2 = (int64_t)_LD(n0_J0_indptr, n0_i + 1, ip[1]) - (int64_t)_LD(n0_J0_indptr, n0_i, ip[1]); n0_j0 < _t2; ++n0_j0) {
			const float _t7 = _LD(n0_A0, _t6 + n0_j0, ip[6]);
			const int64_t _t9 = (int64_t)_LD(n0_J0_indices, _t8 + n0_j0, ip[8]) * ip[10];
			for (int64_t n0_k0 = 0, _t3 = ip[2]; n0_k0 < _t3; ++n0_k0) {
				const float _t10 = _t7 * _LD(n0_X, _t9 + n0_k0, ip[7]);
				const int64_t _t11 = n0_k0 * ip[12];
				if (_t12 && _IN2(_t11, _t11 + (ip[3] - 1), ip[11])) {
					const int64_t _t4 = ip[3];
					#pragma omp simd
					for (int64_t n0_l0 = 0; n0_l0 < _t4; ++n0_l0)
						n0_Y[_t5 + n0_l0] = n0_Y[_t5 + n0_l0] + (_t10 * n0_W0[_t11 + n0_l0]);
				} else {
					for (int64_t n0_l0 = 0, _t4 = ip[3]; n0_l0 < _t4; ++n0_l0)
						if (_IN(_t5 + n0_l0, ip[4])) n0_Y[_t5 + n0_l0] = _LD(n0_Y, _t5 + n0_l0, ip[4]) + (_t10 * _LD(n0_W0, _t11 + n0_l0, ip[11]));
				}
			}
		}
	}
}
static void _k12(float *n2_C, const float *n0_Y, const float *n1_Y, const int64_t *ip)
{
	for (int64_t n2_i = 0, _t1 = ip[0]; n2_i < _t1; ++n2_i) {
		const int64_t _t3 = n2_i * ip[3];
		const int64_t _t4 = n2_i * ip[5];
		const int64_t _t5 = n2_i * ip[7];
		if (_IN2(_t4, _t4 + (ip[1] - 1), ip[4]) && _IN2(_t5, _t5 + (ip[1] - 1), ip[6]) && _IN2(_t3, _t3 + (ip[1] - 1), ip[2])) {
			const int64_t _t2 = ip[1];
			#pragma omp simd
			for (int64_t n2_j = 0; n2_j < _t2; ++n2_j)
				n2_C[_t3 + n2_j] = n0_Y[_t4 + n2_j] + n1_Y[_t5 + n2_j];
		} else {
			for (int64_t n2_j = 0, _t2 = ip[1]; n2_j < _t2; ++n2_j)
				if (_IN(_t3 + n2_j, ip[2])) n2_C[_t3 + n2_j] = _LD(n0_Y, _t4 + n2_j, ip[4]) + _LD(n1_Y, _t5 + n2_j, ip[6]);
		}
	}
}
static void _k13(float *n3_C, const float *n0_X, const float *n3_B, const int64_t *ip)
{
	for (int64_t n3_i = 0, _t1 = ip[0]; n3_i < _t1; ++n3_i) {
		const int64_t _t4 = n3_i * ip[4];
		const int64_t _t5 = n3_i * ip[6];
		const int _t8 = _IN2(_t4, _t4 + (ip[2] - 1), ip[3]);
		for (int64_t n3_k = 0, _t2 = ip[1]; n3_k < _t2; ++n3_k) {
			const float _t6 = _LD(n0_X, _t5 + n3_k, ip[5]);
			const int64_t _t7 = n3_k * ip[8];
			if (_t8 && _IN2(_t7, _t7 + (ip[2] - 1), ip[7])) {
				const int64_t _t3 = ip[2];
				#pragma omp simd
				for (int64_t n3_j = 0; n3_j < _t3; ++n3_j)
					n3_C[_t4 + n3_j] = n3_C[_t4 + n3_j] + (_t6 * n3_B[_t7 + n3_j]);
			} else {
				for (int64_t n3_j = 0, _t3 = ip[2]; n3_j < _t3; ++n3_j)
					if (_IN(_t4 + n3_j, ip[3])) n3_C[_t4 + n3_j] = _LD(n3_C, _t4 + n3_j, ip[3]) + (_t6 * _LD(n3_B, _t7 + n3_j, ip[7]));
			}
		}
	}
}
static void _k14(float *n5_C, const float *n4_C, const int64_t *ip)
{
	for (int64_t n5_i = 0, _t1 = ip[0]; n5_i < _t1; ++n5_i) {
		const int64_t _t3 = n5_i * ip[3];
		const int64_t _t4 = n5_i * ip[5];
		if (_IN2(_t4, _t4 + (ip[1] - 1), ip[4]) && _IN2(_t3, _t3 + (ip[1] - 1), ip[2])) {
			const int64_t _t2 = ip[1];
			#pragma omp simd
			for (int64_t n5_j = 0; n5_j < _t2; ++n5_j)
				n5_C[_t3 + n5_j] = (0.0f > n4_C[_t4 + n5_j]) ? 0.0f : n4_C[_t4 + n5_j];
		} else {
			for (int64_t n5_j = 0, _t2 = ip[1]; n5_j < _t2; ++n5_j)
				if (_IN(_t3 + n5_j, ip[2])) n5_C[_t3 + n5_j] = (0.0f > _LD(n4_C, _t4 + n5_j, ip[4])) ? 0.0f : _LD(n4_C, _t4 + n5_j, ip[4]);
		}
	}
}
static int _r1(void **bufs, void **tabs, const int64_t *ipar, const double *fpar)
{
	if (!(ipar[184] % 8 == 0 && _k3(ipar + 140) && _k3(ipar + 154) && _k6(ipar + 168) && _k9(ipar + 178))) return 0;
	for (int64_t row = 0; row < ipar[183]; ++row)
		for (int64_t start = 0; start < ipar[184]; start += 8) {
			float t0[8], t1[8], t2[8], t3[8], t4[8];
			_k1(row, start, t3, ipar + 136);
			_k1(row, start, t0, ipar + 138);
			_k2(row, start, tabs[6], t0, bufs[16], bufs[0], tabs[7], tabs[8], bufs[17], ipar + 140);
			_k1(row, start, t1, ipar + 152);
			_k2(row, start, tabs[9], t1, bufs[18], bufs[0], tabs[10], tabs[11], bufs[19], ipar + 154);
			_k4(row, start, t2, t0, t1, ipar + 166);
			_k5(row, start, t3, bufs[0], bufs[20], ipar + 168);
			_k4(row, start, t4, t2, t3, ipar + 176);
			_k8(row, start, bufs[21], t4, ipar + 178);
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
		_k10(bufs[1], ipar + 71);
		_k11(tabs[0], bufs[1], bufs[10], bufs[11], tabs[1], tabs[2], bufs[12], ipar + 75);
		_k10(bufs[2], ipar + 88);
		_k11(tabs[3], bufs[2], bufs[13], bufs[11], tabs[4], tabs[5], bufs[14], ipar + 92);
		_k12(bufs[3], bufs[1], bufs[2], ipar + 105);
		_k0(bufs[4], ipar + 10);
		_k13(bufs[4], bufs[11], bufs[15], ipar + 113);
		_k12(bufs[5], bufs[3], bufs[4], ipar + 122);
		_k14(bufs[0], bufs[5], ipar + 130);
	}
	if (!_r1(bufs, tabs, ipar, fpar)) {
		++rc;
		if (!_alloc(bufs, ipar, 6, 10)) { rc = -1; goto done; }
		_k10(bufs[6], ipar + 185);
		_k11(tabs[6], bufs[6], bufs[16], bufs[0], tabs[7], tabs[8], bufs[17], ipar + 189);
		_k10(bufs[7], ipar + 202);
		_k11(tabs[9], bufs[7], bufs[18], bufs[0], tabs[10], tabs[11], bufs[19], ipar + 206);
		_k12(bufs[8], bufs[6], bufs[7], ipar + 219);
		_k0(bufs[9], ipar + 15);
		_k13(bufs[9], bufs[0], bufs[20], ipar + 227);
		_k12(bufs[21], bufs[8], bufs[9], ipar + 236);
	}
	done:
	for (int n = 0; n < 10; ++n) free(bufs[n]);
	return rc;
}
