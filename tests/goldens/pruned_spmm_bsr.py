"""Emitted NumPy kernel for 'pruned_spmm_bsr' (stage-IV source backend).

Generated by repro.core.codegen.emit_numpy v4; do not edit.
The make_kernel body is the plan: lane expansion and gather/scatter
indices fixed once from the structural data.  run() is the per-call
gather / compute / scatter body over the value arrays.
"""

MAX_LANES = 67108864


def make_kernel(axes, aux, helpers):
    np = helpers['np']
    ragged_arange = helpers['ragged_arange']
    JB_indptr = aux['JB_indptr']
    JB_indices = aux['JB_indices']
    JB_dense_indptr = aux['JB_dense_indptr']
    # ---- plan: computed once from structural data ----
    _cnt2 = max(int(2), 0)
    _n3 = 1 * _cnt2
    if _n3 > MAX_LANES:
        raise ValueError('loop nest expands past MAX_LANES')
    _ib_it_p1 = np.tile(np.arange(int(0), int(0) + _cnt2, dtype=np.int64), 1)
    _ix4 = (_ib_it_p1 + 1).astype(np.int64, copy=False)
    _bad5 = (_ix4 < 0) | (_ix4 >= 3)
    _anybad6 = bool(_bad5.any())
    _safe7 = np.where(_bad5, 0, _ix4) if _anybad6 else _ix4
    _sl8 = slice(0, _safe7.size) if not _anybad6 and np.array_equal(_safe7, np.arange(_safe7.size)) else _safe7
    if _anybad6:
        _v9 = np.where(_bad5, JB_indptr.dtype.type(0), JB_indptr[_sl8])
    else:
        _v9 = JB_indptr[_sl8]
    _ix10 = _ib_it_p1.astype(np.int64, copy=False)
    _bad11 = (_ix10 < 0) | (_ix10 >= 3)
    _anybad12 = bool(_bad11.any())
    _safe13 = np.where(_bad11, 0, _ix10) if _anybad12 else _ix10
    _sl14 = slice(0, _safe13.size) if not _anybad12 and np.array_equal(_safe13, np.arange(_safe13.size)) else _safe13
    if _anybad12:
        _v15 = np.where(_bad11, JB_indptr.dtype.type(0), JB_indptr[_sl14])
    else:
        _v15 = JB_indptr[_sl14]
    _starts17 = np.full(_n3, 0).astype(np.int64, copy=False)
    _counts18 = np.maximum((_v9 - _v15).astype(np.int64, copy=False), 0)
    _n19 = int(_counts18.sum())
    if _n19 > MAX_LANES:
        raise ValueError('loop nest expands past MAX_LANES')
    _parent20 = np.repeat(np.arange(_n3, dtype=np.int64), _counts18)
    _local21 = ragged_arange(_counts18)
    _ib_it_p22 = _ib_it_p1[_parent20]
    _jb_it_p16 = _starts17[_parent20] + _local21
    _n25 = _n19 * _cnt2
    if _n25 > MAX_LANES:
        raise ValueError('loop nest expands past MAX_LANES')
    _ib_it_p26 = np.repeat(_ib_it_p22, _cnt2)
    _jb_it_p27 = np.repeat(_jb_it_p16, _cnt2)
    _bi_it_p23 = np.tile(np.arange(int(0), int(0) + _cnt2, dtype=np.int64), _n19)
    _n30 = _n25 * _cnt2
    if _n30 > MAX_LANES:
        raise ValueError('loop nest expands past MAX_LANES')
    _ib_it_p31 = np.repeat(_ib_it_p26, _cnt2)
    _jb_it_p32 = np.repeat(_jb_it_p27, _cnt2)
    _bi_it_p33 = np.repeat(_bi_it_p23, _cnt2)
    _bj_it_p28 = np.tile(np.arange(int(0), int(0) + _cnt2, dtype=np.int64), _n25)
    _cnt35 = max(int(3), 0)
    _n36 = _n30 * _cnt35
    if _n36 > MAX_LANES:
        raise ValueError('loop nest expands past MAX_LANES')
    _ib_it_p37 = np.repeat(_ib_it_p31, _cnt35)
    _jb_it_p38 = np.repeat(_jb_it_p32, _cnt35)
    _bi_it_p39 = np.repeat(_bi_it_p33, _cnt35)
    _bj_it_p40 = np.repeat(_bj_it_p28, _cnt35)
    _k_it_p34 = np.tile(np.arange(int(0), int(0) + _cnt35, dtype=np.int64), _n30)
    _ix41 = ((((_ib_it_p37 * 2) + _bi_it_p39) * 3) + _k_it_p34).astype(np.int64, copy=False)
    _drop42 = (_ix41 < 0) | (_ix41 >= 12)
    _bad43 = _drop42 if _drop42.any() else None
    if _bad43 is None:
        _keep44 = None
        _ix45 = _ix41
    else:
        _keep44 = ~_bad43
        _ix45 = _ix41[_keep44]
    _v46 = np.full(_n36, 0.0, dtype=np.result_type('float32', 0.0))
    _v47 = _v46 if _keep44 is None else _v46[_keep44]
    _sl48 = slice(0, _ix45.size) if _keep44 is None and np.array_equal(_ix45, np.arange(_ix45.size)) else _ix45
    if _n3 > MAX_LANES:
        raise ValueError('loop nest expands past MAX_LANES')
    if _n19 > MAX_LANES:
        raise ValueError('loop nest expands past MAX_LANES')
    if _n25 > MAX_LANES:
        raise ValueError('loop nest expands past MAX_LANES')
    if _n30 > MAX_LANES:
        raise ValueError('loop nest expands past MAX_LANES')
    if _n36 > MAX_LANES:
        raise ValueError('loop nest expands past MAX_LANES')
    _ix89 = _ib_it_p37.astype(np.int64, copy=False)
    _bad90 = (_ix89 < 0) | (_ix89 >= 3)
    _anybad91 = bool(_bad90.any())
    _safe92 = np.where(_bad90, 0, _ix89) if _anybad91 else _ix89
    _sl93 = slice(0, _safe92.size) if not _anybad91 and np.array_equal(_safe92, np.arange(_safe92.size)) else _safe92
    if _anybad91:
        _v94 = np.where(_bad90, JB_indptr.dtype.type(0), JB_indptr[_sl93])
    else:
        _v94 = JB_indptr[_sl93]
    _ix95 = (((((_v94 + _jb_it_p38) * 2) + _bi_it_p39) * 2) + _bj_it_p40).astype(np.int64, copy=False)
    _bad96 = (_ix95 < 0) | (_ix95 >= 12)
    _anybad97 = bool(_bad96.any())
    _safe98 = np.where(_bad96, 0, _ix95) if _anybad97 else _ix95
    _sl99 = slice(0, _safe98.size) if not _anybad97 and np.array_equal(_safe98, np.arange(_safe98.size)) else _safe98
    if _anybad91:
        _v106 = np.where(_bad90, JB_dense_indptr.dtype.type(0), JB_dense_indptr[_sl93])
    else:
        _v106 = JB_dense_indptr[_sl93]
    _ix107 = (_v106 + _jb_it_p38).astype(np.int64, copy=False)
    _bad108 = (_ix107 < 0) | (_ix107 >= 3)
    _anybad109 = bool(_bad108.any())
    _safe110 = np.where(_bad108, 0, _ix107) if _anybad109 else _ix107
    _sl111 = slice(0, _safe110.size) if not _anybad109 and np.array_equal(_safe110, np.arange(_safe110.size)) else _safe110
    if _anybad109:
        _v112 = np.where(_bad108, JB_indices.dtype.type(0), JB_indices[_sl111])
    else:
        _v112 = JB_indices[_sl111]
    _ix113 = ((((_v112 * 2) + _bj_it_p40) * 3) + _k_it_p34).astype(np.int64, copy=False)
    _bad114 = (_ix113 < 0) | (_ix113 >= 12)
    _anybad115 = bool(_bad114.any())
    _safe116 = np.where(_bad114, 0, _ix113) if _anybad115 else _ix113
    _sl117 = slice(0, _safe116.size) if not _anybad115 and np.array_equal(_safe116, np.arange(_safe116.size)) else _safe116

    def run(arrays):
        Y = arrays['Y']
        W = arrays['W']
        X = arrays['X']
        # ---- pass 1: reduction initialisation ----
        # init of block 'pruned_spmm_compute'
        # Y[((((ib_it_p * 2) + bi_it_p) * 3) + k_it_p)] = 0.0
        Y[_sl48] = _v47
        # ---- pass 2: compute ----
        # Y[((((ib_it_p * 2) + bi_it_p) * 3) + k_it_p)] = (Y[((((ib_it_p * 2) + bi_it_p) * 3) + k_it_p)] + (W[(((((JB_indptr[ib_it_p] + jb_it_p) * 2) + bi_it_p) * 2) + bj_it_p)] * X[((((JB_indices[(JB_dense_indptr[ib_it_p] + jb_it_p)] * 2) + bj_it_p) * 3) + k_it_p)]))
        if _anybad97:
            _v100 = np.where(_bad96, W.dtype.type(0), W[_sl99])
        else:
            _v100 = W[_sl99]
        if _anybad115:
            _v118 = np.where(_bad114, X.dtype.type(0), X[_sl117])
        else:
            _v118 = X[_sl117]
        _v124 = (_v100 * _v118)
        del _v100, _v118
        _v125 = _v124 if _keep44 is None else _v124[_keep44]
        del _v124
        np.add.at(Y, _ix45, _v125)
        return arrays

    return run
