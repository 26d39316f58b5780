"""Emitted NumPy kernel for 'spmm' (stage-IV source backend).

Generated by repro.core.codegen.emit_numpy v4; do not edit.
The make_kernel body is the plan: lane expansion and gather/scatter
indices fixed once from the structural data.  run() is the per-call
gather / compute / scatter body over the value arrays.
"""

MAX_LANES = 67108864


def make_kernel(axes, aux, helpers):
    np = helpers['np']
    ragged_arange = helpers['ragged_arange']
    J_indptr = aux['J_indptr']
    J_indices = aux['J_indices']
    J_dense_indptr = aux['J_dense_indptr']
    # ---- plan: computed once from structural data ----
    _cnt2 = max(int(4), 0)
    _n3 = 1 * _cnt2
    if _n3 > MAX_LANES:
        raise ValueError('loop nest expands past MAX_LANES')
    _i_it_p1 = np.tile(np.arange(int(0), int(0) + _cnt2, dtype=np.int64), 1)
    _ix4 = (_i_it_p1 + 1).astype(np.int64, copy=False)
    _bad5 = (_ix4 < 0) | (_ix4 >= 5)
    _anybad6 = bool(_bad5.any())
    _safe7 = np.where(_bad5, 0, _ix4) if _anybad6 else _ix4
    _sl8 = slice(0, _safe7.size) if not _anybad6 and np.array_equal(_safe7, np.arange(_safe7.size)) else _safe7
    if _anybad6:
        _v9 = np.where(_bad5, J_indptr.dtype.type(0), J_indptr[_sl8])
    else:
        _v9 = J_indptr[_sl8]
    _ix10 = _i_it_p1.astype(np.int64, copy=False)
    _bad11 = (_ix10 < 0) | (_ix10 >= 5)
    _anybad12 = bool(_bad11.any())
    _safe13 = np.where(_bad11, 0, _ix10) if _anybad12 else _ix10
    _sl14 = slice(0, _safe13.size) if not _anybad12 and np.array_equal(_safe13, np.arange(_safe13.size)) else _safe13
    if _anybad12:
        _v15 = np.where(_bad11, J_indptr.dtype.type(0), J_indptr[_sl14])
    else:
        _v15 = J_indptr[_sl14]
    _starts17 = np.full(_n3, 0).astype(np.int64, copy=False)
    _counts18 = np.maximum((_v9 - _v15).astype(np.int64, copy=False), 0)
    _n19 = int(_counts18.sum())
    if _n19 > MAX_LANES:
        raise ValueError('loop nest expands past MAX_LANES')
    _parent20 = np.repeat(np.arange(_n3, dtype=np.int64), _counts18)
    _local21 = ragged_arange(_counts18)
    _i_it_p22 = _i_it_p1[_parent20]
    _j_it_p16 = _starts17[_parent20] + _local21
    _cnt24 = max(int(3), 0)
    _n25 = _n19 * _cnt24
    if _n25 > MAX_LANES:
        raise ValueError('loop nest expands past MAX_LANES')
    _i_it_p26 = np.repeat(_i_it_p22, _cnt24)
    _j_it_p27 = np.repeat(_j_it_p16, _cnt24)
    _k_it_p23 = np.tile(np.arange(int(0), int(0) + _cnt24, dtype=np.int64), _n19)
    _ix28 = ((_i_it_p26 * 3) + _k_it_p23).astype(np.int64, copy=False)
    _drop29 = (_ix28 < 0) | (_ix28 >= 12)
    _bad30 = _drop29 if _drop29.any() else None
    if _bad30 is None:
        _keep31 = None
        _ix32 = _ix28
    else:
        _keep31 = ~_bad30
        _ix32 = _ix28[_keep31]
    _v33 = np.full(_n25, 0.0, dtype=np.result_type('float32', 0.0))
    _v34 = _v33 if _keep31 is None else _v33[_keep31]
    _sl35 = slice(0, _ix32.size) if _keep31 is None and np.array_equal(_ix32, np.arange(_ix32.size)) else _ix32
    if _n3 > MAX_LANES:
        raise ValueError('loop nest expands past MAX_LANES')
    if _n19 > MAX_LANES:
        raise ValueError('loop nest expands past MAX_LANES')
    if _n25 > MAX_LANES:
        raise ValueError('loop nest expands past MAX_LANES')
    _ix63 = _i_it_p26.astype(np.int64, copy=False)
    _bad64 = (_ix63 < 0) | (_ix63 >= 5)
    _anybad65 = bool(_bad64.any())
    _safe66 = np.where(_bad64, 0, _ix63) if _anybad65 else _ix63
    _sl67 = slice(0, _safe66.size) if not _anybad65 and np.array_equal(_safe66, np.arange(_safe66.size)) else _safe66
    if _anybad65:
        _v68 = np.where(_bad64, J_indptr.dtype.type(0), J_indptr[_sl67])
    else:
        _v68 = J_indptr[_sl67]
    _ix69 = (_v68 + _j_it_p27).astype(np.int64, copy=False)
    _bad70 = (_ix69 < 0) | (_ix69 >= 7)
    _anybad71 = bool(_bad70.any())
    _safe72 = np.where(_bad70, 0, _ix69) if _anybad71 else _ix69
    _sl73 = slice(0, _safe72.size) if not _anybad71 and np.array_equal(_safe72, np.arange(_safe72.size)) else _safe72
    if _anybad65:
        _v80 = np.where(_bad64, J_dense_indptr.dtype.type(0), J_dense_indptr[_sl67])
    else:
        _v80 = J_dense_indptr[_sl67]
    _ix81 = (_v80 + _j_it_p27).astype(np.int64, copy=False)
    _bad82 = (_ix81 < 0) | (_ix81 >= 7)
    _anybad83 = bool(_bad82.any())
    _safe84 = np.where(_bad82, 0, _ix81) if _anybad83 else _ix81
    _sl85 = slice(0, _safe84.size) if not _anybad83 and np.array_equal(_safe84, np.arange(_safe84.size)) else _safe84
    if _anybad83:
        _v86 = np.where(_bad82, J_indices.dtype.type(0), J_indices[_sl85])
    else:
        _v86 = J_indices[_sl85]
    _ix87 = ((_v86 * 3) + _k_it_p23).astype(np.int64, copy=False)
    _bad88 = (_ix87 < 0) | (_ix87 >= 12)
    _anybad89 = bool(_bad88.any())
    _safe90 = np.where(_bad88, 0, _ix87) if _anybad89 else _ix87
    _sl91 = slice(0, _safe90.size) if not _anybad89 and np.array_equal(_safe90, np.arange(_safe90.size)) else _safe90

    def run(arrays):
        C = arrays['C']
        A = arrays['A']
        B = arrays['B']
        # ---- pass 1: reduction initialisation ----
        # init of block 'spmm_compute'
        # C[((i_it_p * 3) + k_it_p)] = 0.0
        C[_sl35] = _v34
        # ---- pass 2: compute ----
        # C[((i_it_p * 3) + k_it_p)] = (C[((i_it_p * 3) + k_it_p)] + (A[(J_indptr[i_it_p] + j_it_p)] * B[((J_indices[(J_dense_indptr[i_it_p] + j_it_p)] * 3) + k_it_p)]))
        if _anybad71:
            _v74 = np.where(_bad70, A.dtype.type(0), A[_sl73])
        else:
            _v74 = A[_sl73]
        if _anybad89:
            _v92 = np.where(_bad88, B.dtype.type(0), B[_sl91])
        else:
            _v92 = B[_sl91]
        _v98 = (_v74 * _v92)
        del _v74, _v92
        _v99 = _v98 if _keep31 is None else _v98[_keep31]
        del _v98
        np.add.at(C, _ix32, _v99)
        return arrays

    return run
