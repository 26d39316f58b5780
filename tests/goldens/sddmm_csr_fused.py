"""Emitted NumPy kernel for 'sddmm' (stage-IV source backend).

Generated by repro.core.codegen.emit_numpy v4; do not edit.
The make_kernel body is the plan: lane expansion and gather/scatter
indices fixed once from the structural data.  run() is the per-call
gather / compute / scatter body over the value arrays.
"""

MAX_LANES = 67108864


def make_kernel(axes, aux, helpers):
    np = helpers['np']
    rows_of_positions = helpers['rows_of_positions']
    J_indptr = aux['J_indptr']
    J_indices = aux['J_indices']
    J_dense_indptr = aux['J_dense_indptr']
    # ---- plan: computed once from structural data ----
    _cnt2 = max(int(7), 0)
    _n3 = 1 * _cnt2
    if _n3 > MAX_LANES:
        raise ValueError('loop nest expands past MAX_LANES')
    _i_it_j_it_fused1 = np.tile(np.arange(int(0), int(0) + _cnt2, dtype=np.int64), 1)
    _cnt5 = max(int(2), 0)
    _n6 = _n3 * _cnt5
    if _n6 > MAX_LANES:
        raise ValueError('loop nest expands past MAX_LANES')
    _i_it_j_it_fused7 = np.repeat(_i_it_j_it_fused1, _cnt5)
    _k_it_p4 = np.tile(np.arange(int(0), int(0) + _cnt5, dtype=np.int64), _n3)
    _row8 = rows_of_positions(axes['J'].indptr, _i_it_j_it_fused7)
    _ix9 = _row8.astype(np.int64, copy=False)
    _bad10 = (_ix9 < 0) | (_ix9 >= 5)
    _anybad11 = bool(_bad10.any())
    _safe12 = np.where(_bad10, 0, _ix9) if _anybad11 else _ix9
    _sl13 = slice(0, _safe12.size) if not _anybad11 and np.array_equal(_safe12, np.arange(_safe12.size)) else _safe12
    if _anybad11:
        _v14 = np.where(_bad10, J_indptr.dtype.type(0), J_indptr[_sl13])
    else:
        _v14 = J_indptr[_sl13]
    _ix22 = (_v14 + (_i_it_j_it_fused7 - _v14)).astype(np.int64, copy=False)
    _drop23 = (_ix22 < 0) | (_ix22 >= 7)
    _bad24 = _drop23 if _drop23.any() else None
    if _bad24 is None:
        _keep25 = None
        _ix26 = _ix22
    else:
        _keep25 = ~_bad24
        _ix26 = _ix22[_keep25]
    _v27 = np.full(_n6, 0.0, dtype=np.result_type('float32', 0.0))
    _v28 = _v27 if _keep25 is None else _v27[_keep25]
    _sl29 = slice(0, _ix26.size) if _keep25 is None and np.array_equal(_ix26, np.arange(_ix26.size)) else _ix26
    if _n3 > MAX_LANES:
        raise ValueError('loop nest expands past MAX_LANES')
    if _n6 > MAX_LANES:
        raise ValueError('loop nest expands past MAX_LANES')
    _anybad67 = bool(_drop23.any())
    _safe68 = np.where(_drop23, 0, _ix22) if _anybad67 else _ix22
    _sl69 = slice(0, _safe68.size) if not _anybad67 and np.array_equal(_safe68, np.arange(_safe68.size)) else _safe68
    _ix72 = ((_row8 * 2) + _k_it_p4).astype(np.int64, copy=False)
    _bad73 = (_ix72 < 0) | (_ix72 >= 8)
    _anybad74 = bool(_bad73.any())
    _safe75 = np.where(_bad73, 0, _ix72) if _anybad74 else _ix72
    _sl76 = slice(0, _safe75.size) if not _anybad74 and np.array_equal(_safe75, np.arange(_safe75.size)) else _safe75
    if _anybad11:
        _v84 = np.where(_bad10, J_dense_indptr.dtype.type(0), J_dense_indptr[_sl13])
    else:
        _v84 = J_dense_indptr[_sl13]
    _ix92 = (_v84 + (_i_it_j_it_fused7 - _v14)).astype(np.int64, copy=False)
    _bad93 = (_ix92 < 0) | (_ix92 >= 7)
    _anybad94 = bool(_bad93.any())
    _safe95 = np.where(_bad93, 0, _ix92) if _anybad94 else _ix92
    _sl96 = slice(0, _safe95.size) if not _anybad94 and np.array_equal(_safe95, np.arange(_safe95.size)) else _safe95
    if _anybad94:
        _v97 = np.where(_bad93, J_indices.dtype.type(0), J_indices[_sl96])
    else:
        _v97 = J_indices[_sl96]
    _ix98 = ((_k_it_p4 * 4) + _v97).astype(np.int64, copy=False)
    _bad99 = (_ix98 < 0) | (_ix98 >= 8)
    _anybad100 = bool(_bad99.any())
    _safe101 = np.where(_bad99, 0, _ix98) if _anybad100 else _ix98
    _sl102 = slice(0, _safe101.size) if not _anybad100 and np.array_equal(_safe101, np.arange(_safe101.size)) else _safe101

    def run(arrays):
        OUT = arrays['OUT']
        A = arrays['A']
        X = arrays['X']
        Y = arrays['Y']
        # ---- pass 1: reduction initialisation ----
        # init of block 'sddmm_compute'
        # OUT[(J_indptr[sparse_row_of_position('J', i_it_j_it_fused)] + (i_it_j_it_fused - J_indptr[sparse_row_of_position('J', i_it_j_it_fused)]))] = 0.0
        OUT[_sl29] = _v28
        # ---- pass 2: compute ----
        # OUT[(J_indptr[sparse_row_of_position('J', i_it_j_it_fused)] + (i_it_j_it_fused - J_indptr[sparse_row_of_position('J', i_it_j_it_fused)]))] = (OUT[(J_indptr[sparse_row_of_position('J', i_it_j_it_fused)] + (i_it_j_it_fused - J_indptr[sparse_row_of_position('J', i_it_j_it_fused)]))] + ((A[(J_indptr[sparse_row_of_position('J', i_it_j_it_fused)] + (i_it_j_it_fused - J_indptr[sparse_row_of_position('J', i_it_j_it_fused)]))] * X[((sparse_row_of_position('J', i_it_j_it_fused) * 2) + k_it_p)]) * Y[((k_it_p * 4) + J_indices[(J_dense_indptr[sparse_row_of_position('J', i_it_j_it_fused)] + (i_it_j_it_fused - J_indptr[sparse_row_of_position('J', i_it_j_it_fused)]))])]))
        if _anybad67:
            _v70 = np.where(_drop23, A.dtype.type(0), A[_sl69])
        else:
            _v70 = A[_sl69]
        if _anybad74:
            _v77 = np.where(_bad73, X.dtype.type(0), X[_sl76])
        else:
            _v77 = X[_sl76]
        if _anybad100:
            _v103 = np.where(_bad99, Y.dtype.type(0), Y[_sl102])
        else:
            _v103 = Y[_sl102]
        _v109 = ((_v70 * _v77) * _v103)
        del _v103, _v70, _v77
        _v110 = _v109 if _keep25 is None else _v109[_keep25]
        del _v109
        np.add.at(OUT, _ix26, _v110)
        return arrays

    return run
