// Internal contract between the CSR x CSR counting product
// (sparse_matrix.cpp) and its per-ISA stamp-expansion TUs.
//
// The hot inner operation of CsrCsrRowRange is expanding one B row's column
// list into the epoch-stamped counter:
//
//   for j in row: if (counter.Add(j, 1) == 0) touched.push_back(j)
//
// ExpandRowFn is that operation as a dispatchable primitive. The AVX-512
// variant processes 16 columns per step: _mm512_conflict_epi32 splits each
// block into first-occurrence lanes (safe to gather/scatter the stamp and
// count arrays in parallel) and duplicate lanes (replayed scalar AFTER the
// vector scatter so they observe the updated counts). Fresh columns are
// appended to `touched` with a masked compress-store.
//
// Exactness: counts are integer adds (commutative, exact in any order), and
// every level appends fresh columns in first-occurrence order: the vector
// path's duplicate lanes are never fresh, and the compress-store keeps the
// fresh lanes in lane order. CsrCsrRowRange emits `touched` as it stands,
// so every level produces byte-identical SparseRowBlocks, order included.

#ifndef JPMM_MATRIX_SPARSE_KERNELS_H_
#define JPMM_MATRIX_SPARSE_KERNELS_H_

#include <cstddef>
#include <cstdint>

#include "common/aligned_buffer.h"
#include "common/cpu_features.h"
#include "common/stamp_set.h"

namespace jpmm {
namespace internal {

/// Adds 1 to counter[js[p]] for p in [0, n), appending each column that was
/// fresh this epoch to *touched in order of its first occurrence in js
/// (append-only; existing contents are kept).
/// The counter's universe must already cover every index in js.
using ExpandRowFn = void (*)(const uint32_t* js, size_t n,
                             StampCounter* counter,
                             AlignedVector<uint32_t>* touched);

void ExpandRowPortable(const uint32_t* js, size_t n, StampCounter* counter,
                       AlignedVector<uint32_t>* touched);

/// nullptr when the TU was compiled without AVX-512 support (the impl needs
/// F + CD; both are part of the kAvx512 dispatch contract).
ExpandRowFn Avx512ExpandRow();

/// Best available expansion primitive for `isa`, falling back to portable.
ExpandRowFn SelectExpandRow(KernelIsa isa);

}  // namespace internal
}  // namespace jpmm

#endif  // JPMM_MATRIX_SPARSE_KERNELS_H_
