// Reference results for the benchmark's queries, and the checks that
// compare an execution's output against them.
//
// Oracles never come from the engine paths being timed. Two-path queries
// that the engine answers with the matrix product are checked against the
// library's combinatorial WcojFullJoinProject; queries the engine answers
// with WCOJ itself (the sparse presets) against a stamp-array evaluator
// written here, as is the star's bitmap count. Each is reduced to a
// Digest: the
// exact output size, an order-independent hash of the pairs, the top
// results by witness count and, where subset checks need it, the sorted
// pair keys.

#ifndef JPMM_PERFBENCH_ORACLE_H_
#define JPMM_PERFBENCH_ORACLE_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/types.h"
#include "storage/index.h"

namespace perfbench {

inline constexpr size_t kTopK = 100;

struct Digest {
  uint64_t count = 0;
  /// Sum over output pairs of Mix64(PackPair(x, z)), mod 2^64.
  uint64_t hash = 0;
  /// The kTopK best pairs: witness count descending, (x, z) ascending.
  std::vector<jpmm::CountedPair> top;
  /// Sorted PackPair keys of the whole output (subset checks only).
  std::vector<uint64_t> keys;
};

/// Output digest of the self two-path query pi_{x,z}(R(x,y) JOIN R(z,y)).
Digest TwoPathOracle(const jpmm::IndexedRelation& r, bool keep_keys,
                     int threads);

/// The same digest as TwoPathOracle, computed here without the library's
/// join code: for each x, a stamp array collects the zs reached through
/// x's ys and their witness counts. Single-threaded; for sparse inputs.
Digest TwoPathStampOracle(const jpmm::IndexedRelation& r, bool keep_keys);

/// Output digest (count only) of the self star
/// pi_{x1,x2,x3}(R(x1,y) JOIN R(x2,y) JOIN R(x3,y)).
Digest Star3Oracle(const jpmm::IndexedRelation& r);

/// Makes every check against `d` fail: the self-test's proof that
/// verification catches a wrong result.
void Corrupt(Digest* d);

// Each check returns an empty string on success, else what differed.

/// A count-only result: exact, or at most the oracle's when truncated.
std::string CheckCount(const Digest& d, uint64_t count, bool truncated);
/// A top-kTopK ranking: identical to the oracle's, entry by entry.
std::string CheckTop(const Digest& d, std::span<const jpmm::CountedPair> got);
/// A materialized result: the exact set when complete; otherwise distinct
/// pairs that all belong to the oracle.
std::string CheckPairs(const Digest& d, std::span<const jpmm::OutPair> got,
                       bool complete);
/// One page of `limit` results after `offset` skipped ones (LimitSink is
/// offset 0): exact sizes, distinct pairs, all in the oracle.
std::string CheckPage(const Digest& d, std::span<const jpmm::OutPair> got,
                      uint64_t offset, uint64_t limit, uint64_t skipped);

}  // namespace perfbench

#endif  // JPMM_PERFBENCH_ORACLE_H_
