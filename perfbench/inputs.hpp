// Seeded inputs for the end-to-end benchmark: document corpora, the query
// families of the paper's Figure 1 fragment map, and instances of the
// hardness reductions whose answers are known without an oracle.
//
// Every family is a template with a bounded per-query cost. Unrestricted
// xpath::RandomQuery pWF draws are a lottery (one draw can take seconds on a
// 2,000-node document while the rest take under a millisecond), so the
// positional steps here only use axes whose per-origin cost is bounded by a
// subtree or a sibling list, never `following`/`preceding`.

#ifndef GKX_PERFBENCH_INPUTS_HPP_
#define GKX_PERFBENCH_INPUTS_HPP_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "base/rng.hpp"

namespace gkx::perfbench {

/// Query families, named after the route family that answers them.
enum class Family { kPf, kCorePositive, kCoreNegated, kPositional, kHybrid };

/// One query text of a family.
struct QueryText {
  Family family = Family::kPf;
  std::string text;
};

/// A reduction instance: one document, one query, and the answer the
/// reduction guarantees (the query's node set is non-empty iff `expected`).
struct KnownAnswer {
  std::string kind;  // "reach-pf", "circuit-core" or "sac-poscore"
  std::string xml;
  std::string query;
  bool expected = false;
};

inline constexpr int kTagAlphabet = 8;

/// A workload's query set: the families' templates drawn from one fixed
/// stream, then every tag renamed by a permutation drawn from `seed`.
/// Documents draw tags uniformly, so renaming is a symmetry of the input
/// distribution: every seed gets the same mix of costs, and seeds differ
/// in documents, schedules and which concrete tags each query names.
std::vector<QueryText> MakeQuerySet(
    uint64_t seed, const std::vector<std::pair<Family, int>>& counts);

/// A random document of `nodes` element nodes, serialized as XML.
std::string MakeDocumentXml(Rng* rng, int32_t nodes);

/// `count` instances of each of the three reductions (reach→PF,
/// circuit→Core, SAC→positive Core), sized so that one evaluation stays in
/// the sub-millisecond to low-millisecond range.
std::vector<KnownAnswer> MakeReductionInstances(Rng* rng, int count);

/// 64-bit FNV-1a, chained through `seed` — the schedule digests.
uint64_t Fnv1a(const std::string& bytes, uint64_t seed = 1469598103934665603ULL);

}  // namespace gkx::perfbench

#endif  // GKX_PERFBENCH_INPUTS_HPP_
