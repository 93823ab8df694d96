#include "perfbench/inputs.hpp"

#include <string>
#include <vector>

#include "circuits/circuit.hpp"
#include "circuits/generators.hpp"
#include "graphs/digraph.hpp"
#include "reductions/circuit_to_core_xpath.hpp"
#include "reductions/reach_to_pf.hpp"
#include "reductions/sac_to_positive_core.hpp"
#include "xml/generator.hpp"
#include "xml/serializer.hpp"
#include "xpath/printer.hpp"

namespace gkx::perfbench {
namespace {

std::string Tag(Rng* rng) {
  return "t" + std::to_string(rng->UniformInt(0, kTagAlphabet - 1));
}

std::string Test(Rng* rng) { return rng->Bernoulli(0.25) ? "*" : Tag(rng); }

std::string Int(Rng* rng, int lo, int hi) {
  return std::to_string(rng->UniformInt(lo, hi));
}

// Axes whose per-origin cost is bounded by a subtree, an ancestor chain or
// a sibling list.
const std::vector<std::string> kLocalAxes = {
    "child", "descendant", "parent", "ancestor", "following-sibling",
    "preceding-sibling"};

std::string PfQuery(Rng* rng) {
  std::string q = "descendant::" + Tag(rng);
  const int extra = static_cast<int>(rng->UniformInt(0, 2));
  for (int i = 0; i < extra; ++i) q += "/" + rng->Pick(kLocalAxes) + "::" + Test(rng);
  return q;
}

std::string CoreAtom(Rng* rng) {
  return rng->Pick(kLocalAxes) + "::" + Tag(rng);
}

std::string CorePositiveQuery(Rng* rng) {
  const std::string op = rng->Bernoulli(0.5) ? " and " : " or ";
  std::string q = "descendant::" + Tag(rng) + "[" + CoreAtom(rng) + op +
                  CoreAtom(rng) + "]";
  if (rng->Bernoulli(0.5)) q += "/child::" + Test(rng);
  return q;
}

std::string CoreNegatedQuery(Rng* rng) {
  switch (rng->UniformInt(0, 2)) {
    case 0:
      return "descendant::" + Tag(rng) + "[not(" + CoreAtom(rng) + ")]";
    case 1:
      return "descendant::" + Tag(rng) + "[not(" + CoreAtom(rng) + ") and " +
             CoreAtom(rng) + "]/child::" + Test(rng);
    default:
      return "descendant::" + Tag(rng) + "[not(" + CoreAtom(rng) + " or " +
             CoreAtom(rng) + ")]";
  }
}

// Every step carries a positional predicate, so the whole plan is one cvt
// segment. The first step caps the frontier at a few dozen origins.
std::string PositionalQuery(Rng* rng) {
  std::string q = "descendant::" + Tag(rng) + "[position() < " +
                  Int(rng, 2, 40) + "]";
  switch (rng->UniformInt(0, 2)) {
    case 0:
      return q + "/child::*[position() = last()]";
    case 1:
      return q + "/following-sibling::" + Test(rng) + "[position() = " +
             Int(rng, 1, 3) + "]";
    default:
      return "descendant::" + Tag(rng) + "[position() = " + Int(rng, 1, 9) + "]";
  }
}

// Mixed routes: predicate-free and Core steps run as bitset sweeps and the
// positional step runs per origin, with the materialization boundaries
// between them.
std::string HybridQuery(Rng* rng) {
  switch (rng->UniformInt(0, 2)) {
    case 0:
      return "descendant::" + Tag(rng) + "/child::" + Test(rng) +
             "[position() = " + Int(rng, 1, 3) + "]";
    case 1:
      return "descendant::" + Tag(rng) + "/child::*[position() = last()]/" +
             "descendant::" + Tag(rng) + "[child::" + Tag(rng) + "]";
    default:
      return "descendant::" + Tag(rng) + "[child::" + Tag(rng) +
             "]/following-sibling::*[position() = 1]/child::" + Test(rng);
  }
}

std::string FamilyQuery(Rng* rng, Family family) {
  switch (family) {
    case Family::kCorePositive: return CorePositiveQuery(rng);
    case Family::kCoreNegated: return CoreNegatedQuery(rng);
    case Family::kPositional: return PositionalQuery(rng);
    case Family::kHybrid: return HybridQuery(rng);
    case Family::kPf: break;
  }
  return PfQuery(rng);
}

}  // namespace

std::vector<QueryText> MakeQuerySet(
    uint64_t seed, const std::vector<std::pair<Family, int>>& counts) {
  Rng fixed(20031ULL);
  std::vector<int> rename(kTagAlphabet);
  for (int i = 0; i < kTagAlphabet; ++i) rename[static_cast<size_t>(i)] = i;
  Rng rng(seed ^ 0x7a95e7ULL);
  rng.Shuffle(&rename);
  std::vector<QueryText> all;
  for (const auto& [family, count] : counts) {
    for (int n = 0; n < count; ++n) {
      const std::string text = FamilyQuery(&fixed, family);
      std::string renamed;
      for (size_t i = 0; i < text.size(); ++i) {
        renamed += text[i];
        // Tags are "t" + one digit (kTagAlphabet <= 10) after an axis "::".
        if (text[i] == 't' && i >= 2 && text[i - 1] == ':' && i + 1 < text.size()) {
          renamed += static_cast<char>('0' + rename[static_cast<size_t>(text[i + 1] - '0')]);
          ++i;
        }
      }
      all.push_back({family, std::move(renamed)});
    }
  }
  return all;
}

std::string MakeDocumentXml(Rng* rng, int32_t nodes) {
  xml::RandomDocumentOptions options;
  options.node_count = nodes;
  options.tag_alphabet = kTagAlphabet;
  options.text_probability = 0.1;
  options.chain_bias = 0.2;
  return xml::SerializeDocument(xml::RandomDocument(rng, options));
}

std::vector<KnownAnswer> MakeReductionInstances(Rng* rng, int count) {
  std::vector<KnownAnswer> out;
  for (int i = 0; i < count; ++i) {
    const int32_t n = 10;
    graphs::Digraph graph = graphs::RandomDigraph(rng, n, 0.12);
    const auto src = static_cast<int32_t>(rng->UniformInt(0, n - 1));
    const auto dst = static_cast<int32_t>(rng->UniformInt(0, n - 1));
    reductions::ReachabilityReduction reach =
        reductions::ReachabilityToPf(graph, src, dst);
    out.push_back({"reach-pf", xml::SerializeDocument(reach.doc),
                   xpath::ToXPathString(reach.query),
                   graphs::IsReachable(graph, src, dst)});

    circuits::RandomMonotoneOptions mono;
    mono.num_inputs = 6;
    mono.num_gates = 20;
    circuits::Circuit circuit = circuits::RandomMonotone(rng, mono);
    std::vector<bool> assignment;
    for (int b = 0; b < mono.num_inputs; ++b) assignment.push_back(rng->Bernoulli(0.5));
    reductions::CircuitReduction core =
        reductions::CircuitToCoreXPath(circuit, assignment);
    out.push_back({"circuit-core", xml::SerializeDocument(core.doc),
                   xpath::ToXPathString(core.query), circuit.Evaluate(assignment)});

    circuits::RandomSacOptions sac_options;
    sac_options.num_inputs = 6;
    circuits::Circuit sac = circuits::RandomSac(rng, sac_options);
    std::vector<bool> sac_assignment;
    for (int b = 0; b < sac_options.num_inputs; ++b) {
      sac_assignment.push_back(rng->Bernoulli(0.5));
    }
    reductions::CircuitReduction pos =
        reductions::SacToPositiveCoreXPath(sac, sac_assignment);
    out.push_back({"sac-poscore", xml::SerializeDocument(pos.doc),
                   xpath::ToXPathString(pos.query), sac.Evaluate(sac_assignment)});
  }
  return out;
}

uint64_t Fnv1a(const std::string& bytes, uint64_t seed) {
  uint64_t h = seed;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

}  // namespace gkx::perfbench
