// testkit::RunSoak at the sharded topologies: cross-shard isolation under
// concurrent churn, reads, and standing subscriptions, every answer and
// diff stream checked against the naive oracle (see
// src/testkit/soak_driver.hpp for what each phase checks). The 2-shard
// variants are the TSan CI targets; the durable variants add the one-shard
// crash/recovery; the wire variants replay through a loopback server. The
// fault teeth run at the topology with every axis on: sharded, durable and
// over the wire at once.

#include <gtest/gtest.h>

#include <filesystem>
#include <string>

#include "testkit/soak_driver.hpp"
#include "testkit/workload.hpp"

namespace gkx::testkit {
namespace {

std::string TempDirFor(const char* name) {
  std::string dir = ::testing::TempDir() + "/shard_soak_" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

// Documents spread over the shards and enough churn that the isolation
// round has work on shard 0; small pools keep the naive oracle fast.
Schedule ShardSchedule(uint64_t seed, int documents, int operations = 1500) {
  WorkloadSpec spec;
  spec.seed = seed;
  spec.operations = operations;
  spec.documents = documents;
  spec.queries = 24;
  spec.min_document_nodes = 24;
  spec.max_document_nodes = 64;
  spec.query_options.max_path_steps = 3;
  spec.query_options.max_condition_depth = 2;
  spec.query_options.tag_zipf_s = 0.7;
  spec.document_options.tag_zipf_s = 0.7;
  spec.churn_probability = 0.05;
  spec.edit_probability = 0.7;
  auto schedule = CompileWorkload(spec);
  EXPECT_TRUE(schedule.ok()) << schedule.status().ToString();
  return std::move(schedule).value();
}

TEST(ShardSoakTest, TwoShardsStayIsolatedUnderChurn) {
  const Schedule schedule = ShardSchedule(0x600d5eed, 16);
  SoakOptions options;
  options.shards = 2;
  options.rounds = 3;
  options.threads = 2;
  options.standing_queries = 4;
  SoakReport report = RunSoak(schedule, options);
  EXPECT_TRUE(report.ok()) << report.Summary();
  EXPECT_GT(report.mutations, 0) << report.Summary();
  EXPECT_GT(report.requests, 0) << report.Summary();
  EXPECT_GT(report.subscription_events, 0) << report.Summary();
  EXPECT_GT(report.stats.answer_cache.hits, 0) << report.Summary();
  EXPECT_TRUE(report.isolation_ran);
  EXPECT_FALSE(report.shard_crash_ran);
}

TEST(ShardSoakTest, FourShardsStayIsolatedUnderChurn) {
  const Schedule schedule = ShardSchedule(0x40054d, 16);
  SoakOptions options;
  options.shards = 4;
  options.rounds = 2;
  options.threads = 2;
  options.standing_queries = 4;
  SoakReport report = RunSoak(schedule, options);
  EXPECT_TRUE(report.ok()) << report.Summary();
  EXPECT_TRUE(report.isolation_ran);
}

TEST(ShardSoakTest, OneShardCrashRecoversAloneAndExactly) {
  const Schedule schedule = ShardSchedule(0xdead10cc, 12);
  SoakOptions options;
  options.shards = 2;
  options.rounds = 2;
  options.threads = 2;
  options.standing_queries = 4;
  options.wal_dir = TempDirFor("recovery");
  SoakReport report = RunSoak(schedule, options);
  EXPECT_TRUE(report.ok()) << report.Summary();
  EXPECT_TRUE(report.shard_crash_ran);
  EXPECT_GT(report.records_replayed_shard0, 0) << report.Summary();
  std::filesystem::remove_all(options.wal_dir);
}

// The single-service topology over the wire: every read, registration
// (RegisterXml of the serialized revision) and patch crosses the loopback
// server, one connection per replay thread.
TEST(ShardSoakTest, WireSoakAgreesWithOracle) {
  const Schedule schedule = ShardSchedule(0x3153, 8);
  SoakOptions options;
  options.wire = true;
  options.rounds = 2;
  options.threads = 4;
  options.standing_queries = 4;
  SoakReport report = RunSoak(schedule, options);
  EXPECT_TRUE(report.ok()) << report.Summary();
  EXPECT_GT(report.mutations, 0) << report.Summary();
  EXPECT_GT(report.patches, 0) << report.Summary();
  EXPECT_GT(report.subscription_events, 0) << report.Summary();
}

// Every axis at once: sharded, durable and over the wire.
TEST(ShardSoakTest, ShardedDurableWireSoakAgreesWithOracle) {
  const Schedule schedule = ShardSchedule(0xa11, 12);
  SoakOptions options;
  options.shards = 2;
  options.wire = true;
  options.rounds = 3;
  options.threads = 4;
  options.standing_queries = 6;
  options.wal_dir = TempDirFor("all_axes");
  SoakReport report = RunSoak(schedule, options);
  EXPECT_TRUE(report.ok()) << report.Summary();
  EXPECT_GT(report.mutations, 0) << report.Summary();
  EXPECT_GT(report.requests, 0) << report.Summary();
  EXPECT_GT(report.subscription_events, 0) << report.Summary();
  EXPECT_GT(report.stats.answer_cache.hits, 0) << report.Summary();
  EXPECT_EQ(report.recoveries, 3);
  EXPECT_TRUE(report.isolation_ran);
  EXPECT_TRUE(report.shard_crash_ran);
  EXPECT_GT(report.records_replayed_shard0, 0) << report.Summary();
  std::filesystem::remove_all(options.wal_dir);
}

// Fault teeth at the all-axes topology: a node-set perturbed through
// answer_tap must be caught, with the reproducing seed in the message.
TEST(ShardSoakTest, AnswerTapFaultIsCaughtShardedDurableOverTheWire) {
  const Schedule schedule = ShardSchedule(173, 12, 600);
  SoakOptions options;
  options.shards = 2;
  options.wire = true;
  options.threads = 4;
  options.standing_queries = 2;
  options.wal_dir = TempDirFor("tap_fault");
  options.service.answer_tap = [](eval::Engine::Answer* answer) {
    if (answer->value.is_node_set() && answer->value.nodes().size() >= 2) {
      eval::NodeSet nodes = answer->value.nodes();
      nodes.pop_back();
      answer->value = eval::Value::Nodes(std::move(nodes));
    }
  };
  SoakReport report = RunSoak(schedule, options);
  EXPECT_FALSE(report.ok());
  EXPECT_GT(report.divergences, 0);
  ASSERT_FALSE(report.failures.empty());
  EXPECT_NE(report.failures[0].find("seed=173"), std::string::npos)
      << report.failures[0];
  std::filesystem::remove_all(options.wal_dir);
}

// ... and an answer cache that skips delta invalidation (stale serves after
// subtree edits) must be caught the same way.
TEST(ShardSoakTest, BrokenDeltaInvalidationIsCaughtShardedDurableOverTheWire) {
  WorkloadSpec spec;
  spec.seed = 67;
  spec.operations = 4000;
  spec.documents = 8;
  spec.queries = 48;
  spec.min_document_nodes = 30;
  spec.max_document_nodes = 90;
  spec.query_options.max_path_steps = 3;
  spec.query_options.max_condition_depth = 2;
  spec.query_options.tag_zipf_s = 0.7;
  spec.document_options.tag_zipf_s = 0.7;
  spec.document_options.text_probability = 0.25;
  spec.churn_probability = 0.05;  // heavy churn: stale entries get re-read
  spec.edit_probability = 1.0;    // every churn event is a subtree patch
  auto schedule = CompileWorkload(spec);
  ASSERT_TRUE(schedule.ok());

  SoakOptions options;
  options.shards = 2;
  options.wire = true;
  options.threads = 4;
  options.wal_dir = TempDirFor("delta_fault");
  options.service.answer_cache.fault_ignore_delta = true;
  SoakReport report = RunSoak(*schedule, options);
  EXPECT_FALSE(report.ok()) << "stale serves went undetected";
  EXPECT_GT(report.divergences, 0);
  EXPECT_GT(report.patches, 0);
  EXPECT_EQ(report.patch_divergences, 0);  // the patches themselves applied
  ASSERT_FALSE(report.failures.empty());
  EXPECT_NE(report.failures[0].find("seed=67"), std::string::npos)
      << report.failures[0];
  std::filesystem::remove_all(options.wal_dir);
}

}  // namespace
}  // namespace gkx::testkit
