#include "testkit/soak_driver.hpp"

#include <algorithm>
#include <atomic>
#include <iterator>
#include <map>
#include <memory>
#include <mutex>
#include <numeric>
#include <set>
#include <sstream>
#include <thread>
#include <tuple>
#include <utility>

#include "base/check.hpp"
#include "mview/subscription.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "service/shard_map.hpp"
#include "service/sharded_service.hpp"
#include "testkit/reference_edit.hpp"
#include "xml/serializer.hpp"
#include "xpath/parser.hpp"

namespace gkx::testkit {
namespace {

using service::QueryService;
using service::ServiceStats;
using service::ShardedQueryService;
using Kind = Operation::Kind;
using Answers = std::vector<Result<QueryService::Answer>>;

constexpr size_t kMaxFailuresReported = 8;

bool IsChurn(const Operation& op) {
  return op.kind == Kind::kAddDocument || op.kind == Kind::kEditDocument;
}

int64_t SumCounts(const std::map<std::string, int64_t>& counts) {
  int64_t total = 0;
  for (const auto& [name, count] : counts) total += count;
  return total;
}

/// The first `wanted` pool queries a subscription can watch (node-set-typed
/// roots; scalar queries have no added/removed diff).
std::vector<int32_t> PickStandingQueries(const Schedule& schedule, int wanted) {
  std::vector<int32_t> picked;
  for (size_t q = 0; q < schedule.queries.size() &&
                     picked.size() < static_cast<size_t>(std::max(0, wanted));
       ++q) {
    xpath::Query parsed = xpath::MustParse(schedule.queries[q]);
    if (xpath::StaticType(parsed.root()) == xpath::ValueType::kNodeSet) {
      picked.push_back(static_cast<int32_t>(q));
    }
  }
  return picked;
}

/// Applies one delivered diff to the reconstructed state; false if the diff
/// is structurally impossible (removing absent nodes / re-adding present
/// ones — a duplicated, reordered, or corrupted delivery).
bool ApplyDiff(eval::NodeSet* applied, const mview::SubscriptionEvent& event) {
  if (!std::includes(applied->begin(), applied->end(), event.removed.begin(),
                     event.removed.end())) {
    return false;
  }
  for (xml::NodeId node : event.added) {
    if (std::binary_search(applied->begin(), applied->end(), node)) {
      return false;
    }
  }
  eval::NodeSet after_removal;
  std::set_difference(applied->begin(), applied->end(), event.removed.begin(),
                      event.removed.end(), std::back_inserter(after_removal));
  eval::NodeSet next;
  std::set_union(after_removal.begin(), after_removal.end(),
                 event.added.begin(), event.added.end(),
                 std::back_inserter(next));
  *applied = std::move(next);
  return true;
}

/// One replay thread's route into the router: direct calls, or its own
/// loopback connection when the topology includes the wire (a failed
/// connect surfaces as every request's error status).
class Lane {
 public:
  Lane(ShardedQueryService* router, uint16_t port)
      : router_(router), wire_(port != 0) {
    if (wire_) client_.Connect("127.0.0.1", port);
  }

  /// One request (a kSubmit) goes through Submit, several (a kBatch, which
  /// has two or more) through SubmitBatch.
  Answers Submit(const std::vector<QueryService::Request>& batch) {
    if (batch.size() == 1) {
      const auto& [doc, query] = batch[0];
      return {wire_ ? client_.Submit(doc, query) : router_->Submit(doc, query)};
    }
    if (!wire_) return router_->SubmitBatch(batch);
    std::vector<net::WireRequest> requests;
    requests.reserve(batch.size());
    for (const auto& request : batch) {
      requests.push_back({request.doc_key, request.query});
    }
    return client_.SubmitBatch(requests);
  }
  Status Register(const std::string& key, const xml::Document& doc) {
    return wire_ ? client_.RegisterXml(key, xml::SerializeDocument(doc))
                 : router_->RegisterDocument(key, xml::Document(doc));
  }
  Status Update(const std::string& key, const xml::SubtreeEdit& edit) {
    return wire_ ? client_.UpdateDocument(key, edit)
                 : router_->UpdateDocument(key, edit);
  }

 private:
  ShardedQueryService* router_;
  const bool wire_;
  net::Client client_;
};

class Soak {
 public:
  Soak(const Schedule& schedule, const SoakOptions& options)
      : schedule_(schedule),
        options_(options),
        threads_(std::max(1, options.threads)),
        shards_(std::max(1, options.shards)),
        durable_(!options.wal_dir.empty()),
        map_(shards_),
        standing_(PickStandingQueries(schedule, options.standing_queries)),
        oracle_(schedule, standing_),
        watermark_(schedule.revisions.size(), 0) {
    for (const std::string& key : schedule.doc_keys) {
      doc_shard_.push_back(map_.ShardOf(key));
    }
    PlanRounds(std::max(1, options.rounds));
    PickProbes();
    // Compose the eviction observation on top of any caller-provided hook.
    router_options_.shards = shards_;
    router_options_.wal_dir = options.wal_dir;
    router_options_.shard = options.service;
    auto caller_hook = options.service.plan_cache.on_evict;
    router_options_.shard.plan_cache.on_evict =
        [this, caller_hook](const std::string& key) {
          evictions_.fetch_add(1, std::memory_order_relaxed);
          if (caller_hook) caller_hook(key);
        };
    report_.seed = schedule.seed;
    report_.threads = threads_;
    report_.shards = shards_;
    report_.rounds = static_cast<int>(plan_.size());
    report_.durable = durable_;
    report_.wire = options.wire;
    report_.operations = static_cast<int64_t>(schedule.operations.size());
    report_.oracle_evaluations = oracle_.evaluations();
    report_.subscriptions = static_cast<int64_t>(standing_.size());
  }

  SoakReport Run() {
    const int rounds = static_cast<int>(plan_.size());
    for (int round = 0; round < rounds; ++round) {
      if (round == 0 || durable_) Open(round);
      RunRound(round);
      if (durable_ || round == rounds - 1) EndIncarnation(round, true);
      if (durable_) Kill(round);
    }
    if (durable_) {
      // One extra incarnation proves the last kill recovers too.
      Open(rounds);
      EndIncarnation(rounds, false);
    }
    CheckFinalDocuments();
    report_.requests = replay_requests_.load();
    if (report_.requests != schedule_.total_requests) {
      Fail(&SoakReport::stats_violations,
           "stats inconsistency: seed=" + std::to_string(schedule_.seed) +
               " executed requests != schedule total");
    }
    report_.mutations = mutations_.load();
    report_.patches = patches_.load();
    report_.checkpoints = checkpoints_.load();
    std::lock_guard<std::mutex> lock(failures_mu_);
    return report_;
  }

 private:
  bool IsolationRound(int round) const {
    return shards_ >= 2 && round == static_cast<int>(plan_.size()) - 1;
  }
  int ShardOfDoc(int32_t doc) const {
    return doc_shard_[static_cast<size_t>(doc)];
  }
  const std::string& Key(int32_t doc) const {
    return schedule_.doc_keys[static_cast<size_t>(doc)];
  }
  const std::string& Query(int32_t query) const {
    return schedule_.queries[static_cast<size_t>(query)];
  }
  /// The replay thread that runs operation i.
  int ThreadOf(size_t i) const {
    const Operation& op = schedule_.operations[i];
    return IsChurn(op) ? op.doc % threads_
                       : static_cast<int>(i % static_cast<size_t>(threads_));
  }
  std::string Where(int round) const {
    return "seed=" + std::to_string(schedule_.seed) +
           " round=" + std::to_string(round);
  }

  /// Cuts the operation list into contiguous rounds. At shards >= 2 the
  /// last round is the isolation round: churn on documents outside shard 0
  /// moves to the end of the round before, which keeps per-document order.
  void PlanRounds(int rounds) {
    if (shards_ >= 2) rounds = std::max(rounds, 2);
    const size_t n = schedule_.operations.size();
    for (int r = 0; r < rounds; ++r) {
      plan_.emplace_back();
      for (size_t i = n * static_cast<size_t>(r) / static_cast<size_t>(rounds);
           i < n * static_cast<size_t>(r + 1) / static_cast<size_t>(rounds);
           ++i) {
        plan_.back().push_back(i);
      }
    }
    if (shards_ < 2) return;
    std::vector<size_t>& last = plan_.back();
    std::vector<size_t>& before = plan_[plan_.size() - 2];
    auto moved = std::stable_partition(last.begin(), last.end(), [&](size_t i) {
      const Operation& op = schedule_.operations[i];
      return !IsChurn(op) || ShardOfDoc(op.doc) == 0;
    });
    before.insert(before.end(), moved, last.end());
    last.erase(moved, last.end());
  }

  /// One probe query per document for the post-recovery reads: one the
  /// Oracle holds for that document where there is one (standing queries
  /// hold every document; otherwise the first the schedule asks of it).
  void PickProbes() {
    if (schedule_.queries.empty()) return;
    const size_t docs = schedule_.doc_keys.size();
    probe_.assign(docs, -1);
    if (!standing_.empty()) probe_.assign(docs, standing_.front());
    for (const Operation& op : schedule_.operations) {
      for (const auto& [doc, query] : op.requests) {
        int32_t& probe = probe_[static_cast<size_t>(doc)];
        if (probe < 0) probe = query;
      }
    }
  }

  void Fail(int64_t SoakReport::*counter, const std::string& message) {
    std::lock_guard<std::mutex> lock(failures_mu_);
    ++(report_.*counter);
    if (report_.failures.size() < kMaxFailuresReported) {
      report_.failures.push_back(message + " | replay: CompileWorkload(seed=" +
                                 std::to_string(schedule_.seed) + ")");
    }
  }

  // ------------------------------------------------------- incarnations

  /// Builds the router (reopening the directory after round 0), zeroes the
  /// per-incarnation counters, verifies a recovered corpus, subscribes.
  void Open(int round) {
    router_ = std::make_unique<ShardedQueryService>(router_options_);
    requests_.store(0);
    request_errors_.store(0);
    evictions_.store(0);
    deliveries_.store(0);
    expected_requests_.assign(static_cast<size_t>(shards_), 0);
    expected_batches_.assign(static_cast<size_t>(shards_), 0);
    for (int s = 0; s < shards_ && durable_; ++s) {
      const QueryService& shard = router_->shard(s);
      if (!shard.wal_status().ok() || !shard.wal_enabled()) {
        Fail(&SoakReport::errors,
             "error: " + Where(round) + " shard " + std::to_string(s) +
                 " wal failed to open: " + shard.wal_status().ToString());
      }
    }
    if (round == 0) {
      // The initial corpus goes through the WAL like any other mutation.
      for (size_t d = 0; d < schedule_.revisions.size(); ++d) {
        Status put = router_->RegisterDocument(
            schedule_.doc_keys[d], xml::Document(schedule_.revisions[d][0]));
        if (!put.ok()) {
          Fail(&SoakReport::errors, "error: " + Where(round) + " initial put " +
                                        schedule_.doc_keys[d] + ": " +
                                        put.ToString());
        }
      }
    } else {
      Recovered(round);
      VerifyCorpus(round, "post-recovery");
    }
    incarnation_start_ = watermark_;
    Subscribe();
  }

  /// Sums what recovery did, shard by shard; after the one-shard crash,
  /// exactly shard 0 may replay journal records.
  void Recovered(int round) {
    ++report_.recoveries;
    for (int s = 0; s < shards_; ++s) {
      const wal::RecoveryReport& recovered = router_->shard(s).wal_recovery();
      report_.snapshots_loaded += recovered.snapshots_loaded;
      report_.records_replayed += recovered.records_replayed;
      report_.records_skipped += recovered.records_skipped;
      // Writers were joined before every kill, so each record was
      // acknowledged and fully flushed: a torn tail is a WAL bug here.
      if (recovered.torn()) {
        Fail(&SoakReport::errors,
             "error: " + Where(round) + " shard " + std::to_string(s) +
                 " unexpected torn tail (" +
                 std::to_string(recovered.torn_tail_bytes) +
                 " bytes): " + recovered.torn_tail_reason);
      }
    }
    if (!IsolationRound(round - 1)) return;
    report_.records_replayed_shard0 =
        router_->shard(0).wal_recovery().records_replayed;
    if (shard0_churn_ > 0 && report_.records_replayed_shard0 <= 0) {
      Fail(&SoakReport::isolation_violations,
           "isolation violation: " + Where(round) +
               " shard 0 replayed no journal records after its crash");
    }
    for (int s = 1; s < shards_; ++s) {
      const wal::RecoveryReport& recovered = router_->shard(s).wal_recovery();
      const bool owns_documents =
          std::count(doc_shard_.begin(), doc_shard_.end(), s) > 0;
      if (recovered.records_replayed != 0 ||
          (owns_documents && recovered.snapshots_loaded <= 0)) {
        Fail(&SoakReport::isolation_violations,
             "isolation violation: " + Where(round) + " shard " +
                 std::to_string(s) + " replayed " +
                 std::to_string(recovered.records_replayed) +
                 " records and loaded " +
                 std::to_string(recovered.snapshots_loaded) +
                 " snapshots after checkpointing everything");
      }
    }
  }

  /// Every document must sit at exactly its watermark revision, node for
  /// node, and must serve its probe query.
  void VerifyCorpus(int round, const std::string& when) {
    for (size_t d = 0; d < schedule_.revisions.size(); ++d) {
      const int32_t doc = static_cast<int32_t>(d);
      auto stored = router_->shard(ShardOfDoc(doc)).documents().Get(Key(doc));
      std::string why = "document vanished";
      if (stored != nullptr &&
          ExhaustiveEquals(stored->doc(),
                           schedule_.revisions[d][static_cast<size_t>(
                               watermark_[d])],
                           &why)) {
        continue;
      }
      Fail(&SoakReport::recovery_divergences,
           "recovery divergence (" + when + "): " + Where(round) +
               " doc=" + Key(doc) + " expected revision " +
               std::to_string(watermark_[d]) + ": " + why);
    }
    for (size_t d = 0; d < probe_.size(); ++d) {
      const int32_t doc = static_cast<int32_t>(d);
      const int32_t query = probe_[d] >= 0
                                ? probe_[d]
                                : static_cast<int32_t>(
                                      d % schedule_.queries.size());
      requests_.fetch_add(1);
      ++expected_requests_[static_cast<size_t>(ShardOfDoc(doc))];
      auto answer = router_->Submit(Key(doc), Query(query));
      if (!answer.ok()) {
        request_errors_.fetch_add(1);
        Fail(&SoakReport::errors, "error: " + Where(round) + " probe '" +
                                      Query(query) + "' on " + Key(doc) +
                                      " failed " + when + ": " +
                                      answer.status().ToString());
      } else if (probe_[d] >= 0 &&
                 !oracle_.MatchesAnyRevision(doc, watermark_[d],
                                             watermark_[d], query,
                                             AnswerDigest(answer->value))) {
        Fail(&SoakReport::recovery_divergences,
             "recovery divergence (" + when + "): " + Where(round) +
                 " probe '" + Query(query) + "' on " + Key(doc) + " got " +
                 AnswerDigest(answer->value) + " want " +
                 oracle_.Expected(doc, watermark_[d], query));
      }
    }
  }

  void Subscribe() {
    sub_ids_.clear();
    {
      std::lock_guard<std::mutex> lock(events_mu_);
      events_.clear();
    }
    for (int32_t query : standing_) {
      auto subscribed = router_->Subscribe(
          "doc*", Query(query), [this](const mview::SubscriptionEvent& event) {
            deliveries_.fetch_add(1, std::memory_order_relaxed);
            if (isolating_.load() && map_.ShardOf(event.doc_key) != 0) {
              sibling_events_.fetch_add(1);
            }
            std::lock_guard<std::mutex> lock(events_mu_);
            events_[{event.subscription, event.doc_key}].push_back(event);
          });
      GKX_CHECK(subscribed.ok());
      sub_ids_.emplace(*subscribed, query);
    }
    router_->FlushSubscriptions();
  }

  /// Subscription replay and stats reconciliation for the incarnation;
  /// `replayed` marks one that ran a round (its stats become the report's).
  void EndIncarnation(int round, bool replayed) {
    router_->FlushSubscriptions();
    report_.subscription_events += deliveries_.load();
    CheckSubscriptions(round);
    CheckStats(round);
    if (replayed) {
      report_.stats = router_->Stats();
      report_.stats_json = router_->ExportStats(service::StatsFormat::kJson);
    }
  }

  void Kill(int round) {
    VerifyCorpus(round, "pre-kill");
    if (IsolationRound(round)) {
      // The one-shard crash: the siblings checkpointed at the halfway
      // point, shard 0 churned on alone and now loses its volatile tail.
      router_->shard(0).CrashWalForTest();
      report_.shard_crash_ran = true;
      ++report_.crashes;
    } else if (round % 2 == 1) {
      // Hard kill: drop every shard's volatile tail as kill -9 would.
      // Everything above was acknowledged, so nothing may be lost anyway.
      for (int s = 0; s < shards_; ++s) router_->shard(s).CrashWalForTest();
      ++report_.crashes;
    } else {
      ++report_.clean_closes;
    }
    router_.reset();
  }

  // -------------------------------------------------------------- rounds

  void RunRound(int round) {
    const std::vector<size_t>& ops = plan_[static_cast<size_t>(round)];
    round_hi_ = watermark_;
    for (size_t i : ops) {
      const Operation& op = schedule_.operations[i];
      if (IsChurn(op)) {
        round_hi_[static_cast<size_t>(op.doc)] = op.revision;
      } else if (op.kind == Kind::kSubmit) {
        ++expected_requests_[static_cast<size_t>(
            ShardOfDoc(op.requests[0].first))];
      } else {
        std::set<int> touched;
        for (const auto& [doc, query] : op.requests) {
          ++expected_requests_[static_cast<size_t>(ShardOfDoc(doc))];
          touched.insert(ShardOfDoc(doc));
        }
        for (int s : touched) ++expected_batches_[static_cast<size_t>(s)];
      }
    }
    const bool isolation = IsolationRound(round);
    std::vector<ServiceStats> before;
    if (isolation) {
      report_.isolation_ran = true;
      shard0_churn_ = static_cast<int64_t>(
          std::count_if(ops.begin(), ops.end(), [this](size_t i) {
            return IsChurn(schedule_.operations[i]);
          }));
      before = router_->ShardStats();
      isolating_.store(true);  // deliveries so far were flushed
    }

    std::unique_ptr<net::Server> server;
    if (options_.wire) {
      server = std::make_unique<net::Server>(router_.get(),
                                             net::Server::Options{});
      Status started = server->Start();
      if (!started.ok()) {
        Fail(&SoakReport::errors,
             "error: " + Where(round) + " server: " + started.ToString());
        return;
      }
    }
    const uint16_t port = server == nullptr ? 0 : server->port();
    std::vector<std::thread> workers;
    for (int t = 0; t < threads_; ++t) {
      workers.emplace_back([this, round, port, t] { Worker(round, t, port); });
    }
    for (auto& worker : workers) worker.join();
    server.reset();
    router_->FlushSubscriptions();
    isolating_.store(false);
    watermark_ = round_hi_;
    if (isolation) CheckIsolation(round, before);
  }

  void Worker(int round, int thread, uint16_t port) {
    Lane lane(router_.get(), port);
    // Same-thread churn is visible to this thread's later reads: the lower
    // edge of the read window.
    std::vector<int32_t> seen = watermark_;
    const std::vector<size_t>& ops = plan_[static_cast<size_t>(round)];
    for (size_t pos = 0; pos < ops.size(); ++pos) {
      const size_t i = ops[pos];
      if (ThreadOf(i) != thread) continue;
      const Operation& op = schedule_.operations[i];
      const std::string where = Where(round) + " op=" + std::to_string(i) +
                                " thread=" + std::to_string(thread);
      if (IsChurn(op)) {
        Mutate(op, where, &lane, &seen);
      } else {
        std::vector<QueryService::Request> batch;
        for (const auto& [doc, query] : op.requests) {
          batch.push_back({Key(doc), Query(query)});
        }
        const auto n = static_cast<int64_t>(batch.size());
        replay_requests_.fetch_add(n, std::memory_order_relaxed);
        requests_.fetch_add(n, std::memory_order_relaxed);
        Answers responses = lane.Submit(batch);
        for (size_t r = 0; r < responses.size(); ++r) {
          const auto [doc, query] = op.requests[r];
          CheckAnswer(where, doc, query, seen[static_cast<size_t>(doc)],
                      responses[r]);
        }
      }
      if (durable_ && pos == ops.size() / 2) Checkpoint(round);
    }
  }

  void Mutate(const Operation& op, const std::string& where, Lane* lane,
              std::vector<int32_t>* seen) {
    const size_t doc = static_cast<size_t>(op.doc);
    const xml::Document& want =
        schedule_.revisions[doc][static_cast<size_t>(op.revision)];
    const bool patch = op.kind == Kind::kEditDocument;
    Status status = patch ? lane->Update(Key(op.doc), op.edit)
                          : lane->Register(Key(op.doc), want);
    if (!status.ok()) {
      Fail(&SoakReport::errors, "error: " + where + " mutation of " +
                                    Key(op.doc) + ": " + status.ToString());
      return;
    }
    mutations_.fetch_add(1, std::memory_order_relaxed);
    if (patch) patches_.fetch_add(1, std::memory_order_relaxed);
    (*seen)[doc] = op.revision;
    // This thread is the document's only writer, so the store now holds
    // exactly what the mutation produced — which must be node for node the
    // precomputed revision the oracle answers are keyed on.
    auto stored =
        router_->shard(ShardOfDoc(op.doc)).documents().Get(Key(op.doc));
    std::string why = "document vanished";
    if (stored == nullptr || !ExhaustiveEquals(stored->doc(), want, &why)) {
      Fail(&SoakReport::patch_divergences,
           "patch divergence: " + where + " doc=" + Key(op.doc) +
               " revision=" + std::to_string(op.revision) + " " + why);
    }
  }

  /// The halfway checkpoint races the other writers' appends. In the
  /// isolation round it covers the siblings only, so shard 0 crashes with
  /// the round's records still in its journal.
  void Checkpoint(int round) {
    for (int s = IsolationRound(round) ? 1 : 0; s < shards_; ++s) {
      Status status = router_->shard(s).CheckpointNow();
      if (!status.ok()) {
        Fail(&SoakReport::errors,
             "error: " + Where(round) + " checkpoint of shard " +
                 std::to_string(s) + ": " + status.ToString());
        return;
      }
    }
    checkpoints_.fetch_add(1, std::memory_order_relaxed);
  }

  void CheckAnswer(const std::string& where, int32_t doc, int32_t query,
                   int32_t rev_lo,
                   const Result<QueryService::Answer>& response) {
    const int32_t rev_hi = round_hi_[static_cast<size_t>(doc)];
    if (!response.ok()) {
      request_errors_.fetch_add(1, std::memory_order_relaxed);
      Fail(&SoakReport::errors, "error: " + where + " doc=" + Key(doc) +
                                    " query='" + Query(query) +
                                    "' status=" + response.status().ToString());
      return;
    }
    const std::string digest = AnswerDigest(response->value);
    if (oracle_.MatchesAnyRevision(doc, rev_lo, rev_hi, query, digest)) return;
    Fail(&SoakReport::divergences,
         "divergence: " + where + " doc=" + Key(doc) + " query='" +
             Query(query) + "' evaluator=" + response->evaluator +
             " rev_window=[" + std::to_string(rev_lo) + "," +
             std::to_string(rev_hi) + "] got=" + digest + " want(rev" +
             std::to_string(rev_hi) +
             ")=" + oracle_.Expected(doc, rev_hi, query));
  }

  // -------------------------------------------------------------- checks

  /// Across the isolation round the siblings saw no churn: their caches and
  /// subscriptions must not have moved, and they must still serve warm.
  void CheckIsolation(int round, const std::vector<ServiceStats>& before) {
    auto violation = [&](const std::string& what) {
      Fail(&SoakReport::isolation_violations,
           "isolation violation: " + Where(round) + " " + what);
    };
    const std::vector<ServiceStats> after = router_->ShardStats();
    const std::vector<bool> warm = WarmSiblings(round);
    for (int s = 1; s < shards_; ++s) {
      const ServiceStats& b = before[static_cast<size_t>(s)];
      const ServiceStats& a = after[static_cast<size_t>(s)];
      const std::string shard = "shard " + std::to_string(s);
      if (a.answer_cache.invalidations != b.answer_cache.invalidations ||
          a.answer_cache.retained != b.answer_cache.retained ||
          a.answer_cache.remapped != b.answer_cache.remapped) {
        violation(shard + " saw churn it does not own (answer-cache "
                          "invalidations/retained/remapped moved)");
      }
      if (a.subscriptions.evaluations != b.subscriptions.evaluations) {
        violation(shard + " re-evaluated subscriptions without churn");
      }
      if (a.answer_cache_enabled && warm[static_cast<size_t>(s)] &&
          a.answer_cache.hits == b.answer_cache.hits) {
        violation(shard + " served no warm answers to repeated reads");
      }
    }
    if (sibling_events_.load() != 0) {
      violation(std::to_string(sibling_events_.load()) +
                " subscription events for sibling shards' documents");
    }
  }

  /// Siblings on which some replay thread reads one (document, query) pair
  /// in two operations of the round: the second read runs strictly after
  /// the first answered, so a working answer cache must hit.
  std::vector<bool> WarmSiblings(int round) const {
    std::vector<bool> warm(static_cast<size_t>(shards_), false);
    std::set<std::tuple<int, int32_t, int32_t>> read;  // (thread, doc, query)
    for (size_t i : plan_[static_cast<size_t>(round)]) {
      const Operation& op = schedule_.operations[i];
      std::set<std::pair<int32_t, int32_t>> pairs(op.requests.begin(),
                                                  op.requests.end());
      for (const auto& [doc, query] : pairs) {
        if (!read.emplace(ThreadOf(i), doc, query).second) {
          warm[static_cast<size_t>(ShardOfDoc(doc))] = true;
        }
      }
    }
    return warm;
  }

  /// Re-applies each (subscription, document) stream of the incarnation
  /// from the empty set (see the header comment).
  void CheckSubscriptions(int round) {
    std::lock_guard<std::mutex> lock(events_mu_);
    auto violation = [&](const std::string& what) {
      Fail(&SoakReport::subscription_violations,
           "subscription violation: " + Where(round) + " " + what);
    };
    for (const auto& [key, events] : events_) {
      if (sub_ids_.count(key.first) == 0 ||
          std::find(schedule_.doc_keys.begin(), schedule_.doc_keys.end(),
                    key.second) == schedule_.doc_keys.end()) {
        violation("event for a foreign subscription id " +
                  std::to_string(key.first) + " or doc " + key.second);
      }
    }
    for (const auto& [sub_id, query] : sub_ids_) {
      for (size_t d = 0; d < schedule_.doc_keys.size(); ++d) {
        const int32_t doc = static_cast<int32_t>(d);
        const int32_t lo = incarnation_start_[d];
        const int32_t hi = watermark_[d];
        const std::string what = "sub=" + std::to_string(sub_id) + " doc=" +
                                 Key(doc) + " query='" + Query(query) + "'";
        eval::NodeSet applied;
        auto it = events_.find({sub_id, Key(doc)});
        const size_t count = it == events_.end() ? 0 : it->second.size();
        bool valid = true;
        for (size_t e = 0; e < count && valid; ++e) {
          valid = ApplyDiff(&applied, it->second[e]);
          const std::string digest =
              AnswerDigest(eval::Value::Nodes(eval::NodeSet(applied)));
          if (!valid) {
            violation(what + " event=" + std::to_string(e) +
                      " diff removes absent / re-adds present nodes state=" +
                      digest);
          } else if (!oracle_.MatchesAnyRevision(doc, lo, hi, query, digest)) {
            violation(what + " event=" + std::to_string(e) +
                      " state matches no revision's oracle answer state=" +
                      digest);
          }
        }
        const std::string final_digest =
            AnswerDigest(eval::Value::Nodes(std::move(applied)));
        if (valid && final_digest != oracle_.Expected(doc, hi, query)) {
          violation(what + " event=" + std::to_string(count) +
                    " final state != watermark revision (want " +
                    oracle_.Expected(doc, hi, query) + ") state=" +
                    final_digest);
        }
      }
    }
  }

  /// Lost-update check: churn per document is single-threaded, so the final
  /// store state must be exactly the highest revision, byte for byte.
  void CheckFinalDocuments() {
    for (size_t d = 0; d < schedule_.revisions.size(); ++d) {
      const int32_t doc = static_cast<int32_t>(d);
      auto stored = router_->shard(ShardOfDoc(doc)).documents().Get(Key(doc));
      if (stored != nullptr &&
          xml::SerializeDocument(stored->doc()) ==
              xml::SerializeDocument(schedule_.revisions[d].back())) {
        continue;
      }
      Fail(&SoakReport::lost_updates,
           "lost update: seed=" + std::to_string(schedule_.seed) + " doc=" +
               Key(doc) + " final store state is not revision " +
               std::to_string(schedule_.revisions[d].size() - 1));
    }
  }

  void CheckStats(int round) {
    const ServiceStats agg = router_->Stats();
    const std::vector<ServiceStats> per_shard = router_->ShardStats();
    auto require = [&](bool condition, const std::string& what) {
      if (!condition) {
        Fail(&SoakReport::stats_violations,
             "stats inconsistency: " + Where(round) + " " + what);
      }
    };
    // Router-level identities, restated where routing changes them.
    require(agg.requests == requests_.load(),
            "router requests != executed requests");
    require(agg.failures == request_errors_.load(),
            "router failures != observed errors");
    require(agg.batches == std::accumulate(expected_batches_.begin(),
                                           expected_batches_.end(), int64_t{0}),
            "router batches != per-shard sub-batches routed");
    require(agg.plan_cache.evictions == evictions_.load(),
            "evictions summed over shards != evictions observed via on_evict");
    require(agg.subscriptions.fired == deliveries_.load(),
            "subscription fired counter != deliveries observed");
    require(agg.subscriptions.active ==
                static_cast<int64_t>(sub_ids_.size()) * shards_,
            "active subscriptions != standing queries x shards (a doc* "
            "selector subscribes on every shard)");
    CheckServiceIdentities(agg, "router", require);
    for (int s = 0; s < shards_; ++s) {
      const ServiceStats& stats = per_shard[static_cast<size_t>(s)];
      const QueryService& shard = router_->shard(s);
      const std::string label = "shard " + std::to_string(s);
      require(stats.requests == expected_requests_[static_cast<size_t>(s)],
              label + " requests != requests routed to it");
      require(stats.batches == expected_batches_[static_cast<size_t>(s)],
              label + " batches != sub-batches routed to it");
      require(stats.subscriptions.active ==
                  static_cast<int64_t>(sub_ids_.size()),
              label + " active subscriptions != standing queries");
      require(stats.plan_cache_entries <= shard.plan_cache().capacity_bound(),
              label + " plan cache exceeded its capacity bound");
      require(stats.answer_cache.entries <=
                  static_cast<int64_t>(shard.answer_cache().capacity_bound()),
              label + " answer cache exceeded its capacity bound");
      CheckServiceIdentities(stats, label, require);
    }
  }

  /// Identities every ServiceStats snapshot satisfies on its own, the
  /// router's aggregate (merged bucket-exact) included.
  template <typename Require>
  void CheckServiceIdentities(const ServiceStats& stats,
                              const std::string& label,
                              const Require& require) const {
    const int64_t served = stats.requests - stats.failures;
    require(stats.plan_cache.parse_failures == 0,
            label + " parse failures on a parse-checked pool");
    require(stats.plan_cache.Lookups() == stats.requests,
            label + " hits+canonical_hits+misses+parse_failures != requests");
    require(SumCounts(stats.evaluator_counts) == served,
            label + " evaluator counts don't sum to successful requests");
    require(stats.latency.count == served,
            label + " latency histogram count != successful requests");
    if (stats.tracing) {
      // Route histograms mirror the segment dispatch counters one for one
      // (traced runs time every plan segment, frontier-skipped ones too).
      for (const auto& [route, summary] : stats.route_latency) {
        auto it = stats.segment_route_counts.find(route);
        require(it != stats.segment_route_counts.end() &&
                    summary.count == it->second,
                label + " route histogram '" + route +
                    "' count != segment counter");
      }
      for (const auto& entry : stats.segment_route_counts) {
        require(stats.route_latency.count(entry.first) == 1,
                label + " segment route '" + entry.first +
                    "' missing a latency histogram");
      }
    }
    // Every segment a run dispatched landed in exactly one exec bucket, and
    // every evaluated request but the index fast path went through the
    // executor.
    require(stats.exec_parallel_segments + stats.exec_sequential_segments +
                    stats.exec_skipped_segments ==
                stats.staged_segments,
            label + " exec parallel+sequential+skipped != staged segments");
    const auto indexed = stats.segment_route_counts.find("pf-indexed");
    require(stats.staged_segments +
                    (indexed == stats.segment_route_counts.end()
                         ? 0
                         : indexed->second) ==
                SumCounts(stats.segment_route_counts),
            label + " staged segments + pf-indexed != total dispatches");
    if (options_.service.exec.workers <= 1) {
      require(stats.exec_parallel_segments == 0,
              label + " parallel segments recorded with exec.workers <= 1");
    }
    if (stats.answer_cache_enabled && stats.failures == 0) {
      require(stats.answer_cache.Lookups() == served,
              label + " answer cache lookups != successful requests");
      require(stats.answer_cache.inserts + stats.answer_cache.declined ==
                  stats.answer_cache.misses,
              label + " answer cache misses != inserts + declines");
      require(stats.answer_cache.bytes >= 0,
              label + " answer cache byte gauge went negative");
    }
  }

  const Schedule& schedule_;
  const SoakOptions& options_;
  const int threads_;
  const int shards_;
  const bool durable_;
  const service::ShardMap map_;
  std::vector<int32_t> standing_;  // pool indexes (before oracle_: init order)
  Oracle oracle_;
  std::vector<int> doc_shard_;
  std::vector<std::vector<size_t>> plan_;  // operation indexes per round
  std::vector<int32_t> probe_;             // pool index per document, -1 none
  ShardedQueryService::Options router_options_;
  std::unique_ptr<ShardedQueryService> router_;

  // Revisions per document: at the last join (watermark_), at the end of
  // the running round (round_hi_), at the incarnation's start.
  std::vector<int32_t> watermark_;
  std::vector<int32_t> round_hi_;
  std::vector<int32_t> incarnation_start_;
  int64_t shard0_churn_ = 0;  // churn operations of the isolation round
  std::atomic<bool> isolating_{false};  // the isolation round is replaying
  std::atomic<int64_t> sibling_events_{0};

  // Per incarnation (zeroed by Open).
  std::atomic<int64_t> requests_{0};
  std::atomic<int64_t> request_errors_{0};
  std::atomic<int64_t> evictions_{0};
  std::atomic<int64_t> deliveries_{0};
  std::vector<int64_t> expected_requests_;  // per shard
  std::vector<int64_t> expected_batches_;   // per shard
  std::map<int64_t, int32_t> sub_ids_;      // subscription id -> query

  // Whole run.
  std::atomic<int64_t> replay_requests_{0};
  std::atomic<int64_t> mutations_{0};
  std::atomic<int64_t> patches_{0};
  std::atomic<int64_t> checkpoints_{0};

  std::mutex events_mu_;
  std::map<std::pair<int64_t, std::string>,
           std::vector<mview::SubscriptionEvent>>
      events_;
  std::mutex failures_mu_;
  SoakReport report_;
};

}  // namespace

std::string SoakReport::Summary() const {
  std::ostringstream out;
  out << "soak seed=" << seed << " shards=" << shards
      << (durable ? " durable" : "") << (wire ? " wire" : "") << ": "
      << operations << " ops (" << requests << " requests, " << mutations
      << " mutations, " << patches << " patches) in " << rounds
      << " rounds on " << threads << " threads, oracle=" << oracle_evaluations
      << " evals — " << (ok() ? "PASS" : "FAIL") << " (divergences="
      << divergences << " errors=" << errors << " lost_updates="
      << lost_updates << " patch_divergences=" << patch_divergences
      << " recovery_divergences=" << recovery_divergences
      << " isolation_violations=" << isolation_violations
      << " stats_violations=" << stats_violations
      << " subscription_violations=" << subscription_violations
      << "); plan cache hit rate " << stats.plan_cache.HitRate()
      << ", answer cache hit rate " << stats.answer_cache.HitRate() << " ("
      << stats.answer_cache.invalidations << " invalidated, "
      << stats.answer_cache.retained << " retained), " << subscriptions
      << " standing queries (" << subscription_events << " diffs, "
      << stats.subscriptions.coalesced << " coalesced)";
  if (durable) {
    out << "; " << crashes << " crashes, " << clean_closes
        << " clean closes, " << checkpoints << " checkpoints, recoveries="
        << recoveries << " snapshots_loaded=" << snapshots_loaded
        << " records_replayed=" << records_replayed
        << " records_skipped=" << records_skipped;
  }
  if (shard_crash_ran) {
    out << "; one-shard crash (shard 0 replayed " << records_replayed_shard0
        << ")";
  }
  for (const std::string& failure : failures) out << "\n  " << failure;
  return out.str();
}

SoakReport RunSoak(const Schedule& schedule, const SoakOptions& options) {
  Soak soak(schedule, options);
  return soak.Run();
}

}  // namespace gkx::testkit
