// The parser's nesting cap (xpath::kMaxNestingDepth) at and past its edge:
// every nesting construct — parentheses, unary minus, predicates, function
// arguments and left-associative operator chains — compiles and evaluates
// at the cap on a pool thread, and one level more is InvalidArgument, as
// are the 10 KB reproducers that used to overflow the stack. Over the wire
// such a query gets a framed error and the server keeps answering.

#include <gtest/gtest.h>

#include <future>
#include <string>
#include <vector>

#include "base/thread_pool.hpp"
#include "eval/engine.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "service/sharded_service.hpp"
#include "xml/parser.hpp"
#include "xpath/parser.hpp"

namespace gkx {
namespace {

using xpath::kMaxNestingDepth;

std::string Repeat(const std::string& unit, int times) {
  std::string out;
  out.reserve(unit.size() * static_cast<size_t>(times));
  for (int i = 0; i < times; ++i) out += unit;
  return out;
}

/// A query of nesting depth `depth` in each construct (a literal or a bare
/// step is depth 1; each enclosing construct adds 1).
struct Shape {
  const char* name;
  std::string (*make)(int depth);
};

const Shape kShapes[] = {
    {"parentheses",
     [](int d) { return Repeat("(", d - 1) + "1" + Repeat(")", d - 1); }},
    {"unary minus", [](int d) { return Repeat("-", d - 1) + "1"; }},
    {"predicates",
     [](int d) { return Repeat("b[", d - 1) + "b" + Repeat("]", d - 1); }},
    {"function arguments",
     [](int d) { return Repeat("not(", d - 1) + "true()" + Repeat(")", d - 1); }},
    {"operator chain", [](int d) { return "1" + Repeat(" + 1", d - 1); }},
    {"or chain", [](int d) { return "b" + Repeat(" or b", d - 1); }},
};

bool IsInvalidArgument(const Status& status) {
  return status.code() == StatusCode::kInvalidArgument;
}

TEST(NestingLimitTest, AtTheCapCompilesAndEvaluatesOnAPoolThread) {
  auto doc = xml::ParseDocument("<b><b/></b>");
  ASSERT_TRUE(doc.ok());
  ThreadPool pool(1);
  for (const Shape& shape : kShapes) {
    SCOPED_TRACE(shape.name);
    const std::string text = shape.make(kMaxNestingDepth);
    std::promise<Status> done;
    pool.Submit([&] {
      auto plan = eval::Engine::Compile(text);
      if (!plan.ok()) {
        done.set_value(plan.status());
        return;
      }
      eval::Engine engine;
      auto answer = engine.RunPlan(*doc, *plan);
      done.set_value(answer.ok() ? Status::Ok() : answer.status());
    });
    const Status status = done.get_future().get();
    EXPECT_TRUE(status.ok()) << status.ToString();
  }
}

TEST(NestingLimitTest, OneLevelPastTheCapIsInvalidArgument) {
  for (const Shape& shape : kShapes) {
    SCOPED_TRACE(shape.name);
    auto plan = eval::Engine::Compile(shape.make(kMaxNestingDepth + 1));
    ASSERT_FALSE(plan.ok());
    EXPECT_TRUE(IsInvalidArgument(plan.status())) << plan.status().ToString();
    EXPECT_NE(plan.status().message().find("nested deeper than"),
              std::string::npos);
  }
}

TEST(NestingLimitTest, TenKilobyteReproducersAreInvalidArgument) {
  const std::string reproducers[] = {
      Repeat("(", 5000) + "1" + Repeat(")", 5000),
      Repeat("b[", 5000) + "b" + Repeat("]", 5000),
      Repeat("-", 20000) + "1",
      "1" + Repeat("+1", 10000),
      Repeat("(", 5000),  // unbalanced: the cap trips before the syntax error
  };
  for (const std::string& text : reproducers) {
    auto plan = eval::Engine::Compile(text);
    ASSERT_FALSE(plan.ok()) << text.substr(0, 16);
    EXPECT_TRUE(IsInvalidArgument(plan.status())) << plan.status().ToString();
  }
}

TEST(NestingLimitTest, OverTheWireTheReproducerGetsAFramedError) {
  service::ShardedQueryService::Options options;
  options.shards = 2;
  service::ShardedQueryService service(options);
  net::Server server(&service, {});
  ASSERT_TRUE(server.Start().ok());
  net::Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
  ASSERT_TRUE(client.RegisterXml("doc", "<b><b/><b/></b>").ok());

  const std::string reproducer = Repeat("(", 5000) + "1" + Repeat(")", 5000);
  auto rejected = client.Submit("doc", reproducer);
  ASSERT_FALSE(rejected.ok());
  EXPECT_TRUE(IsInvalidArgument(rejected.status()))
      << rejected.status().ToString();

  // The same connection, and the server behind it, keep answering.
  auto counted = client.Submit("doc", "count(/descendant-or-self::b)");
  ASSERT_TRUE(counted.ok()) << counted.status().ToString();
  EXPECT_EQ(counted->value.number(), 3.0);
  auto batch = client.SubmitBatch(
      {{"doc", Repeat("b[", 5000) + "b" + Repeat("]", 5000)},
       {"doc", "count(/b)"}});
  ASSERT_EQ(batch.size(), 2u);
  EXPECT_FALSE(batch[0].ok());
  ASSERT_TRUE(batch[1].ok());
  EXPECT_EQ(batch[1]->value.number(), 2.0);

  client.Close();
  server.Stop();
}

}  // namespace
}  // namespace gkx
