// Fault-injection hardening: every failpoint in kFailPointCatalog,
// armed one at a time and all together, must surface as a clean
// per-session Status — never a crash, hang, leak, or contamination of a
// sibling session. Every build compiles the sites, so this binary runs
// in each tree tools/check.sh builds, ASan and TSan included.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/failpoints.h"
#include "core/streaming_query.h"
#include "service/query_service.h"
#include "service/session.h"
#include "tape/recorder.h"
#include "tape/tape.h"

namespace xsq {
namespace {

using service::QueryService;
using service::ServiceConfig;

// ------------------------------------------------ registry semantics

TEST(FailPointsRegistryTest, UnarmedNamesNeverFire) {
  FailPoints& fp = FailPoints::Instance();
  fp.DisarmAll();
  EXPECT_FALSE(fp.Fire("test.synthetic"));
  EXPECT_TRUE(fp.ArmedNames().empty());
}

TEST(FailPointsRegistryTest, ArmFiresEveryHitUntilDisarmed) {
  FailPoints& fp = FailPoints::Instance();
  fp.DisarmAll();
  fp.Arm("test.synthetic");
  EXPECT_TRUE(fp.Fire("test.synthetic"));
  EXPECT_TRUE(fp.Fire("test.synthetic"));
  EXPECT_EQ(fp.hits("test.synthetic"), 2u);
  fp.Disarm("test.synthetic");
  EXPECT_FALSE(fp.Fire("test.synthetic"));
}

TEST(FailPointsRegistryTest, AfterNPassesThenFires) {
  FailPoints& fp = FailPoints::Instance();
  fp.DisarmAll();
  fp.ArmAfter("test.synthetic", 3);
  EXPECT_FALSE(fp.Fire("test.synthetic"));
  EXPECT_FALSE(fp.Fire("test.synthetic"));
  EXPECT_FALSE(fp.Fire("test.synthetic"));
  EXPECT_TRUE(fp.Fire("test.synthetic"));
  EXPECT_TRUE(fp.Fire("test.synthetic"));
  fp.DisarmAll();
}

TEST(FailPointsRegistryTest, ProbabilityEndpointsAreExact) {
  FailPoints& fp = FailPoints::Instance();
  fp.DisarmAll();
  fp.ArmProbability("test.always", 1.0, /*seed=*/7);
  fp.ArmProbability("test.never", 0.0, /*seed=*/7);
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(fp.Fire("test.always"));
    EXPECT_FALSE(fp.Fire("test.never"));
  }
  fp.DisarmAll();
}

TEST(FailPointsRegistryTest, EnvSpecParses) {
  FailPoints& fp = FailPoints::Instance();
  fp.DisarmAll();
  ASSERT_TRUE(
      fp.ArmFromEnvSpec("test.a=1,test.b=p0.5,test.c=after3").ok());
  std::vector<std::string> armed = fp.ArmedNames();
  EXPECT_EQ(armed.size(), 3u);
  EXPECT_FALSE(fp.ArmFromEnvSpec("test.bad=banana").ok());
  fp.DisarmAll();
}

// --------------------------------------------------- injected faults

class FaultInjectionTest : public ::testing::Test {
 protected:
  void SetUp() override { FailPoints::Instance().DisarmAll(); }
  void TearDown() override { FailPoints::Instance().DisarmAll(); }
};

TEST_F(FaultInjectionTest, ParseIoErrorFailsTheChunkCleanly) {
  auto query = core::StreamingQuery::Open("//a/text()");
  ASSERT_TRUE(query.ok());
  FailPoints::Instance().Arm("xml.parse.io_error");
  Status status = (*query)->Push("<r><a>hi</a></r>");
  EXPECT_EQ(status.code(), StatusCode::kInternal) << status.ToString();
  FailPoints::Instance().Disarm("xml.parse.io_error");
  // The failure is recoverable exactly like any other stream error.
  (*query)->Reset();
  ASSERT_TRUE((*query)->Push("<r><a>hi</a></r>").ok());
  ASSERT_TRUE((*query)->Close().ok());
  EXPECT_EQ((*query)->NextItem(), "hi");
}

TEST_F(FaultInjectionTest, EngineAllocFailSurfacesFromOpen) {
  FailPoints::Instance().Arm("core.engine.alloc_fail");
  auto failed = core::StreamingQuery::Open("//a/text()");
  EXPECT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().code(), StatusCode::kResourceExhausted);
  FailPoints::Instance().Disarm("core.engine.alloc_fail");
  EXPECT_TRUE(core::StreamingQuery::Open("//a/text()").ok());
}

TEST_F(FaultInjectionTest, SessionAllocFailRejectsOpenOnly) {
  QueryService service;
  FailPoints::Instance().Arm("service.worker.alloc_fail");
  auto rejected = service.OpenSession("//a/text()");
  EXPECT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kResourceExhausted);
  FailPoints::Instance().Disarm("service.worker.alloc_fail");
  // The failed open leaked nothing: a fresh open works and serves.
  auto id = service.OpenSession("//a/text()");
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(service.Push(*id, "<r><a>ok</a></r>").ok());
  ASSERT_TRUE(service.Close(*id).ok());
  EXPECT_EQ(service.Drain(*id).size(), 1u);
  service.Shutdown();
}

TEST_F(FaultInjectionTest, WorkerFaultFailsOneSessionNotItsSiblings) {
  ServiceConfig config;
  config.num_workers = 2;
  QueryService service(config);
  auto victim = service.OpenSession("//a/text()");
  ASSERT_TRUE(victim.ok());

  FailPoints::Instance().Arm("service.session.push_fault");
  ASSERT_TRUE(service.Push(*victim, "<r><a>hi</a></r>").ok());
  EXPECT_EQ(service.Close(*victim).code(), StatusCode::kInternal);
  FailPoints::Instance().Disarm("service.session.push_fault");

  // A sibling opened after the fault serves normally, and the victim
  // itself recovers through ResetSession.
  auto sibling = service.OpenSession("//a/text()");
  ASSERT_TRUE(sibling.ok());
  ASSERT_TRUE(service.Push(*sibling, "<r><a>fine</a></r>").ok());
  ASSERT_TRUE(service.Close(*sibling).ok());
  EXPECT_EQ(service.Drain(*sibling).size(), 1u);
  ASSERT_TRUE(service.ResetSession(*victim).ok());
  ASSERT_TRUE(service.Push(*victim, "<r><a>back</a></r>").ok());
  ASSERT_TRUE(service.Close(*victim).ok());
  EXPECT_EQ(service.Drain(*victim).size(), 1u);
  service.Shutdown();
}

TEST_F(FaultInjectionTest, RecordAllocFailLeavesCacheClean) {
  QueryService service;
  FailPoints::Instance().Arm("service.record.alloc_fail");
  auto failed = service.RecordDocument("doc", "<r><a>x</a></r>");
  EXPECT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().code(), StatusCode::kResourceExhausted);
  FailPoints::Instance().Disarm("service.record.alloc_fail");
  EXPECT_EQ(service.document_cache().size(), 0u);
  ASSERT_TRUE(service.RecordDocument("doc", "<r><a>x</a></r>").ok());
  auto id = service.OpenSession("//a/text()");
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(service.RunCached(*id, "doc").ok());
  EXPECT_EQ(service.Drain(*id).size(), 1u);
  service.Shutdown();
}

TEST_F(FaultInjectionTest, TapeShortReadIsDataCorruption) {
  const char* path = "xsq_fault_tape_read.bin";
  auto tape = tape::RecordDocument("<r><a>x</a></r>");
  ASSERT_TRUE(tape.ok());
  ASSERT_TRUE(tape->Save(path).ok());
  FailPoints::Instance().Arm("tape.load.short_read");
  auto failed = tape::Tape::Load(path);
  EXPECT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().code(), StatusCode::kDataCorruption);
  FailPoints::Instance().Disarm("tape.load.short_read");
  EXPECT_TRUE(tape::Tape::Load(path).ok());
  std::remove(path);
}

TEST_F(FaultInjectionTest, TapeShortWriteFailsSaveCleanly) {
  const char* path = "xsq_fault_tape_write.bin";
  auto tape = tape::RecordDocument("<r><a>x</a></r>");
  ASSERT_TRUE(tape.ok());
  FailPoints::Instance().Arm("tape.save.short_write");
  EXPECT_FALSE(tape->Save(path).ok());
  FailPoints::Instance().Disarm("tape.save.short_write");
  ASSERT_TRUE(tape->Save(path).ok());
  EXPECT_TRUE(tape::Tape::Load(path).ok());
  std::remove(path);
}

TEST_F(FaultInjectionTest, PubSubFanoutFailDropsFramesNotTheService) {
  QueryService service;
  std::mutex mu;
  std::vector<std::string> frames;
  auto subscriber = service.AddSubscriber([&](std::string_view frame) {
    std::lock_guard<std::mutex> lock(mu);
    frames.emplace_back(frame);
  });
  ASSERT_TRUE(subscriber.ok());
  ASSERT_TRUE(service.Subscribe(*subscriber, "//a/text()").ok());

  auto wait_for = [&](auto predicate) {
    auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (!predicate() && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    return predicate();
  };

  FailPoints::Instance().Arm("pubsub.fanout.fail");
  auto dropped = service.Publish("<r><a>dropped</a></r>");
  ASSERT_TRUE(dropped.ok());
  EXPECT_EQ(dropped->frames_enqueued, 1u);
  // The injected delivery drop is accounted as shed; the sink never
  // sees the frame and the dispatcher keeps running.
  EXPECT_TRUE(wait_for([&] { return service.stats().fanout_shed >= 1; }));
  FailPoints::Instance().Disarm("pubsub.fanout.fail");

  auto delivered = service.Publish("<r><a>delivered</a></r>");
  ASSERT_TRUE(delivered.ok());
  EXPECT_TRUE(wait_for([&] {
    std::lock_guard<std::mutex> lock(mu);
    return !frames.empty();
  }));
  std::lock_guard<std::mutex> lock(mu);
  ASSERT_EQ(frames.size(), 1u);  // the dropped frame stayed dropped
  EXPECT_NE(frames[0].find("ITEM delivered"), std::string::npos);
  service.Shutdown();
}

TEST_F(FaultInjectionTest, EveryCatalogSiteArmedStillOnlyFailsStatuses) {
  // The whole catalog armed at p=0.5: a realistic serving workload must
  // keep returning Statuses from every call — under ASan/TSan this is
  // also the leak/race check for each injected early-return path.
  FailPoints& fp = FailPoints::Instance();
  uint64_t seed = 1;
  for (const char* name : kFailPointCatalog) {
    fp.ArmProbability(name, 0.5, seed++);
  }

  QueryService service;
  auto subscriber = service.AddSubscriber([](std::string_view) {});
  const char* tape_path = "xsq_fault_all_armed.bin";
  for (int round = 0; round < 50; ++round) {
    auto id = service.OpenSession("//a/text()");
    if (id.ok()) {
      (void)service.Push(*id, "<r><a>one</a>");
      (void)service.Push(*id, "<a>two</a></r>");
      (void)service.Close(*id);
      (void)service.Drain(*id);
      (void)service.Release(*id);
    }
    auto recorded = service.RecordDocument("doc", "<r><a>x</a></r>");
    if (recorded.ok()) {
      auto replayer = service.OpenSession("//a/text()");
      if (replayer.ok()) {
        (void)service.RunCached(*replayer, "doc");
        (void)service.Drain(*replayer);
      }
    }
    auto tape = tape::RecordDocument("<r><a>y</a></r>");
    if (tape.ok() && tape->Save(tape_path).ok()) {
      (void)tape::Tape::Load(tape_path);
    }
    if (subscriber.ok()) {
      auto sub = service.Subscribe(*subscriber, "//a/text()");
      (void)service.Publish("<r><a>z</a></r>");
      if (sub.ok()) (void)service.Unsubscribe(*subscriber, *sub);
    }
  }
  std::remove(tape_path);
  service.Shutdown();
  fp.DisarmAll();

  // Once disarmed, the same service instance would be gone; prove the
  // process is healthy with a clean end-to-end pass.
  QueryService after;
  auto id = after.OpenSession("//a/text()");
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(after.Push(*id, "<r><a>clean</a></r>").ok());
  ASSERT_TRUE(after.Close(*id).ok());
  EXPECT_EQ(after.Drain(*id).size(), 1u);
  after.Shutdown();
}

}  // namespace
}  // namespace xsq
