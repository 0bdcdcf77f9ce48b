// Concurrency soak of the serving plane: mixed insert/query traffic from
// 1, 2, and 8 client threads against one live server, plus a create/delete
// lifecycle race directly against the service. Sized to finish quickly on
// a small machine while still interleaving every lock in the path; run
// under ASan and TSan these tests are the data-race gate for the plane.

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "obs/registry.h"
#include "serve/http_client.h"
#include "serve/json.h"
#include "serve/server.h"
#include "serve/service.h"

namespace sketchlink::serve {
namespace {

class ServeSoakTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // One root per test: ctest runs these as parallel processes, and a
    // shared root lets one test's SetUp delete another's live spill dirs.
    const std::string test_name =
        ::testing::UnitTest::GetInstance()->current_test_info()->name();
    scratch_ = (std::filesystem::temp_directory_path() /
                ("sketchlink_soak_test_" + test_name))
                   .string();
    std::filesystem::remove_all(scratch_);

    LinkageService::Options service_options;
    service_options.scratch_dir = scratch_;
    service_options.registry = &registry_;
    service_ = std::make_unique<LinkageService>(service_options);

    Server::Options server_options;
    server_options.num_workers = 4;
    server_options.max_queue = 256;
    server_options.registry = &registry_;
    server_ = std::make_unique<Server>(server_options);
    service_->RegisterRoutes(server_.get());
    ASSERT_TRUE(server_->Start().ok());

    auto created = Fetch("127.0.0.1", server_->port(), "POST",
                         "/v1/indexes/soak",
                         R"({"threshold":0.8,"mu":256,"stripes":8})");
    ASSERT_TRUE(created.ok()) << created.status().message();
    ASSERT_EQ(created.value().status, 201) << created.value().body;
  }

  void TearDown() override {
    server_.reset();
    service_.reset();
    std::filesystem::remove_all(scratch_);
  }

  static std::string RecordJson(uint64_t id) {
    const std::string first = id % 2 == 0 ? "ALICE" : "BOB";
    return R"({"id":)" + std::to_string(id) + R"(,"fields":[")" + first +
           R"(","SMITH","RALEIGH","276)" + std::to_string(id % 100) +
           R"(","F","1980"]})";
  }

  /// Runs `num_clients` keep-alive connections, each alternating batched
  /// inserts and verified queries. Every response must be 2xx.
  void RunMixedLoad(int num_clients, int ops_per_client) {
    std::atomic<int> failures{0};
    std::vector<std::thread> clients;
    for (int c = 0; c < num_clients; ++c) {
      clients.emplace_back([&, c] {
        ClientConnection conn("127.0.0.1", server_->port());
        for (int op = 0; op < ops_per_client; ++op) {
          const uint64_t id =
              static_cast<uint64_t>(c) * 100'000 + static_cast<uint64_t>(op);
          Result<HttpResult> result =
              op % 2 == 0
                  ? conn.RoundTrip("POST", "/v1/indexes/soak/records",
                                   R"({"records":[)" + RecordJson(id) + "]}")
                  : conn.RoundTrip(
                        "POST", "/v1/indexes/soak/query",
                        R"({"record":)" + RecordJson(id) +
                            R"(,"verify":true,"limit":5})");
          if (!result.ok() || result.value().status != 200) {
            ++failures;
            ADD_FAILURE() << "client " << c << " op " << op << ": "
                          << (result.ok()
                                  ? std::to_string(result.value().status) +
                                        " " + result.value().body
                                  : std::string(result.status().message()));
            return;
          }
        }
      });
    }
    for (auto& t : clients) t.join();
    EXPECT_EQ(failures.load(), 0);

    const Server::Stats stats = server_->stats();
    EXPECT_EQ(stats.shed_queue_full, 0u);  // sized to never overflow
    EXPECT_EQ(stats.responses_5xx, 0u);
  }

  std::string scratch_;
  obs::MetricRegistry registry_;
  std::unique_ptr<LinkageService> service_;
  std::unique_ptr<Server> server_;
};

TEST_F(ServeSoakTest, SingleClient) { RunMixedLoad(1, 40); }

TEST_F(ServeSoakTest, TwoClients) { RunMixedLoad(2, 30); }

TEST_F(ServeSoakTest, EightClients) { RunMixedLoad(8, 20); }

TEST_F(ServeSoakTest, QueriesObserveConcurrentInserts) {
  // One writer streams records while readers query; candidate counts only
  // grow, and nothing tears.
  std::atomic<bool> done{false};
  std::thread writer([&] {
    ClientConnection conn("127.0.0.1", server_->port());
    for (uint64_t id = 0; id < 60; ++id) {
      auto result = conn.RoundTrip("POST", "/v1/indexes/soak/records",
                                   R"({"records":[)" + RecordJson(id * 2) +
                                       "]}");
      ASSERT_TRUE(result.ok());
      ASSERT_EQ(result.value().status, 200) << result.value().body;
    }
    done = true;
  });
  std::thread reader([&] {
    ClientConnection conn("127.0.0.1", server_->port());
    while (!done.load()) {
      auto result =
          conn.RoundTrip("POST", "/v1/indexes/soak/query",
                         R"({"record":)" + RecordJson(0) + "}");
      ASSERT_TRUE(result.ok());
      ASSERT_EQ(result.value().status, 200) << result.value().body;
    }
  });
  writer.join();
  reader.join();
}

TEST(ServiceLifecycleRaceTest, ConcurrentCreateDeleteIsSafe) {
  const std::string scratch =
      (std::filesystem::temp_directory_path() / "sketchlink_race_test")
          .string();
  std::filesystem::remove_all(scratch);
  LinkageService::Options options;
  options.scratch_dir = scratch;
  options.max_indexes = 4;
  LinkageService service(options);

  // Hammer the same name from many threads: every response must be one of
  // the contract statuses, never a crash, never a leaked map entry.
  std::vector<std::thread> threads;
  std::atomic<int> unexpected{0};
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 15; ++i) {
        Server::Request request;
        request.params.emplace_back("name", "contested");
        request.http.body = R"({"mu":32})";
        if ((t + i) % 2 == 0) {
          const int status = service.CreateIndex(request).status;
          if (status != 201 && status != 409) ++unexpected;
        } else {
          const int status = service.DeleteIndex(request).status;
          if (status != 200 && status != 404) ++unexpected;
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(unexpected.load(), 0);
  EXPECT_LE(service.num_indexes(), 1u);

  // Final delete (if present) reclaims every incarnation's spill dir: with
  // no index left alive the scratch root must be empty.
  Server::Request request;
  request.params.emplace_back("name", "contested");
  service.DeleteIndex(request);
  size_t leftover_dirs = 0;
  if (std::filesystem::exists(scratch)) {
    for ([[maybe_unused]] const auto& entry :
         std::filesystem::directory_iterator(scratch)) {
      ++leftover_dirs;
    }
  }
  EXPECT_EQ(leftover_dirs, 0u);
  std::filesystem::remove_all(scratch);
}

}  // namespace
}  // namespace sketchlink::serve
