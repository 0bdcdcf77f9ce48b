#include "serve/http_client.h"

#include <cstdint>
#include <string>

#include "gtest/gtest.h"

namespace sketchlink::serve {
namespace {

TEST(ParseHttpUrlTest, AcceptsOnlyStrictNumericTargets) {
  struct Good {
    const char* url;
    const char* host;
    uint16_t port;
    const char* path;
  };
  const Good good[] = {
      {"http://127.0.0.1:8080/metrics", "127.0.0.1", 8080, "/metrics"},
      {"http://10.0.0.7:1/", "10.0.0.7", 1, "/"},
      {"http://127.0.0.1:65535", "127.0.0.1", 65535, "/"},
      {"http://127.0.0.1:4464/resolve?i=3", "127.0.0.1", 4464,
       "/resolve?i=3"},
  };
  for (const Good& row : good) {
    SCOPED_TRACE(row.url);
    const Result<HttpUrl> parsed = ParseHttpUrl(row.url);
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    EXPECT_EQ(parsed->host, row.host);
    EXPECT_EQ(parsed->port, row.port);
    EXPECT_EQ(parsed->path, row.path);
  }

  const char* bad[] = {
      "http://127.0.0.1/metrics",        // missing port
      "http://127.0.0.1:/metrics",       // empty port
      "http://127.0.0.1:0/metrics",      // port 0
      "http://127.0.0.1:65536/metrics",  // one past the range
      "http://127.0.0.1:70000/healthz",  // would wrap to 4464 as 16 bits
      "http://127.0.0.1:80abc/quitquitquit",
      "http://127.0.0.1:+80/",
      "http://127.0.0.1:99999999999999999999/",
      "127.0.0.1:8080/metrics",          // missing scheme
      "https://127.0.0.1:8080/metrics",  // not plain http
      "http://localhost:8080/",          // numeric IPv4 only
      "http://:8080/",                   // empty host
  };
  for (const char* url : bad) {
    const Result<HttpUrl> parsed = ParseHttpUrl(url);
    EXPECT_TRUE(parsed.status().IsInvalidArgument()) << url;
  }
}

}  // namespace
}  // namespace sketchlink::serve
