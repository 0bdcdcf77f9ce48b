// api_client: minimal HTTP client for exercising the serving plane from
// test scripts. Unlike metrics_dump (GET-only scraper) it can send any
// method plus a request body, and can assert the response status:
//
//   api_client METHOD URL [--body=JSON] [--body-file=PATH]
//              [--header=Name:Value]... [--expect-status=N]
//
// URL is http://IP:PORT/PATH, parsed by serve::ParseHttpUrl: a port out
// of 1-65535 or with trailing garbage is an error, never another port.
// The response body is printed to stdout. Exit is 0 when the status
// matches --expect-status (or is 2xx when no expectation is given),
// 1 otherwise — so ctest scripts can assert both success and the
// 4xx/5xx contract of every endpoint through a real socket.

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "serve/http_client.h"

namespace {

using sketchlink::serve::Fetch;
using sketchlink::serve::HeaderList;
using sketchlink::serve::HttpResult;
using sketchlink::serve::HttpUrl;
using sketchlink::serve::ParseHttpUrl;

int Fail(const std::string& message) {
  std::fprintf(stderr, "api_client: %s\n", message.c_str());
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::string method;
  std::string url;
  std::string body;
  HeaderList headers;
  int expect_status = -1;
  std::vector<std::string> positional;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--body=", 0) == 0) {
      body = arg.substr(7);
    } else if (arg.rfind("--body-file=", 0) == 0) {
      std::ifstream in(arg.substr(12), std::ios::binary);
      if (!in) return Fail("cannot read " + arg.substr(12));
      std::ostringstream contents;
      contents << in.rdbuf();
      body = contents.str();
    } else if (arg.rfind("--header=", 0) == 0) {
      const std::string header = arg.substr(9);
      const size_t colon = header.find(':');
      if (colon == std::string::npos) return Fail("bad --header: " + header);
      headers.emplace_back(header.substr(0, colon), header.substr(colon + 1));
    } else if (arg.rfind("--expect-status=", 0) == 0) {
      expect_status = std::atoi(arg.c_str() + 16);
    } else if (arg.rfind("--", 0) == 0) {
      return Fail("unknown flag: " + arg);
    } else {
      positional.push_back(arg);
    }
  }
  if (positional.size() != 2) {
    return Fail("usage: api_client METHOD URL [--body=...] "
                "[--expect-status=N]");
  }
  method = positional[0];
  url = positional[1];

  const sketchlink::Result<HttpUrl> target = ParseHttpUrl(url);
  if (!target.ok()) return Fail(target.status().ToString());

  sketchlink::Result<HttpResult> result =
      Fetch(target->host, target->port, method, target->path, body, headers);
  if (!result.ok()) {
    return Fail(std::string(result.status().message()));
  }
  std::fwrite(result.value().body.data(), 1, result.value().body.size(),
              stdout);

  const int status = result.value().status;
  const bool ok = expect_status >= 0 ? status == expect_status
                                     : status >= 200 && status <= 299;
  if (!ok) {
    std::fprintf(stderr, "\napi_client: %s %s -> %d (expected %s)\n",
                 method.c_str(), url.c_str(), status,
                 expect_status >= 0 ? std::to_string(expect_status).c_str()
                                    : "2xx");
    return 1;
  }
  return 0;
}
