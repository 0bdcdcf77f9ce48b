#ifndef SKETCHLINK_SERVE_HTTP_CLIENT_H_
#define SKETCHLINK_SERVE_HTTP_CLIENT_H_

// Minimal HTTP/1.1 client for the service plane: request bodies, arbitrary
// methods, and keep-alive connection reuse. Used by the load bench, the
// command-line clients (api_client, metrics_dump --url), and the serving
// tests. Numeric IPv4 hosts only, like the rest of the tree.

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/status.h"

namespace sketchlink::serve {

struct HttpResult {
  int status = 0;
  std::string body;
};

using HeaderList = std::vector<std::pair<std::string, std::string>>;

/// Persistent keep-alive connection. Not thread-safe; one per client
/// thread. RoundTrip reconnects transparently when the server closed the
/// connection between requests (idle timeout, drain).
class ClientConnection {
 public:
  ClientConnection(std::string host, uint16_t port);
  ~ClientConnection();

  ClientConnection(const ClientConnection&) = delete;
  ClientConnection& operator=(const ClientConnection&) = delete;

  /// Sends one request and reads the full response. Transport errors are
  /// non-OK; HTTP error statuses are OK results (the caller inspects
  /// status). `timeout_ms` bounds each socket wait (0 = forever).
  Result<HttpResult> RoundTrip(const std::string& method,
                               const std::string& path,
                               const std::string& body = "",
                               const HeaderList& headers = {},
                               uint64_t timeout_ms = 5'000);

  void Close();
  bool connected() const { return fd_ >= 0; }

 private:
  Status Connect();
  Status SendRequest(const std::string& method, const std::string& path,
                     const std::string& body, const HeaderList& headers,
                     uint64_t timeout_ms);
  Result<HttpResult> ReadResponse(uint64_t timeout_ms, bool* server_closed);

  std::string host_;
  uint16_t port_;
  int fd_ = -1;
  std::string pending_;  // bytes past the previous response (rare)
};

/// A parsed http://HOST:PORT/PATH target.
struct HttpUrl {
  std::string host;  // numeric IPv4
  uint16_t port = 0;
  std::string path = "/";  // includes any ?query
};

/// Parses `url` strictly: the scheme is http://, the host a numeric IPv4
/// address, the port 1-65535 written only in digits, and the path, when
/// present, starts with '/' (it defaults to "/"). Anything else is
/// InvalidArgument, so a typo never reaches a different port.
Result<HttpUrl> ParseHttpUrl(std::string_view url);

/// One-shot convenience: fresh connection, one request, close.
Result<HttpResult> Fetch(const std::string& host, uint16_t port,
                         const std::string& method, const std::string& path,
                         const std::string& body = "",
                         const HeaderList& headers = {},
                         uint64_t timeout_ms = 5'000);

}  // namespace sketchlink::serve

#endif  // SKETCHLINK_SERVE_HTTP_CLIENT_H_
