#include "serve/http_client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <cstring>

#include "obs/http_message.h"
#include "obs/trace_context.h"
#include "obs/trace_propagation.h"

namespace sketchlink::serve {

namespace {

/// True when the caller already supplied a traceparent header explicitly.
bool HasTraceparent(const HeaderList& headers) {
  for (const auto& [name, value] : headers) {
    if (name.size() != obs::kTraceparentHeader.size()) continue;
    bool equal = true;
    for (size_t i = 0; i < name.size(); ++i) {
      const char c = static_cast<char>(
          std::tolower(static_cast<unsigned char>(name[i])));
      if (c != obs::kTraceparentHeader[i]) {
        equal = false;
        break;
      }
    }
    if (equal) return true;
  }
  return false;
}

}  // namespace

ClientConnection::ClientConnection(std::string host, uint16_t port)
    : host_(std::move(host)), port_(port) {}

ClientConnection::~ClientConnection() { Close(); }

void ClientConnection::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  pending_.clear();
}

Status ClientConnection::Connect() {
  Close();
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) {
    return Status::IOError(std::string("socket: ") + std::strerror(errno));
  }
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port_);
  if (::inet_pton(AF_INET, host_.c_str(), &addr.sin_addr) != 1) {
    Close();
    return Status::InvalidArgument("bad host (numeric IPv4 only): " + host_);
  }
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    const Status status =
        Status::IOError("connect " + host_ + ":" + std::to_string(port_) +
                        ": " + std::strerror(errno));
    Close();
    return status;
  }
  const int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return Status::OK();
}

Status ClientConnection::SendRequest(const std::string& method,
                                     const std::string& path,
                                     const std::string& body,
                                     const HeaderList& headers,
                                     uint64_t timeout_ms) {
  std::string request = method + " " + path + " HTTP/1.1\r\nHost: " + host_ +
                        "\r\nContent-Length: " + std::to_string(body.size()) +
                        "\r\n";
  // Propagate the ambient span context: any request made inside an active
  // trace carries it as a traceparent header, so the server's root span
  // adopts this client's trace identity. An explicit caller-supplied
  // header wins (tests and foreign-trace forwarding).
  const obs::TraceContext& trace = obs::CurrentTraceContext();
  if (trace.tracer != nullptr && !HasTraceparent(headers)) {
    request += std::string(obs::kTraceparentHeader) + ": " +
               obs::FormatTraceparent(trace.trace_id, trace.span_id,
                                      /*sampled=*/true) +
               "\r\n";
  }
  for (const auto& [name, value] : headers) {
    request += name + ": " + value + "\r\n";
  }
  request += "\r\n";
  request += body;
  if (!obs::SendAllWithTimeout(fd_, request.data(), request.size(),
                               timeout_ms)) {
    return Status::IOError("send failed");
  }
  return Status::OK();
}

Result<HttpResult> ClientConnection::ReadResponse(uint64_t timeout_ms,
                                                  bool* server_closed) {
  *server_closed = false;
  std::string raw = std::move(pending_);
  pending_.clear();
  char buf[8192];

  // Head.
  size_t head_end;
  while ((head_end = raw.find("\r\n\r\n")) == std::string::npos) {
    const ssize_t n = obs::RecvWithTimeout(fd_, buf, sizeof(buf), timeout_ms);
    if (n == -2) return Status::IOError("response timeout");
    if (n == 0) {
      *server_closed = true;
      return Status::IOError("connection closed by server");
    }
    if (n < 0) return Status::IOError("recv failed");
    raw.append(buf, static_cast<size_t>(n));
  }

  HttpResult result;
  if (raw.rfind("HTTP/", 0) != 0) {
    return Status::IOError("malformed HTTP response");
  }
  const size_t sp = raw.find(' ');
  if (sp == std::string::npos || sp + 1 >= head_end) {
    return Status::IOError("malformed status line");
  }
  result.status = std::atoi(raw.c_str() + sp + 1);

  // Content-Length (the serving plane always sends one) + Connection.
  size_t content_length = 0;
  bool close_after = false;
  {
    size_t pos = raw.find("\r\n") + 2;
    while (pos < head_end) {
      size_t eol = raw.find("\r\n", pos);
      if (eol == std::string::npos || eol > head_end) eol = head_end;
      std::string line = raw.substr(pos, eol - pos);
      for (char& c : line) {
        c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
      }
      if (line.rfind("content-length:", 0) == 0) {
        content_length = static_cast<size_t>(
            std::strtoull(line.c_str() + 15, nullptr, 10));
      } else if (line.rfind("connection:", 0) == 0 &&
                 line.find("close") != std::string::npos) {
        close_after = true;
      }
      pos = eol + 2;
    }
  }

  // Body.
  const size_t body_start = head_end + 4;
  while (raw.size() < body_start + content_length) {
    const ssize_t n = obs::RecvWithTimeout(fd_, buf, sizeof(buf), timeout_ms);
    if (n == -2) return Status::IOError("response body timeout");
    if (n == 0) {
      *server_closed = true;
      return Status::IOError("connection closed mid-body");
    }
    if (n < 0) return Status::IOError("recv failed");
    raw.append(buf, static_cast<size_t>(n));
  }
  result.body = raw.substr(body_start, content_length);
  pending_ = raw.substr(body_start + content_length);

  if (close_after) {
    Close();
  }
  return result;
}

Result<HttpResult> ClientConnection::RoundTrip(const std::string& method,
                                               const std::string& path,
                                               const std::string& body,
                                               const HeaderList& headers,
                                               uint64_t timeout_ms) {
  // Up to one transparent reconnect: a keep-alive connection the server
  // idled out looks like send-success + immediate EOF, so retrying on a
  // fresh connection is safe for our idempotent-or-new request.
  for (int attempt = 0; attempt < 2; ++attempt) {
    if (fd_ < 0) {
      SKETCHLINK_RETURN_IF_ERROR(Connect());
    }
    const Status sent = SendRequest(method, path, body, headers, timeout_ms);
    if (!sent.ok()) {
      Close();
      if (attempt == 0) continue;
      return sent;
    }
    bool server_closed = false;
    Result<HttpResult> result = ReadResponse(timeout_ms, &server_closed);
    if (result.ok()) return result;
    Close();
    if (server_closed && attempt == 0) continue;
    return result.status();
  }
  return Status::Internal("unreachable");
}

Result<HttpUrl> ParseHttpUrl(std::string_view url) {
  const auto invalid = [url](std::string_view why) {
    return Status::InvalidArgument(std::string(why) + ": " + std::string(url));
  };
  constexpr std::string_view kScheme = "http://";
  if (url.substr(0, kScheme.size()) != kScheme) {
    return invalid("url must start with http://");
  }
  std::string_view authority = url.substr(kScheme.size());
  HttpUrl parsed;
  const size_t slash = authority.find('/');
  if (slash != std::string_view::npos) {
    parsed.path = std::string(authority.substr(slash));
    authority = authority.substr(0, slash);
  }
  const size_t colon = authority.find(':');
  if (colon == std::string_view::npos) {
    return invalid("url needs an explicit port (http://HOST:PORT/PATH)");
  }
  parsed.host = std::string(authority.substr(0, colon));
  in_addr addr{};
  if (::inet_pton(AF_INET, parsed.host.c_str(), &addr) != 1) {
    return invalid("url host must be a numeric IPv4 address");
  }
  const std::string_view digits = authority.substr(colon + 1);
  uint32_t port = 0;
  for (const char c : digits) {
    if (c < '0' || c > '9' || port > 65535) {
      return invalid("url port must be digits in 1-65535");
    }
    port = port * 10 + static_cast<uint32_t>(c - '0');
  }
  if (port == 0 || port > 65535) {
    return invalid("url port must be digits in 1-65535");
  }
  parsed.port = static_cast<uint16_t>(port);
  return parsed;
}

Result<HttpResult> Fetch(const std::string& host, uint16_t port,
                         const std::string& method, const std::string& path,
                         const std::string& body, const HeaderList& headers,
                         uint64_t timeout_ms) {
  ClientConnection conn(host, port);
  HeaderList with_close = headers;
  with_close.emplace_back("Connection", "close");
  return conn.RoundTrip(method, path, body, with_close, timeout_ms);
}

}  // namespace sketchlink::serve
