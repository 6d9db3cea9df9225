// Minimal keep-alive HTTP/1.1 client for the loopback daemon: one socket,
// one request at a time, responses framed by Content-Length.
#pragma once

#include <cstdint>
#include <string>

namespace perfbench {

struct HttpRequest {
  std::string method;
  std::string target;
  std::string body;
};

struct HttpResponse {
  int status = 0;  ///< 0 = transport failure
  std::string body;
};

class HttpConnection {
 public:
  explicit HttpConnection(std::uint16_t port);
  ~HttpConnection();
  HttpConnection(const HttpConnection&) = delete;
  HttpConnection& operator=(const HttpConnection&) = delete;

  /// Send one request and read its response (connecting first if needed).
  /// A transport failure returns status 0 and drops the connection.
  [[nodiscard]] HttpResponse round_trip(const HttpRequest& request);

 private:
  bool connect_socket();
  bool send_all(const std::string& wire);
  bool read_response(HttpResponse& out);

  std::uint16_t port_;
  int fd_ = -1;
  std::string buffer_;  ///< bytes read past the previous response
};

}  // namespace perfbench
