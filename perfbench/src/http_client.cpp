#include "http_client.hpp"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdlib>
#include <cstring>

namespace perfbench {

HttpConnection::HttpConnection(std::uint16_t port) : port_(port) {}

HttpConnection::~HttpConnection() {
  if (fd_ >= 0) ::close(fd_);
}

bool HttpConnection::connect_socket() {
  if (fd_ >= 0) ::close(fd_);
  buffer_.clear();
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) return false;
  const int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port_);
  if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd_);
    fd_ = -1;
    return false;
  }
  return true;
}

bool HttpConnection::send_all(const std::string& wire) {
  std::size_t sent = 0;
  while (sent < wire.size()) {
    const ssize_t n = ::send(fd_, wire.data() + sent, wire.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) return false;
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

bool HttpConnection::read_response(HttpResponse& out) {
  std::size_t head_end = std::string::npos;
  char chunk[16384];
  while ((head_end = buffer_.find("\r\n\r\n")) == std::string::npos) {
    const ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
    if (n <= 0) return false;
    buffer_.append(chunk, static_cast<std::size_t>(n));
  }
  if (buffer_.compare(0, 9, "HTTP/1.1 ") != 0) return false;
  out.status = std::atoi(buffer_.c_str() + 9);
  std::size_t length = 0;
  const std::string head = buffer_.substr(0, head_end);
  for (const char* key : {"Content-Length: ", "content-length: "}) {
    const std::size_t at = head.find(key);
    if (at != std::string::npos) {
      length = std::strtoull(head.c_str() + at + std::strlen(key), nullptr, 10);
    }
  }
  const std::size_t body_start = head_end + 4;
  while (buffer_.size() < body_start + length) {
    const ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
    if (n <= 0) return false;
    buffer_.append(chunk, static_cast<std::size_t>(n));
  }
  out.body = buffer_.substr(body_start, length);
  buffer_.erase(0, body_start + length);
  return true;
}

HttpResponse HttpConnection::round_trip(const HttpRequest& request) {
  std::string wire = request.method + " " + request.target + " HTTP/1.1\r\n";
  wire += "Host: 127.0.0.1\r\n";
  if (!request.body.empty()) {
    wire += "Content-Type: application/json\r\n";
  }
  wire += "Content-Length: " + std::to_string(request.body.size()) + "\r\n\r\n";
  wire += request.body;
  if (fd_ < 0 && !connect_socket()) return {};
  HttpResponse response;
  if (send_all(wire) && read_response(response)) return response;
  ::close(fd_);
  fd_ = -1;
  return {};
}

}  // namespace perfbench
