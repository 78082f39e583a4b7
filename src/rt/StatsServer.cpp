//===-- rt/StatsServer.cpp - Minimal HTTP/1.0 stats endpoint --------------===//
//
// Part of the SharC reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "rt/StatsServer.h"

#include "support/Args.h"

#include <arpa/inet.h>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

namespace sharc {
namespace live {

bool splitHostPort(const std::string &Addr, std::string &Host,
                   uint16_t &Port, std::string &Error) {
  size_t Colon = Addr.rfind(':');
  if (Colon == std::string::npos || Colon == 0) {
    Error = "stats address must be HOST:PORT, got '" + Addr + "'";
    return false;
  }
  Host = Addr.substr(0, Colon);
  std::string PortStr = Addr.substr(Colon + 1);
  uint64_t V = 0;
  if (!parseU64(PortStr, V)) {
    Error = "stats address has a non-numeric port: '" + Addr + "'";
    return false;
  }
  if (V > 65535) {
    Error = "stats address port out of range: '" + Addr + "'";
    return false;
  }
  Port = static_cast<uint16_t>(V);
  return true;
}

bool StatsServer::start(const std::string &Addr, Provider P,
                        std::string &Error) {
  if (Running.load(std::memory_order_acquire)) {
    Error = "stats server already running";
    return false;
  }
  std::string Host;
  uint16_t Port = 0;
  if (!splitHostPort(Addr, Host, Port, Error))
    return false;

  sockaddr_in Sa;
  std::memset(&Sa, 0, sizeof(Sa));
  Sa.sin_family = AF_INET;
  Sa.sin_port = htons(Port);
  if (inet_pton(AF_INET, Host.c_str(), &Sa.sin_addr) != 1) {
    Error = "stats address host is not an IPv4 address: '" + Host + "'";
    return false;
  }

  int Fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (Fd < 0) {
    Error = std::string("socket: ") + std::strerror(errno);
    return false;
  }
  int One = 1;
  ::setsockopt(Fd, SOL_SOCKET, SO_REUSEADDR, &One, sizeof(One));
  if (::bind(Fd, reinterpret_cast<sockaddr *>(&Sa), sizeof(Sa)) != 0) {
    Error = "bind " + Addr + ": " + std::strerror(errno);
    ::close(Fd);
    return false;
  }
  if (::listen(Fd, 16) != 0) {
    Error = std::string("listen: ") + std::strerror(errno);
    ::close(Fd);
    return false;
  }

  // Report the concrete port (meaningful when port 0 was requested).
  sockaddr_in Got;
  socklen_t GotLen = sizeof(Got);
  if (::getsockname(Fd, reinterpret_cast<sockaddr *>(&Got), &GotLen) != 0) {
    Error = std::string("getsockname: ") + std::strerror(errno);
    ::close(Fd);
    return false;
  }
  char HostBuf[INET_ADDRSTRLEN] = {0};
  inet_ntop(AF_INET, &Got.sin_addr, HostBuf, sizeof(HostBuf));
  BoundPort = ntohs(Got.sin_port);
  Bound = std::string(HostBuf) + ":" + std::to_string(BoundPort);

  Provide = std::move(P);
  ListenFd = Fd;
  StopFlag.store(false, std::memory_order_release);
  Running.store(true, std::memory_order_release);
  Thread = std::thread([this] { serveLoop(); });
  return true;
}

void StatsServer::stop() {
  if (!Running.load(std::memory_order_acquire))
    return;
  StopFlag.store(true, std::memory_order_release);
  if (Thread.joinable())
    Thread.join();
  if (ListenFd >= 0) {
    ::close(ListenFd);
    ListenFd = -1;
  }
  Running.store(false, std::memory_order_release);
}

void StatsServer::serveLoop() {
  // A 100ms poll timeout bounds how long stop() waits for the thread.
  while (!StopFlag.load(std::memory_order_acquire)) {
    pollfd Pfd;
    Pfd.fd = ListenFd;
    Pfd.events = POLLIN;
    Pfd.revents = 0;
    int N = ::poll(&Pfd, 1, 100);
    if (N <= 0)
      continue;
    int Conn = ::accept(ListenFd, nullptr, nullptr);
    if (Conn < 0)
      continue;
    handleConnection(Conn);
    ::close(Conn);
  }
}

namespace {

void sendAll(int Fd, const std::string &Data) {
  size_t Off = 0;
  while (Off < Data.size()) {
    ssize_t N = ::send(Fd, Data.data() + Off, Data.size() - Off, MSG_NOSIGNAL);
    if (N <= 0)
      return;
    Off += static_cast<size_t>(N);
  }
}

void sendResponse(int Fd, const char *Status, const char *ContentType,
                  const std::string &Body) {
  std::string R = "HTTP/1.0 ";
  R += Status;
  R += "\r\nContent-Type: ";
  R += ContentType;
  R += "\r\nContent-Length: " + std::to_string(Body.size());
  R += "\r\nConnection: close\r\n\r\n";
  R += Body;
  sendAll(Fd, R);
}

} // namespace

void StatsServer::handleConnection(int Fd) {
  // Read until the end of the request headers (or 1KiB, whichever comes
  // first) — only the request line matters to us. A short poll deadline
  // keeps a stuck client from wedging the serve loop.
  std::string Req;
  char Buf[512];
  for (int Rounds = 0; Rounds < 16; ++Rounds) {
    pollfd Pfd;
    Pfd.fd = Fd;
    Pfd.events = POLLIN;
    Pfd.revents = 0;
    if (::poll(&Pfd, 1, 500) <= 0)
      break;
    ssize_t N = ::recv(Fd, Buf, sizeof(Buf), 0);
    if (N <= 0)
      break;
    Req.append(Buf, static_cast<size_t>(N));
    if (Req.find("\r\n\r\n") != std::string::npos ||
        Req.find("\n\n") != std::string::npos || Req.size() >= 1024)
      break;
  }

  size_t Eol = Req.find_first_of("\r\n");
  std::string Line = Eol == std::string::npos ? Req : Req.substr(0, Eol);
  size_t Sp1 = Line.find(' ');
  size_t Sp2 = Line.find(' ', Sp1 == std::string::npos ? 0 : Sp1 + 1);
  std::string Method =
      Sp1 == std::string::npos ? std::string() : Line.substr(0, Sp1);
  std::string Path = (Sp1 == std::string::npos || Sp2 == std::string::npos)
                         ? std::string()
                         : Line.substr(Sp1 + 1, Sp2 - Sp1 - 1);

  if (Method != "GET") {
    sendResponse(Fd, "405 Method Not Allowed", "text/plain; charset=utf-8",
                 "only GET is supported\n");
    return;
  }
  if (Path == "/metrics") {
    uint64_t N = Scrapes.fetch_add(1, std::memory_order_relaxed) + 1;
    sendResponse(Fd, "200 OK", "text/plain; version=0.0.4; charset=utf-8",
                 renderPrometheus(Provide(), N));
    return;
  }
  if (Path == "/health" || Path == "/healthz") {
    uint64_t N = Scrapes.fetch_add(1, std::memory_order_relaxed) + 1;
    sendResponse(Fd, "200 OK", "application/json; charset=utf-8",
                 renderHealthJson(Provide(), N));
    return;
  }
  sendResponse(Fd, "404 Not Found", "text/plain; charset=utf-8",
               "unknown path; try /metrics or /health\n");
}

bool httpGet(const std::string &Host, uint16_t Port, const std::string &Path,
             std::string &Body, std::string &Error) {
  int Fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (Fd < 0) {
    Error = std::string("socket: ") + std::strerror(errno);
    return false;
  }
  sockaddr_in Sa;
  std::memset(&Sa, 0, sizeof(Sa));
  Sa.sin_family = AF_INET;
  Sa.sin_port = htons(Port);
  if (inet_pton(AF_INET, Host.c_str(), &Sa.sin_addr) != 1) {
    Error = "not an IPv4 address: '" + Host + "'";
    ::close(Fd);
    return false;
  }
  if (::connect(Fd, reinterpret_cast<sockaddr *>(&Sa), sizeof(Sa)) != 0) {
    Error = "connect " + Host + ":" + std::to_string(Port) + ": " +
            std::strerror(errno);
    ::close(Fd);
    return false;
  }
  std::string Req = "GET " + Path + " HTTP/1.0\r\nHost: " + Host +
                    "\r\nConnection: close\r\n\r\n";
  sendAll(Fd, Req);

  std::string Resp;
  char Buf[4096];
  for (;;) {
    ssize_t N = ::recv(Fd, Buf, sizeof(Buf), 0);
    if (N <= 0)
      break;
    Resp.append(Buf, static_cast<size_t>(N));
  }
  ::close(Fd);

  size_t HdrEnd = Resp.find("\r\n\r\n");
  size_t BodyOff = HdrEnd == std::string::npos ? std::string::npos : HdrEnd + 4;
  if (BodyOff == std::string::npos) {
    HdrEnd = Resp.find("\n\n");
    BodyOff = HdrEnd == std::string::npos ? std::string::npos : HdrEnd + 2;
  }
  if (BodyOff == std::string::npos) {
    Error = "malformed HTTP response (no header terminator)";
    return false;
  }
  size_t Eol = Resp.find_first_of("\r\n");
  std::string Status = Resp.substr(0, Eol);
  if (Status.find(" 200") == std::string::npos) {
    Error = "HTTP status: " + Status;
    return false;
  }
  Body = Resp.substr(BodyOff);
  return true;
}

} // namespace live
} // namespace sharc
