#include "net/server.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <iterator>
#include <utility>

namespace gkx::net {

namespace {

void SetNoDelay(int fd) {
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

Status Errno(const std::string& what) {
  return InternalError("net: " + what + ": " + std::strerror(errno));
}

}  // namespace

Server::Server(service::ShardedQueryService* service, Options options)
    : service_(service), options_(std::move(options)) {}

Server::~Server() { Stop(); }

Status Server::Start() {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) return Errno("socket");
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (::inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return InvalidArgumentError("net: bad host " + options_.host);
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    Status status = Errno("bind " + options_.host + ":" +
                          std::to_string(options_.port));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return status;
  }
  if (::listen(listen_fd_, options_.backlog) != 0) {
    Status status = Errno("listen");
    ::close(listen_fd_);
    listen_fd_ = -1;
    return status;
  }

  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound),
                    &bound_len) != 0) {
    Status status = Errno("getsockname");
    ::close(listen_fd_);
    listen_fd_ = -1;
    return status;
  }
  port_ = ntohs(bound.sin_port);

  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return Status::Ok();
}

void Server::Stop() {
  std::vector<std::unique_ptr<Connection>> connections;
  int listen_fd = -1;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_) return;
    stopping_ = true;
    connections.swap(connections_);
    listen_fd = listen_fd_;
  }
  if (listen_fd >= 0) {
    // shutdown() pops the accept loop out of accept(); close alone does not
    // reliably wake a blocked accept on Linux.
    ::shutdown(listen_fd, SHUT_RDWR);
  }
  if (accept_thread_.joinable()) accept_thread_.join();
  if (listen_fd >= 0) ::close(listen_fd);

  for (auto& conn : connections) {
    if (conn->fd >= 0) ::shutdown(conn->fd, SHUT_RDWR);
  }
  for (auto& conn : connections) {
    if (conn->thread.joinable()) conn->thread.join();
    if (conn->fd >= 0) ::close(conn->fd);
  }
}

void Server::AcceptLoop() {
  for (;;) {
    int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // listener shut down (or unrecoverable) — Stop() handles it
    }
    // Reap peers that hung up since the last accept. Their threads have
    // returned (or are returning), so the joins are short, and joining
    // before the next spawn lets it reuse their stacks.
    std::vector<std::unique_ptr<Connection>> finished;
    {
      std::lock_guard<std::mutex> lock(mu_);
      auto live = std::partition(
          connections_.begin(), connections_.end(),
          [](const std::unique_ptr<Connection>& conn) { return !conn->done; });
      finished.assign(std::make_move_iterator(live),
                      std::make_move_iterator(connections_.end()));
      connections_.erase(live, connections_.end());
    }
    for (auto& conn : finished) conn->thread.join();

    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_) {
      ::close(fd);
      return;
    }
    SetNoDelay(fd);
    auto conn = std::make_unique<Connection>();
    conn->fd = fd;
    conn->thread =
        std::thread([this, raw = conn.get()] { ServeConnection(raw); });
    connections_.push_back(std::move(conn));
  }
}

void Server::ServeConnection(Connection* conn) {
  const int fd = conn->fd;
  for (;;) {
    bool clean_eof = false;
    Result<std::string> payload = ReadFrame(fd, &clean_eof);
    if (!payload.ok() || clean_eof) break;

    Message response;
    Result<Message> request = DecodeMessage(*payload);
    if (!request.ok()) {
      // A malformed frame still gets a framed answer — the client's read
      // stays in sync even when its write was garbage.
      response.type = MsgType::kStatusReply;
      response.status = request.status();
    } else {
      response = Dispatch(*request);
    }
    if (!WriteFrame(fd, EncodeMessage(response)).ok()) break;
  }
  // Once Stop() has taken the records it owns the fd (closing here as well
  // would race its shutdown); before that, close it and leave the record
  // for the accept loop to reap.
  std::lock_guard<std::mutex> lock(mu_);
  if (!stopping_) {
    ::close(fd);
    conn->fd = -1;
  }
  conn->done = true;
}

Message Server::Dispatch(const Message& request) {
  Message response;
  switch (request.type) {
    case MsgType::kPing:
      response.type = MsgType::kPong;
      return response;
    case MsgType::kSubmit: {
      response.type = MsgType::kAnswer;
      WireAnswer wire;
      if (request.requests.size() != 1) {
        wire.status = InvalidArgumentError("net: submit needs one request");
      } else {
        Result<service::ShardedQueryService::Answer> result =
            service_->Submit(request.requests[0].doc_key,
                             request.requests[0].query);
        if (result.ok()) {
          wire.answer = std::move(*result);
        } else {
          wire.status = result.status();
        }
      }
      response.answers.push_back(std::move(wire));
      return response;
    }
    case MsgType::kSubmitBatch: {
      response.type = MsgType::kAnswerBatch;
      std::vector<service::ShardedQueryService::Request> batch;
      batch.reserve(request.requests.size());
      for (const WireRequest& req : request.requests) {
        batch.push_back({req.doc_key, req.query});
      }
      std::vector<Result<service::ShardedQueryService::Answer>> results =
          service_->SubmitBatch(batch);
      response.answers.reserve(results.size());
      for (auto& result : results) {
        WireAnswer wire;
        if (result.ok()) {
          wire.answer = std::move(*result);
        } else {
          wire.status = result.status();
        }
        response.answers.push_back(std::move(wire));
      }
      return response;
    }
    case MsgType::kRegisterXml:
      response.type = MsgType::kStatusReply;
      response.status =
          service_->RegisterXml(request.doc_key, request.text);
      return response;
    case MsgType::kUpdate:
      response.type = MsgType::kStatusReply;
      response.status = service_->UpdateDocument(request.doc_key, request.edit);
      return response;
    case MsgType::kRemove:
      response.type = MsgType::kStatusReply;
      response.status =
          service_->RemoveDocument(request.doc_key)
              ? Status::Ok()
              : InvalidArgumentError("net: unknown document key " +
                                     request.doc_key);
      return response;
    case MsgType::kStats:
      response.type = MsgType::kStatsReply;
      response.text = service_->ExportStats(
          request.stats_format == 1 ? service::StatsFormat::kJson
                                    : service::StatsFormat::kText);
      return response;
    default:
      response.type = MsgType::kStatusReply;
      response.status = InvalidArgumentError(
          "net: unexpected message type " +
          std::to_string(static_cast<int>(request.type)));
      return response;
  }
}

}  // namespace gkx::net
