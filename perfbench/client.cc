#include "client.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <deque>
#include <memory>
#include <stdexcept>
#include <vector>

#include "bench.h"

namespace perfbench {

using namespace melody;

namespace {

int connect_loopback(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw std::runtime_error("socket: " + std::string(strerror(errno)));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) !=
      0) {
    const std::string why = strerror(errno);
    ::close(fd);
    throw std::runtime_error("connect to port " + std::to_string(port) +
                             ": " + why);
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  return fd;
}

/// Ops the router fans out to every shard (svc/router.cc's default branch).
bool is_broadcast(svc::Op op) {
  switch (op) {
    case svc::Op::kHello:
    case svc::Op::kSubmitTasks:
    case svc::Op::kRunNow:
    case svc::Op::kTick:
    case svc::Op::kStats:
    case svc::Op::kTraceStatus:
      return true;
    default:
      return false;
  }
}

struct Pending {
  svc::Request request;
  Clock::time_point start;     // first send
  Clock::time_point retry_at;  // when an overloaded request goes again
  int phase = -1;  // -1: warm-up
  int attempts = 0;  // re-sends so far
};

struct Conn {
  int fd = -1;
  int client = 0;
  std::string out;
  std::size_t out_off = 0;
  std::string in;
  std::deque<Pending> pending;
  int next_index = 0;
  std::vector<Pending> retries;  // overloaded, waiting for retry_at

  Conn() = default;
  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;
  ~Conn() {
    if (fd >= 0) ::close(fd);
  }
};

bool flush(Conn& conn) {
  while (conn.out_off < conn.out.size()) {
    const ssize_t n = ::send(conn.fd, conn.out.data() + conn.out_off,
                             conn.out.size() - conn.out_off, MSG_NOSIGNAL);
    if (n > 0) {
      conn.out_off += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return true;
    if (n < 0 && errno == EINTR) continue;
    return false;
  }
  conn.out.clear();
  conn.out_off = 0;
  return true;
}

}  // namespace

LoadReport run_load(int port, const LoadConfig& config) {
  LoadReport report;
  const int k = config.shards;

  // Every shard executes one run first, so query_run has something to ask
  // for from the first request on.
  {
    svc::Request run_now;
    run_now.op = svc::Op::kRunNow;
    run_now.id = 900000001;
    const svc::Response reply = request_batch(port, {run_now})[0];
    if (!reply.ok) throw std::runtime_error("run_now failed: " + reply.error);
    report.run_cursor.assign(static_cast<std::size_t>(k), 1);
    report.applied += k;
  }

  std::vector<std::unique_ptr<Conn>> conns;
  for (int c = 0; c < config.connections; ++c) {
    auto conn = std::make_unique<Conn>();
    conn->fd = connect_loopback(port);
    ::fcntl(conn->fd, F_SETFL, ::fcntl(conn->fd, F_GETFL) | O_NONBLOCK);
    conn->client = c;
    conns.push_back(std::move(conn));
  }

  const Clock::time_point epoch = Clock::now();
  const auto secs = [epoch](Clock::time_point t) {
    return std::chrono::duration<double>(t - epoch).count();
  };
  std::vector<double> phase_end;  // seconds since the epoch
  double window_end = config.warmup_s;
  for (const Phase& phase : config.phases) {
    window_end += phase.seconds;
    phase_end.push_back(window_end);
  }
  const auto phase_at = [&phase_end](double s) {
    std::size_t i = 0;
    while (i + 1 < phase_end.size() && s >= phase_end[i]) ++i;
    return static_cast<int>(i);
  };

  const auto build = [&](int client, int index) {
    svc::Request request =
        svc::loadgen::make_request(config.stream, client, index);
    if (request.op == svc::Op::kQueryRun) {
      // Only ask for runs known to have executed: every ok:false reply is
      // then a real failure rather than a "not yet" answer.
      request.shard = index % k;
      const std::int64_t cursor =
          report.run_cursor[static_cast<std::size_t>(request.shard)];
      request.run = 1 + static_cast<int>((request.run - 1) % cursor);
    }
    return request;
  };
  const auto send = [](Conn& conn, Pending pending) {
    conn.out += svc::format_request(pending.request);
    conn.out += '\n';
    conn.pending.push_back(std::move(pending));
  };
  const auto record = [&](const Pending& p, Clock::time_point now, bool ok) {
    if (p.phase >= 0) {
      report.samples.push_back(
          {ms_between(p.start, now), secs(now) - config.warmup_s, p.phase,
           ok});
    }
  };

  const auto on_reply = [&](Conn& conn, const std::string& line,
                            Clock::time_point now) {
    if (conn.pending.empty()) {
      report.problems.push_back("reply without a request: " + line);
      return;
    }
    Pending p = std::move(conn.pending.front());
    conn.pending.pop_front();
    svc::Response response;
    try {
      response = svc::parse_response(line);
    } catch (const std::exception& e) {
      report.problems.push_back(std::string("unparsable reply: ") + e.what());
      ++report.failed;
      return;
    }
    if (response.id != p.request.id) {
      report.problems.push_back(
          "connection " + std::to_string(conn.client) + ": reply id " +
          std::to_string(response.id) + " where " +
          std::to_string(p.request.id) + " was due");
    }
    if (!response.ok && response.retry_after_ms > 0) {
      ++report.overloaded_replies;
      if (p.attempts < config.max_retries) {
        ++p.attempts;
        ++report.retries;
        p.retry_at = now + std::chrono::milliseconds(response.retry_after_ms);
        conn.retries.push_back(std::move(p));
      } else {
        ++report.failed;
        ++report.errors["dropped after retries"];
        record(p, now, false);
      }
      return;
    }
    report.applied += is_broadcast(p.request.op) ? k : 1;
    if (!response.ok) {
      ++report.failed;
      ++report.errors[response.error];
      record(p, now, false);
      return;
    }
    ++report.ok;
    if (response.fields.boolean_or("registered", false)) {
      ++report.newcomers_registered;
    }
    // Stats replies carry every shard's run count.
    for (int s = 0; s < k && k > 1; ++s) {
      const std::string key =
          "shard" + std::to_string(s) + "/runs_this_session";
      if (response.fields.has(key)) {
        auto& cursor = report.run_cursor[static_cast<std::size_t>(s)];
        cursor = std::max<std::int64_t>(
            cursor, static_cast<std::int64_t>(response.fields.number(key)));
      }
    }
    record(p, now, true);
  };

  std::vector<pollfd> fds(conns.size());
  for (;;) {
    const Clock::time_point now = Clock::now();
    const double now_s = secs(now);
    Clock::time_point wake = now + std::chrono::milliseconds(50);
    bool busy = false;
    for (auto& conn_ptr : conns) {
      Conn& conn = *conn_ptr;
      for (auto it = conn.retries.begin(); it != conn.retries.end();) {
        if (it->retry_at <= now) {
          send(conn, std::move(*it));
          it = conn.retries.erase(it);
        } else {
          wake = std::min(wake, it->retry_at);
          ++it;
        }
      }
      const int phase = phase_at(now_s);
      const auto depth = static_cast<std::size_t>(
          config.phases[static_cast<std::size_t>(phase)].depth);
      while (conn.pending.size() + conn.retries.size() < depth &&
             now_s < window_end) {
        Pending p;
        p.request = build(conn.client, conn.next_index++);
        p.start = now;
        p.phase = now_s >= config.warmup_s ? phase : -1;
        ++report.attempted;
        send(conn, std::move(p));
      }
      busy = busy || !conn.pending.empty() || !conn.retries.empty();
      if (!flush(conn)) throw std::runtime_error("send failed");
    }
    if (!busy) break;

    for (std::size_t i = 0; i < conns.size(); ++i) {
      fds[i].fd = conns[i]->fd;
      fds[i].events = static_cast<short>(
          POLLIN | (conns[i]->out.empty() ? 0 : POLLOUT));
      fds[i].revents = 0;
    }
    const auto wait = std::max(Clock::duration::zero(), wake - Clock::now());
    const timespec ts{
        0, static_cast<long>(
               std::chrono::duration_cast<std::chrono::nanoseconds>(wait)
                   .count())};
    const int ready = ::ppoll(fds.data(), fds.size(), &ts, nullptr);
    if (ready < 0 && errno != EINTR) {
      throw std::runtime_error("ppoll: " + std::string(strerror(errno)));
    }
    if (ready <= 0) continue;
    const Clock::time_point got = Clock::now();
    for (std::size_t i = 0; i < conns.size(); ++i) {
      if ((fds[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      Conn& conn = *conns[i];
      char buffer[65536];
      for (;;) {
        const ssize_t n = ::recv(conn.fd, buffer, sizeof buffer, 0);
        if (n > 0) {
          conn.in.append(buffer, static_cast<std::size_t>(n));
          continue;
        }
        if (n == 0) throw std::runtime_error("server closed a connection");
        if (errno == EAGAIN || errno == EWOULDBLOCK) break;
        if (errno == EINTR) continue;
        throw std::runtime_error("recv: " + std::string(strerror(errno)));
      }
      std::size_t begin = 0;
      for (std::size_t nl;
           (nl = conn.in.find('\n', begin)) != std::string::npos;
           begin = nl + 1) {
        on_reply(conn, conn.in.substr(begin, nl - begin), got);
      }
      conn.in.erase(0, begin);
    }
  }
  return report;
}

std::vector<svc::Response> request_batch(int port,
                                    const std::vector<svc::Request>& requests) {
  const int fd = connect_loopback(port);
  std::string out;
  for (const svc::Request& request : requests) {
    out += svc::format_request(request);
    out += '\n';
  }
  std::vector<svc::Response> replies;
  replies.reserve(requests.size());
  std::string in;
  std::size_t sent = 0;
  ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK);
  try {
    while (replies.size() < requests.size()) {
      pollfd pfd{fd, static_cast<short>(POLLIN | (sent < out.size() ? POLLOUT : 0)),
                 0};
      if (::poll(&pfd, 1, 30000) <= 0) {
        throw std::runtime_error("control exchange timed out");
      }
      if (sent < out.size() && (pfd.revents & POLLOUT) != 0) {
        const ssize_t n = ::send(fd, out.data() + sent, out.size() - sent,
                                 MSG_NOSIGNAL);
        if (n > 0) sent += static_cast<std::size_t>(n);
      }
      if ((pfd.revents & (POLLIN | POLLHUP | POLLERR)) != 0) {
        char buffer[65536];
        const ssize_t n = ::recv(fd, buffer, sizeof buffer, 0);
        if (n == 0) throw std::runtime_error("server closed the connection");
        if (n > 0) in.append(buffer, static_cast<std::size_t>(n));
        std::size_t begin = 0;
        for (std::size_t nl; (nl = in.find('\n', begin)) != std::string::npos;
             begin = nl + 1) {
          replies.push_back(svc::parse_response(in.substr(begin, nl - begin)));
        }
        in.erase(0, begin);
      }
    }
  } catch (...) {
    ::close(fd);
    throw;
  }
  ::close(fd);
  return replies;
}

}  // namespace perfbench
