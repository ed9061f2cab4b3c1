/**
 * @file
 * daemon_write_mix and daemon_read_mix: one single-threaded load
 * generator process driving an ecovisord child over 127.0.0.1.
 *
 * Each episode starts the daemon (--tick-ms=0, --nodes=64; the write
 * mix adds a fresh --state-dir with --fsync=never), registers 16 apps
 * with four one-core containers on each of 4 connections, then runs
 * closed-loop rounds until the episode's window closes: every request
 * of a round is sent, every reply is awaited, then the next round
 * starts. Each request is written with its own send(2) as soon as the
 * client issues it, as net::SocketTransport does, and is stamped when
 * that write returns. Replies are stamped when first seen on any
 * connection (the transport decodes frames as bytes arrive, and the
 * generator reads every connection between sends), not when awaited
 * in send order.
 *
 * The traced run starts this binary's `host` mode instead of
 * ecovisord: the same world and loop, with each loop call timed.
 */

#include <poll.h>
#include <csignal>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <dirent.h>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <thread>

#include "bench.h"
#include "daemon_world.h"
#include "host_speed.h"
#include "net/client.h"
#include "net/frame.h"
#include "stats.h"
#include "util/rng.h"

namespace perfbench {

namespace {

using namespace ecov;

constexpr int kConnections = 4;
constexpr int kAppsPerConn = 16;
constexpr int kContainersPerApp = 4;
constexpr int kTenants = kConnections * kAppsPerConn;
constexpr int kDaemonNodes = 64;
/** Every 8th write-mix round also sends a cap batch and a charge rate. */
constexpr int kCapRoundEvery = 8;
/** Measured window of one daemon episode. */
constexpr double kEpisodeWindowS = 1.0;
/** Wait this long for a round's missing replies after its window. */
constexpr double kRoundGraceS = 5.0;
/** Window of the untimed first episode: the first daemon of a process
 *  serves several times fewer requests than the ones after it. */
constexpr double kWarmupWindowS = 1.0;
/** Start no untraced episode later than this after the planned end. */
constexpr double kOverrunS = 30.0;

// The daemon's physical battery is the paper's 1440 Wh bank; every
// tenant owns an equal share of it and of the solar array.
core::AppShareConfig
tenantShare()
{
    core::AppShareConfig s;
    s.solar_fraction = 1.0 / kTenants;
    energy::BatteryConfig b;
    const energy::BatteryConfig bank;
    b.capacity_wh = bank.capacity_wh / kTenants;
    b.max_charge_w = bank.max_charge_w / kTenants;
    b.max_discharge_w = bank.max_discharge_w / kTenants;
    s.battery = b;
    return s;
}

std::string
tenantName(int conn, int app)
{
    std::string name = "t";
    name += std::to_string(conn);
    name += '_';
    name += std::to_string(app);
    return name;
}

// ---------------------------------------------------------------------
// Child process: ecovisord or the traced host, stdout on a pipe.
// ---------------------------------------------------------------------

class Child
{
  public:
    Child() = default;
    Child(const Child &) = delete;
    Child &operator=(const Child &) = delete;

    ~Child()
    {
        if (fd_ >= 0)
            ::close(fd_);
        if (pid_ > 0) {
            ::kill(pid_, SIGKILL);
            ::waitpid(pid_, nullptr, 0);
        }
    }

    bool
    start(const std::vector<std::string> &argv, std::string *err)
    {
        int pipefd[2];
        if (::pipe(pipefd) != 0) {
            *err = "pipe failed";
            return false;
        }
        std::vector<char *> args;
        for (const auto &a : argv)
            args.push_back(const_cast<char *>(a.c_str()));
        args.push_back(nullptr);
        const pid_t pid = ::fork();
        if (pid < 0) {
            *err = "fork failed";
            ::close(pipefd[0]);
            ::close(pipefd[1]);
            return false;
        }
        if (pid == 0) {
            // Never outlive the benchmark, even if it is killed.
            ::prctl(PR_SET_PDEATHSIG, SIGKILL);
            ::dup2(pipefd[1], STDOUT_FILENO);
            ::close(pipefd[0]);
            ::close(pipefd[1]);
            ::execv(args[0], args.data());
            _exit(127);
        }
        ::close(pipefd[1]);
        fd_ = pipefd[0];
        pid_ = pid;
        return true;
    }

    pid_t pid() const { return pid_; }

    /** Next stdout line; false on EOF or after timeout_ms. */
    bool
    readLine(std::string *line, int timeout_ms)
    {
        const auto deadline =
            Clock::now() + std::chrono::milliseconds(timeout_ms);
        for (;;) {
            const auto nl = buf_.find('\n');
            if (nl != std::string::npos) {
                *line = buf_.substr(0, nl);
                buf_.erase(0, nl + 1);
                return true;
            }
            const auto left = std::chrono::duration_cast<
                std::chrono::milliseconds>(deadline - Clock::now());
            if (left.count() <= 0 || fd_ < 0)
                return false;
            pollfd p{fd_, POLLIN, 0};
            if (::poll(&p, 1, static_cast<int>(left.count())) <= 0)
                continue;
            char chunk[4096];
            const ssize_t n = ::read(fd_, chunk, sizeof chunk);
            if (n <= 0)
                return false;
            buf_.append(chunk, static_cast<std::size_t>(n));
        }
    }

    void signal(int sig) { ::kill(pid_, sig); }

    /** Exit status after waiting up to timeout_ms; -1 on timeout (the
     *  child is then killed) or abnormal exit. */
    int
    wait(int timeout_ms)
    {
        const auto deadline =
            Clock::now() + std::chrono::milliseconds(timeout_ms);
        for (;;) {
            int status = 0;
            const pid_t r = ::waitpid(pid_, &status, WNOHANG);
            if (r == pid_) {
                pid_ = -1;
                return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
            }
            if (Clock::now() >= deadline) {
                ::kill(pid_, SIGKILL);
                ::waitpid(pid_, nullptr, 0);
                pid_ = -1;
                return -1;
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
    }

    /** Reap a child killed with SIGKILL. */
    void
    reap()
    {
        if (pid_ > 0)
            ::waitpid(pid_, nullptr, 0);
        pid_ = -1;
    }

  private:
    pid_t pid_ = -1;
    int fd_ = -1;
    std::string buf_;
};

/** Open sockets of a process (listener + tenant connections). */
int
socketCount(pid_t pid)
{
    const std::string dir = "/proc/" + std::to_string(pid) + "/fd";
    DIR *d = ::opendir(dir.c_str());
    if (!d)
        return -1;
    int n = 0;
    while (dirent *e = ::readdir(d)) {
        char target[64];
        const std::string path = dir + "/" + e->d_name;
        const ssize_t len =
            ::readlink(path.c_str(), target, sizeof target - 1);
        if (len > 0 &&
            std::string_view(target, static_cast<std::size_t>(len))
                    .rfind("socket:", 0) == 0)
            ++n;
    }
    ::closedir(d);
    return n;
}

// ---------------------------------------------------------------------
// Transport that stamps each reply when its bytes are first read.
// ---------------------------------------------------------------------

class StampTransport : public net::Transport
{
  public:
    ~StampTransport() override
    {
        if (fd_ >= 0)
            ::close(fd_);
    }

    bool
    connect(std::uint16_t port)
    {
        fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
        if (fd_ < 0)
            return false;
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_port = htons(port);
        addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
        if (::connect(fd_, reinterpret_cast<const sockaddr *>(&addr),
                      sizeof addr) != 0)
            return false;
        const int one = 1;
        ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
        return true;
    }

    int fd() const { return fd_; }

    /** Write one request now, as net::SocketTransport::send does. */
    api::Status
    send(const std::uint8_t *data, std::size_t n) override
    {
        std::size_t off = 0;
        while (off < n) {
            const ssize_t w =
                ::send(fd_, data + off, n - off, MSG_NOSIGNAL);
            if (w < 0) {
                if (errno == EINTR)
                    continue;
                return api::Status::error(api::ErrorCode::Unavailable,
                                          "send failed");
            }
            off += static_cast<std::size_t>(w);
        }
        last_sent_ = Clock::now();
        return api::Status::okStatus();
    }

    /** When the most recent send() finished writing. */
    Clock::time_point lastSent() const { return last_sent_; }

    api::Status
    receiveSome(std::vector<std::uint8_t> &buf) override
    {
        return receiveSome(buf, -1);
    }

    api::Status
    receiveSome(std::vector<std::uint8_t> &buf, int timeout_ms) override
    {
        if (pending_.empty()) {
            pollfd p{fd_, POLLIN, 0};
            const int r = ::poll(&p, 1, timeout_ms <= 0 ? -1 : timeout_ms);
            if (r == 0)
                return api::Status::error(api::ErrorCode::DeadlineExceeded,
                                          "receive deadline elapsed");
            if (!ingest() && pending_.empty())
                return api::Status::error(api::ErrorCode::Unavailable,
                                          "connection closed");
        }
        buf.insert(buf.end(), pending_.begin(), pending_.end());
        pending_.clear();
        return api::Status::okStatus();
    }

    /**
     * Read everything the socket holds without blocking; stamp every
     * complete reply frame. False once the peer closed or the stream
     * broke.
     */
    bool
    ingest()
    {
        std::uint8_t chunk[65536];
        for (;;) {
            const ssize_t n = ::recv(fd_, chunk, sizeof chunk, MSG_DONTWAIT);
            if (n > 0) {
                const auto now = Clock::now();
                pending_.insert(pending_.end(), chunk, chunk + n);
                decoder_.feed(chunk, static_cast<std::size_t>(n));
                net::Frame f;
                net::DecodeStatus st;
                while ((st = decoder_.next(&f)) == net::DecodeStatus::Frame)
                    seen_.emplace_back(f.request_id, now);
                if (st == net::DecodeStatus::Error)
                    return false;
                continue;
            }
            if (n < 0 && errno == EINTR)
                continue;
            if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
                return true;
            return false; // closed or failed
        }
    }

    /** Replies stamped since the last call, in arrival order. */
    std::vector<std::pair<std::uint32_t, Clock::time_point>>
    takeSeen()
    {
        return std::exchange(seen_, {});
    }

  private:
    int fd_ = -1;
    Clock::time_point last_sent_;
    std::vector<std::uint8_t> pending_;
    net::FrameDecoder decoder_;
    std::vector<std::pair<std::uint32_t, Clock::time_point>> seen_;
};

// ---------------------------------------------------------------------
// Episode: one daemon lifetime.
// ---------------------------------------------------------------------

enum class Kind : std::uint8_t
{
    Commit, ///< coalesced mutation (SetDemand, ApplyCapBatch, SetChargeRate)
    Read,   ///< GetSnapshot
};

struct Tenant
{
    net::RemoteApp app;
    net::RemoteContainer containers[kContainersPerApp];
};

struct Conn
{
    StampTransport transport;
    std::unique_ptr<net::Client> client;
    Tenant tenants[kAppsPerConn];
};

/** One request of the current round. */
struct Outstanding
{
    std::uint32_t req = 0;
    Kind kind = Kind::Commit;
    bool snapshot = false; ///< await as a snapshot reply
    Clock::time_point sent;
    bool seen = false;
};

struct EpisodeResult
{
    double setup_s = 0.0;
    double window_s = 0.0;
    std::uint64_t replies = 0;  ///< replies received in the window
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::uint64_t rounds = 0;
    std::vector<double> commit_us;
    std::vector<double> read_us;
    double peak_rss_mb = 0.0;
    double daemon_cpu_s = 0.0; ///< daemon CPU over the window
    // Traced episodes only.
    double send_ns = 0.0;
    double await_ns = 0.0;
    std::uint64_t sends = 0;
    std::uint64_t awaits = 0;
    std::map<std::string, double> host;
    double recover_ms = 0.0;
    double replayed_ticks = 0.0;
    bool correct = true;
    std::string why;
};

struct EpisodeConfig
{
    bool write_mix = true;
    bool traced = false;       ///< run the traced host, not ecovisord
    double window_s = 2.0;
    std::uint64_t seed = 1;
    std::string daemon;        ///< ecovisord path
    std::string self;          ///< perfbench path (host mode)
    std::string state_dir;     ///< write mix only
    std::string stats_path;    ///< traced host's stats file
};

void
fail(EpisodeResult *r, const std::string &why)
{
    if (r->correct) {
        r->correct = false;
        r->why = why;
    }
}

bool
snapshotSane(const api::EnergySnapshot &s, double capacity_wh)
{
    const double v[] = {s.solar_w, s.grid_w, s.grid_carbon_g_per_kwh,
                        s.battery_discharge_w, s.battery_charge_level_wh};
    for (double x : v)
        if (!std::isfinite(x) || x < 0.0)
            return false;
    return s.battery_charge_level_wh <= capacity_wh * (1.0 + 1e-9) &&
           s.grid_carbon_g_per_kwh > 0.0;
}

std::map<std::string, double>
readKeyValues(const std::string &path)
{
    std::map<std::string, double> out;
    std::ifstream in(path);
    std::string key;
    double value = 0.0;
    while (in >> key >> value)
        out[key] = value;
    return out;
}

class Episode
{
  public:
    explicit Episode(const EpisodeConfig &cfg) : cfg_(cfg), rng_(cfg.seed) {}

    EpisodeResult run();

  private:
    bool startDaemon();
    bool setup();
    /** Send one round's requests, tenant by tenant across the
     *  connections, reading replies between sends. */
    void sendRound(std::uint64_t round);
    /** Read (without blocking) every connection that has bytes; false
     *  once a connection broke. */
    bool ingestReady();
    /** Wait for the round's replies until `deadline`; then consume. */
    void finishRound(Clock::time_point deadline);
    void teardown();

    /** The flags this episode's daemon runs with. */
    DaemonFlags
    daemonFlags() const
    {
        DaemonFlags flags;
        flags.nodes = kDaemonNodes;
        flags.seed = cfg_.seed % 100000;
        if (cfg_.write_mix)
            flags.state_dir = cfg_.state_dir;
        return flags;
    }

    template <typename Fn>
    std::uint32_t
    timedSend(Fn &&fn)
    {
        if (!cfg_.traced)
            return fn();
        const auto t0 = Clock::now();
        const std::uint32_t id = fn();
        r_.send_ns += 1e3 * toUs(Clock::now() - t0);
        ++r_.sends;
        return id;
    }

    template <typename Fn>
    auto
    timedAwait(Fn &&fn)
    {
        if (!cfg_.traced)
            return fn();
        const auto t0 = Clock::now();
        auto out = fn();
        r_.await_ns += 1e3 * toUs(Clock::now() - t0);
        ++r_.awaits;
        return out;
    }

    EpisodeConfig cfg_;
    Rng rng_;
    Child child_;
    std::uint16_t port_ = 0;
    Clock::time_point spawned_;
    std::vector<std::unique_ptr<Conn>> conns_;
    std::vector<std::vector<Outstanding>> out_; ///< per connection
    std::vector<pollfd> fds_;
    std::uint64_t sent_total_ = 0;     ///< every request, setup included
    std::uint64_t sent_coalesced_ = 0; ///< coalesced ones
    double capacity_wh_ = tenantShare().battery->capacity_wh;
    EpisodeResult r_;
};

bool
Episode::startDaemon()
{
    const DaemonFlags flags = daemonFlags();
    std::vector<std::string> argv;
    if (cfg_.traced) {
        // The host always listens on an ephemeral port and ticks as
        // fast as its loop runs.
        argv = {cfg_.self, "host", "--stats=" + cfg_.stats_path};
    } else {
        argv = {cfg_.daemon, "--port=0", "--tick-ms=0"};
    }
    argv.push_back("--nodes=" + std::to_string(flags.nodes));
    argv.push_back("--seed=" + std::to_string(flags.seed));
    if (!flags.state_dir.empty()) {
        argv.push_back("--state-dir=" + flags.state_dir);
        argv.push_back("--fsync=never");
    }
    std::string err;
    spawned_ = Clock::now();
    if (!child_.start(argv, &err)) {
        fail(&r_, err);
        return false;
    }
    std::string line;
    while (child_.readLine(&line, 30000)) {
        const char *tag = "ecovisord: listening on 127.0.0.1:";
        if (line.rfind(tag, 0) == 0) {
            port_ = static_cast<std::uint16_t>(
                std::atoi(line.c_str() + std::strlen(tag)));
            return port_ != 0;
        }
    }
    fail(&r_, "daemon printed no listening line");
    return false;
}

bool
Episode::setup()
{
    for (int c = 0; c < kConnections; ++c) {
        auto conn = std::make_unique<Conn>();
        if (!conn->transport.connect(port_)) {
            fail(&r_, "connect failed");
            return false;
        }
        conn->client = std::make_unique<net::Client>(&conn->transport);
        conns_.push_back(std::move(conn));
    }
    out_.resize(conns_.size());
    const core::AppShareConfig share = tenantShare();
    std::vector<std::uint32_t> ids;
    for (int c = 0; c < kConnections; ++c)
        for (int a = 0; a < kAppsPerConn; ++a)
            ids.push_back(conns_[c]->client->sendRegisterApp(
                tenantName(c, a), share));
    sent_total_ += ids.size();
    sent_coalesced_ += ids.size();
    std::size_t k = 0;
    for (int c = 0; c < kConnections; ++c)
        for (int a = 0; a < kAppsPerConn; ++a) {
            auto app = conns_[c]->client->awaitApp(ids[k++]);
            if (!app.ok()) {
                fail(&r_, "RegisterApp: " + app.status().message());
                return false;
            }
            conns_[c]->tenants[a].app = app.value();
        }
    ids.clear();
    for (int c = 0; c < kConnections; ++c)
        for (int a = 0; a < kAppsPerConn; ++a)
            for (int j = 0; j < kContainersPerApp; ++j)
                ids.push_back(conns_[c]->client->sendSpawnContainer(
                    conns_[c]->tenants[a].app, 1.0));
    sent_total_ += ids.size();
    sent_coalesced_ += ids.size();
    k = 0;
    for (int c = 0; c < kConnections; ++c)
        for (int a = 0; a < kAppsPerConn; ++a)
            for (int j = 0; j < kContainersPerApp; ++j) {
                auto ct = conns_[c]->client->awaitContainer(ids[k++]);
                if (!ct.ok()) {
                    fail(&r_, "SpawnContainer: " + ct.status().message());
                    return false;
                }
                conns_[c]->tenants[a].containers[j] = ct.value();
            }
    for (auto &conn : conns_)
        conn->transport.takeSeen();
    return true;
}

void
Episode::sendRound(std::uint64_t round)
{
    const bool caps = round % kCapRoundEvery == kCapRoundEvery - 1;
    for (int a = 0; a < kAppsPerConn; ++a) {
        for (std::size_t c = 0; c < conns_.size(); ++c) {
            Conn &conn = *conns_[c];
            net::Client &cl = *conn.client;
            Tenant &t = conn.tenants[a];
            auto push = [&](std::uint32_t id, Kind kind, bool snap) {
                out_[c].push_back(
                    {id, kind, snap, conn.transport.lastSent(), false});
                ++sent_total_;
                if (kind == Kind::Commit)
                    ++sent_coalesced_;
                ingestReady();
            };
            if (cfg_.write_mix) {
                for (const auto &ct : t.containers) {
                    const double demand = rng_.uniform(0.1, 1.0);
                    push(timedSend([&] { return cl.sendSetDemand(ct, demand); }),
                         Kind::Commit, false);
                }
                push(timedSend([&] { return cl.sendGetSnapshot(t.app); }),
                     Kind::Read, true);
                if (caps) {
                    std::vector<net::RemoteCap> batch;
                    for (const auto &ct : t.containers)
                        batch.push_back({ct, rng_.uniform(0.3, 1.0)});
                    push(timedSend([&] { return cl.sendApplyCapBatch(batch); }),
                         Kind::Commit, false);
                    const double rate = rng_.uniform(0.0, 5.0);
                    push(timedSend([&] {
                             return cl.sendSetBatteryChargeRate(t.app, rate);
                         }),
                         Kind::Commit, false);
                }
            } else {
                for (int j = 0; j < 4; ++j)
                    push(timedSend([&] { return cl.sendGetSnapshot(t.app); }),
                         Kind::Read, true);
                const auto &ct = t.containers[round % kContainersPerApp];
                const double demand = rng_.uniform(0.1, 1.0);
                push(timedSend([&] { return cl.sendSetDemand(ct, demand); }),
                     Kind::Commit, false);
            }
        }
    }
}

bool
Episode::ingestReady()
{
    fds_.resize(conns_.size());
    for (std::size_t c = 0; c < conns_.size(); ++c)
        fds_[c] = {conns_[c]->transport.fd(), POLLIN, 0};
    if (::poll(fds_.data(), fds_.size(), 0) <= 0)
        return true;
    bool ok = true;
    for (std::size_t c = 0; c < conns_.size(); ++c)
        if (fds_[c].revents != 0 && !conns_[c]->transport.ingest())
            ok = false;
    return ok;
}

void
Episode::finishRound(Clock::time_point deadline)
{
    std::size_t remaining = 0;
    std::vector<std::map<std::uint32_t, std::size_t>> index(conns_.size());
    for (std::size_t c = 0; c < conns_.size(); ++c) {
        remaining += out_[c].size();
        for (std::size_t i = 0; i < out_[c].size(); ++i)
            index[c][out_[c][i].req] = i;
    }
    auto stamp = [&](std::size_t c) {
        for (const auto &[req, at] : conns_[c]->transport.takeSeen()) {
            auto it = index[c].find(req);
            if (it == index[c].end())
                continue;
            Outstanding &o = out_[c][it->second];
            if (o.seen)
                continue;
            o.seen = true;
            --remaining;
            (o.kind == Kind::Commit ? r_.commit_us : r_.read_us)
                .push_back(toUs(at - o.sent));
        }
    };
    // Replies read while the round was being sent first.
    for (std::size_t c = 0; c < conns_.size(); ++c)
        stamp(c);
    bool broken = false;
    while (remaining > 0 && !broken && Clock::now() < deadline) {
        // Busy-poll: the generator never sleeps, so a reply's stamp
        // does not include waking the generator's own (virtual) CPU.
        broken = !ingestReady();
        for (std::size_t c = 0; c < conns_.size(); ++c)
            stamp(c);
    }

    // Consume the replies through the client (already buffered, so
    // the awaits do not block) and check each one.
    for (std::size_t c = 0; c < conns_.size(); ++c) {
        net::Client &cl = *conns_[c]->client;
        for (const Outstanding &o : out_[c]) {
            ++r_.attempted;
            if (!o.seen) {
                ++r_.failed;
                continue;
            }
            ++r_.replies;
            if (o.snapshot) {
                auto s = timedAwait([&] { return cl.awaitSnapshot(o.req); });
                if (!s.ok()) {
                    ++r_.failed;
                } else if (!snapshotSane(s.value(), capacity_wh_)) {
                    fail(&r_, "implausible energy snapshot");
                }
            } else {
                auto st = timedAwait([&] { return cl.await(o.req); });
                if (!st.ok())
                    ++r_.failed;
            }
        }
        out_[c].clear();
    }
    if (remaining > 0)
        fail(&r_, std::to_string(remaining) +
                      " replies missing after the round deadline");
}

void
Episode::teardown()
{
    // Drop the tenants' connections and wait until the daemon has
    // closed its side, so the state it prints at SIGTERM is settled.
    conns_.clear();
    const auto until = Clock::now() + std::chrono::seconds(10);
    while (socketCount(child_.pid()) > 1 && Clock::now() < until)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
}

EpisodeResult
Episode::run()
{
    if (!startDaemon())
        return r_;
    if (!setup())
        return r_;
    r_.setup_s = toSec(Clock::now() - spawned_);

    if (cfg_.traced)
        child_.signal(SIGUSR2); // host: start the measurement window
    const double cpu0 = cpuSeconds(child_.pid());
    const auto w0 = Clock::now();
    const auto window_end =
        w0 + std::chrono::duration_cast<Clock::duration>(
                 std::chrono::duration<double>(cfg_.window_s));
    std::uint64_t round = 0;
    while (r_.correct && Clock::now() < window_end) {
        sendRound(round++);
        finishRound(Clock::now() + std::chrono::duration_cast<
                                       Clock::duration>(
                                       std::chrono::duration<double>(
                                           kRoundGraceS)));
    }
    r_.window_s = toSec(Clock::now() - w0);
    r_.rounds = round;
    r_.daemon_cpu_s = cpuSeconds(child_.pid()) - cpu0;
    r_.peak_rss_mb = peakRssMb(child_.pid());

    if (cfg_.traced) {
        // Dump the host's window stats, then read them.
        child_.signal(SIGUSR1);
        const auto until = Clock::now() + std::chrono::seconds(10);
        while (!std::filesystem::exists(cfg_.stats_path) &&
               Clock::now() < until)
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        r_.host = readKeyValues(cfg_.stats_path);
        if (r_.host.empty())
            fail(&r_, "traced host wrote no stats");
    }

    if (cfg_.traced && cfg_.write_mix) {
        // Crash the host and time the operator's restart path:
        // recover the state directory left behind by SIGKILL.
        child_.signal(SIGKILL);
        child_.reap();
        conns_.clear();
        DaemonWorld world(daemonFlags());
        const auto t0 = Clock::now();
        const api::Status st = world.ckpt->recover();
        r_.recover_ms = toUs(Clock::now() - t0) / 1e3;
        r_.replayed_ticks = static_cast<double>(world.ckpt->replayedTicks());
        if (!st.ok())
            fail(&r_, "recovery after SIGKILL failed: " + st.message());
        return r_;
    }

    teardown();
    child_.signal(SIGTERM);
    std::string line, digest;
    long long ticks = -1;
    unsigned long long frames = 0, committed = 0;
    while (child_.readLine(&line, 30000)) {
        const char *dtag = "ecovisord: state digest ";
        if (line.rfind(dtag, 0) == 0)
            digest = line.substr(std::strlen(dtag));
        std::sscanf(line.c_str(),
                    "ecovisord: %lld ticks, %llu frames, %llu committed",
                    &ticks, &frames, &committed);
    }
    const int code = child_.wait(30000);
    if (code != 0)
        fail(&r_, "daemon exited with " + std::to_string(code));
    if (ticks < 0) {
        fail(&r_, "daemon printed no exit statistics");
    } else {
        // Every request is accounted for: the daemon decoded exactly
        // what was sent and committed every coalesced request.
        if (frames != sent_total_ || committed != sent_coalesced_)
            fail(&r_, "daemon saw " + std::to_string(frames) +
                          " frames / " + std::to_string(committed) +
                          " commits, sent " + std::to_string(sent_total_) +
                          " / " + std::to_string(sent_coalesced_));
    }

    if (cfg_.write_mix) {
        DaemonWorld world(daemonFlags());
        const api::Status st = world.ckpt->recover();
        char hex[32];
        std::snprintf(hex, sizeof hex, "%016llx",
                      static_cast<unsigned long long>(world.ckpt->digest()));
        if (!st.ok())
            fail(&r_, "recovery failed: " + st.message());
        else if (digest.empty() || digest != hex)
            fail(&r_, "recovered digest " + std::string(hex) +
                          " != printed '" + digest + "'");
    }
    return r_;
}

// ---------------------------------------------------------------------
// Workload runner.
// ---------------------------------------------------------------------

/**
 * Untraced episodes, accumulated. Timings are at the nominal host (see
 * host_speed.h); `scale` keeps each episode's factor.
 */
struct Pool
{
    std::vector<double> setup_s, rss_mb, req_per_s, rounds_per_s, scale;
    /** Per-episode samples; percentiles are taken per episode. */
    std::vector<std::vector<double>> commit_us, read_us;
    double window_s = 0.0, cpu_s = 0.0;
    std::uint64_t replies = 0, attempted = 0, failed = 0;
    bool correct = true;
    std::string why;

    void
    add(EpisodeResult &&e, double host_scale)
    {
        scale.push_back(host_scale);
        setup_s.push_back(e.setup_s / host_scale);
        rss_mb.push_back(e.peak_rss_mb);
        if (e.window_s > 0.0) {
            req_per_s.push_back(static_cast<double>(e.replies) /
                                e.window_s * host_scale);
            rounds_per_s.push_back(static_cast<double>(e.rounds) /
                                   e.window_s * host_scale);
        }
        for (auto *v : {&e.commit_us, &e.read_us})
            for (double &x : *v)
                x /= host_scale;
        commit_us.push_back(std::move(e.commit_us));
        read_us.push_back(std::move(e.read_us));
        window_s += e.window_s;
        cpu_s += e.daemon_cpu_s;
        replies += e.replies;
        attempted += e.attempted;
        failed += e.failed;
        if (!e.correct && correct) {
            correct = false;
            why = e.why;
        }
    }

};

std::string
freshDir(const std::string &base, const std::string &name)
{
    const std::string dir = base + "/" + name;
    std::filesystem::remove_all(dir);
    return dir;
}

} // namespace

int
runDaemonMix(const RunOptions &opt)
{
    if (kConnections > static_cast<int>(std::thread::hardware_concurrency()))
        std::fprintf(stderr, "perfbench: note: %d connections > nproc\n",
                     kConnections);
    const bool write_mix = opt.workload == "daemon_write_mix";
    std::filesystem::create_directories(opt.work_dir);

    // Untraced episodes: the end-to-end metrics (and, in the traced
    // run, the untraced baseline for trace.overhead_pct and the
    // daemon CPU cost, before one traced episode). Each episode's
    // window is short because the daemon's telemetry grows without
    // bound while it ticks.
    const double untraced_s =
        opt.trace ? opt.seconds - kEpisodeWindowS : opt.seconds;
    const int episodes = std::max(
        2, static_cast<int>(std::lround(untraced_s / kEpisodeWindowS)));
    auto untracedEpisode = [&](int e, double window_s) {
        EpisodeConfig cfg;
        cfg.write_mix = write_mix;
        cfg.window_s = window_s;
        cfg.seed = opt.seed * 131 + static_cast<std::uint64_t>(e + 1);
        cfg.daemon = opt.ecovisord;
        cfg.self = opt.self;
        cfg.state_dir = freshDir(opt.work_dir, "state-" + std::to_string(e));
        const auto t0 = Clock::now();
        EpisodeResult r = Episode(cfg).run();
        const double wall_s = toSec(Clock::now() - t0);
        if (wall_s > window_s + 5.0)
            std::fprintf(stderr,
                         "perfbench: episode %d took %.1f s for a %.1f s "
                         "window\n",
                         e, wall_s, window_s);
        std::filesystem::remove_all(cfg.state_dir);
        return r;
    };
    // The warm-up episode is checked and counted, but not measured.
    EpisodeResult warm = untracedEpisode(-1, kWarmupWindowS);
    // Every measured episode is bracketed by two host kernel passes.
    HostSpeed host;
    host.pass();
    Pool pool;
    pool.attempted = warm.attempted;
    pool.failed = warm.failed;
    pool.correct = warm.correct;
    pool.why = warm.why;
    const auto start = Clock::now();
    for (int e = 0; e < episodes && pool.correct; ++e) {
        if (e >= 2 && toSec(Clock::now() - start) > untraced_s + kOverrunS) {
            std::fprintf(stderr,
                         "perfbench: only %d of %d episodes fit in time\n",
                         e, episodes);
            break;
        }
        EpisodeResult r = untracedEpisode(e, kEpisodeWindowS);
        pool.add(std::move(r), host.scaleSinceLastPass());
    }

    Report rep;
    {
        std::string line = "untraced episodes, req/s as measured:";
        for (std::size_t i = 0; i < pool.req_per_s.size(); ++i)
            line += " " + std::to_string(
                              std::lround(pool.req_per_s[i] / pool.scale[i]));
        rep.note(line);
        char note[160];
        std::snprintf(note, sizeof note,
                      "host scale %.4f (kernel pass %.0f us, nominal %.0f "
                      "us)",
                      median(pool.scale), median(host.passesUs()),
                      HostSpeed::kNominalUs);
        rep.note(note);
    }
    bool correct = pool.correct;
    std::uint64_t attempted = pool.attempted, failed = pool.failed;
    if (!opt.trace) {
        rep.add("setup_s", median(pool.setup_s), "s");
        rep.add("req_per_s", median(pool.req_per_s), "1/s");
        // A daemon tick commits what arrived since the last one, so the
        // tenants' rate of control cycles is the closed-loop round rate
        // over the window, not the daemon's raw (mostly idle) ticks.
        rep.add("sim_ticks_per_s", median(pool.rounds_per_s), "1/s");
        rep.add("peak_rss_mb", median(pool.rss_mb), "MB");
        rep.addMedianPercentile("commit_rtt_p50_us", pool.commit_us, 0.50,
                                "us");
        rep.addMedianPercentile("read_rtt_p50_us", pool.read_us, 0.50, "us");
    } else {
        EpisodeConfig cfg;
        cfg.write_mix = write_mix;
        cfg.traced = true;
        cfg.window_s = kEpisodeWindowS;
        cfg.seed = opt.seed * 131 + 99;
        cfg.self = opt.self;
        cfg.state_dir = freshDir(opt.work_dir, "state-traced");
        cfg.stats_path = opt.work_dir + "/host-stats.txt";
        std::filesystem::remove(cfg.stats_path);
        EpisodeResult t = Episode(cfg).run();
        const double traced_scale = host.scaleSinceLastPass();
        std::filesystem::remove_all(cfg.state_dir);
        std::filesystem::remove(cfg.stats_path);
        if (!t.correct && correct) {
            correct = false;
            pool.why = t.why;
        }
        attempted += t.attempted;
        failed += t.failed;

        auto h = [&](const char *k) {
            auto it = t.host.find(k);
            return it == t.host.end() ? 0.0 : it->second;
        };
        const double ticks = std::max(1.0, h("ticks"));
        const double snaps = std::max(1.0, h("snapshot_ticks"));
        rep.add("sim.env_us", h("env_us") / ticks, "us");
        rep.add("policies.tick_us", h("policy_us") / ticks, "us");
        rep.add("workloads.tick_us", h("workload_us") / ticks, "us");
        rep.add("core.settle_us", h("accounting_us") / ticks, "us");
        rep.add("telemetry.query_ns", 0.0, "ns");
        rep.add("telemetry.heap_mb", h("heap_mb"), "MB");
        rep.add("telemetry.samples_per_tick", h("appends") / ticks, "count");
        rep.add("cop.live_containers", h("live_containers") / ticks,
                "count");
        rep.add("cop.creates", h("creates"), "count");
        rep.add("net.ingest_us", h("ingest_us") / ticks, "us");
        rep.add("net.flush_us", h("flush_us") / ticks, "us");
        rep.add("ckpt.wal_append_us", h("wal_us") / ticks, "us");
        rep.add("ckpt.wal_bytes_per_tick",
                h("wal_bytes") / std::max(1.0, h("wal_ticks")), "B");
        rep.add("ckpt.snapshot_us",
                write_mix ? h("snapshot_us") / snaps : 0.0, "us");
        rep.add("ckpt.snapshot_bytes", h("snapshot_bytes"), "B");
        rep.add("ckpt.recover_ms", t.recover_ms, "ms");
        rep.add("ckpt.replayed_ticks", t.replayed_ticks, "count");
        rep.add("daemon.ticks_per_round",
                t.rounds ? h("ticks") / static_cast<double>(t.rounds) : 0.0,
                "count");
        rep.add("daemon.useful_tick_share", h("useful_ticks") / ticks,
                "share");
        rep.add("server.frames_per_tick", h("frames") / ticks, "count");
        rep.add("server.admission_rejects", h("admission_rejects"),
                "count");
        rep.add("daemon.cpu_us_per_req",
                pool.replies ? 1e6 * pool.cpu_s /
                                   static_cast<double>(pool.replies)
                             : 0.0,
                "us");
        rep.add("client.send_ns",
                t.sends ? t.send_ns / static_cast<double>(t.sends) : 0.0,
                "ns");
        rep.add("client.await_ns",
                t.awaits ? t.await_ns / static_cast<double>(t.awaits) : 0.0,
                "ns");
        rep.addMedianPercentile("commit_rtt_p90_us", pool.commit_us, 0.90,
                                "us");
        rep.addMedianPercentile("commit_rtt_p99_us", pool.commit_us, 0.99,
                                "us");
        rep.addMedianPercentile("read_rtt_p90_us", pool.read_us, 0.90, "us");
        rep.addMedianPercentile("read_rtt_p99_us", pool.read_us, 0.99, "us");
        const double untraced = median(pool.req_per_s);
        const double traced =
            t.window_s > 0 ? static_cast<double>(t.replies) / t.window_s *
                                 traced_scale
                           : 0.0;
        rep.add("trace.overhead_pct",
                untraced > 0 ? 100.0 * (untraced - traced) / untraced : 0.0,
                "%");
        rep.add("trace.coverage_pct",
                h("window_us") > 0 ? 100.0 * h("covered_us") / h("window_us")
                                   : 0.0,
                "%");
        rep.add("failed_share",
                attempted ? static_cast<double>(failed) /
                                static_cast<double>(attempted)
                          : 0.0,
                "share");
        rep.add("host.kernel_us", median(host.passesUs()), "us");
        char note[200];
        std::snprintf(note, sizeof note,
                      "traced: %.0f req/s vs untraced %.0f req/s over "
                      "%.2f s / %.2f s",
                      traced, untraced, t.window_s, pool.window_s);
        rep.note(note);
    }
    if (!correct)
        rep.note("output check failed: " + pool.why);
    std::string why;
    const auto &names = opt.trace ? perLayerMetrics() : endToEndMetrics();
    if (!rep.checkNames(names, &why)) {
        std::fprintf(stderr, "perfbench: %s\n", why.c_str());
        rep.print(false, std::max<std::uint64_t>(attempted, 1), failed);
        return 1;
    }
    rep.print(correct, std::max<std::uint64_t>(attempted, 1), failed);
    return correct ? 0 : 1;
}

} // namespace perfbench
