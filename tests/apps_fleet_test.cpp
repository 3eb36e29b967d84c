// Multi-process loopback fleet tests for the flagship apps — the
// acceptance criterion that the same apps:: code running in the sim soaks
// completes a real multi-OS-process session over UDP:
//
//   ReplfsFleet   three replfs server processes (each with its WAL on a
//                 file-backed StableStorage volume) and one client process. The parent SIGKILLs a
//                 server mid-write-stream and respawns it on the same WAL
//                 file; the client's re-driven 2PC walks it back in, and
//                 at the end the client reads every acked key back from
//                 every replica — including the restarted one, which must
//                 serve pre-crash writes out of its recovered log.
//   MazewarFleet  three player processes gossip state over the multicast
//                 group until each has a live view of both others and the
//                 score equation holds.
//
// Process model matches udp_fleet_test.cpp: this binary re-execs itself
// with NDSM_APPS_ROLE set; bounded waits everywhere plus a ctest TIMEOUT.

#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <functional>
#include <string>
#include <vector>

#include "apps/mazewar/mazewar.hpp"
#include "apps/replfs/replfs.hpp"
#include "net/udp_stack.hpp"
#include "node/runtime.hpp"
#include "recovery/storage.hpp"

namespace {

using namespace ndsm;

constexpr std::uint32_t kReplfsServers = 3;
constexpr int kReplfsWrites = 30;
constexpr std::uint32_t kMazewarPlayers = 3;

volatile std::sig_atomic_t g_terminated = 0;
void on_sigterm(int) { g_terminated = 1; }

std::vector<NodeId> fleet_ids(std::uint32_t n) {
  std::vector<NodeId> ids;
  for (std::uint32_t i = 1; i <= n; ++i) ids.emplace_back(i);
  return ids;
}

net::UdpStackConfig udp_config(std::uint16_t base, std::uint32_t members) {
  net::UdpStackConfig cfg;
  cfg.port_base = base;
  cfg.peers = fleet_ids(members);
  return cfg;
}

std::string wal_path(std::uint32_t id) {
  // Relative to the test's working directory; pid-salted by the parent's
  // pid carried through the port base, so parallel runs do not collide.
  return "apps-fleet-" + std::string(std::getenv("NDSM_APPS_BASE")) + "-server-" +
         std::to_string(id) + ".wal";
}

std::string client_value(int i) {
  std::string v = "payload-" + std::to_string(i) + "-";
  v.append(static_cast<std::size_t>(64 + (i % 4) * 700), static_cast<char>('a' + i % 26));
  return v;
}

// --- roles -----------------------------------------------------------------

int run_replfs_server(std::uint16_t base, std::uint32_t id) {
  std::signal(SIGTERM, on_sigterm);
  recovery::StableStorage wal{wal_path(id)};
  net::UdpStack stack{NodeId{id}, udp_config(base, kReplfsServers + 1)};
  node::StackConfig scfg;
  scfg.router = node::RouterPolicy::kFlooding;
  node::Runtime rt{stack, scfg};
  rt.add_service<apps::replfs::Server>("replfs", [&wal](node::Runtime& r) {
    return std::make_unique<apps::replfs::Server>(r.transport(), r.net_stack(), wal);
  });
  stack.run_until([] { return g_terminated != 0; }, duration::seconds(120));
  return 0;
}

int run_replfs_client(std::uint16_t base) {
  net::UdpStack stack{NodeId{kReplfsServers + 1}, udp_config(base, kReplfsServers + 1)};
  node::StackConfig scfg;
  scfg.router = node::RouterPolicy::kFlooding;
  node::Runtime rt{stack, scfg};
  apps::replfs::ReplfsConfig ccfg;
  ccfg.retry_period = duration::millis(250);
  ccfg.max_write_attempts = 120;  // ride out the scripted server kill
  apps::replfs::Client client{rt.transport(), stack, fleet_ids(kReplfsServers), ccfg};

  // Paced write stream (one every ~50 ms) so the parent's mid-stream
  // SIGKILL lands between commits, not after the workload finished.
  int resolved = 0, failed = 0, issued = 0;
  std::function<void()> next = [&] {
    if (issued >= kReplfsWrites) return;
    const int i = issued++;
    client.write("f-" + std::to_string(i), to_bytes(client_value(i)), [&, i](Status s) {
      resolved++;
      failed += s.is_ok() ? 0 : 1;
      (void)i;
      stack.schedule_after(duration::millis(50), next);
    });
  };
  next();
  if (!stack.run_until([&] { return resolved == kReplfsWrites; },
                       duration::seconds(90))) {
    return 2;  // writes stuck
  }
  if (failed != 0) return 3;

  // Verification: every acked key, on every replica, with the right bytes.
  int expected = 0, verified = 0, answered = 0;
  for (int i = 0; i < kReplfsWrites; ++i) {
    for (std::uint32_t s = 1; s <= kReplfsServers; ++s) {
      expected++;
      client.read(NodeId{s}, "f-" + std::to_string(i), [&, i](bool found, const Bytes& v) {
        answered++;
        verified += (found && to_string(v) == client_value(i)) ? 1 : 0;
      });
    }
  }
  if (!stack.run_until([&] { return answered == expected; }, duration::seconds(30))) {
    return 4;  // reads stuck
  }
  return verified == expected ? 0 : 5;
}

int run_mazewar_player(std::uint16_t base, std::uint32_t id) {
  net::UdpStack stack{NodeId{id}, udp_config(base, kMazewarPlayers)};
  apps::mazewar::MazeConfig cfg;
  cfg.state_period = duration::millis(50);
  apps::mazewar::Player player{stack, cfg};
  const bool converged = stack.run_until(
      [&] {
        return player.peers().size() == kMazewarPlayers - 1 &&
               player.stats().states_received >= 30;
      },
      duration::seconds(25));
  if (!converged) return 2;
  stack.run_for(duration::seconds(1));  // play a little: claims may fly
  const auto& st = player.stats();
  if (player.self_state().score !=
      apps::mazewar::kHitReward * static_cast<std::int64_t>(st.hits_confirmed) -
          apps::mazewar::kHitPenalty * static_cast<std::int64_t>(st.hits_suffered)) {
    return 3;
  }
  if (st.malformed_dropped != 0) return 4;
  player.leave();
  stack.run_for(duration::millis(200));
  return 0;
}

int run_role(const std::string& role) {
  const auto base =
      static_cast<std::uint16_t>(std::atoi(std::getenv("NDSM_APPS_BASE")));
  const char* id_env = std::getenv("NDSM_APPS_ID");
  const auto id = static_cast<std::uint32_t>(id_env ? std::atoi(id_env) : 0);
  if (role == "replfs-server") return run_replfs_server(base, id);
  if (role == "replfs-client") return run_replfs_client(base);
  if (role == "mazewar-player") return run_mazewar_player(base, id);
  return 64;
}

// --- parent-side process plumbing (as in udp_fleet_test.cpp) ---------------

pid_t spawn_role(const char* exe, const char* role, std::uint16_t base, std::uint32_t id) {
  const pid_t pid = fork();
  if (pid != 0) return pid;
  setenv("NDSM_APPS_ROLE", role, 1);
  setenv("NDSM_APPS_BASE", std::to_string(base).c_str(), 1);
  setenv("NDSM_APPS_ID", std::to_string(id).c_str(), 1);
  char* const argv[] = {const_cast<char*>(exe), nullptr};
  execv(exe, argv);
  _exit(63);
}

bool wait_exit(pid_t pid, int* exit_code, int max_quanta) {
  for (int i = 0; i < max_quanta; ++i) {
    int wstatus = 0;
    const pid_t r = waitpid(pid, &wstatus, WNOHANG);
    if (r == pid) {
      *exit_code = WIFEXITED(wstatus) ? WEXITSTATUS(wstatus) : 128 + WTERMSIG(wstatus);
      return true;
    }
    timespec ts{0, 50 * 1000 * 1000};
    nanosleep(&ts, nullptr);
  }
  return false;
}

void sleep_quanta(int quanta) {
  for (int i = 0; i < quanta; ++i) {
    timespec ts{0, 50 * 1000 * 1000};
    nanosleep(&ts, nullptr);
  }
}

TEST(AppsFleetTest, ReplfsFleetSurvivesServerCrashRestartMidSession) {
  const auto base = static_cast<std::uint16_t>(27000 + (getpid() % 1200) * 24);
  setenv("NDSM_APPS_BASE", std::to_string(base).c_str(), 1);  // for wal_path()
  for (std::uint32_t s = 1; s <= kReplfsServers; ++s) {
    std::remove(wal_path(s).c_str());  // fresh logs for this run
  }

  std::vector<pid_t> servers;
  for (std::uint32_t s = 1; s <= kReplfsServers; ++s) {
    servers.push_back(spawn_role("/proc/self/exe", "replfs-server", base, s));
    ASSERT_GT(servers.back(), 0);
  }
  const pid_t client = spawn_role("/proc/self/exe", "replfs-client", base, 0);
  ASSERT_GT(client, 0);

  // Mid-stream fail-stop: SIGKILL (no goodbye, no flush beyond the WAL's
  // own appends) then respawn on the same WAL file.
  sleep_quanta(20);  // ~1 s: the paced stream is a third of the way in
  kill(servers[1], SIGKILL);
  int dead_exit = -1;
  ASSERT_TRUE(wait_exit(servers[1], &dead_exit, 100));
  sleep_quanta(10);  // ~0.5 s of three-replica unavailability
  servers[1] = spawn_role("/proc/self/exe", "replfs-server", base, 2);
  ASSERT_GT(servers[1], 0);

  int client_exit = -1;
  const bool client_done = wait_exit(client, &client_exit, 2400);  // ~120 s

  for (const pid_t pid : servers) kill(pid, SIGTERM);
  int server_exit = -1;
  bool servers_done = true;
  for (const pid_t pid : servers) {
    servers_done = wait_exit(pid, &server_exit, 200) && servers_done;
  }
  for (const pid_t pid : servers) {  // belt and braces
    kill(pid, SIGKILL);
    waitpid(pid, nullptr, WNOHANG);
  }
  for (std::uint32_t s = 1; s <= kReplfsServers; ++s) {
    std::remove(wal_path(s).c_str());
  }

  ASSERT_TRUE(client_done) << "replfs client did not exit";
  EXPECT_EQ(client_exit, 0)
      << "client failed (2=writes stuck, 3=write failed, 4=reads stuck, "
         "5=an acked write was missing or wrong on a replica)";
  EXPECT_TRUE(servers_done) << "a server ignored SIGTERM";
}

TEST(AppsFleetTest, MazewarThreeProcessSessionConverges) {
  const auto base = static_cast<std::uint16_t>(56000 + (getpid() % 300) * 24);
  std::vector<pid_t> players;
  for (std::uint32_t id = 1; id <= kMazewarPlayers; ++id) {
    players.push_back(spawn_role("/proc/self/exe", "mazewar-player", base, id));
    ASSERT_GT(players.back(), 0);
  }
  bool all_done = true;
  for (std::size_t i = 0; i < players.size(); ++i) {
    int code = -1;
    const bool done = wait_exit(players[i], &code, 800);  // ~40 s
    all_done = all_done && done;
    EXPECT_TRUE(done) << "player " << (i + 1) << " did not exit";
    if (done) {
      EXPECT_EQ(code, 0) << "player " << (i + 1)
                         << " failed (2=no convergence, 3=score equation, "
                            "4=malformed frames)";
    }
  }
  for (const pid_t pid : players) {
    kill(pid, SIGKILL);
    waitpid(pid, nullptr, WNOHANG);
  }
  ASSERT_TRUE(all_done);
}

}  // namespace

int main(int argc, char** argv) {
  if (const char* role = std::getenv("NDSM_APPS_ROLE")) {
    return run_role(role);
  }
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
