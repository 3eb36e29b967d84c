// ReplFS over the middleware — the README flagship-app quickstart. The
// same apps::replfs client/server pair runs on both backends:
//
//   ./replfs sim [servers] [writes]         # deterministic simulation
//   ./replfs udp server <id> <servers> [port_base] [wal_file]
//   ./replfs udp client <servers> [port_base] [writes]
//
// Sim mode hosts N replicas plus one client in one World, commits a batch
// of writes through the two-phase protocol, and verifies every replica
// digests identically. UDP mode is one process per role on loopback:
// start servers 1..N (optionally with a WAL file for crash-durable
// state), then the client (node N+1) to drive writes and read them back.

#include <csignal>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "apps/replfs/replfs.hpp"
#include "common/log.hpp"
#include "net/link_spec.hpp"
#include "net/udp_stack.hpp"
#include "net/world.hpp"
#include "node/runtime.hpp"
#include "recovery/storage.hpp"
#include "sim/simulator.hpp"

namespace {

volatile std::sig_atomic_t g_stop = 0;
void on_signal(int) { g_stop = 1; }

std::vector<ndsm::NodeId> server_ids(std::uint32_t servers) {
  std::vector<ndsm::NodeId> ids;
  for (std::uint32_t n = 1; n <= servers; ++n) ids.emplace_back(n);
  return ids;
}

int run_sim(std::size_t servers, int writes) {
  using namespace ndsm;
  sim::Simulator sim(42);
  net::World world(sim);
  const MediumId medium = world.add_medium(net::ethernet100());
  node::StackConfig cfg;
  cfg.router = node::RouterPolicy::kFlooding;
  std::vector<std::unique_ptr<node::Runtime>> fleet;
  std::vector<NodeId> replicas;  // World assigns ids; don't assume 1..N
  for (std::size_t i = 0; i < servers + 1; ++i) {
    const NodeId id = world.add_node(Vec2{static_cast<double>(i) * 5.0, 0.0});
    world.attach(id, medium);
    fleet.push_back(std::make_unique<node::Runtime>(world, id, cfg));
    if (i < servers) replicas.push_back(id);
  }
  for (std::size_t i = 0; i < servers; ++i) {
    fleet[i]->add_service<apps::replfs::Server>("replfs", [](node::Runtime& rt) {
      return std::make_unique<apps::replfs::Server>(rt.transport(), rt.net_stack(),
                                                    rt.storage("replfs-wal"));
    });
  }
  node::Runtime& client_rt = *fleet.back();
  apps::replfs::Client client{client_rt.transport(), client_rt.net_stack(), replicas};
  int acked = 0;
  for (int i = 0; i < writes; ++i) {
    client.write("file-" + std::to_string(i), to_bytes("contents " + std::to_string(i)),
                 [&](Status s) { acked += s.is_ok() ? 1 : 0; });
  }
  sim.run_until(duration::seconds(60));
  bool replicas_match = true;
  const auto* first = fleet[0]->service<apps::replfs::Server>("replfs");
  for (std::size_t i = 1; i < servers; ++i) {
    const auto* srv = fleet[i]->service<apps::replfs::Server>("replfs");
    replicas_match = replicas_match && srv->digest() == first->digest();
  }
  std::cout << "replfs: " << acked << "/" << writes << " writes committed on "
            << servers << " replicas; replicas "
            << (replicas_match ? "identical" : "DIVERGED") << " (store digest "
            << first->digest() << ", commit p95 "
            << client.commit_latency().quantile(0.95) << " ms)\n";
  return acked == writes && replicas_match ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ndsm;
  const std::string mode = argc > 1 ? argv[1] : "";
  if (mode == "sim") {
    const auto servers = static_cast<std::size_t>(argc > 2 ? std::atoi(argv[2]) : 3);
    const int writes = argc > 3 ? std::atoi(argv[3]) : 20;
    return run_sim(servers, writes);
  }
  if (mode != "udp" || argc < 4) {
    std::cerr << "usage: replfs sim [servers] [writes]\n"
              << "       replfs udp server <id> <servers> [port_base] [wal_file]\n"
              << "       replfs udp client <servers> [port_base] [writes]\n";
    return 64;
  }
  Logger::instance().set_level(LogLevel::kWarn);
  std::signal(SIGINT, on_signal);
  std::signal(SIGTERM, on_signal);
  const std::string role = argv[2];

  if (role == "server") {
    if (argc < 5) {
      std::cerr << "replfs udp server <id> <servers> [port_base] [wal_file]\n";
      return 64;
    }
    const auto id = static_cast<std::uint32_t>(std::atoi(argv[3]));
    const auto servers = static_cast<std::uint32_t>(std::atoi(argv[4]));
    const auto base = static_cast<std::uint16_t>(argc > 5 ? std::atoi(argv[5]) : 45100);
    // With a wal_file the log lives on a file-backed volume and survives
    // the process; without one, on the Runtime's in-memory volume.
    const std::string wal_file = argc > 6 ? argv[6] : "";
    std::unique_ptr<recovery::StableStorage> file_wal;
    if (!wal_file.empty()) file_wal = std::make_unique<recovery::StableStorage>(wal_file);
    net::UdpStackConfig ncfg;
    ncfg.port_base = base;
    ncfg.peers = server_ids(servers + 1);
    net::UdpStack stack{NodeId{id}, ncfg};
    node::StackConfig scfg;
    scfg.router = node::RouterPolicy::kFlooding;
    node::Runtime rt{stack, scfg};
    rt.add_service<apps::replfs::Server>("replfs", [&file_wal](node::Runtime& r) {
      return std::make_unique<apps::replfs::Server>(
          r.transport(), r.net_stack(), file_wal ? *file_wal : r.storage("replfs-wal"));
    });
    std::cout << "replfs server " << id << "/" << servers << " on 127.0.0.1:"
              << stack.unicast_port() << (wal_file.empty() ? "" : " (wal: " + wal_file + ")")
              << "; ctrl-c to stop\n";
    stack.run_until([] { return g_stop != 0; }, duration::hours(24));
    const auto* srv = rt.service<apps::replfs::Server>("replfs");
    std::cout << "replfs server " << id << ": " << srv->store().size()
              << " keys, store digest " << srv->digest() << "\n";
    return 0;
  }

  if (role != "client") {
    std::cerr << "unknown role " << role << "\n";
    return 64;
  }
  const auto servers = static_cast<std::uint32_t>(std::atoi(argv[3]));
  const auto base = static_cast<std::uint16_t>(argc > 4 ? std::atoi(argv[4]) : 45100);
  const int writes = argc > 5 ? std::atoi(argv[5]) : 10;
  net::UdpStackConfig ncfg;
  ncfg.port_base = base;
  ncfg.peers = server_ids(servers + 1);
  net::UdpStack stack{NodeId{servers + 1}, ncfg};
  node::StackConfig scfg;
  scfg.router = node::RouterPolicy::kFlooding;
  node::Runtime rt{stack, scfg};
  apps::replfs::Client client{rt.transport(), stack, server_ids(servers)};
  int acked = 0;
  int failed = 0;
  for (int i = 0; i < writes; ++i) {
    client.write("file-" + std::to_string(i), to_bytes("contents " + std::to_string(i)),
                 [&, i](Status s) {
                   std::cout << "replfs client: write " << i << " "
                             << (s.is_ok() ? "committed on all replicas" : s.to_string())
                             << "\n";
                   (s.is_ok() ? acked : failed)++;
                 });
  }
  stack.run_until([&] { return g_stop != 0 || acked + failed == writes; },
                  duration::seconds(120));
  // Read one key back from every replica to show the replicated state.
  int verified = 0;
  int responses = 0;
  if (acked > 0) {
    const std::string probe = "file-0";
    for (std::uint32_t s = 1; s <= servers; ++s) {
      client.read(NodeId{s}, probe, [&](bool found, const Bytes& value) {
        responses++;
        verified += (found && to_string(value) == "contents 0") ? 1 : 0;
      });
    }
    stack.run_until([&] { return responses == static_cast<int>(servers); },
                    duration::seconds(10));
  }
  std::cout << "replfs client: " << acked << "/" << writes << " committed, probe \""
            << "file-0\" present on " << verified << "/" << servers
            << " replicas, commit p95 " << client.commit_latency().quantile(0.95)
            << " ms\n";
  return acked == writes && verified == static_cast<int>(servers) ? 0 : 1;
}
