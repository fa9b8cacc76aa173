#include "sim/cost_model.hpp"

#include <algorithm>
#include <cmath>

namespace pstap::sim {

CostModel::CostModel(pipeline::PipelineSpec spec, MachineModel machine)
    : spec_(std::move(spec)), machine_(std::move(machine)), work_(spec_.params) {
  spec_.validate();
  PSTAP_REQUIRE(machine_.node_flops > 0 && machine_.network_bandwidth > 0 &&
                    machine_.io_server_bandwidth > 0 && machine_.stripe_factor >= 1,
                "machine model rates must be positive");
  PSTAP_REQUIRE(machine_.straggler_servers <= machine_.stripe_factor,
                "straggler_servers cannot exceed the stripe factor");
  PSTAP_REQUIRE(machine_.straggler_slowdown >= 1.0,
                "straggler_slowdown must be >= 1 (1 = no straggler)");
}

Seconds CostModel::io_read_time(int nodes) const {
  const double bytes = work_.cpi_file_bytes();
  const double servers = static_cast<double>(machine_.stripe_factor);
  const double chunks = std::ceil(bytes / static_cast<double>(machine_.stripe_unit));
  // Server side: stripe units are spread round-robin, so each stripe
  // directory services ~chunks/servers requests of ~stripe_unit bytes.
  const double per_server_chunks = std::ceil(chunks / servers);
  const double per_server_bytes = bytes / servers;
  Seconds server_side = per_server_chunks * machine_.io_chunk_latency +
                        per_server_bytes / machine_.io_server_bandwidth;
  // Stragglers: striping is static, so the chunks landing on a slow server
  // cannot be rerouted — the read completes when the slowest server does.
  // Each straggler carries the same ~chunks/servers share at slowdown x
  // the cost, so the read time is gated by that server.
  if (machine_.straggler_servers > 0 && machine_.straggler_slowdown > 1.0) {
    const Seconds straggler_side =
        machine_.straggler_slowdown *
        (per_server_chunks * machine_.io_chunk_latency +
         per_server_bytes / machine_.io_server_bandwidth);
    server_side = std::max(server_side, straggler_side);
  }
  // Client side: each of the P reading nodes pulls bytes/P over its link.
  const Seconds client_side =
      (bytes / static_cast<double>(nodes)) / machine_.network_bandwidth;
  return std::max(server_side, client_side);
}

Seconds CostModel::net_time(double bytes, int nodes, int peers) const {
  if (bytes <= 0) return 0;
  const double per_node = bytes / static_cast<double>(nodes);
  return static_cast<double>(std::max(peers, 1)) * machine_.network_latency +
         per_node / machine_.network_bandwidth;
}

namespace {
Seconds overhead(const MachineModel& m, int nodes) {
  return m.overhead_per_log2 * std::log2(static_cast<double>(nodes) + 1.0);
}
}  // namespace

StageCost CostModel::cost(std::size_t index) const {
  PSTAP_REQUIRE(index < spec_.tasks.size(), "task index out of range");
  const pipeline::TaskSpec& task = spec_.tasks[index];
  const int p = task.nodes;
  const stap::TaskWork w = pipeline::task_work(work_, task.kind);

  // Each message touches every node of the task at the other end of the
  // edge. The sink has no out-edge; net_time prices 0 peers as 1 (the
  // detection reports).
  int recv_peers = 0;
  int send_peers = 0;
  for (const pipeline::Edge& e : spec_.edges()) {
    if (e.to == task.kind) recv_peers += spec_.nodes_of(e.from);
    if (e.from == task.kind) send_peers += spec_.nodes_of(e.to);
  }

  StageCost c;
  c.kind = task.kind;
  c.nodes = p;
  const double f = machine_.serial_fraction;
  c.compute = w.flops * (1.0 - f) / (static_cast<double>(p) * machine_.node_flops) +
              w.flops * f / machine_.node_flops + overhead(machine_, p);
  c.send = net_time(w.out_bytes, p, send_peers);
  if (!spec_.reads_files(task.kind)) {
    c.receive = net_time(w.in_bytes, p, recv_peers);
    c.occupancy = c.total();
    return c;
  }
  c.io = io_read_time(p);
  if (machine_.async_io) {
    // The next CPI's read overlaps compute and send of the current one;
    // the reported receive phase is the residual wait.
    c.occupancy = std::max(c.io, c.compute + c.send);
    c.receive = std::max<Seconds>(c.io - (c.compute + c.send), 0);
  } else {
    c.occupancy = c.io + c.compute + c.send;
    c.receive = c.io;
  }
  return c;
}

std::vector<StageCost> CostModel::all() const {
  std::vector<StageCost> costs;
  costs.reserve(spec_.tasks.size());
  for (std::size_t i = 0; i < spec_.tasks.size(); ++i) costs.push_back(cost(i));
  return costs;
}

}  // namespace pstap::sim
