// MICRO — google-benchmark microbenchmarks for the substrates: the crypto
// primitives SecMLR leans on, the event queue the simulator leans on, and
// whole-scenario throughput. Not a paper artefact; supports SECOVH's cost
// model and documents simulator capacity.

#include <benchmark/benchmark.h>

#include "core/wmsn.hpp"
#include "crypto/ctr.hpp"
#include "crypto/hmac.hpp"
#include "crypto/sha256.hpp"
#include "crypto/speck.hpp"
#include "crypto/tesla.hpp"
#include "mesh/mesh_routing.hpp"
#include "sim/simulator.hpp"

namespace {

using namespace wmsn;

void BM_Sha256(benchmark::State& state) {
  const Bytes data(static_cast<std::size_t>(state.range(0)), 0xab);
  for (auto _ : state) {
    auto digest = crypto::Sha256::hash(data);
    benchmark::DoNotOptimize(digest);
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Sha256)->Arg(64)->Arg(1024)->Arg(16384);

void BM_HmacSha256(benchmark::State& state) {
  crypto::Key key{};
  key.fill(0x11);
  const Bytes data(static_cast<std::size_t>(state.range(0)), 0xcd);
  for (auto _ : state) {
    auto mac = crypto::HmacSha256::mac(key, data);
    benchmark::DoNotOptimize(mac);
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_HmacSha256)->Arg(32)->Arg(256);

void BM_PacketMac(benchmark::State& state) {
  crypto::Key key{};
  key.fill(0x22);
  const Bytes msg(48, 0x55);  // a typical SecMLR MAC input
  std::uint64_t counter = 0;
  for (auto _ : state) {
    auto tag = crypto::packetMac(key, ++counter, msg);
    benchmark::DoNotOptimize(tag);
  }
}
BENCHMARK(BM_PacketMac);

void BM_SpeckBlock(benchmark::State& state) {
  crypto::Key key{};
  key.fill(0x33);
  crypto::Speck64 cipher(key);
  crypto::Speck64::Block block{};
  for (auto _ : state) {
    block = cipher.encrypt(block);
    benchmark::DoNotOptimize(block);
  }
  state.SetBytesProcessed(state.iterations() * 8);
}
BENCHMARK(BM_SpeckBlock);

void BM_SpeckCtr24B(benchmark::State& state) {
  crypto::Key key{};
  key.fill(0x44);
  crypto::SpeckCtr ctr(key);
  const Bytes reading(24, 0x77);  // one sensor reading
  std::uint64_t counter = 0;
  for (auto _ : state) {
    auto out = ctr.encrypt(++counter, reading);
    benchmark::DoNotOptimize(out);
  }
  state.SetBytesProcessed(state.iterations() * 24);
}
BENCHMARK(BM_SpeckCtr24B);

void BM_TeslaChainBuild(benchmark::State& state) {
  crypto::Key seed{};
  seed.fill(0x66);
  for (auto _ : state) {
    crypto::TeslaChain chain(seed, static_cast<std::size_t>(state.range(0)));
    benchmark::DoNotOptimize(chain.commitment());
  }
}
BENCHMARK(BM_TeslaChainBuild)->Arg(64)->Arg(1024)->Arg(8192);

void BM_SimulatorScheduleRun(benchmark::State& state) {
  sim::Simulator simulator;
  std::int64_t t = 0;
  for (auto _ : state) {
    for (int i = 0; i < 64; ++i)
      simulator.schedule(sim::Time{(t * 7919 + i * 131) % 100000}, [] {});
    simulator.run();
    ++t;
  }
  state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_SimulatorScheduleRun);

void BM_MeshRecompute(benchmark::State& state) {
  Rng rng(5);
  mesh::MeshTopologyParams params;
  params.wmrCount = static_cast<std::size_t>(state.range(0));
  const auto topo = mesh::makeMeshTopology(
      params, {{100, 100}, {500, 500}, {900, 100}}, rng);
  mesh::MeshRoutingTable table(topo);
  std::vector<bool> alive(topo.nodes.size(), true);
  for (auto _ : state) {
    table.recompute(alive);
    benchmark::DoNotOptimize(table.hopsToBase(0));
  }
}
BENCHMARK(BM_MeshRecompute)->Arg(9)->Arg(25);

void BM_FullScenarioRound(benchmark::State& state) {
  // Simulated-seconds-per-wall-second for a 100-node MLR round.
  core::ScenarioConfig cfg;
  cfg.protocol = core::ProtocolKind::kMlr;
  cfg.sensorCount = 100;
  cfg.gatewayCount = 3;
  cfg.feasiblePlaceCount = 6;
  cfg.rounds = 1;
  cfg.packetsPerSensorPerRound = 2;
  cfg.seed = 3;
  for (auto _ : state) {
    auto result = core::runScenario(cfg);
    benchmark::DoNotOptimize(result.delivered);
  }
}
BENCHMARK(BM_FullScenarioRound)->Unit(benchmark::kMillisecond);

void BM_SecMlrScenarioRound(benchmark::State& state) {
  core::ScenarioConfig cfg;
  cfg.protocol = core::ProtocolKind::kSecMlr;
  cfg.sensorCount = 100;
  cfg.gatewayCount = 3;
  cfg.feasiblePlaceCount = 6;
  cfg.rounds = 1;
  cfg.packetsPerSensorPerRound = 2;
  cfg.seed = 3;
  for (auto _ : state) {
    auto result = core::runScenario(cfg);
    benchmark::DoNotOptimize(result.delivered);
  }
}
BENCHMARK(BM_SecMlrScenarioRound)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
