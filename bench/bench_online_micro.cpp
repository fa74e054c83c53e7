// Micro-benchmarks of the online algorithms' per-slot decision cost
// (google-benchmark).  All decision rules are O(m) per slot; the window
// variants add O(w·m) for the completion pass.
#include <benchmark/benchmark.h>

#include "rightsizer/rightsizer.hpp"

namespace {

rs::core::Problem make_instance(int T, int m) {
  rs::util::Rng rng(static_cast<std::uint64_t>(T) * 31u +
                    static_cast<std::uint64_t>(m));
  return rs::core::materialize(rs::workload::random_instance(
      rng, rs::workload::InstanceFamily::kQuadratic, T, m, 1.5));
}

void BM_LcpDecide(benchmark::State& state) {
  const int m = static_cast<int>(state.range(0));
  const rs::core::Problem p = make_instance(512, m);
  for (auto _ : state) {
    rs::online::Lcp lcp;
    benchmark::DoNotOptimize(rs::online::run_online(lcp, p).back());
  }
  state.SetItemsProcessed(state.iterations() * p.horizon());
}

void BM_LcpWindowDecide(benchmark::State& state) {
  const int m = static_cast<int>(state.range(0));
  const int w = static_cast<int>(state.range(1));
  const rs::core::Problem p = make_instance(512, m);
  for (auto _ : state) {
    rs::online::Lcp lcp;
    benchmark::DoNotOptimize(rs::online::run_online(lcp, p, w).back());
  }
  state.SetItemsProcessed(state.iterations() * p.horizon());
}

void BM_LevelFlowDecide(benchmark::State& state) {
  const int m = static_cast<int>(state.range(0));
  const rs::core::Problem p = make_instance(512, m);
  for (auto _ : state) {
    rs::online::LevelFlow flow;
    benchmark::DoNotOptimize(rs::online::run_online(flow, p).back());
  }
  state.SetItemsProcessed(state.iterations() * p.horizon());
}

void BM_RandomizedRoundingDecide(benchmark::State& state) {
  const int m = static_cast<int>(state.range(0));
  const rs::core::Problem p = make_instance(512, m);
  for (auto _ : state) {
    rs::online::RandomizedRounding alg(7);
    benchmark::DoNotOptimize(rs::online::run_online(alg, p).back());
  }
  state.SetItemsProcessed(state.iterations() * p.horizon());
}

}  // namespace

BENCHMARK(BM_LcpDecide)->Arg(64)->Arg(512)->Arg(4096)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_LcpWindowDecide)->Args({256, 1})->Args({256, 8})
    ->Args({256, 32})->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_LevelFlowDecide)->Arg(64)->Arg(512)->Arg(4096)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_RandomizedRoundingDecide)->Arg(64)->Arg(512)
    ->Unit(benchmark::kMicrosecond);

BENCHMARK_MAIN();
