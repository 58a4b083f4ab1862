// SPDX-License-Identifier: MIT
//
// M1b — substrate microbenchmarks: spectral solver cost.
#include <benchmark/benchmark.h>

#include "graph/generators.hpp"
#include "rand/rng.hpp"
#include "spectral/jacobi.hpp"
#include "spectral/lanczos.hpp"
#include "spectral/matvec.hpp"

namespace {

void BM_MatvecNormalized(benchmark::State& state) {
  cobra::Rng rng(1);
  const auto g = cobra::gen::connected_random_regular(
      static_cast<std::size_t>(state.range(0)), 8, rng);
  std::vector<double> x(g.num_vertices(), 1.0);
  std::vector<double> y(g.num_vertices());
  for (auto _ : state) {
    cobra::spectral::multiply_normalized(g, x, y);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(2 * g.num_edges()));
}
BENCHMARK(BM_MatvecNormalized)->Arg(4096)->Arg(65536);

void BM_Lanczos(benchmark::State& state) {
  cobra::Rng rng(2);
  const auto g = cobra::gen::connected_random_regular(
      static_cast<std::size_t>(state.range(0)), 8, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(cobra::spectral::second_eigenvalue_lanczos(g));
  }
}
BENCHMARK(BM_Lanczos)->Arg(1024)->Arg(16384)->Unit(benchmark::kMillisecond);

void BM_JacobiDense(benchmark::State& state) {
  const auto g = cobra::gen::torus(
      {static_cast<std::size_t>(state.range(0)),
       static_cast<std::size_t>(state.range(0))});
  for (auto _ : state) {
    benchmark::DoNotOptimize(cobra::spectral::dense_spectrum(g));
  }
}
BENCHMARK(BM_JacobiDense)->Arg(8)->Arg(16)->Unit(benchmark::kMillisecond);

}  // namespace
