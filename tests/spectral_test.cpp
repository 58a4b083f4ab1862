// SPDX-License-Identifier: MIT
//
// Spectral solver tests: closed forms vs Jacobi vs Lanczos,
// cross-validated across the generator atlas.
#include "spectral/gap.hpp"

#include <cmath>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "graph/generators.hpp"
#include "spectral/closed_form.hpp"
#include "spectral/jacobi.hpp"
#include "spectral/lanczos.hpp"
#include "spectral/matvec.hpp"

namespace cobra {
namespace {

using spectral::dense_spectrum;
using spectral::second_eigenvalue_lanczos;
using spectral::spectral_report;

constexpr double kTol = 1e-6;

TEST(Matvec, RegularFastPathMatchesGeneric) {
  const Graph g = gen::cycle(12);
  std::vector<double> x(12);
  for (std::size_t i = 0; i < 12; ++i) x[i] = static_cast<double>(i) - 5.5;
  std::vector<double> y(12);
  spectral::multiply_normalized(g, x, y);
  for (Vertex v = 0; v < 12; ++v) {
    const double expected = (x[(v + 11) % 12] + x[(v + 1) % 12]) / 2.0;
    EXPECT_NEAR(y[v], expected, 1e-12);
  }
}

TEST(Matvec, StationaryDirectionIsEigenvector) {
  const Graph g = gen::lollipop(6, 4);  // irregular
  const auto phi = spectral::stationary_direction(g);
  std::vector<double> y(g.num_vertices());
  spectral::multiply_normalized(g, phi, y);
  for (std::size_t i = 0; i < y.size(); ++i) {
    EXPECT_NEAR(y[i], phi[i], 1e-12);
  }
  EXPECT_NEAR(spectral::norm(phi), 1.0, 1e-12);
}

TEST(Matvec, DeflateRemovesComponent) {
  const Graph g = gen::complete(6);
  const auto phi = spectral::stationary_direction(g);
  std::vector<double> x(6, 1.0);
  spectral::deflate(x, phi);
  EXPECT_NEAR(spectral::dot(x, phi), 0.0, 1e-12);
}

TEST(Jacobi, DiagonalMatrix) {
  std::vector<double> m = {3, 0, 0, 0, 1, 0, 0, 0, -2};
  const auto eig = spectral::jacobi_eigenvalues(m, 3);
  ASSERT_EQ(eig.size(), 3u);
  EXPECT_NEAR(eig[0], 3, 1e-12);
  EXPECT_NEAR(eig[1], 1, 1e-12);
  EXPECT_NEAR(eig[2], -2, 1e-12);
}

TEST(Jacobi, TwoByTwoKnown) {
  // [[2, 1], [1, 2]] has eigenvalues 3 and 1.
  std::vector<double> m = {2, 1, 1, 2};
  const auto eig = spectral::jacobi_eigenvalues(m, 2);
  EXPECT_NEAR(eig[0], 3, 1e-12);
  EXPECT_NEAR(eig[1], 1, 1e-12);
}

TEST(Jacobi, CycleSpectrumMatchesClosedForm) {
  const std::size_t n = 17;
  const auto numeric = dense_spectrum(gen::cycle(n));
  const auto exact = spectral::spectrum_cycle(n);
  ASSERT_EQ(numeric.size(), exact.size());
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(numeric[i], exact[i], kTol) << i;
  }
}

TEST(Jacobi, CompleteSpectrumMatchesClosedForm) {
  const std::size_t n = 12;
  const auto numeric = dense_spectrum(gen::complete(n));
  const auto exact = spectral::spectrum_complete(n);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(numeric[i], exact[i], kTol) << i;
  }
}

TEST(Jacobi, HypercubeSpectrumMatchesClosedForm) {
  const std::size_t d = 4;
  const auto numeric = dense_spectrum(gen::hypercube(d));
  const auto exact = spectral::spectrum_hypercube(d);
  ASSERT_EQ(numeric.size(), exact.size());
  for (std::size_t i = 0; i < numeric.size(); ++i) {
    EXPECT_NEAR(numeric[i], exact[i], kTol) << i;
  }
}

TEST(Tridiagonal, KnownEigenvalues) {
  // Tridiag with diag 0 and offdiag 1 on m points: eigenvalues
  // 2 cos(pi k / (m+1)).
  const std::size_t m = 9;
  const auto eig = spectral::tridiagonal_eigenvalues(
      std::vector<double>(m, 0.0), std::vector<double>(m - 1, 1.0));
  ASSERT_EQ(eig.size(), m);
  for (std::size_t k = 0; k < m; ++k) {
    const double expected =
        2.0 * std::cos(M_PI * static_cast<double>(m - k) /
                       static_cast<double>(m + 1));
    EXPECT_NEAR(eig[k], expected, 1e-10) << k;
  }
}

TEST(Tridiagonal, SingleElement) {
  const auto eig = spectral::tridiagonal_eigenvalues({5.0}, {});
  ASSERT_EQ(eig.size(), 1u);
  EXPECT_NEAR(eig[0], 5.0, 1e-12);
}

TEST(ClosedForm, PetersenLambda) {
  EXPECT_NEAR(spectral::lambda_petersen(), 2.0 / 3.0, 1e-15);
  const auto spectrum = dense_spectrum(gen::petersen());
  EXPECT_NEAR(spectrum[1], 1.0 / 3.0, kTol);
  EXPECT_NEAR(spectrum.back(), -2.0 / 3.0, kTol);
}

TEST(ClosedForm, TorusMatchesJacobi) {
  const std::vector<std::size_t> dims{5, 5};
  const Graph g = gen::torus(dims);
  const auto spectrum = dense_spectrum(g);
  double lambda_numeric =
      std::max(std::fabs(spectrum[1]), std::fabs(spectrum.back()));
  EXPECT_NEAR(lambda_numeric, spectral::lambda_torus(dims), kTol);
}

TEST(ClosedForm, CirculantMatchesJacobi) {
  const std::vector<std::uint32_t> offsets{1, 3};
  const Graph g = gen::circulant(15, offsets);
  const auto spectrum = dense_spectrum(g);
  const double lambda_numeric =
      std::max(std::fabs(spectrum[1]), std::fabs(spectrum.back()));
  EXPECT_NEAR(lambda_numeric, spectral::lambda_circulant(15, offsets), kTol);
}

struct SpectralCase {
  std::string label;
  Graph graph;
  double expected_lambda;
};

class SolversAgree : public ::testing::TestWithParam<SpectralCase> {};

TEST_P(SolversAgree, LanczosMatchesClosedForm) {
  const auto& c = GetParam();
  const auto result = second_eigenvalue_lanczos(c.graph);
  EXPECT_TRUE(result.converged) << c.label;
  EXPECT_NEAR(result.lambda_abs, c.expected_lambda, kTol) << c.label;
}

TEST_P(SolversAgree, JacobiMatchesClosedForm) {
  const auto& c = GetParam();
  if (c.graph.num_vertices() > 512) GTEST_SKIP();
  const auto spectrum = dense_spectrum(c.graph);
  const double lambda =
      std::max(std::fabs(spectrum[1]), std::fabs(spectrum.back()));
  EXPECT_NEAR(lambda, c.expected_lambda, kTol) << c.label;
}

std::vector<SpectralCase> spectral_cases() {
  std::vector<SpectralCase> cases;
  cases.push_back({"complete_16", gen::complete(16), spectral::lambda_complete(16)});
  cases.push_back({"cycle_15", gen::cycle(15), spectral::lambda_cycle(15)});
  cases.push_back({"cycle_16", gen::cycle(16), spectral::lambda_cycle(16)});
  cases.push_back({"hypercube_4", gen::hypercube(4), spectral::lambda_hypercube(4)});
  cases.push_back({"torus_5x7", gen::torus({5, 7}), spectral::lambda_torus({5, 7})});
  cases.push_back({"petersen", gen::petersen(), spectral::lambda_petersen()});
  cases.push_back({"circ_21", gen::circulant(21, {1, 2, 5}),
                   spectral::lambda_circulant(21, {1, 2, 5})});
  cases.push_back({"bipartite_4_6", gen::complete_bipartite(4, 6),
                   spectral::lambda_complete_bipartite()});
  return cases;
}

INSTANTIATE_TEST_SUITE_P(
    ClosedForms, SolversAgree, ::testing::ValuesIn(spectral_cases()),
    [](const ::testing::TestParamInfo<SpectralCase>& info) {
      return info.param.label;
    });

TEST(Lanczos, LargeCycleMatchesClosedForm) {
  // n = 2001 exercises the sparse path well beyond Jacobi's reach. The
  // cycle is Lanczos's hardest case — neighbouring eigenvalues differ by
  // O(1/n^2) ~ 5e-6 — so accuracy is bounded by the cluster spacing, not
  // the solver tolerance.
  const std::size_t n = 2001;
  const auto result = second_eigenvalue_lanczos(gen::cycle(n));
  EXPECT_NEAR(result.lambda_abs, spectral::lambda_cycle(n), 5e-5);
}

TEST(Lanczos, RandomRegularNearRamanujan) {
  Rng rng(7);
  const std::size_t r = 8;
  const Graph g = gen::connected_random_regular(2000, r, rng);
  const auto result = second_eigenvalue_lanczos(g);
  const double ramanujan = 2.0 * std::sqrt(static_cast<double>(r - 1)) /
                           static_cast<double>(r);
  // a.a.s. lambda is within a small factor of the Ramanujan bound.
  EXPECT_LT(result.lambda_abs, ramanujan * 1.2);
  EXPECT_GT(result.lambda_abs, ramanujan * 0.8);
}

TEST(Lanczos, BipartiteDetectsMinusOne) {
  const auto result = second_eigenvalue_lanczos(gen::hypercube(6));
  EXPECT_NEAR(result.lambda_min, -1.0, 1e-8);
  EXPECT_NEAR(result.lambda_abs, 1.0, 1e-8);
}

TEST(SpectralReport, SmallUsesJacobiLargeUsesLanczos) {
  const auto small = spectral_report(gen::cycle(64));
  EXPECT_EQ(small.method, "jacobi");
  EXPECT_NEAR(small.lambda, spectral::lambda_cycle(64), kTol);
  const auto large = spectral_report(gen::cycle(1001));
  EXPECT_EQ(large.method, "lanczos");
  // Tolerance limited by the cycle's O(1/n^2) eigenvalue clustering.
  EXPECT_NEAR(large.lambda, spectral::lambda_cycle(1001), 5e-5);
}

TEST(SpectralReport, GapIsOneMinusLambda) {
  const auto report = spectral_report(gen::petersen());
  EXPECT_NEAR(report.gap, 1.0 - 2.0 / 3.0, kTol);
}

}  // namespace
}  // namespace cobra
