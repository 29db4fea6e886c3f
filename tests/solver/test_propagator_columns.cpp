// A propagator is 12 plain solves: the compute_propagator contract.
//
//  - every column of qcd::compute_propagator, and its SolverResult, is
//    BITWISE what an independent WilsonSolver::solve() of that column's
//    point source returns -- warm operators and workspace pools change
//    no bits;
//  - repeated solves through one distributed solver stay bitwise equal
//    to the single-rank facade at every rank.
#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "comms/distributed_wilson.h"
#include "comms/socket.h"
#include "lattice/fill.h"
#include "qcd/propagator.h"
#include "qcd/qcd.h"
#include "solver/solver.h"
#include "sve/sve.h"

namespace svelat::solver {
namespace {

using S = simd::SimdComplex<double, simd::kVLB256, simd::SveFcmla>;
using Field = qcd::LatticeFermion<S>;

constexpr double kMass = 0.2;
constexpr double kTol = 1e-8;

/// Bitwise agreement of every deterministic field of two results (the
/// wall-clock fields are the only ones left out).
bool results_identical(const SolverResult& a, const SolverResult& b) {
  return a.algorithm == b.algorithm && a.preconditioner == b.preconditioner &&
         a.converged == b.converged && a.iterations == b.iterations &&
         a.inner_iterations == b.inner_iterations &&
         a.target_residual == b.target_residual &&
         a.final_residual == b.final_residual && a.true_residual == b.true_residual &&
         a.rhs_norm == b.rhs_norm && a.solution_norm == b.solution_norm &&
         a.residual_history == b.residual_history && a.comm_status == b.comm_status;
}

void expect_columns_are_independent_solves(Algorithm alg) {
  sve::VLGuard vl(8 * S::vlb);
  lattice::GridCartesian grid({4, 4, 4, 8},
                              lattice::GridCartesian::default_simd_layout(S::Nsimd()));
  qcd::GaugeField<S> gauge(&grid);
  qcd::random_gauge(SiteRNG(2018), gauge);
  const SolverParams params =
      SolverParams{}.with_algorithm(alg).with_tolerance(kTol).with_max_iterations(500);
  const lattice::Coordinate origin{1, 0, 2, 3};

  WilsonSolver<S> solver(gauge, kMass, params);
  qcd::Propagator<S> prop(&grid);
  const qcd::PropagatorReport report = qcd::compute_propagator(solver, origin, prop);
  ASSERT_EQ(report.columns.size(), prop.columns.size());

  Field b(&grid), x(&grid);
  for (int spin = 0; spin < qcd::Ns; ++spin) {
    for (int colour = 0; colour < qcd::Nc; ++colour) {
      const auto c = static_cast<std::size_t>(spin * qcd::Nc + colour);
      WilsonSolver<S> fresh(gauge, kMass, params);
      qcd::point_source(b, origin, spin, colour);
      x.set_zero();
      const SolverResult ref = fresh.solve(b, x);
      ASSERT_TRUE(ref.converged) << to_string(alg) << " col " << c;
      EXPECT_TRUE(results_identical(report.columns[c], ref))
          << to_string(alg) << " col " << c << ": " << report.columns[c].summary()
          << " vs " << ref.summary();
      EXPECT_EQ(norm2(prop.columns[c] - x), 0.0) << to_string(alg) << " col " << c;
    }
  }
}

TEST(PropagatorColumns, SchurCGColumnsAreIndependentSolvesBitwise) {
  expect_columns_are_independent_solves(Algorithm::kCG);
}

TEST(PropagatorColumns, SchurBiCGSTABColumnsAreIndependentSolvesBitwise) {
  expect_columns_are_independent_solves(Algorithm::kBiCGSTAB);
}

TEST(PropagatorColumns, DistributedRepeatedSolvesMatchSingleRankBitwise) {
  // Two right-hand sides solved in turn through ONE distributed solver per
  // rank (its workspaces warm for the second), over two socket ranks.
  sve::VLGuard vl(8 * S::vlb);
  const lattice::Coordinate dims{4, 4, 4, 8};
  constexpr int kSplit = 3;
  constexpr std::size_t kRhs = 2;
  const lattice::Coordinate layout = comms::split_simd_layout(dims, kSplit, S::Nsimd());
  lattice::GridCartesian grid(dims, layout);
  qcd::GaugeField<S> gauge(&grid);
  qcd::random_gauge(SiteRNG(42), gauge);
  std::vector<Field> b;
  for (unsigned c = 0; c < kRhs; ++c) {
    b.emplace_back(&grid);
    gaussian_fill(SiteRNG(1234 + c), b.back());
  }
  const SolverParams dparams = SolverParams{}
                                   .with_preconditioner(Preconditioner::kNone)
                                   .with_tolerance(kTol)
                                   .with_max_iterations(2000);

  // Single-rank reference on the same simd layout.
  std::vector<Field> x_ref;
  std::vector<SolverResult> r_ref;
  {
    WilsonSolver<S> ref(gauge, kMass, dparams);
    for (std::size_t c = 0; c < kRhs; ++c) {
      x_ref.emplace_back(&grid);
      x_ref.back().set_zero();
      r_ref.push_back(ref.solve(b[c], x_ref.back()));
      ASSERT_TRUE(r_ref.back().converged);
    }
  }

  constexpr int kRanks = 2;
  comms::SocketWorld world(kRanks);
  const comms::RankDecomposition decomp(dims, kSplit, kRanks, layout);
  std::vector<std::vector<Field>> xs(kRanks);
  std::vector<std::vector<SolverResult>> results(kRanks);
  set_force_serial(true);
  std::vector<std::thread> threads;
  for (int r = 0; r < kRanks; ++r)
    threads.emplace_back([&, r] {
      const auto ru = static_cast<std::size_t>(r);
      qcd::GaugeField<S> u_local(decomp.grid(r));
      for (int mu = 0; mu < lattice::Nd; ++mu)
        u_local.U[static_cast<std::size_t>(mu)] =
            comms::scatter_rank(decomp, gauge.U[static_cast<std::size_t>(mu)], r);
      comms::DistributedWilsonDirac<S> op(decomp, world.rank(r), r, u_local, kMass);
      WilsonSolver<S> ws(op, dparams);
      for (std::size_t c = 0; c < kRhs; ++c) {
        const Field b_local = comms::scatter_rank(decomp, b[c], r);
        xs[ru].emplace_back(decomp.grid(r));
        xs[ru].back().set_zero();
        results[ru].push_back(ws.solve(b_local, xs[ru].back()));
      }
    });
  for (std::thread& t : threads) t.join();
  set_force_serial(false);

  for (int r = 0; r < kRanks; ++r) {
    const auto ru = static_cast<std::size_t>(r);
    for (std::size_t c = 0; c < kRhs; ++c) {
      EXPECT_TRUE(results_identical(results[ru][c], r_ref[c]))
          << "rank " << r << " col " << c << ": " << results[ru][c].summary() << " vs "
          << r_ref[c].summary();
      EXPECT_EQ(norm2(xs[ru][c] - comms::scatter_rank(decomp, x_ref[c], r)), 0.0)
          << "rank " << r << " col " << c;
    }
  }
}

}  // namespace
}  // namespace svelat::solver
