// Unified parameter and result types of the solver facade (solver/solver.h).
//
// Every Wilson solve in the tree -- CG, BiCGSTAB, mixed-precision defect
// correction, preconditioned or not -- takes one SolverParams and returns
// one SolverResult.
#pragma once

#include <cstdio>
#include <string>
#include <vector>

#include "comms/comm_error.h"

namespace svelat::solver {

/// Iterative algorithm driving the outer solve.
enum class Algorithm {
  kCG,        ///< CG on the normal equations (hermitian positive definite)
  kBiCGSTAB,  ///< BiCGSTAB directly on the non-hermitian system
  kMixedCG,   ///< double-precision defect correction around a single-precision CG
};

/// Operator formulation the algorithm runs on.
enum class Preconditioner {
  kNone,         ///< full-lattice Wilson operator
  kSchurEvenOdd  ///< Schur complement on the even half-checkerboard sublattice
};

inline const char* to_string(Algorithm a) {
  switch (a) {
    case Algorithm::kCG: return "cg";
    case Algorithm::kBiCGSTAB: return "bicgstab";
    case Algorithm::kMixedCG: return "mixed_cg";
  }
  return "?";
}

inline const char* to_string(Preconditioner p) {
  switch (p) {
    case Preconditioner::kNone: return "none";
    case Preconditioner::kSchurEvenOdd: return "schur_even_odd";
  }
  return "?";
}

/// Knobs of a Wilson solve.  The defaults are the production
/// configuration: Schur-preconditioned CG on true half-checkerboard
/// fields (the path measured at 50.2% of the zero-padded instruction
/// count per iteration), solved to |r|/|b| <= 1e-9.
///
/// The mixed-precision fields reproduce the tuning the defect-correction
/// solver shipped with (inner single-precision Schur CG to 1e-4, at most
/// 400 inner iterations per restart, at most 24 outer restarts); they are
/// ignored by the direct algorithms.
struct SolverParams {
  Algorithm algorithm = Algorithm::kCG;
  Preconditioner preconditioner = Preconditioner::kSchurEvenOdd;
  double tolerance = 1e-9;   ///< target |r|/|b| of the full system
  int max_iterations = 1000; ///< outer iteration cap (CG/BiCGSTAB)

  // Mixed-precision (Algorithm::kMixedCG) knobs.
  double inner_tolerance = 1e-4;  ///< single-precision inner CG target
  int inner_max_iterations = 400; ///< inner iteration cap per restart
  int max_restarts = 24;          ///< outer defect-correction restart cap

  int verbosity = 0;  ///< 0 silent, >= 1 one summary line per solve

  // Chainable named setters, so call sites can spell only what differs
  // from production defaults (SolverParams stays an aggregate: designated
  // initializers work too).
  SolverParams& with_algorithm(Algorithm a) { algorithm = a; return *this; }
  SolverParams& with_preconditioner(Preconditioner p) {
    preconditioner = p;
    return *this;
  }
  SolverParams& with_tolerance(double t) { tolerance = t; return *this; }
  SolverParams& with_max_iterations(int n) { max_iterations = n; return *this; }
  SolverParams& with_inner_tolerance(double t) { inner_tolerance = t; return *this; }
  SolverParams& with_inner_max_iterations(int n) {
    inner_max_iterations = n;
    return *this;
  }
  SolverParams& with_max_restarts(int n) { max_restarts = n; return *this; }
  SolverParams& with_verbosity(int v) { verbosity = v; return *this; }
  /// No-op: exists solely because svbench/probes.cpp still calls it.  It
  /// goes with the benchmark change that drops that probe.
  SolverParams& with_block_width(int) { return *this; }
};

/// Outcome of one solve.  Every field is populated by every algorithm x
/// preconditioner combination; non-convergence is reported here (converged
/// == false), never asserted, and never retried.
struct SolverResult {
  Algorithm algorithm = Algorithm::kCG;
  Preconditioner preconditioner = Preconditioner::kNone;

  bool converged = false;
  int iterations = 0;        ///< outer iterations (CG/BiCGSTAB steps; MixedCG restarts)
  int inner_iterations = 0;  ///< accumulated single-precision iterations (MixedCG)

  double target_residual = 0.0;  ///< requested |r|/|b|
  double final_residual = 0.0;   ///< recursion residual |r|/|b| at exit
  double true_residual = 0.0;    ///< recomputed |b - M x| / |b| on the full system

  // Field-norm bookkeeping of the solved system.
  double rhs_norm = 0.0;       ///< |b|
  double solution_norm = 0.0;  ///< |x| at exit

  /// Wall-clock seconds of the facade-level solve (monotonic clock;
  /// machine-dependent, never gated).  1 / wall_seconds is the
  /// solves-per-second figure the wall-clock metrics layer reports.
  double wall_seconds = 0.0;

  std::vector<double> residual_history;  ///< |r|/|b| per outer iteration

  // Distributed solves: a communication failure that survived the retry
  // policy lands here as a typed verdict (converged stays false) instead
  // of propagating as an abort or a hang.  Always kOk for single-rank
  // operators.
  comms::CommStatus comm_status = comms::CommStatus::kOk;
  std::string comm_detail;  ///< CommError::what() of the failure, if any

  /// One-line human-readable summary, e.g. for verbose solves.
  std::string summary() const;
};

inline std::string SolverResult::summary() const {
  char inner[48] = "";
  if (inner_iterations > 0)
    std::snprintf(inner, sizeof(inner), " (+%d inner)", inner_iterations);
  char comm[96] = "";
  if (comm_status != comms::CommStatus::kOk)
    std::snprintf(comm, sizeof(comm), " [comm failure: %s]",
                  comms::comm_status_name(comm_status));
  char wall[48] = "";
  if (wall_seconds > 0.0)
    std::snprintf(wall, sizeof(wall), ", %.1f ms", wall_seconds * 1e3);
  char buf[384];
  std::snprintf(buf, sizeof(buf),
                "%s/%s: %s, %d iterations%s, |r|/|b| %.3e (true %.3e)%s%s",
                to_string(algorithm), to_string(preconditioner),
                converged ? "converged" : "NOT converged", iterations, inner,
                final_residual, true_residual, wall, comm);
  return buf;
}

}  // namespace svelat::solver
