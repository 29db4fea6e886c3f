// WilsonSolver: the one entry point for Wilson-operator solves.
//
// The paper's production cost is dominated by iterative Wilson solves
// (Sec. II-A/II-C).  This facade owns the operator setup and the
// half-checkerboard workspaces, and dispatches every algorithm x
// preconditioner combination of SolverParams onto the true half-volume
// kernels:
//
//   kCG       x kNone          CG on the normal equations M^dag M
//   kCG       x kSchurEvenOdd  CG on Mhat^dag Mhat, half-volume fields
//   kBiCGSTAB x kNone          BiCGSTAB directly on M
//   kBiCGSTAB x kSchurEvenOdd  BiCGSTAB directly on Mhat, half-volume
//   kMixedCG  x kNone          double defect correction, fp32 inner CG on M
//   kMixedCG  x kSchurEvenOdd  double defect correction, fp32 inner Schur CG
//
// Construction pays the expensive setup once -- Schur operator (stencil
// tables + parity-split gauge), single-precision gauge copy, solver
// scratch fields -- so repeated solves against the same configuration
// (the 12 spin-colour columns of a propagator) only pay iterations.
//
// The zero-padded even-odd formulation is not reachable from here: it is
// a test-only oracle (tests/qcd/padded_oracle.h).
#pragma once

#include <cmath>
#include <optional>
#include <type_traits>

#include "comms/distributed_wilson.h"
#include "qcd/even_odd.h"
#include "solver/bicgstab.h"
#include "solver/cg.h"
#include "solver/mixed_precision.h"
#include "solver/result.h"
#include "solver/workspace.h"
#include "support/logging.h"
#include "support/metrics.h"
#include "support/timer.h"

namespace svelat::solver {

namespace detail {

/// Rebind a SimdComplex scalar to another real type: kMixedCG derives its
/// single-precision inner scalar from the double-precision outer one,
/// keeping the vector length and functor backend.
template <class S, class R>
struct rebind_real;
template <class T, std::size_t VLB, class Policy, class R>
struct rebind_real<simd::SimdComplex<T, VLB, Policy>, R> {
  using type = simd::SimdComplex<R, VLB, Policy>;
};
template <class S, class R>
using rebind_real_t = typename rebind_real<S, R>::type;

}  // namespace detail

template <class S>
class WilsonSolver {
 public:
  using Fermion = qcd::LatticeFermion<S>;
  using HalfFermion = qcd::HalfLatticeFermion<S>;
  /// Inner scalar of Algorithm::kMixedCG: same VL and backend, fp32 lanes.
  using InnerScalar = detail::rebind_real_t<S, float>;

  WilsonSolver(const qcd::GaugeField<S>& gauge, double mass, SolverParams params = {})
      : params_(params) {
    switch (params_.algorithm) {
      case Algorithm::kCG:
      case Algorithm::kBiCGSTAB:
        if (schur()) {
          eo_.emplace(gauge, mass);
          ws_.emplace(*eo_);
        } else {
          dirac_.emplace(gauge, mass);
        }
        break;
      case Algorithm::kMixedCG: {
        SVELAT_ASSERT_MSG((std::is_same_v<typename S::real_type, double>),
                          "MixedCG needs a double-precision outer scalar");
        dirac_.emplace(gauge, mass);  // outer defect-correction operator
        grid_f_.emplace(
            gauge.grid()->fdimensions(),
            lattice::GridCartesian::default_simd_layout(InnerScalar::Nsimd()));
        gauge_f_.emplace(&*grid_f_);
        for (int mu = 0; mu < lattice::Nd; ++mu)
          convert_field(gauge_f_->U[mu], gauge.U[mu]);
        if (schur()) {
          eo_f_.emplace(*gauge_f_, mass);
          ws_f_.emplace(*eo_f_);
        } else {
          dirac_f_.emplace(*gauge_f_, mass);
        }
        r_.emplace(gauge.grid());
        mx_.emplace(gauge.grid());
        e_d_.emplace(gauge.grid());
        r_f_.emplace(&*grid_f_);
        e_f_.emplace(&*grid_f_);
        break;
      }
    }
  }

  /// Distributed mode: the facade over one rank's halo-exchanged Wilson
  /// operator (comms/distributed_wilson.h).  `b` and `x` are this rank's
  /// slabs; reductions inside the Krylov loop are exact global ring
  /// reductions, so every rank's SolverResult is bitwise identical to the
  /// single-rank solve on the gathered fields.  Checkerboarding across
  /// the rank cut is not implemented, so the preconditioner is forced to
  /// kNone; kMixedCG would need a second fp32 operator per rank.
  WilsonSolver(const comms::DistributedWilsonDirac<S>& op, SolverParams params = {})
      : params_(params), dop_(&op) {
    SVELAT_ASSERT_MSG(params_.algorithm != Algorithm::kMixedCG,
                      "distributed solves support kCG and kBiCGSTAB only");
    params_.preconditioner = Preconditioner::kNone;
  }

  // Operators and workspaces hold pointers to member grids; moving or
  // copying the solver would dangle them.
  WilsonSolver(const WilsonSolver&) = delete;
  WilsonSolver& operator=(const WilsonSolver&) = delete;

  /// Solve M x = b.  `x` carries the initial guess for the kNone paths;
  /// the Schur paths always start the preconditioned system from zero and
  /// overwrite both parities of `x`.  Non-convergence is reported through
  /// SolverResult::converged, never asserted and never retried.
  SolverResult solve(const Fermion& b, Fermion& x) {
    // Facade-level wall clock: the "solve" region's calls/sec IS the
    // solves-per-second figure (no byte/flop model -- the inner kernels
    // carry those at dhop / linalg granularity).
    metrics::ScopedTimer mt("solve");
    StopWatch sw;
    SolverResult res;
    if (dop_ != nullptr) {
      res = distributed_solve(b, x);
    } else {
      switch (params_.algorithm) {
        case Algorithm::kCG:
          res = schur() ? schur_cg(*eo_, *ws_, b, x, params_.tolerance,
                                   params_.max_iterations, &kws_half_)
                        : solve_wilson(*dirac_, b, x, params_.tolerance,
                                       params_.max_iterations, &kws_);
          break;
        case Algorithm::kBiCGSTAB:
          res = schur() ? schur_bicgstab(*eo_, *ws_, b, x, params_.tolerance,
                                         params_.max_iterations, &kws_half_)
                        : solve_wilson_bicgstab(*dirac_, b, x, params_.tolerance,
                                                params_.max_iterations, &kws_);
          break;
        case Algorithm::kMixedCG:
          res = mixed(b, x);
          break;
      }
    }
    res.algorithm = params_.algorithm;
    res.preconditioner = params_.preconditioner;
    res.target_residual = params_.tolerance;
    // After a comm failure the mesh is broken: the global reduction behind
    // solution_norm would throw the very error the typed verdict already
    // carries.  x is partial anyway -- report a zero norm.
    if (res.comm_status == comms::CommStatus::kOk)
      res.solution_norm = solution_norm(x);
    res.wall_seconds = sw.seconds();
    if (params_.verbosity >= 1) log_info() << "WilsonSolver " << res.summary();
    return res;
  }

 private:
  bool schur() const { return params_.preconditioner == Preconditioner::kSchurEvenOdd; }

  double solution_norm(const Fermion& x) const {
    return std::sqrt(dop_ != nullptr ? dop_->global_norm2(x) : norm2(x));
  }

  /// The distributed dispatch: bind this rank's slabs to the operator and
  /// run the operator-generic Krylov loop on them.  A communication
  /// failure that survives the retry ladder surfaces as a typed verdict
  /// in the result (comm_status / comm_detail), never an abort or a hang.
  SolverResult distributed_solve(const Fermion& b, Fermion& x) {
    SolverResult res;
    // The rank-slab bindings live in the solver (lazily built on first
    // use) so repeated distributed solves reuse their field storage; the
    // copy-assignments below reuse existing capacity.
    if (!db_) db_.emplace(dop_);
    if (!dx_) dx_.emplace(dop_);
    comms::DistributedFermion<S>&db = *db_, &dx = *dx_;
    db.field = b;
    dx.field = x;
    try {
      const comms::DistributedWilsonOp<S> op{dop_};
      res = params_.algorithm == Algorithm::kCG
                ? solve_wilson(op, db, dx, params_.tolerance,
                               params_.max_iterations, &kws_d_)
                : solve_wilson_bicgstab(op, db, dx, params_.tolerance,
                                        params_.max_iterations, &kws_d_);
      x = dx.field;
    } catch (const comms::CommError& e) {
      res.converged = false;
      res.comm_status = e.status();
      res.comm_detail = e.what();
    }
    return res;
  }

  /// Schur CG: normal equations on Mhat over even half fields.  Static and
  /// scalar-generic because kMixedCG reuses it for the fp32 inner solve.
  /// The half-field pool `kws` makes the inner CG allocation-free.
  template <class T>
  static SolverResult schur_cg(
      const qcd::SchurEvenOddWilson<T>& eo, qcd::SchurWorkspace<T>& ws,
      const qcd::LatticeFermion<T>& b, qcd::LatticeFermion<T>& x,
      double tolerance, int max_iterations,
      SolverWorkspace<qcd::HalfLatticeFermion<T>>* kws) {
    using HF = qcd::HalfLatticeFermion<T>;
    return qcd::detail::schur_half_solve(
        eo, ws, b, x, [&](const HF& b_prime, HF& x_e) {
          eo.mhat_dag(b_prime, ws.rhs);
          const auto op = [&eo](const HF& in, HF& out) { eo.mhat_dag_mhat(in, out); };
          return conjugate_gradient(op, ws.rhs, x_e, tolerance, max_iterations, kws);
        });
  }

  /// Schur BiCGSTAB: Mhat is not hermitian, so BiCGSTAB solves
  /// Mhat x_e = b'_e directly -- no normal equations.
  template <class T>
  static SolverResult schur_bicgstab(
      const qcd::SchurEvenOddWilson<T>& eo, qcd::SchurWorkspace<T>& ws,
      const qcd::LatticeFermion<T>& b, qcd::LatticeFermion<T>& x,
      double tolerance, int max_iterations,
      SolverWorkspace<qcd::HalfLatticeFermion<T>>* kws) {
    using HF = qcd::HalfLatticeFermion<T>;
    return qcd::detail::schur_half_solve(
        eo, ws, b, x, [&](const HF& b_prime, HF& x_e) {
          const auto op = [&eo](const HF& in, HF& out) { eo.mhat(in, out); };
          return bicgstab(op, b_prime, x_e, tolerance, max_iterations, kws);
        });
  }

  /// Mixed-precision defect correction: an outer double-precision residual
  /// loop wrapping an inner single-precision solve of M e = r on the
  /// converted gauge field.  params_.max_restarts caps the outer cycles;
  /// params_.inner_tolerance / inner_max_iterations tune the inner CG.
  SolverResult mixed(const Fermion& b, Fermion& x) {
    SolverResult stats;
    const double b2 = norm2(b);
    SVELAT_ASSERT_MSG(b2 > 0.0, "mixed CG needs a non-zero right-hand side");
    stats.rhs_norm = std::sqrt(b2);

    Fermion &r = *r_, &mx = *mx_, &e_d = *e_d_;
    qcd::LatticeFermion<InnerScalar> &r_f = *r_f_, &e_f = *e_f_;

    dirac_->m(x, mx);
    sub(r, b, mx);
    double rel = std::sqrt(norm2(r) / b2);
    stats.residual_history.push_back(rel);

    while (rel > params_.tolerance && stats.iterations < params_.max_restarts) {
      // Inner solve in single precision: M e = r (approximately).
      convert_field(r_f, r);
      e_f.set_zero();
      const SolverResult inner =
          schur() ? schur_cg(*eo_f_, *ws_f_, r_f, e_f, params_.inner_tolerance,
                             params_.inner_max_iterations, &kws_half_f_)
                  : solve_wilson(*dirac_f_, r_f, e_f, params_.inner_tolerance,
                                 params_.inner_max_iterations, &kws_f_);
      stats.inner_iterations += inner.iterations;

      // Defect correction in double precision; the residual is re-derived
      // after *every* correction, so final_residual and the history always
      // reflect the returned x (including a solve that only reaches
      // tolerance on its last permitted restart).
      convert_field(e_d, e_f);
      x += e_d;
      dirac_->m(x, mx);
      sub(r, b, mx);
      rel = std::sqrt(norm2(r) / b2);
      stats.residual_history.push_back(rel);
      ++stats.iterations;
    }

    // The outer recursion residual *is* the true residual here: each cycle
    // recomputes r = b - M x against the double-precision operator, so no
    // extra operator application is needed.
    stats.final_residual = rel;
    stats.true_residual = rel;
    // Accept with 10x headroom over the target: the defect-correction
    // residual stalls at the inner (fp32) precision floor.
    stats.converged = rel <= params_.tolerance * 10;
    return stats;
  }

  SolverParams params_;
  /// Distributed mode: the externally owned halo-exchanged operator
  /// (null for the classic gauge-field constructors).
  const comms::DistributedWilsonDirac<S>* dop_ = nullptr;

  // Engaged per configuration (see constructor): only what the chosen
  // algorithm x preconditioner combination needs is built.
  std::optional<qcd::WilsonDirac<S>> dirac_;
  std::optional<qcd::SchurEvenOddWilson<S>> eo_;
  std::optional<qcd::SchurWorkspace<S>> ws_;

  // kMixedCG state: single-precision copy of the configuration plus the
  // outer-loop scratch fields, all allocated once at construction.
  std::optional<lattice::GridCartesian> grid_f_;
  std::optional<qcd::GaugeField<InnerScalar>> gauge_f_;
  std::optional<qcd::SchurEvenOddWilson<InnerScalar>> eo_f_;
  std::optional<qcd::SchurWorkspace<InnerScalar>> ws_f_;
  std::optional<qcd::WilsonDirac<InnerScalar>> dirac_f_;
  std::optional<Fermion> r_, mx_, e_d_;
  std::optional<qcd::LatticeFermion<InnerScalar>> r_f_, e_f_;

  // Krylov work-field pools (solver/workspace.h), one per grid / field
  // type a configuration can touch.  Populated lazily on the first solve
  // and reused ever after: a warm solve() constructs no fermion fields
  // (pinned by tests/solver/test_allocation.cpp).
  SolverWorkspace<Fermion> kws_;
  SolverWorkspace<HalfFermion> kws_half_;
  SolverWorkspace<qcd::LatticeFermion<InnerScalar>> kws_f_;
  SolverWorkspace<qcd::HalfLatticeFermion<InnerScalar>> kws_half_f_;
  SolverWorkspace<comms::DistributedFermion<S>> kws_d_;
  /// Distributed-mode rank-slab bindings, reused across solves.
  std::optional<comms::DistributedFermion<S>> db_, dx_;
};

}  // namespace svelat::solver
