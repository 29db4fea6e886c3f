// Arithmetic intrinsics (real; complex rotations live in sve_complex.h).
//
// ACLE predication suffixes:
//   _z : inactive lanes zeroed
//   _m : inactive lanes keep the value of the first vector operand
//   _x : inactive lanes are "don't care"; the simulator makes them
//        deterministic by treating _x like _m, which is one of the
//        behaviours real implementations exhibit.
//
// Every register-taking intrinsic deduces the register width Bytes from its
// operands (sve_types.h); producers without register operands (svdup,
// svindex) take it as a defaulted template argument.
#pragma once

#include <cmath>
#include <type_traits>

#include "sve/sve_detail.h"

namespace svelat::sve {

namespace detail {

enum class PredMode { kZero, kMerge };

template <typename E, std::size_t Bytes, typename Op>
inline svreg<E, Bytes> binary_impl(const svbool_t& pg, const svreg<E, Bytes>& a,
                                   const svreg<E, Bytes>& b, Op op, PredMode mode,
                                   InsnClass cls, const char* mnemonic) {
  record(cls, mnemonic, suffix<E>());
  svreg<E, Bytes> r;
  const unsigned n = reg_lanes<E, Bytes>();
  for (unsigned i = 0; i < n; ++i) {
    if (pred_elem<E>(pg, i)) {
      r.lane[i] = op(a.lane[i], b.lane[i]);
    } else {
      r.lane[i] = (mode == PredMode::kZero) ? E{} : a.lane[i];
    }
  }
  clear_inactive_storage(r, n);
  return r;
}

template <typename E, std::size_t Bytes, typename Op>
inline svreg<E, Bytes> unary_impl(const svbool_t& pg, const svreg<E, Bytes>& a, Op op,
                                  PredMode mode, InsnClass cls, const char* mnemonic) {
  record(cls, mnemonic, suffix<E>());
  svreg<E, Bytes> r;
  const unsigned n = reg_lanes<E, Bytes>();
  for (unsigned i = 0; i < n; ++i) {
    if (pred_elem<E>(pg, i)) {
      r.lane[i] = op(a.lane[i]);
    } else {
      r.lane[i] = (mode == PredMode::kZero) ? E{} : a.lane[i];
    }
  }
  clear_inactive_storage(r, n);
  return r;
}

// Fused multiply-accumulate family.  sign_acc / sign_prod give
// FMLA(+acc,+ab), FMLS(+acc,-ab), FNMLA(-acc,-ab), FNMLS(-acc,+ab).
template <typename E, std::size_t Bytes>
inline svreg<E, Bytes> fma_impl(const svbool_t& pg, const svreg<E, Bytes>& acc,
                                const svreg<E, Bytes>& a, const svreg<E, Bytes>& b,
                                int sign_acc, int sign_prod, const char* mnemonic) {
  record(InsnClass::kFMla, mnemonic, suffix<E>());
  svreg<E, Bytes> r;
  const unsigned n = reg_lanes<E, Bytes>();
  for (unsigned i = 0; i < n; ++i) {
    if (pred_elem<E>(pg, i)) {
      r.lane[i] = static_cast<E>(sign_acc > 0 ? acc.lane[i] : -acc.lane[i]) +
                  static_cast<E>(sign_prod > 0 ? a.lane[i] * b.lane[i]
                                               : -(a.lane[i] * b.lane[i]));
    } else {
      r.lane[i] = acc.lane[i];
    }
  }
  clear_inactive_storage(r, n);
  return r;
}

}  // namespace detail

// --- Broadcast / immediates -----------------------------------------------
template <typename E, std::size_t Bytes = kMaxVectorBytes>
inline svreg<E, Bytes> svdup(E value) {
  detail::record(InsnClass::kDup, "dup z", detail::suffix<E>());
  svreg<E, Bytes> r;
  const unsigned n = detail::reg_lanes<E, Bytes>();
  for (unsigned i = 0; i < n; ++i) r.lane[i] = value;
  detail::clear_inactive_storage(r, n);
  return r;
}

inline svfloat64_t svdup_f64(float64_t v) { return svdup<float64_t>(v); }
inline svfloat32_t svdup_f32(float32_t v) { return svdup<float32_t>(v); }
inline svfloat16_t svdup_f16(float16_t v) { return svdup<float16_t>(v); }

/// Linear index vector: base, base+step, base+2*step, ...
template <typename E, std::size_t Bytes = kMaxVectorBytes>
inline svreg<E, Bytes> svindex(E base, E step) {
  detail::record(InsnClass::kDup, "index z", detail::suffix<E>());
  svreg<E, Bytes> r;
  const unsigned n = detail::reg_lanes<E, Bytes>();
  for (unsigned i = 0; i < n; ++i)
    r.lane[i] = static_cast<E>(base + static_cast<E>(i) * step);
  detail::clear_inactive_storage(r, n);
  return r;
}

// --- Binary arithmetic -------------------------------------------------------
#define SVELAT_SVE_BINARY_FORM(NAME, OPEXPR, CLS, MODE, MNEMONIC)                 \
  template <typename E, std::size_t Bytes>                                        \
  inline svreg<E, Bytes> NAME(const svbool_t& pg, const svreg<E, Bytes>& a,       \
                              const svreg<E, Bytes>& b) {                         \
    return detail::binary_impl<E>(                                                \
        pg, a, b, [](E x, E y) { return static_cast<E>(OPEXPR); }, MODE, CLS,     \
        MNEMONIC);                                                                \
  }

#define SVELAT_SVE_BINARY(NAME, OPEXPR, CLS, MNEMONIC)                           \
  SVELAT_SVE_BINARY_FORM(NAME##_x, OPEXPR, CLS, detail::PredMode::kMerge,        \
                         MNEMONIC " z, p/m, z, z")                               \
  SVELAT_SVE_BINARY_FORM(NAME##_m, OPEXPR, CLS, detail::PredMode::kMerge,        \
                         MNEMONIC " z, p/m, z, z")                               \
  SVELAT_SVE_BINARY_FORM(NAME##_z, OPEXPR, CLS, detail::PredMode::kZero,         \
                         MNEMONIC " z, p/z, z, z")

SVELAT_SVE_BINARY(svadd, x + y, InsnClass::kFAddSub, "fadd")
SVELAT_SVE_BINARY(svsub, x - y, InsnClass::kFAddSub, "fsub")
SVELAT_SVE_BINARY(svmul, x * y, InsnClass::kFMul, "fmul")
SVELAT_SVE_BINARY(svdiv, x / y, InsnClass::kFDivSqrt, "fdiv")
SVELAT_SVE_BINARY(svmax, (x < y ? y : x), InsnClass::kFAddSub, "fmax")
SVELAT_SVE_BINARY(svmin, (y < x ? y : x), InsnClass::kFAddSub, "fmin")

#undef SVELAT_SVE_BINARY
#undef SVELAT_SVE_BINARY_FORM

// --- Unary arithmetic ----------------------------------------------------------
template <typename E, std::size_t Bytes>
inline svreg<E, Bytes> svneg_x(const svbool_t& pg, const svreg<E, Bytes>& a) {
  return detail::unary_impl<E>(
      pg, a, [](E x) { return static_cast<E>(-x); }, detail::PredMode::kMerge,
      InsnClass::kFAddSub, "fneg z, p/m, z");
}

template <typename E, std::size_t Bytes>
inline svreg<E, Bytes> svabs_x(const svbool_t& pg, const svreg<E, Bytes>& a) {
  return detail::unary_impl<E>(
      pg, a, [](E x) { return static_cast<E>(x < E{} ? -x : x); },
      detail::PredMode::kMerge, InsnClass::kFAddSub, "fabs z, p/m, z");
}

/// FSQRT (double and single precision).
template <typename E, std::size_t Bytes>
  requires(std::is_same_v<E, float64_t> || std::is_same_v<E, float32_t>)
inline svreg<E, Bytes> svsqrt_x(const svbool_t& pg, const svreg<E, Bytes>& a) {
  return detail::unary_impl<E>(
      pg, a, [](E x) { return std::sqrt(x); }, detail::PredMode::kMerge,
      InsnClass::kFDivSqrt, "fsqrt z, p/m, z");
}

// --- Fused multiply-add family ---------------------------------------------------
/// acc + a*b  (FMLA)
template <typename E, std::size_t Bytes>
inline svreg<E, Bytes> svmla_x(const svbool_t& pg, const svreg<E, Bytes>& acc,
                               const svreg<E, Bytes>& a, const svreg<E, Bytes>& b) {
  return detail::fma_impl<E>(pg, acc, a, b, +1, +1, "fmla z, p/m, z, z");
}
template <typename E, std::size_t Bytes>
inline svreg<E, Bytes> svmla_m(const svbool_t& pg, const svreg<E, Bytes>& acc,
                               const svreg<E, Bytes>& a, const svreg<E, Bytes>& b) {
  return detail::fma_impl<E>(pg, acc, a, b, +1, +1, "fmla z, p/m, z, z");
}

/// acc - a*b  (FMLS)
template <typename E, std::size_t Bytes>
inline svreg<E, Bytes> svmls_x(const svbool_t& pg, const svreg<E, Bytes>& acc,
                               const svreg<E, Bytes>& a, const svreg<E, Bytes>& b) {
  return detail::fma_impl<E>(pg, acc, a, b, +1, -1, "fmls z, p/m, z, z");
}

/// -acc - a*b  (FNMLA)
template <typename E, std::size_t Bytes>
inline svreg<E, Bytes> svnmla_x(const svbool_t& pg, const svreg<E, Bytes>& acc,
                                const svreg<E, Bytes>& a, const svreg<E, Bytes>& b) {
  return detail::fma_impl<E>(pg, acc, a, b, -1, -1, "fnmla z, p/m, z, z");
}

/// -acc + a*b  (FNMLS; appears in the armclang listing of Sec. IV-B)
template <typename E, std::size_t Bytes>
inline svreg<E, Bytes> svnmls_x(const svbool_t& pg, const svreg<E, Bytes>& acc,
                                const svreg<E, Bytes>& a, const svreg<E, Bytes>& b) {
  return detail::fma_impl<E>(pg, acc, a, b, -1, +1, "fnmls z, p/m, z, z");
}

// --- Select ----------------------------------------------------------------------
template <typename E, std::size_t Bytes>
inline svreg<E, Bytes> svsel(const svbool_t& pg, const svreg<E, Bytes>& a,
                             const svreg<E, Bytes>& b) {
  detail::record(InsnClass::kPermute, "sel z, p, z, z", detail::suffix<E>());
  svreg<E, Bytes> r;
  const unsigned n = detail::reg_lanes<E, Bytes>();
  for (unsigned i = 0; i < n; ++i)
    r.lane[i] = detail::pred_elem<E>(pg, i) ? a.lane[i] : b.lane[i];
  detail::clear_inactive_storage(r, n);
  return r;
}

// --- Integer helpers (vector) -------------------------------------------------------
template <typename E, std::size_t Bytes>
inline svreg<E, Bytes> svadd_int_x(const svbool_t& pg, const svreg<E, Bytes>& a,
                                   const svreg<E, Bytes>& b) {
  return detail::binary_impl<E>(
      pg, a, b, [](E x, E y) { return static_cast<E>(x + y); },
      detail::PredMode::kMerge, InsnClass::kIntOp, "add z, p/m, z, z");
}

template <typename E, std::size_t Bytes>
inline svreg<E, Bytes> svand_int_x(const svbool_t& pg, const svreg<E, Bytes>& a,
                                   const svreg<E, Bytes>& b) {
  return detail::binary_impl<E>(
      pg, a, b, [](E x, E y) { return static_cast<E>(x & y); },
      detail::PredMode::kMerge, InsnClass::kIntOp, "and z, p/m, z, z");
}

template <typename E, std::size_t Bytes>
inline svreg<E, Bytes> svlsl_int_x(const svbool_t& pg, const svreg<E, Bytes>& a,
                                   unsigned shift) {
  return detail::unary_impl<E>(
      pg, a, [shift](E x) { return static_cast<E>(x << shift); },
      detail::PredMode::kMerge, InsnClass::kIntOp, "lsl z, p/m, z, #imm");
}

// --- Floating-point compares (produce predicates) --------------------------------------
namespace detail {
template <typename E, std::size_t Bytes, typename Cmp>
inline svbool_t cmp_impl(const svbool_t& pg, const svreg<E, Bytes>& a,
                         const svreg<E, Bytes>& b, Cmp cmp, const char* mnemonic) {
  record(InsnClass::kCompare, mnemonic, suffix<E>());
  svbool_t r{};
  const unsigned n = reg_lanes<E, Bytes>();
  for (unsigned i = 0; i < n; ++i)
    set_pred_elem<E>(r, i, pred_elem<E>(pg, i) && cmp(a.lane[i], b.lane[i]));
  return r;
}
}  // namespace detail

template <typename E, std::size_t Bytes>
inline svbool_t svcmpeq(const svbool_t& pg, const svreg<E, Bytes>& a,
                        const svreg<E, Bytes>& b) {
  return detail::cmp_impl<E>(
      pg, a, b, [](E x, E y) { return x == y; }, "fcmeq p, p/z, z, z");
}

template <typename E, std::size_t Bytes>
inline svbool_t svcmpne(const svbool_t& pg, const svreg<E, Bytes>& a,
                        const svreg<E, Bytes>& b) {
  return detail::cmp_impl<E>(
      pg, a, b, [](E x, E y) { return x != y; }, "fcmne p, p/z, z, z");
}

template <typename E, std::size_t Bytes>
inline svbool_t svcmplt(const svbool_t& pg, const svreg<E, Bytes>& a,
                        const svreg<E, Bytes>& b) {
  return detail::cmp_impl<E>(
      pg, a, b, [](E x, E y) { return x < y; }, "fcmlt p, p/z, z, z");
}

template <typename E, std::size_t Bytes>
inline svbool_t svcmpgt(const svbool_t& pg, const svreg<E, Bytes>& a,
                        const svreg<E, Bytes>& b) {
  return detail::cmp_impl<E>(
      pg, a, b, [](E x, E y) { return x > y; }, "fcmgt p, p/z, z, z");
}

}  // namespace svelat::sve
