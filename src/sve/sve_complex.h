// Vectorized complex arithmetic: FCMLA and FCADD.
//
// This is the centerpiece of the paper (Sec. III-D): vectors hold complex
// numbers with real components in even elements and imaginary components in
// odd elements.  FCMLA takes an accumulator, two operand vectors and an
// immediate rotation; two concatenated FCMLAs implement
//     z  +=  x * y        (rot 0   then rot 90)
//     z  +=  conj(x) * y  (rot 0   then rot 270)
// Complex multiplication without accumulation starts from a zero
// accumulator (paper Eq. (2)).
//
// Per-element semantics (ARM ARM, FCMLA):
//   rot   0:  even += even(a)*even(b)   odd += even(a)*odd(b)
//   rot  90:  even -= odd(a)*odd(b)     odd += odd(a)*even(b)
//   rot 180:  even -= even(a)*even(b)   odd -= even(a)*odd(b)
//   rot 270:  even += odd(a)*odd(b)     odd -= odd(a)*even(b)
#pragma once

#include "sve/sve_detail.h"

namespace svelat::sve {

namespace detail {

template <typename E, std::size_t Bytes>
inline svreg<E, Bytes> fcmla_impl(const svbool_t& pg, const svreg<E, Bytes>& acc,
                                  const svreg<E, Bytes>& a, const svreg<E, Bytes>& b,
                                  int rot) {
  SVELAT_ASSERT_MSG(rot == 0 || rot == 90 || rot == 180 || rot == 270,
                    "FCMLA rotation must be 0, 90, 180 or 270");
  record_imm(InsnClass::kFCmla, "fcmla z, p/m, z, z", suffix<E>(), rot);
  svreg<E, Bytes> r;
  const unsigned n = reg_lanes<E, Bytes>();
  for (unsigned p = 0; p + 1 < n; p += 2) {
    const unsigned even = p;
    const unsigned odd = p + 1;
    E re = acc.lane[even];
    E im = acc.lane[odd];
    // Each destination element is guarded by its own predicate bit
    // (merging predication).
    const bool act_e = pred_elem<E>(pg, even);
    const bool act_o = pred_elem<E>(pg, odd);
    switch (rot) {
      case 0:
        if (act_e) re = static_cast<E>(re + a.lane[even] * b.lane[even]);
        if (act_o) im = static_cast<E>(im + a.lane[even] * b.lane[odd]);
        break;
      case 90:
        if (act_e) re = static_cast<E>(re - a.lane[odd] * b.lane[odd]);
        if (act_o) im = static_cast<E>(im + a.lane[odd] * b.lane[even]);
        break;
      case 180:
        if (act_e) re = static_cast<E>(re - a.lane[even] * b.lane[even]);
        if (act_o) im = static_cast<E>(im - a.lane[even] * b.lane[odd]);
        break;
      case 270:
        if (act_e) re = static_cast<E>(re + a.lane[odd] * b.lane[odd]);
        if (act_o) im = static_cast<E>(im - a.lane[odd] * b.lane[even]);
        break;
      default: break;
    }
    r.lane[even] = re;
    r.lane[odd] = im;
  }
  clear_inactive_storage(r, n);
  return r;
}

template <typename E, std::size_t Bytes>
inline svreg<E, Bytes> fcadd_impl(const svbool_t& pg, const svreg<E, Bytes>& a,
                                  const svreg<E, Bytes>& b, int rot) {
  SVELAT_ASSERT_MSG(rot == 90 || rot == 270, "FCADD rotation must be 90 or 270");
  record_imm(InsnClass::kFCadd, "fcadd z, p/m, z, z", suffix<E>(), rot);
  svreg<E, Bytes> r;
  const unsigned n = reg_lanes<E, Bytes>();
  for (unsigned p = 0; p + 1 < n; p += 2) {
    const unsigned even = p;
    const unsigned odd = p + 1;
    const bool act_e = pred_elem<E>(pg, even);
    const bool act_o = pred_elem<E>(pg, odd);
    if (rot == 90) {  // a + i*b
      r.lane[even] = act_e ? static_cast<E>(a.lane[even] - b.lane[odd]) : a.lane[even];
      r.lane[odd] = act_o ? static_cast<E>(a.lane[odd] + b.lane[even]) : a.lane[odd];
    } else {  // a - i*b
      r.lane[even] = act_e ? static_cast<E>(a.lane[even] + b.lane[odd]) : a.lane[even];
      r.lane[odd] = act_o ? static_cast<E>(a.lane[odd] - b.lane[even]) : a.lane[odd];
    }
  }
  clear_inactive_storage(r, n);
  return r;
}

}  // namespace detail

/// Fused complex multiply-accumulate with rotation (merging; _x deterministic
/// as merge, cf. sve_arith.h).
template <typename E, std::size_t Bytes>
inline svreg<E, Bytes> svcmla_x(const svbool_t& pg, const svreg<E, Bytes>& acc,
                                const svreg<E, Bytes>& a, const svreg<E, Bytes>& b,
                                int rot) {
  return detail::fcmla_impl<E>(pg, acc, a, b, rot);
}

template <typename E, std::size_t Bytes>
inline svreg<E, Bytes> svcmla_m(const svbool_t& pg, const svreg<E, Bytes>& acc,
                                const svreg<E, Bytes>& a, const svreg<E, Bytes>& b,
                                int rot) {
  return detail::fcmla_impl<E>(pg, acc, a, b, rot);
}

/// Complex add with rotation: a + i*b (rot 90) or a - i*b (rot 270).
template <typename E, std::size_t Bytes>
inline svreg<E, Bytes> svcadd_x(const svbool_t& pg, const svreg<E, Bytes>& a,
                                const svreg<E, Bytes>& b, int rot) {
  return detail::fcadd_impl<E>(pg, a, b, rot);
}

}  // namespace svelat::sve
