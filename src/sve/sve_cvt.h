// Floating-point precision conversion (FCVT).
//
// SVE converts between 16-, 32- and 64-bit floats in place within
// containers of the *wider* type: converting f64 -> f32 leaves one f32
// result in the low half of each 64-bit container (the even f32 lanes);
// narrowing a full vector therefore needs an UZP1 to compact two converted
// registers.  The paper lists precision conversion among the machine-
// specific operations of Grid's abstraction layer (Sec. II-C) and fp16 is
// used to compress network-exchange buffers (Sec. V-B).
#pragma once

#include "sve/sve_detail.h"

namespace svelat::sve {

namespace detail {

// Narrowing: each wide container i yields one narrow element at lane R*i
// (R = sizeof(Wide)/sizeof(Narrow)); other sub-lanes of the container are
// zeroed.  Predication is per wide container.
template <typename Narrow, typename Wide>
inline svreg<Narrow> fcvt_narrow(const svbool_t& pg, const svreg<Wide>& a) {
  constexpr unsigned R = sizeof(Wide) / sizeof(Narrow);
  static_assert(R > 1);
  record(InsnClass::kConvert, "fcvt z, p/m, z", suffix<Narrow>());
  svreg<Narrow> r;
  const unsigned wide_n = lanes<Wide>();
  for (unsigned i = 0; i < wide_n; ++i) {
    const bool act = pred_elem<Wide>(pg, i);
    for (unsigned s = 0; s < R; ++s) r.lane[R * i + s] = Narrow{};
    if (act) r.lane[R * i] = static_cast<Narrow>(static_cast<float>(a.lane[i]));
  }
  clear_inactive_storage(r, lanes<Narrow>());
  return r;
}

// Widening: wide container i reads the narrow element at lane R*i.
template <typename Wide, typename Narrow>
inline svreg<Wide> fcvt_widen(const svbool_t& pg, const svreg<Narrow>& a) {
  constexpr unsigned R = sizeof(Wide) / sizeof(Narrow);
  static_assert(R > 1);
  record(InsnClass::kConvert, "fcvt z, p/m, z", suffix<Wide>());
  svreg<Wide> r;
  const unsigned wide_n = lanes<Wide>();
  for (unsigned i = 0; i < wide_n; ++i) {
    r.lane[i] = pred_elem<Wide>(pg, i)
                    ? static_cast<Wide>(static_cast<float>(a.lane[R * i]))
                    : Wide{};
  }
  clear_inactive_storage(r, wide_n);
  return r;
}

}  // namespace detail

// Double <-> single.
inline svfloat32_t svcvt_f32_f64_x(const svbool_t& pg, const svfloat64_t& a) {
  return detail::fcvt_narrow<float32_t, float64_t>(pg, a);
}
inline svfloat64_t svcvt_f64_f32_x(const svbool_t& pg, const svfloat32_t& a) {
  return detail::fcvt_widen<float64_t, float32_t>(pg, a);
}

// Single <-> half.  (Conversion routes through float; `half` rounds to
// nearest-even exactly like FCVT.)
inline svfloat16_t svcvt_f16_f32_x(const svbool_t& pg, const svfloat32_t& a) {
  constexpr unsigned R = 2;
  detail::record(InsnClass::kConvert, "fcvt z, p/m, z", "h");
  svfloat16_t r;
  const unsigned wide_n = lanes<float32_t>();
  for (unsigned i = 0; i < wide_n; ++i) {
    r.lane[R * i + 1] = float16_t{};
    r.lane[R * i] =
        detail::pred_elem<float32_t>(pg, i) ? float16_t(a.lane[i]) : float16_t{};
  }
  detail::clear_inactive_storage(r, lanes<float16_t>());
  return r;
}

inline svfloat32_t svcvt_f32_f16_x(const svbool_t& pg, const svfloat16_t& a) {
  constexpr unsigned R = 2;
  detail::record(InsnClass::kConvert, "fcvt z, p/m, z", "s");
  svfloat32_t r;
  const unsigned wide_n = lanes<float32_t>();
  for (unsigned i = 0; i < wide_n; ++i) {
    r.lane[i] = detail::pred_elem<float32_t>(pg, i) ? static_cast<float>(a.lane[R * i])
                                                    : 0.0f;
  }
  detail::clear_inactive_storage(r, wide_n);
  return r;
}

// Double <-> half (FCVT supports the direct pair as well).
inline svfloat16_t svcvt_f16_f64_x(const svbool_t& pg, const svfloat64_t& a) {
  constexpr unsigned R = 4;
  detail::record(InsnClass::kConvert, "fcvt z, p/m, z", "h");
  svfloat16_t r;
  const unsigned wide_n = lanes<float64_t>();
  for (unsigned i = 0; i < wide_n; ++i) {
    for (unsigned s = 0; s < R; ++s) r.lane[R * i + s] = float16_t{};
    if (detail::pred_elem<float64_t>(pg, i))
      r.lane[R * i] = float16_t(static_cast<float>(a.lane[i]));
  }
  detail::clear_inactive_storage(r, lanes<float16_t>());
  return r;
}

inline svfloat64_t svcvt_f64_f16_x(const svbool_t& pg, const svfloat16_t& a) {
  constexpr unsigned R = 4;
  detail::record(InsnClass::kConvert, "fcvt z, p/m, z", "d");
  svfloat64_t r;
  const unsigned wide_n = lanes<float64_t>();
  for (unsigned i = 0; i < wide_n; ++i) {
    r.lane[i] = detail::pred_elem<float64_t>(pg, i)
                    ? static_cast<double>(static_cast<float>(a.lane[R * i]))
                    : 0.0;
  }
  detail::clear_inactive_storage(r, wide_n);
  return r;
}

}  // namespace svelat::sve
