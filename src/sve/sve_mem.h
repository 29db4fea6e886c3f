// Load / store intrinsics.
//
// Covers the unit-stride loads and stores plus the structure load/store
// family (LD2/ST2 etc.) the paper highlights in Sec. III-A: "load/store of
// an array of n-element structures into n vectors, with one vector per
// structure element".  armclang's auto-vectorization of std::complex loops
// leans on LD2D/ST2D (Sec. IV-B listing).
//
// Predication follows hardware: loads zero inactive lanes (/z), stores
// leave inactive memory untouched.
#pragma once

#include "sve/sve_detail.h"

namespace svelat::sve {

namespace detail {

template <typename E, std::size_t Bytes>
inline svreg<E, Bytes> ld1_impl(const svbool_t& pg, const E* base, const char* mnemonic,
                                InsnClass cls) {
  record(cls, mnemonic, suffix<E>());
  svreg<E, Bytes> r;
  const unsigned n = reg_lanes<E, Bytes>();
  for (unsigned i = 0; i < n; ++i) r.lane[i] = pred_elem<E>(pg, i) ? base[i] : E{};
  clear_inactive_storage(r, n);
  return r;
}

template <typename E, std::size_t Bytes>
inline void st1_impl(const svbool_t& pg, E* base, const svreg<E, Bytes>& v,
                     const char* mnemonic, InsnClass cls) {
  record(cls, mnemonic, suffix<E>());
  const unsigned n = reg_lanes<E, Bytes>();
  for (unsigned i = 0; i < n; ++i)
    if (pred_elem<E>(pg, i)) base[i] = v.lane[i];
}

template <typename E, unsigned S>
inline svregx<E, S> ldS_impl(const svbool_t& pg, const E* base, const char* mnemonic) {
  record(InsnClass::kStructLoad, mnemonic, suffix<E>());
  svregx<E, S> r;
  const unsigned n = lanes<E>();
  for (unsigned j = 0; j < S; ++j) {
    for (unsigned i = 0; i < n; ++i)
      r.reg[j].lane[i] = pred_elem<E>(pg, i) ? base[S * i + j] : E{};
    clear_inactive_storage(r.reg[j], n);
  }
  return r;
}

template <typename E, unsigned S>
inline void stS_impl(const svbool_t& pg, E* base, const svregx<E, S>& v,
                     const char* mnemonic) {
  record(InsnClass::kStructStore, mnemonic, suffix<E>());
  const unsigned n = lanes<E>();
  for (unsigned i = 0; i < n; ++i) {
    if (!pred_elem<E>(pg, i)) continue;
    for (unsigned j = 0; j < S; ++j) base[S * i + j] = v.reg[j].lane[i];
  }
}

}  // namespace detail

// --- LD1 / ST1 (overloaded on element type, like C++ ACLE) -------------------
template <typename E, std::size_t Bytes = kMaxVectorBytes>
inline svreg<E, Bytes> svld1(const svbool_t& pg, const E* base) {
  return detail::ld1_impl<E, Bytes>(pg, base, "ld1 z, p/z, [x]", InsnClass::kLoad);
}

template <typename E, std::size_t Bytes>
inline void svst1(const svbool_t& pg, E* base, const svreg<E, Bytes>& v) {
  detail::st1_impl<E>(pg, base, v, "st1 z, p, [x]", InsnClass::kStore);
}

// Non-temporal (streaming) variants; identical semantics, distinct opcode.
template <typename E, std::size_t Bytes = kMaxVectorBytes>
inline svreg<E, Bytes> svldnt1(const svbool_t& pg, const E* base) {
  return detail::ld1_impl<E, Bytes>(pg, base, "ldnt1 z, p/z, [x]", InsnClass::kLoad);
}

template <typename E, std::size_t Bytes>
inline void svstnt1(const svbool_t& pg, E* base, const svreg<E, Bytes>& v) {
  detail::st1_impl<E>(pg, base, v, "stnt1 z, p, [x]", InsnClass::kStore);
}

// --- Structure loads / stores -------------------------------------------------
template <typename E>
inline svregx<E, 2> svld2(const svbool_t& pg, const E* base) {
  return detail::ldS_impl<E, 2>(pg, base, "ld2 {z, z}, p/z, [x]");
}

template <typename E>
inline svregx<E, 3> svld3(const svbool_t& pg, const E* base) {
  return detail::ldS_impl<E, 3>(pg, base, "ld3 {z, z, z}, p/z, [x]");
}

template <typename E>
inline svregx<E, 4> svld4(const svbool_t& pg, const E* base) {
  return detail::ldS_impl<E, 4>(pg, base, "ld4 {z, z, z, z}, p/z, [x]");
}

template <typename E>
inline void svst2(const svbool_t& pg, E* base, const svregx<E, 2>& v) {
  detail::stS_impl<E, 2>(pg, base, v, "st2 {z, z}, p, [x]");
}

template <typename E>
inline void svst3(const svbool_t& pg, E* base, const svregx<E, 3>& v) {
  detail::stS_impl<E, 3>(pg, base, v, "st3 {z, z, z}, p, [x]");
}

template <typename E>
inline void svst4(const svbool_t& pg, E* base, const svregx<E, 4>& v) {
  detail::stS_impl<E, 4>(pg, base, v, "st4 {z, z, z, z}, p, [x]");
}

// --- Prefetch -----------------------------------------------------------------
/// PRFD/PRFW: software prefetch hints.  The simulator has no cache model,
/// so these only count as (memory-class) instructions -- they exist because
/// Grid's machine-specific layer includes "memory prefetch" (paper
/// Sec. II-C) and ported code calls them.
template <typename E>
inline void svprf(const svbool_t& pg, const E* base) {
  (void)pg;
  (void)base;
  detail::record(InsnClass::kLoad, "prf p, [x]", detail::suffix<E>());
}

inline void svprfd(const svbool_t& pg, const float64_t* base) { svprf(pg, base); }
inline void svprfw(const svbool_t& pg, const float32_t* base) { svprf(pg, base); }

// --- Gather / scatter (64-bit index vectors) ----------------------------------
// 64-bit indices address 64-bit elements (ACLE svld1_gather_u64index); the
// register width comes from the index vector.
template <typename E, std::size_t Bytes>
inline svreg<E, Bytes> svld1_gather_index(const svbool_t& pg, const E* base,
                                          const svreg<std::uint64_t, Bytes>& index) {
  static_assert(sizeof(E) == sizeof(std::uint64_t),
                "64-bit gathers load 64-bit elements");
  detail::record(InsnClass::kLoad, "ld1 z, p/z, [x, z, lsl]", detail::suffix<E>());
  svreg<E, Bytes> r;
  const unsigned n = detail::reg_lanes<E, Bytes>();
  for (unsigned i = 0; i < n; ++i)
    r.lane[i] = detail::pred_elem<E>(pg, i) ? base[index.lane[i]] : E{};
  detail::clear_inactive_storage(r, n);
  return r;
}

template <typename E, std::size_t Bytes>
inline void svst1_scatter_index(const svbool_t& pg, E* base,
                                const svreg<std::uint64_t, Bytes>& index,
                                const svreg<E, Bytes>& v) {
  static_assert(sizeof(E) == sizeof(std::uint64_t),
                "64-bit scatters store 64-bit elements");
  detail::record(InsnClass::kStore, "st1 z, p, [x, z, lsl]", detail::suffix<E>());
  const unsigned n = detail::reg_lanes<E, Bytes>();
  for (unsigned i = 0; i < n; ++i)
    if (detail::pred_elem<E>(pg, i)) base[index.lane[i]] = v.lane[i];
}

}  // namespace svelat::sve
