// Permutation intrinsics.
//
// Grid's virtual-node layout (paper Fig. 1) requires combining elements of
// the same vector when a stencil crosses the boundary of the per-vector
// sub-lattice; Grid implements those as lane permutations.  The SVE ISA
// provides TBL (arbitrary table lookup), EXT (concatenated extract), REV,
// and the ZIP/UZP/TRN families, all of which the simulator models.
//
// Permutes are unpredicated in hardware; they act on all lanes of the
// current vector length.
#pragma once

#include <type_traits>

#include "sve/sve_detail.h"

namespace svelat::sve {

/// EXT: extract a window starting at element offset `imm` from the
/// concatenation (a:b).  imm counts elements, as in the ACLE wrapper.
template <typename E, std::size_t Bytes>
inline svreg<E, Bytes> svext(const svreg<E, Bytes>& a, const svreg<E, Bytes>& b,
                             unsigned imm) {
  detail::record_imm(InsnClass::kPermute, "ext z, z, z", "b",
                     static_cast<int>(imm * sizeof(E)));
  svreg<E, Bytes> r;
  const unsigned n = detail::reg_lanes<E, Bytes>();
  SVELAT_DEBUG_ASSERT(imm < n);
  for (unsigned i = 0; i < n; ++i) {
    const unsigned j = i + imm;
    r.lane[i] = (j < n) ? a.lane[j] : b.lane[j - n];
  }
  detail::clear_inactive_storage(r, n);
  return r;
}

/// REV: reverse all elements.
template <typename E, std::size_t Bytes>
inline svreg<E, Bytes> svrev(const svreg<E, Bytes>& a) {
  detail::record(InsnClass::kPermute, "rev z, z", detail::suffix<E>());
  svreg<E, Bytes> r;
  const unsigned n = detail::reg_lanes<E, Bytes>();
  for (unsigned i = 0; i < n; ++i) r.lane[i] = a.lane[n - 1 - i];
  detail::clear_inactive_storage(r, n);
  return r;
}

namespace detail {
template <typename E, typename I, std::size_t Bytes>
inline svreg<E, Bytes> tbl_impl(const svreg<E, Bytes>& a, const svreg<I, Bytes>& idx) {
  static_assert(sizeof(E) == sizeof(I), "TBL index width must match element width");
  record(InsnClass::kPermute, "tbl z, {z}, z", suffix<E>());
  svreg<E, Bytes> r;
  const unsigned n = reg_lanes<E, Bytes>();
  for (unsigned i = 0; i < n; ++i) {
    const auto j = idx.lane[i];
    r.lane[i] = (static_cast<std::uint64_t>(j) < n) ? a.lane[j] : E{};  // OOR -> 0
  }
  clear_inactive_storage(r, n);
  return r;
}
}  // namespace detail

/// TBL: arbitrary permutation via an index vector; out-of-range indices
/// produce zero (hardware behaviour).  The typed overloads are the ACLE
/// signatures of the max-width types; the template takes any register width
/// with an unsigned index vector of the element width.
inline svfloat64_t svtbl(const svfloat64_t& a, const svuint64_t& idx) {
  return detail::tbl_impl(a, idx);
}
inline svfloat32_t svtbl(const svfloat32_t& a, const svuint32_t& idx) {
  return detail::tbl_impl(a, idx);
}
inline svfloat16_t svtbl(const svfloat16_t& a, const svuint16_t& idx) {
  return detail::tbl_impl(a, idx);
}
inline svuint64_t svtbl(const svuint64_t& a, const svuint64_t& idx) {
  return detail::tbl_impl(a, idx);
}
inline svuint32_t svtbl(const svuint32_t& a, const svuint32_t& idx) {
  return detail::tbl_impl(a, idx);
}
template <typename E, typename I, std::size_t Bytes>
  requires std::is_unsigned_v<I>
inline svreg<E, Bytes> svtbl(const svreg<E, Bytes>& a, const svreg<I, Bytes>& idx) {
  return detail::tbl_impl(a, idx);
}

// --- ZIP / UZP / TRN ---------------------------------------------------------
/// ZIP1: interleave the low halves of a and b.
template <typename E, std::size_t Bytes>
inline svreg<E, Bytes> svzip1(const svreg<E, Bytes>& a, const svreg<E, Bytes>& b) {
  detail::record(InsnClass::kPermute, "zip1 z, z, z", detail::suffix<E>());
  svreg<E, Bytes> r;
  const unsigned n = detail::reg_lanes<E, Bytes>();
  for (unsigned i = 0; i < n / 2; ++i) {
    r.lane[2 * i] = a.lane[i];
    r.lane[2 * i + 1] = b.lane[i];
  }
  detail::clear_inactive_storage(r, n);
  return r;
}

/// ZIP2: interleave the high halves of a and b.
template <typename E, std::size_t Bytes>
inline svreg<E, Bytes> svzip2(const svreg<E, Bytes>& a, const svreg<E, Bytes>& b) {
  detail::record(InsnClass::kPermute, "zip2 z, z, z", detail::suffix<E>());
  svreg<E, Bytes> r;
  const unsigned n = detail::reg_lanes<E, Bytes>();
  for (unsigned i = 0; i < n / 2; ++i) {
    r.lane[2 * i] = a.lane[n / 2 + i];
    r.lane[2 * i + 1] = b.lane[n / 2 + i];
  }
  detail::clear_inactive_storage(r, n);
  return r;
}

/// UZP1: concatenate the even elements of a then b.
template <typename E, std::size_t Bytes>
inline svreg<E, Bytes> svuzp1(const svreg<E, Bytes>& a, const svreg<E, Bytes>& b) {
  detail::record(InsnClass::kPermute, "uzp1 z, z, z", detail::suffix<E>());
  svreg<E, Bytes> r;
  const unsigned n = detail::reg_lanes<E, Bytes>();
  for (unsigned i = 0; i < n / 2; ++i) {
    r.lane[i] = a.lane[2 * i];
    r.lane[n / 2 + i] = b.lane[2 * i];
  }
  detail::clear_inactive_storage(r, n);
  return r;
}

/// UZP2: concatenate the odd elements of a then b.
template <typename E, std::size_t Bytes>
inline svreg<E, Bytes> svuzp2(const svreg<E, Bytes>& a, const svreg<E, Bytes>& b) {
  detail::record(InsnClass::kPermute, "uzp2 z, z, z", detail::suffix<E>());
  svreg<E, Bytes> r;
  const unsigned n = detail::reg_lanes<E, Bytes>();
  for (unsigned i = 0; i < n / 2; ++i) {
    r.lane[i] = a.lane[2 * i + 1];
    r.lane[n / 2 + i] = b.lane[2 * i + 1];
  }
  detail::clear_inactive_storage(r, n);
  return r;
}

/// TRN1: even-indexed elements from a and b interleaved.
template <typename E, std::size_t Bytes>
inline svreg<E, Bytes> svtrn1(const svreg<E, Bytes>& a, const svreg<E, Bytes>& b) {
  detail::record(InsnClass::kPermute, "trn1 z, z, z", detail::suffix<E>());
  svreg<E, Bytes> r;
  const unsigned n = detail::reg_lanes<E, Bytes>();
  for (unsigned i = 0; i < n / 2; ++i) {
    r.lane[2 * i] = a.lane[2 * i];
    r.lane[2 * i + 1] = b.lane[2 * i];
  }
  detail::clear_inactive_storage(r, n);
  return r;
}

/// TRN2: odd-indexed elements from a and b interleaved.
template <typename E, std::size_t Bytes>
inline svreg<E, Bytes> svtrn2(const svreg<E, Bytes>& a, const svreg<E, Bytes>& b) {
  detail::record(InsnClass::kPermute, "trn2 z, z, z", detail::suffix<E>());
  svreg<E, Bytes> r;
  const unsigned n = detail::reg_lanes<E, Bytes>();
  for (unsigned i = 0; i < n / 2; ++i) {
    r.lane[2 * i] = a.lane[2 * i + 1];
    r.lane[2 * i + 1] = b.lane[2 * i + 1];
  }
  detail::clear_inactive_storage(r, n);
  return r;
}

/// Broadcast one lane to all lanes (DUP (indexed)).
template <typename E, std::size_t Bytes>
inline svreg<E, Bytes> svdup_lane(const svreg<E, Bytes>& a, unsigned lane) {
  detail::record(InsnClass::kDup, "dup z, z[i]", detail::suffix<E>());
  svreg<E, Bytes> r;
  const unsigned n = detail::reg_lanes<E, Bytes>();
  SVELAT_DEBUG_ASSERT(lane < n);
  for (unsigned i = 0; i < n; ++i) r.lane[i] = a.lane[lane];
  detail::clear_inactive_storage(r, n);
  return r;
}

}  // namespace svelat::sve
