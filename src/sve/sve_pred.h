// Predicate-generating and predicate-manipulating intrinsics.
//
// SVE's vector-length-agnostic loops are driven by WHILELT (build a
// predicate covering the remaining elements) and PTRUE (all elements);
// see the assembly walk-throughs in paper Sec. IV.  Predicates have
// byte granularity; for an element of width w only the lowest of its w
// bits participates.  Every op here works on the packed 64-bit words of
// svbool_t (sve_types.h), masked to the current VL.
#pragma once

#include <bit>
#include <cstdint>

#include "sve/sve_detail.h"

namespace svelat::sve {

namespace detail {

template <typename E>
inline svbool_t ptrue_impl() {
  record(InsnClass::kPredicate, "ptrue p", suffix<E>());
  svbool_t pg{};
  for (unsigned w = 0; w < svbool_t::kWords; ++w) pg.word[w] = pred_word_mask<E>(w);
  return pg;
}

template <typename E>
inline svbool_t whilelt_impl(std::uint64_t begin, std::uint64_t end) {
  record(InsnClass::kPredicate, "whilelt p", suffix<E>());
  const std::uint64_t n = lanes<E>();
  const std::uint64_t k = begin < end ? (end - begin < n ? end - begin : n) : 0;
  const unsigned bytes = static_cast<unsigned>(k * sizeof(E));
  svbool_t pg{};
  for (unsigned w = 0; w < svbool_t::kWords; ++w)
    pg.word[w] = kElemStartBits<E> & low_bytes_mask(bytes, w);
  return pg;
}

template <typename E>
inline std::uint64_t cntp_impl(const svbool_t& pg, const svbool_t& p) {
  record(InsnClass::kReduce, "cntp x, p, p", suffix<E>());
  std::uint64_t n = 0;
  for (unsigned w = 0; w < svbool_t::kWords; ++w)
    n += static_cast<unsigned>(
        std::popcount(pg.word[w] & p.word[w] & pred_word_mask<E>(w)));
  return n;
}

/// Word-wise r = f(pg, a, b) over the bytes of the current VL; bits at or
/// above vector_bytes() stay clear.
template <typename F>
inline svbool_t pred_logical(const svbool_t& pg, const svbool_t& a, const svbool_t& b,
                             F f) {
  svbool_t r{};
  const unsigned vb = vector_bytes();
  for (unsigned w = 0; w < svbool_t::kWords; ++w)
    r.word[w] = f(pg.word[w], a.word[w], b.word[w]) & low_bytes_mask(vb, w);
  return r;
}

}  // namespace detail

// --- PTRUE ----------------------------------------------------------------
inline svbool_t svptrue_b8() { return detail::ptrue_impl<std::uint8_t>(); }
inline svbool_t svptrue_b16() { return detail::ptrue_impl<std::uint16_t>(); }
inline svbool_t svptrue_b32() { return detail::ptrue_impl<std::uint32_t>(); }
inline svbool_t svptrue_b64() { return detail::ptrue_impl<std::uint64_t>(); }

/// Generic form used by templated framework code.
template <typename E>
inline svbool_t svptrue() {
  return detail::ptrue_impl<E>();
}

inline svbool_t svpfalse_b() {
  detail::record(InsnClass::kPredicate, "pfalse p", "b");
  return svbool_t{};
}

// --- WHILELT ---------------------------------------------------------------
inline svbool_t svwhilelt_b8(std::uint64_t i, std::uint64_t n) {
  return detail::whilelt_impl<std::uint8_t>(i, n);
}
inline svbool_t svwhilelt_b16(std::uint64_t i, std::uint64_t n) {
  return detail::whilelt_impl<std::uint16_t>(i, n);
}
inline svbool_t svwhilelt_b32(std::uint64_t i, std::uint64_t n) {
  return detail::whilelt_impl<std::uint32_t>(i, n);
}
inline svbool_t svwhilelt_b64(std::uint64_t i, std::uint64_t n) {
  return detail::whilelt_impl<std::uint64_t>(i, n);
}

template <typename E>
inline svbool_t svwhilelt(std::uint64_t i, std::uint64_t n) {
  return detail::whilelt_impl<E>(i, n);
}

// --- Element counts (CNTB/CNTH/CNTW/CNTD) ----------------------------------
inline std::uint64_t svcntb() {
  detail::record(InsnClass::kPredicate, "cntb x", "");
  return vector_bytes();
}
inline std::uint64_t svcnth() {
  detail::record(InsnClass::kPredicate, "cnth x", "");
  return vector_bytes() / 2;
}
inline std::uint64_t svcntw() {
  detail::record(InsnClass::kPredicate, "cntw x", "");
  return vector_bytes() / 4;
}
inline std::uint64_t svcntd() {
  detail::record(InsnClass::kPredicate, "cntd x", "");
  return vector_bytes() / 8;
}

/// Generic lane count for an element type (no instruction equivalent of its
/// own; maps onto the cnt* family).
template <typename E>
inline std::uint64_t svcnt() {
  detail::record(InsnClass::kPredicate, "cnt x", detail::suffix<E>());
  return lanes<E>();
}

// --- CNTP: count active predicate elements ----------------------------------
inline std::uint64_t svcntp_b8(const svbool_t& pg, const svbool_t& p) {
  return detail::cntp_impl<std::uint8_t>(pg, p);
}
inline std::uint64_t svcntp_b16(const svbool_t& pg, const svbool_t& p) {
  return detail::cntp_impl<std::uint16_t>(pg, p);
}
inline std::uint64_t svcntp_b32(const svbool_t& pg, const svbool_t& p) {
  return detail::cntp_impl<std::uint32_t>(pg, p);
}
inline std::uint64_t svcntp_b64(const svbool_t& pg, const svbool_t& p) {
  return detail::cntp_impl<std::uint64_t>(pg, p);
}

// --- Predicate logicals (byte granularity, zeroing) -------------------------
inline svbool_t svand_b_z(const svbool_t& pg, const svbool_t& a, const svbool_t& b) {
  detail::record(InsnClass::kPredicate, "and p, p/z, p, p", "b");
  return detail::pred_logical(pg, a, b, [](std::uint64_t g, std::uint64_t x,
                                           std::uint64_t y) { return g & x & y; });
}

inline svbool_t svorr_b_z(const svbool_t& pg, const svbool_t& a, const svbool_t& b) {
  detail::record(InsnClass::kPredicate, "orr p, p/z, p, p", "b");
  return detail::pred_logical(pg, a, b, [](std::uint64_t g, std::uint64_t x,
                                           std::uint64_t y) { return g & (x | y); });
}

inline svbool_t sveor_b_z(const svbool_t& pg, const svbool_t& a, const svbool_t& b) {
  detail::record(InsnClass::kPredicate, "eor p, p/z, p, p", "b");
  return detail::pred_logical(pg, a, b, [](std::uint64_t g, std::uint64_t x,
                                           std::uint64_t y) { return g & (x ^ y); });
}

inline svbool_t svnot_b_z(const svbool_t& pg, const svbool_t& a) {
  detail::record(InsnClass::kPredicate, "not p, p/z, p", "b");
  return detail::pred_logical(pg, a, a, [](std::uint64_t g, std::uint64_t x,
                                           std::uint64_t) { return g & ~x; });
}

// --- Predicate tests ---------------------------------------------------------
inline bool svptest_any(const svbool_t& pg, const svbool_t& p) {
  detail::record(InsnClass::kPredicate, "ptest", "");
  const unsigned vb = vector_bytes();
  std::uint64_t any = 0;
  for (unsigned w = 0; w < svbool_t::kWords; ++w)
    any |= pg.word[w] & p.word[w] & detail::low_bytes_mask(vb, w);
  return any != 0;
}

/// Is p set at the first active byte of pg?
inline bool svptest_first(const svbool_t& pg, const svbool_t& p) {
  detail::record(InsnClass::kPredicate, "ptest", "");
  const unsigned vb = vector_bytes();
  for (unsigned w = 0; w < svbool_t::kWords; ++w) {
    const std::uint64_t g = pg.word[w] & detail::low_bytes_mask(vb, w);
    if (g != 0) return (p.word[w] & g & -g) != 0;  // g & -g: lowest set bit
  }
  return false;
}

// --- Predicate permutes -------------------------------------------------------
/// TRN1 on predicates: element 2i from a, element 2i+1 from b (both taken
/// at even positions).  trn1(ptrue, pfalse) yields the "even elements only"
/// predicate used to negate/accumulate real parts of interleaved complex
/// data in the real-arithmetic backend (paper Sec. V-E).  An even element
/// and its odd neighbour always share a word, so b moves up by sizeof(E)
/// bits without crossing one.
template <typename E>
inline svbool_t svtrn1_b(const svbool_t& a, const svbool_t& b) {
  detail::record(InsnClass::kPredicate, "trn1 p, p, p", detail::suffix<E>());
  constexpr std::uint64_t kEven = detail::every_nth_bit(2 * sizeof(E));
  svbool_t r{};
  const unsigned vb = vector_bytes();
  for (unsigned w = 0; w < svbool_t::kWords; ++w) {
    const std::uint64_t even = kEven & detail::low_bytes_mask(vb, w);
    r.word[w] = (a.word[w] & even) | ((b.word[w] & even) << sizeof(E));
  }
  return r;
}

/// TRN2 on predicates: element 2i from a, element 2i+1 from b (both taken
/// at odd positions).
template <typename E>
inline svbool_t svtrn2_b(const svbool_t& a, const svbool_t& b) {
  detail::record(InsnClass::kPredicate, "trn2 p, p, p", detail::suffix<E>());
  constexpr std::uint64_t kOdd = detail::every_nth_bit(2 * sizeof(E)) << sizeof(E);
  svbool_t r{};
  const unsigned vb = vector_bytes();
  for (unsigned w = 0; w < svbool_t::kWords; ++w) {
    const std::uint64_t odd = kOdd & detail::low_bytes_mask(vb, w);
    r.word[w] = ((a.word[w] & odd) >> sizeof(E)) | (b.word[w] & odd);
  }
  return r;
}

/// BRKN: propagate break condition (used by compiler-generated VLA loops,
/// cf. the Sec. IV-A listing).  Returns b if (pg AND a) has its last active
/// element true, else all-false.
inline svbool_t svbrkn_b_z(const svbool_t& pg, const svbool_t& a, const svbool_t& b) {
  detail::record(InsnClass::kPredicate, "brkn p, p/z, p, p", "b");
  const unsigned vb = vector_bytes();
  for (unsigned w = svbool_t::kWords; w-- > 0;) {
    const std::uint64_t g = pg.word[w] & detail::low_bytes_mask(vb, w);
    if (g != 0) {
      const unsigned last = 63 - static_cast<unsigned>(std::countl_zero(g));
      return (a.word[w] >> last) & 1u ? b : svbool_t{};
    }
  }
  return svbool_t{};
}

}  // namespace svelat::sve
