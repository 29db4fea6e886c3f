// Register types of the SVE simulator.
//
// Hardware SVE registers are "sizeless": their width is only known at run
// time, so ACLE types may not be class members, sizeof() operands, or
// statics (paper Sec. III-C).  The simulator backs every register with
// storage for the architectural maximum (2048 bit) and lets the runtime
// vector length (sve_config.h) decide how many lanes are architecturally
// visible.  To preserve the paper's port constraints we treat these types
// *as if* they were sizeless: framework classes must never hold them as
// data members -- that is what simd::vec<T> (an ordinary array) is for.
//
// Predicate registers have the hardware layout: one bit per *byte* of the
// vector (VL/8 bits; paper Sec. III), packed little-endian into four 64-bit
// words that cover the 2048-bit maximum.  Bit b covers vector byte b; an
// element of width w is active iff the bit of its lowest-addressed byte is
// set, and producers never set the other w-1 bits or any bit at or above
// vector_bytes().  Predicate instructions therefore work on whole words.
#pragma once

#include <cstdint>

#include "support/half.h"
#include "sve/sve_config.h"

namespace svelat::sve {

// ACLE scalar aliases (ACLE spells them float64_t etc.).
using float64_t = double;
using float32_t = float;
using float16_t = svelat::half;

/// Generic simulated vector register with element type E.
template <typename E>
struct svreg {
  static constexpr unsigned kMaxLanes =
      static_cast<unsigned>(kMaxVectorBytes / sizeof(E));
  alignas(64) E lane[kMaxLanes];
};

using svfloat64_t = svreg<float64_t>;
using svfloat32_t = svreg<float32_t>;
using svfloat16_t = svreg<float16_t>;
using svint32_t = svreg<std::int32_t>;
using svint64_t = svreg<std::int64_t>;
using svuint16_t = svreg<std::uint16_t>;
using svuint32_t = svreg<std::uint32_t>;
using svuint64_t = svreg<std::uint64_t>;

/// Predicate register: one bit per byte of the widest vector.
struct svbool_t {
  static constexpr unsigned kWords = static_cast<unsigned>(kMaxVectorBytes / 64);
  std::uint64_t word[kWords];

  /// The bit of vector byte b.
  bool bit(unsigned b) const { return (word[b / 64] >> (b % 64)) & 1u; }
};

/// Tuples returned by structure loads (ACLE svfloat64x2_t and friends).
template <typename E, unsigned N>
struct svregx {
  svreg<E> reg[N];
};

template <typename E>
using svregx2 = svregx<E, 2>;
template <typename E>
using svregx3 = svregx<E, 3>;
template <typename E>
using svregx4 = svregx<E, 4>;

using svfloat64x2_t = svregx<float64_t, 2>;
using svfloat64x3_t = svregx<float64_t, 3>;
using svfloat64x4_t = svregx<float64_t, 4>;
using svfloat32x2_t = svregx<float32_t, 2>;
using svfloat32x3_t = svregx<float32_t, 3>;
using svfloat32x4_t = svregx<float32_t, 4>;
using svfloat16x2_t = svregx<float16_t, 2>;

/// ACLE tuple accessors.
template <typename E, unsigned N>
inline svreg<E> svget2(const svregx<E, N>& t, unsigned idx) {
  SVELAT_DEBUG_ASSERT(idx < N);
  return t.reg[idx];
}

namespace detail {

/// Number of architecturally visible lanes for E at the current VL.
template <typename E>
inline unsigned active_lanes() {
  return lanes<E>();
}

/// Every stride-th bit of a 64-bit word from bit 0, for strides 1..16.
constexpr std::uint64_t every_nth_bit(unsigned stride) {
  return ~std::uint64_t{0} / ((std::uint64_t{1} << stride) - 1);
}

/// Bits of one predicate word that hold element starts for E: every
/// sizeof(E)-th bit (0xff..ff, 0x55..55, 0x11..11, 0x0101..01).
template <typename E>
inline constexpr std::uint64_t kElemStartBits = every_nth_bit(sizeof(E));

/// Bits of predicate word w that cover the first `bytes` vector bytes.
inline std::uint64_t low_bytes_mask(unsigned bytes, unsigned w) {
  const unsigned lo = 64 * w;
  if (bytes >= lo + 64) return ~std::uint64_t{0};
  if (bytes <= lo) return 0;
  return (std::uint64_t{1} << (bytes - lo)) - 1;
}

/// Element-start bits for E of predicate word w at the current VL: word w
/// of PTRUE for E.
template <typename E>
inline std::uint64_t pred_word_mask(unsigned w) {
  return kElemStartBits<E> & low_bytes_mask(vector_bytes(), w);
}

/// Is element i of type E active under predicate pg?
template <typename E>
inline bool pred_elem(const svbool_t& pg, unsigned i) {
  return pg.bit(i * static_cast<unsigned>(sizeof(E)));
}

/// Set element i of type E in pg (only the lowest byte's bit matters, but we
/// clear the rest of the element's bits the way PTRUE/WHILELT do).
template <typename E>
inline void set_pred_elem(svbool_t& pg, unsigned i, bool value) {
  const unsigned b = i * static_cast<unsigned>(sizeof(E));
  constexpr std::uint64_t kElemBits = (std::uint64_t{1} << sizeof(E)) - 1;
  std::uint64_t& word = pg.word[b / 64];
  word = (word & ~(kElemBits << (b % 64))) | (std::uint64_t{value} << (b % 64));
}

/// Zero all lanes above the current VL so stale max-width storage can never
/// leak into results (hardware would simply not have those lanes).
template <typename E>
inline void clear_inactive_storage(svreg<E>& r, unsigned from_lane) {
  for (unsigned i = from_lane; i < svreg<E>::kMaxLanes; ++i) r.lane[i] = E{};
}

}  // namespace detail

}  // namespace svelat::sve
