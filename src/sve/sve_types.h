// Register types of the SVE simulator.
//
// Hardware SVE registers are "sizeless": their width is only known at run
// time, so ACLE types may not be class members, sizeof() operands, or
// statics (paper Sec. III-C).  The simulator backs every ACLE register type
// (svfloat64_t and friends) with storage for the architectural maximum
// (2048 bit) and lets the runtime vector length (sve_config.h) decide how
// many lanes are architecturally visible; lanes above it are kept zero.
// To preserve the paper's port constraints we treat these types *as if*
// they were sizeless: framework classes must never hold them as data
// members -- that is what simd::vec<T> (an ordinary array) is for.
//
// Fixed-length registers follow ACLE's arm_sve_vector_bits(N) types (what
// armclang's -msve-vector-bits=N gives code bound to one vector length,
// like the paper's SVE_VECTOR_LENGTH port, Sec. V-B): svreg<E, Bytes> with
// Bytes < 256 holds exactly Bytes bytes and is only valid while the
// simulated VL is Bytes*8 bits.  Every intrinsic checks that on each use
// (detail::reg_lanes) and aborts on a mismatch, so such a register has no
// storage above the VL and its lane loops have a compile-time trip count.
//
// Predicate registers have the hardware layout: one bit per *byte* of the
// vector (VL/8 bits; paper Sec. III), packed little-endian into four 64-bit
// words that cover the 2048-bit maximum.  Bit b covers vector byte b; an
// element of width w is active iff the bit of its lowest-addressed byte is
// set, and producers never set the other w-1 bits or any bit at or above
// vector_bytes().  Predicate instructions therefore work on whole words.
#pragma once

#include <cstddef>
#include <cstdint>

#include "support/half.h"
#include "sve/sve_config.h"

namespace svelat::sve {

// ACLE scalar aliases (ACLE spells them float64_t etc.).
using float64_t = double;
using float32_t = float;
using float16_t = svelat::half;

/// Simulated vector register with element type E and Bytes bytes of
/// storage: the maximum for the (vector-length agnostic) ACLE types, the
/// fixed vector length for arm_sve_vector_bits-style registers.
template <typename E, std::size_t Bytes = kMaxVectorBytes>
struct svreg {
  static_assert(is_valid_vector_length(static_cast<unsigned>(8 * Bytes)),
                "register storage must be a legal SVE vector length");
  static constexpr unsigned kMaxLanes = static_cast<unsigned>(Bytes / sizeof(E));
  alignas(Bytes < 64 ? Bytes : 64) E lane[kMaxLanes];
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

namespace detail {

/// Number of architecturally visible lanes of a register svreg<E, Bytes>:
/// lanes<E>() for the max-width ACLE types.  A fixed-length register is
/// only valid at VL == Bytes*8 (checked always, like acle::check_vl());
/// its lane count is then a compile-time constant.
template <typename E, std::size_t Bytes>
inline unsigned reg_lanes() {
  if constexpr (Bytes == kMaxVectorBytes) {
    return lanes<E>();
  } else {
    SVELAT_ASSERT_MSG(vector_bytes() == Bytes,
                      "fixed-length SVE register (arm_sve_vector_bits) used at a "
                      "different simulated vector length");
    return svreg<E, Bytes>::kMaxLanes;
  }
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
/// leak into results (hardware would simply not have those lanes).  A no-op
/// for fixed-length registers, which have no storage above the VL.
template <typename E, std::size_t Bytes>
inline void clear_inactive_storage(svreg<E, Bytes>& r, unsigned from_lane) {
  for (unsigned i = from_lane; i < svreg<E, Bytes>::kMaxLanes; ++i) r.lane[i] = E{};
}

}  // namespace detail

}  // namespace svelat::sve
