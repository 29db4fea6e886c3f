// The paper's vec<T>: an ordinary aligned array standing in for a vector
// register (Sec. V-C listing).
//
// SVE ACLE types are sizeless and may not be class member data, so Grid's
// usual "intrinsic type as member" scheme is impossible; instead the port
// stores an ordinary array whose byte size equals the compile-time constant
// SVE_VECTOR_LENGTH, and uses ACLE only inside functions, loading from and
// storing to this array.  Our VLB template parameter plays the role of
// SVE_VECTOR_LENGTH (bytes); the paper enables 16, 32 and 64 (128-, 256-
// and 512-bit vectors).  Inside those functions the registers are
// fixed-length too: acle<T, VLB>::vt is svreg<T, VLB>, ACLE's
// arm_sve_vector_bits(8*VLB) type, holding exactly one vec<T, VLB>.
#pragma once

#include <complex>
#include <cstddef>

#include "support/half.h"

namespace svelat::simd {

/// Vector lengths (bytes) the lattice framework is specialized for,
/// mirroring the set enabled in Grid by the paper (Sec. V-B).
inline constexpr std::size_t kVLB128 = 16;
inline constexpr std::size_t kVLB256 = 32;
inline constexpr std::size_t kVLB512 = 64;

/// Wider vectors: the paper notes 1024-bit and beyond are "possible but
/// specialization of some of the lower-level functionality is necessary"
/// (Sec. V-B).  The SIMD layer implements them (the specialization turned
/// out to be the permute-table sizing in acle<T>); the lattice layer keeps
/// the paper's 128/256/512 restriction.
inline constexpr std::size_t kVLB1024 = 128;
inline constexpr std::size_t kVLB2048 = 256;

constexpr bool is_supported_vlb(std::size_t vlb) {
  return vlb == kVLB128 || vlb == kVLB256 || vlb == kVLB512 || vlb == kVLB1024 ||
         vlb == kVLB2048;
}

/// Grid-style SIMD storage: an aligned ordinary array of VLB bytes.
template <typename T, std::size_t VLB>
struct vec {
  static_assert(is_supported_vlb(VLB), "vector length must be 128..2048 bit");
  static_assert(VLB % sizeof(T) == 0, "vector length not a multiple of element size");

  static constexpr std::size_t size = VLB / sizeof(T);

  alignas(VLB) T v[size];
};

// The supported element types (Sec. V-B: 64/32/16-bit floats and 32-bit
// integers; fp16 participates only in precision conversion).
template <typename T>
inline constexpr bool is_vec_element =
    std::is_same_v<T, double> || std::is_same_v<T, float> || std::is_same_v<T, half> ||
    std::is_same_v<T, std::uint32_t>;

/// Number of complex scalars a vec<T> holds when (re, im) interleaved.
template <typename T, std::size_t VLB>
inline constexpr std::size_t complex_lanes = vec<T, VLB>::size / 2;

}  // namespace svelat::simd
