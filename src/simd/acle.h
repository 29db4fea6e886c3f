// acle<T>: the utility traits structure of paper Sec. V-B.
//
// "We exploit different features of [the ACLE spec], which we augmented by
//  the utility C++ templated structure acle<T>.  It is used to simplify
//  mapping C++ data types in Grid to data types supported by SVE ACLE.
//  It is also used to provide various definitions for predication."
//
// The port is *not* vector-length agnostic: predicates cover the
// compile-time lane count of vec<T, VLB>, and using them is only correct
// when the hardware vector length matches VLB (paper Sec. V-B: "our
// implementation is bound to the vector length of the target hardware").
// check_vl() enforces that contract at run time against the simulator.
// The vector types follow ACLE's arm_sve_vector_bits(8*VLB): fixed-length
// registers of exactly VLB bytes (sve_types.h), which every intrinsic also
// checks against the simulated vector length.
#pragma once

#include <cstdint>

#include "simd/vec.h"
#include "sve/sve.h"

namespace svelat::simd {

namespace detail {
/// Index table for swapping adjacent lanes (re <-> im), an ordinary static
/// array (storing ACLE vectors statically is illegal; tables in memory are
/// how the real port provides TBL indices).
template <typename I, std::size_t N>
struct SwapTable {
  I idx[N];
  constexpr SwapTable() : idx() {
    for (std::size_t i = 0; i < N; ++i) idx[i] = static_cast<I>(i ^ 1u);
  }
};

/// Index table for block permutes: lane i maps to lane i XOR d.
template <typename I, std::size_t N>
struct XorTable {
  I idx[N];
  constexpr explicit XorTable(std::size_t d) : idx() {
    for (std::size_t i = 0; i < N; ++i) idx[i] = static_cast<I>(i ^ d);
  }
};
}  // namespace detail

/// Maps a framework scalar type T to ACLE vector/predicate machinery for a
/// fixed vector length of VLB bytes.
template <typename T, std::size_t VLB>
struct acle {
  static_assert(is_vec_element<T>);

  /// The fixed-length ACLE vector type (arm_sve_vector_bits): function-local
  /// use only.
  using vt = sve::svreg<T, VLB>;
  /// Unsigned integer type of the same width, for TBL index vectors.
  using index_t = std::conditional_t<
      sizeof(T) == 8, std::uint64_t,
      std::conditional_t<sizeof(T) == 4, std::uint32_t, std::uint16_t>>;
  using ivt = sve::svreg<index_t, VLB>;

  static constexpr unsigned lanes = static_cast<unsigned>(vec<T, VLB>::size);

  /// Abort unless the simulated hardware VL matches the compile-time VLB.
  /// (The paper's binaries would silently misbehave; we fail loudly.)
  static void check_vl() {
    SVELAT_ASSERT_MSG(sve::vector_bytes() == VLB,
                      "simulated SVE vector length does not match the compile-time "
                      "SVE_VECTOR_LENGTH of this instantiation");
  }

  /// Full predicate over the vec<T> lanes.  PTRUE is what the fixed-size
  /// port uses (paper Sec. IV-D / V-C); correct only on matching hardware,
  /// which check_vl() guarantees.
  static sve::svbool_t pg1() {
    check_vl();
    return sve::svptrue<T>();
  }

  /// VLA-safe variant of pg1 (WHILELT): correct whenever hardware VL >= VLB.
  /// Used by tests that demonstrate the difference between the two schemes.
  static sve::svbool_t pg1_vla() { return sve::svwhilelt<T>(0, lanes); }

  /// Predicate selecting even lanes (real parts of interleaved complex).
  static sve::svbool_t pg_even() {
    return sve::svtrn1_b<T>(sve::svptrue<T>(), sve::svpfalse_b());
  }

  /// Predicate selecting odd lanes (imaginary parts).
  static sve::svbool_t pg_odd() {
    return sve::svtrn1_b<T>(sve::svpfalse_b(), sve::svptrue<T>());
  }

  static vt zero() { return sve::svdup<T, VLB>(T{}); }

  static vt load(const T* p) { return sve::svld1<T, VLB>(pg1(), p); }
  static void store(T* p, const vt& v) { sve::svst1(pg1(), p, v); }

  /// TBL index vector swapping adjacent lanes (re <-> im).
  static ivt swap_index() {
    static constexpr detail::SwapTable<index_t, vec<T, VLB>::size> table{};
    return sve::svld1<index_t, VLB>(pg1(), table.idx);
  }

  /// TBL index vector for the lane permutation i -> i XOR d (d a power of
  /// two): the block exchanges of Grid's virtual-node layout.
  static ivt xor_index(std::size_t d) {
    // One static table per distance; distances are powers of two < lanes.
    // (Sized for up to 2048-bit/f16 = 128 lanes: the "specialization of
    // lower-level functionality" wide vectors need, paper Sec. V-B.)
    static const detail::XorTable<index_t, vec<T, VLB>::size> tables[] = {
        detail::XorTable<index_t, vec<T, VLB>::size>(1),
        detail::XorTable<index_t, vec<T, VLB>::size>(2),
        detail::XorTable<index_t, vec<T, VLB>::size>(4),
        detail::XorTable<index_t, vec<T, VLB>::size>(8),
        detail::XorTable<index_t, vec<T, VLB>::size>(16),
        detail::XorTable<index_t, vec<T, VLB>::size>(32),
        detail::XorTable<index_t, vec<T, VLB>::size>(64),
    };
    unsigned log2d = 0;
    while ((1u << log2d) < d) ++log2d;
    SVELAT_ASSERT_MSG((1u << log2d) == d && d < lanes,
                      "permute distance must be a power of two below the lane count");
    return sve::svld1<index_t, VLB>(pg1(), tables[log2d].idx);
  }
};

}  // namespace svelat::simd
