// Fixed-length registers (svreg<E, VL/8>, ACLE's arm_sve_vector_bits) against
// the max-width ACLE registers.  At every vector length, each intrinsic the
// SIMD layer uses must leave bitwise the same active lanes (or memory, or
// scalar), the same instruction-counter deltas and the same trace lines on
// either register width: the fixed-size port's registers change storage,
// never semantics.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <type_traits>
#include <vector>

#include "sve/sve.h"

namespace svelat::sve {
namespace {

static_assert(sizeof(svreg<double, 64>) == 64);
static_assert(sizeof(svreg<float, 16>) == 16 && alignof(svreg<float, 16>) == 16);
static_assert(alignof(svreg<double, 128>) == 64);
static_assert(sizeof(svfloat64_t) == kMaxVectorBytes);

/// What one intrinsic call leaves behind.
struct Observed {
  std::vector<unsigned char> bytes;
  InsnCounters delta;
  std::vector<std::string> trace;
};

/// Run f (which returns the bytes to compare) under a counter scope and a
/// tracer.
template <typename F>
Observed observe(F&& f) {
  Observed o;
  Tracer tracer;
  const CounterScope scope;
  {
    const TraceScope trace(tracer);
    o.bytes = f();
  }
  o.delta = scope.delta();
  o.trace = tracer.lines();
  return o;
}

/// Raw bytes of the first n elements at p: -0.0 and NaN payloads count.
template <typename E>
std::vector<unsigned char> raw(const E* p, unsigned n) {
  const auto* b = reinterpret_cast<const unsigned char*>(p);
  return {b, b + n * sizeof(E)};
}

/// The architecturally visible lanes of r.
template <typename E, std::size_t W>
std::vector<unsigned char> visible(const svreg<E, W>& r) {
  return raw(r.lane, lanes<E>());
}

/// Register filled lane by lane (no simulated instruction): non-integer
/// values of both signs, so FMA rounding and sign handling are exercised.
template <typename E, std::size_t W>
svreg<E, W> fill(int tag) {
  svreg<E, W> r;
  for (unsigned i = 0; i < svreg<E, W>::kMaxLanes; ++i)
    r.lane[i] = static_cast<E>(((tag * 131 + static_cast<int>(i) * 7) % 23 - 11) * 0.37);
  return r;
}

template <typename E, std::size_t B>
struct Case {
  using Elem = E;
  static constexpr std::size_t kBytes = B;
};

template <class C>
class FixedLengthTest : public ::testing::Test {
 protected:
  using E = typename C::Elem;
  static constexpr std::size_t kBytes = C::kBytes;

  void SetUp() override { set_vector_length(static_cast<unsigned>(8 * kBytes)); }
  void TearDown() override { set_vector_length(512); }

  /// The predicates every case runs under: all lanes, and every third
  /// lane inactive (merging and zeroing forms must agree there too).
  static std::vector<svbool_t> predicates() {
    svbool_t mixed = svptrue<E>();
    for (unsigned i = 0; i < lanes<E>(); i += 3)
      detail::set_pred_elem<E>(mixed, i, false);
    return {svptrue<E>(), mixed};
  }

  /// op.operator()<W>() on the fixed-length and the max-width register
  /// must be indistinguishable.
  template <typename Op>
  static void expect_same(Op op) {
    const Observed fixed = observe([&] { return op.template operator()<kBytes>(); });
    const Observed wide =
        observe([&] { return op.template operator()<kMaxVectorBytes>(); });
    EXPECT_EQ(fixed.bytes, wide.bytes);
    EXPECT_EQ(fixed.delta.count, wide.delta.count);
    EXPECT_EQ(fixed.trace, wide.trace);
    EXPECT_EQ(fixed.delta.total(), 1u);
  }
};

using Cases = ::testing::Types<Case<double, 16>, Case<double, 32>, Case<double, 64>,
                               Case<double, 128>, Case<double, 256>, Case<float, 16>,
                               Case<float, 32>, Case<float, 64>, Case<float, 128>,
                               Case<float, 256>>;
TYPED_TEST_SUITE(FixedLengthTest, Cases);

TYPED_TEST(FixedLengthTest, Ld1St1) {
  using E = typename TestFixture::E;
  std::vector<E> src(kMaxVectorBytes / sizeof(E));
  for (std::size_t i = 0; i < src.size(); ++i) src[i] = static_cast<E>(0.5 * i - 3.0);
  for (const svbool_t& pg : this->predicates()) {
    this->expect_same(
        [&]<std::size_t W>() { return visible(svld1<E, W>(pg, src.data())); });
    this->expect_same([&]<std::size_t W>() {
      std::vector<E> dst(src.size(), E{-7});
      svst1(pg, dst.data(), fill<E, W>(1));
      return raw(dst.data(), static_cast<unsigned>(dst.size()));
    });
  }
}

TYPED_TEST(FixedLengthTest, Dup) {
  using E = typename TestFixture::E;
  this->expect_same([]<std::size_t W>() { return visible(svdup<E, W>(E{-2.25})); });
}

TYPED_TEST(FixedLengthTest, AddSubMulNeg) {
  using E = typename TestFixture::E;
  for (const svbool_t& pg : this->predicates()) {
    this->expect_same([&]<std::size_t W>() {
      return visible(svadd_x(pg, fill<E, W>(1), fill<E, W>(2)));
    });
    this->expect_same([&]<std::size_t W>() {
      return visible(svsub_x(pg, fill<E, W>(1), fill<E, W>(2)));
    });
    this->expect_same([&]<std::size_t W>() {
      return visible(svmul_x(pg, fill<E, W>(1), fill<E, W>(2)));
    });
    this->expect_same(
        [&]<std::size_t W>() { return visible(svneg_x(pg, fill<E, W>(3))); });
  }
}

TYPED_TEST(FixedLengthTest, MlaMls) {
  using E = typename TestFixture::E;
  for (const svbool_t& pg : this->predicates()) {
    this->expect_same([&]<std::size_t W>() {
      return visible(svmla_x(pg, fill<E, W>(1), fill<E, W>(2), fill<E, W>(3)));
    });
    this->expect_same([&]<std::size_t W>() {
      return visible(svmls_x(pg, fill<E, W>(1), fill<E, W>(2), fill<E, W>(3)));
    });
  }
}

TYPED_TEST(FixedLengthTest, Sel) {
  using E = typename TestFixture::E;
  for (const svbool_t& pg : this->predicates()) {
    this->expect_same([&]<std::size_t W>() {
      return visible(svsel(pg, fill<E, W>(1), fill<E, W>(2)));
    });
  }
}

TYPED_TEST(FixedLengthTest, FcmlaAllRotations) {
  using E = typename TestFixture::E;
  for (const svbool_t& pg : this->predicates()) {
    for (int rot : {0, 90, 180, 270}) {
      this->expect_same([&]<std::size_t W>() {
        return visible(svcmla_x(pg, fill<E, W>(1), fill<E, W>(2), fill<E, W>(3), rot));
      });
    }
  }
}

TYPED_TEST(FixedLengthTest, Fcadd) {
  using E = typename TestFixture::E;
  for (const svbool_t& pg : this->predicates()) {
    for (int rot : {90, 270}) {
      this->expect_same([&]<std::size_t W>() {
        return visible(svcadd_x(pg, fill<E, W>(1), fill<E, W>(2), rot));
      });
    }
  }
}

TYPED_TEST(FixedLengthTest, Ext) {
  using E = typename TestFixture::E;
  for (unsigned imm : {1u, lanes<E>() / 2}) {
    this->expect_same([&]<std::size_t W>() {
      return visible(svext(fill<E, W>(1), fill<E, W>(2), imm));
    });
  }
}

TYPED_TEST(FixedLengthTest, Tbl) {
  using E = typename TestFixture::E;
  using I = std::conditional_t<sizeof(E) == 8, std::uint64_t, std::uint32_t>;
  this->expect_same([]<std::size_t W>() {
    // A lane swap (the SveReal backend's TBL) with every fifth index out of
    // range, which must read as zero.
    svreg<I, W> idx;
    for (unsigned i = 0; i < svreg<I, W>::kMaxLanes; ++i)
      idx.lane[i] = static_cast<I>(i % 5 == 4 ? lanes<E>() + i : i ^ 1u);
    return visible(svtbl(fill<E, W>(1), idx));
  });
}

TYPED_TEST(FixedLengthTest, Trn1Trn2) {
  using E = typename TestFixture::E;
  this->expect_same([]<std::size_t W>() {
    return visible(svtrn1(fill<E, W>(1), fill<E, W>(2)));
  });
  this->expect_same([]<std::size_t W>() {
    return visible(svtrn2(fill<E, W>(1), fill<E, W>(2)));
  });
}

TYPED_TEST(FixedLengthTest, Addv) {
  using E = typename TestFixture::E;
  for (const svbool_t& pg : this->predicates()) {
    this->expect_same([&]<std::size_t W>() {
      const E sum = svaddv(pg, fill<E, W>(1));
      return raw(&sum, 1);
    });
  }
}

TEST(FixedLengthDeathTest, WrongVectorLengthAborts) {
  // A 512-bit register is only valid on 512-bit hardware; the simulator
  // fails loudly, like acle<T, VLB>::check_vl().
  const VLGuard vl(256);
  EXPECT_DEATH((void)(svdup<double, 64>(1.0)), "fixed-length SVE register");
}

}  // namespace
}  // namespace svelat::sve
