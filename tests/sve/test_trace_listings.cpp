// Golden instruction traces of the paper's code examples at VL128, VL256
// and VL512, the vector lengths the paper enables in Grid (Sec. V-B).
//
// Runs the Sec. IV kernels and the Sec. V-C/V-E MultComplex functors (the
// listings examples/code_listings prints) under a Tracer and compares the
// folded listing with the expected text below, so any change to a
// mnemonic, suffix, operand form, order or count of the simulated
// instruction stream fails here.  As in examples/code_listings, the inputs
// are two vectors' worth of elements at each VL and the functors are
// instantiated for that VL (acle<T, VLB> on fixed-length registers), so the
// listings are the same text at every VL.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/kernels.h"
#include "simd/simd_complex.h"
#include "sve/sve.h"

namespace svelat {
namespace {

template <typename F>
std::string folded_trace(F&& run) {
  sve::Tracer tracer;
  {
    sve::TraceScope scope(tracer);
    run();
  }
  return tracer.folded_listing();
}

/// Trace of one MultComplex functor product a*b at vector length VLB.
template <std::size_t VLB, class Policy>
std::string product_trace() {
  using C = simd::SimdComplex<double, VLB, Policy>;
  const C a(1.0, 0.5), b(2.0, -0.25);
  return folded_trace([&] { (void)(a * b); });
}

class TraceListingTest : public ::testing::TestWithParam<unsigned> {
 protected:
  /// product_trace at the VLB that matches the current VL.
  template <class Policy>
  static std::string functor_trace() {
    switch (GetParam()) {
      case 128: return product_trace<simd::kVLB128, Policy>();
      case 256: return product_trace<simd::kVLB256, Policy>();
      default: return product_trace<simd::kVLB512, Policy>();
    }
  }

  // Declared first: the inputs below are sized at the parameter's VL.
  const sve::VLGuard vl_{GetParam()};
  // The inputs of examples/code_listings: two vectors' worth of elements.
  const std::size_t n_ = 2 * sve::lanes<double>();
  std::vector<double> x_ = std::vector<double>(2 * n_, 1.0);
  std::vector<double> y_ = std::vector<double>(2 * n_, 2.0);
  std::vector<double> z_ = std::vector<double>(2 * n_);
  std::vector<kernels::cplx> cx_ = std::vector<kernels::cplx>(n_, {1.0, 0.5});
  std::vector<kernels::cplx> cy_ = std::vector<kernels::cplx>(n_, {2.0, -0.25});
  std::vector<kernels::cplx> cz_ = std::vector<kernels::cplx>(n_);
};

TEST_P(TraceListingTest, MultRealVlaLoopSecIVA) {
  EXPECT_EQ(folded_trace([&] {
              kernels::mult_real_sve(n_, x_.data(), y_.data(), z_.data());
            }),
            R"(   1  whilelt p.d
   2  ld1 z, p/z, [x].d   (x2)
   3  fmul z, p/m, z, z.d
   4  st1 z, p, [x].d
   5  cntd x
   6  whilelt p.d
   7  ld1 z, p/z, [x].d   (x2)
   8  fmul z, p/m, z, z.d
   9  st1 z, p, [x].d
  10  cntd x
)");
}

TEST_P(TraceListingTest, MultCplxAutovecSecIVB) {
  EXPECT_EQ(folded_trace([&] {
              kernels::mult_cplx_autovec(n_, cx_.data(), cy_.data(), cz_.data());
            }),
            R"(   1  ptrue p.d
   2  whilelt p.d
   3  ld2 {z, z}, p/z, [x].d   (x2)
   4  fmul z, p/m, z, z.d
   5  fmla z, p/m, z, z.d
   6  fmul z, p/m, z, z.d
   7  fnmls z, p/m, z, z.d
   8  st2 {z, z}, p, [x].d
   9  cntd x
  10  whilelt p.d
  11  ld2 {z, z}, p/z, [x].d   (x2)
  12  fmul z, p/m, z, z.d
  13  fmla z, p/m, z, z.d
  14  fmul z, p/m, z, z.d
  15  fnmls z, p/m, z, z.d
  16  st2 {z, z}, p, [x].d
  17  cntd x
)");
}

TEST_P(TraceListingTest, MultCplxAcleVlaLoopSecIVC) {
  EXPECT_EQ(folded_trace([&] {
              kernels::mult_cplx_acle(n_, x_.data(), y_.data(), z_.data());
            }),
            R"(   1  dup z.d
   2  whilelt p.d
   3  ld1 z, p/z, [x].d   (x2)
   4  fcmla z, p/m, z, z.d, #90
   5  fcmla z, p/m, z, z.d, #0
   6  st1 z, p, [x].d
   7  cntd x
   8  whilelt p.d
   9  ld1 z, p/z, [x].d   (x2)
  10  fcmla z, p/m, z, z.d, #90
  11  fcmla z, p/m, z, z.d, #0
  12  st1 z, p, [x].d
  13  cntd x
  14  whilelt p.d
  15  ld1 z, p/z, [x].d   (x2)
  16  fcmla z, p/m, z, z.d, #90
  17  fcmla z, p/m, z, z.d, #0
  18  st1 z, p, [x].d
  19  cntd x
  20  whilelt p.d
  21  ld1 z, p/z, [x].d   (x2)
  22  fcmla z, p/m, z, z.d, #90
  23  fcmla z, p/m, z, z.d, #0
  24  st1 z, p, [x].d
  25  cntd x
)");
}

TEST_P(TraceListingTest, MultCplxAcleFixedSizeSecIVD) {
  EXPECT_EQ(folded_trace([&] {
              kernels::mult_cplx_acle_fixed(x_.data(), y_.data(), z_.data());
            }),
            R"(   1  dup z.d
   2  ptrue p.d
   3  ld1 z, p/z, [x].d   (x2)
   4  fcmla z, p/m, z, z.d, #90
   5  fcmla z, p/m, z, z.d, #0
   6  st1 z, p, [x].d
)");
}

TEST_P(TraceListingTest, MultComplexFunctorFcmlaSecVC) {
  EXPECT_EQ(functor_trace<simd::SveFcmla>(), R"(   1  ptrue p.d
   2  dup z.d
   3  ld1 z, p/z, [x].d   (x2)
   4  fcmla z, p/m, z, z.d, #90
   5  fcmla z, p/m, z, z.d, #0
   6  st1 z, p, [x].d
)");
}

TEST_P(TraceListingTest, MultComplexFunctorRealSecVE) {
  EXPECT_EQ(functor_trace<simd::SveReal>(), R"(   1  ptrue p.d
   2  pfalse p.b
   3  ptrue p.d
   4  trn1 p, p, p.d
   5  ptrue p.d
   6  pfalse p.b
   7  trn1 p, p, p.d
   8  ld1 z, p/z, [x].d   (x2)
   9  trn1 z, z, z.d
  10  trn2 z, z, z.d
  11  ptrue p.d
  12  ld1 z, p/z, [x].d
  13  tbl z, {z}, z.d
  14  dup z.d
  15  fmls z, p/m, z, z.d
  16  fmla z, p/m, z, z.d   (x2)
  17  st1 z, p, [x].d
)");
}

INSTANTIATE_TEST_SUITE_P(PaperVectorLengths, TraceListingTest,
                         ::testing::Values(128u, 256u, 512u),
                         [](const ::testing::TestParamInfo<unsigned>& info) {
                           return "VL" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace svelat
