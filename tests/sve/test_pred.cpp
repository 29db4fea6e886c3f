// Predicate intrinsic tests across all vector lengths.
#include <gtest/gtest.h>

#include <random>

#include "sve/sve.h"
#include "sve_test_util.h"

namespace svelat::sve {
namespace {

using testing::VLTest;

class PredTest : public VLTest {};

TEST_P(PredTest, PtrueActivatesAllElements) {
  const svbool_t pd = svptrue_b64();
  const svbool_t ps = svptrue_b32();
  const svbool_t ph = svptrue_b16();
  for (unsigned i = 0; i < lanes<double>(); ++i)
    EXPECT_TRUE(detail::pred_elem<double>(pd, i)) << i;
  for (unsigned i = 0; i < lanes<float>(); ++i)
    EXPECT_TRUE(detail::pred_elem<float>(ps, i)) << i;
  for (unsigned i = 0; i < lanes<std::uint16_t>(); ++i)
    EXPECT_TRUE(detail::pred_elem<std::uint16_t>(ph, i)) << i;
}

TEST_P(PredTest, PtrueElementGranularity) {
  // ptrue.d sets only the first byte of each 64-bit element, like hardware.
  const svbool_t pd = svptrue_b64();
  for (unsigned b = 0; b < vector_bytes(); ++b) {
    EXPECT_EQ(pd.bit(b), b % 8 == 0) << b;
  }
}

TEST_P(PredTest, PfalseDeactivatesEverything) {
  const svbool_t p = svpfalse_b();
  for (unsigned b = 0; b < vector_bytes(); ++b) EXPECT_FALSE(p.bit(b));
  EXPECT_FALSE(svptest_any(svptrue_b8(), p));
}

TEST_P(PredTest, WhileltPartial) {
  const unsigned nd = lanes<double>();
  // Ask for 3 elements starting at 0: exactly min(3, nd) active.
  const svbool_t p = svwhilelt_b64(0, 3);
  for (unsigned i = 0; i < nd; ++i)
    EXPECT_EQ(detail::pred_elem<double>(p, i), i < 3u) << i;
}

TEST_P(PredTest, WhileltOffset) {
  const unsigned nd = lanes<double>();
  // Elements j with 5 + j < 7 active: j in {0, 1}.
  const svbool_t p = svwhilelt_b64(5, 7);
  for (unsigned i = 0; i < nd; ++i)
    EXPECT_EQ(detail::pred_elem<double>(p, i), i < 2u) << i;
}

TEST_P(PredTest, WhileltBeyondEndIsEmpty) {
  const svbool_t p = svwhilelt_b64(10, 10);
  EXPECT_FALSE(svptest_any(svptrue_b8(), p));
}

TEST_P(PredTest, WhileltFullEqualsPtrue) {
  const unsigned nd = lanes<double>();
  const svbool_t a = svwhilelt_b64(0, nd);
  const svbool_t b = svptrue_b64();
  for (unsigned i = 0; i < nd; ++i)
    EXPECT_EQ(detail::pred_elem<double>(a, i), detail::pred_elem<double>(b, i));
}

TEST_P(PredTest, ElementCounts) {
  EXPECT_EQ(svcntb(), vector_bytes());
  EXPECT_EQ(svcnth(), vector_bytes() / 2);
  EXPECT_EQ(svcntw(), vector_bytes() / 4);
  EXPECT_EQ(svcntd(), vector_bytes() / 8);
}

TEST_P(PredTest, CntpCountsActive) {
  const svbool_t pg = svptrue_b64();
  EXPECT_EQ(svcntp_b64(pg, svwhilelt_b64(0, 2)), std::min<std::uint64_t>(2, lanes<double>()));
  EXPECT_EQ(svcntp_b64(pg, svptrue_b64()), lanes<double>());
  EXPECT_EQ(svcntp_b64(pg, svpfalse_b()), 0u);
}

TEST_P(PredTest, PredicateLogicals) {
  const svbool_t pg = svptrue_b64();
  const svbool_t a = svwhilelt_b64(0, 3);
  const svbool_t b = svwhilelt_b64(0, 1);
  const svbool_t andp = svand_b_z(pg, a, b);
  const svbool_t orp = svorr_b_z(pg, a, b);
  const svbool_t eorp = sveor_b_z(pg, a, b);
  const svbool_t notb = svnot_b_z(pg, b);
  const unsigned nd = lanes<double>();
  for (unsigned i = 0; i < nd; ++i) {
    const bool ai = i < 3u, bi = i < 1u;
    EXPECT_EQ(detail::pred_elem<double>(andp, i), ai && bi) << i;
    EXPECT_EQ(detail::pred_elem<double>(orp, i), ai || bi) << i;
    EXPECT_EQ(detail::pred_elem<double>(eorp, i), ai != bi) << i;
    EXPECT_EQ(detail::pred_elem<double>(notb, i), !bi) << i;
  }
}

TEST_P(PredTest, PtestFirst) {
  EXPECT_TRUE(svptest_first(svptrue_b64(), svwhilelt_b64(0, 1)));
  EXPECT_FALSE(svptest_first(svptrue_b64(), svpfalse_b()));
}

TEST_P(PredTest, VlaLoopCoversExactlyNElements) {
  // The canonical VLA loop of paper Sec. IV-C: iterate i += svcntd() with
  // pg = whilelt(i, n); every element in [0, n) must be covered exactly once.
  const std::uint64_t n = 2 * lanes<double>() + 3;
  std::vector<unsigned> covered(n, 0);
  for (std::uint64_t i = 0; i < n; i += svcntd()) {
    const svbool_t pg = svwhilelt_b64(i, n);
    for (unsigned j = 0; j < lanes<double>(); ++j)
      if (detail::pred_elem<double>(pg, j)) ++covered[i + j];
  }
  for (std::uint64_t i = 0; i < n; ++i) EXPECT_EQ(covered[i], 1u) << i;
}

/// No bit at or above vector_bytes() may be set: the predicate analogue of
/// ArithTest.InactiveStorageAboveVLIsZero.
void expect_clear_above_vl(const svbool_t& p, const char* what) {
  for (unsigned b = vector_bytes(); b < kMaxVectorBytes; ++b)
    EXPECT_FALSE(p.bit(b)) << what << " bit " << b;
}

/// Per-element random predicate for E, built only with set_pred_elem.
template <typename E>
svbool_t random_pred(std::mt19937& rng, unsigned percent_active) {
  svbool_t p{};
  for (unsigned i = 0; i < lanes<E>(); ++i)
    detail::set_pred_elem<E>(p, i, rng() % 100 < percent_active);
  return p;
}

/// p as a wider VL could have left it: every bit above the current VL set.
/// Such bits must not change what a consumer computes.
svbool_t with_stale_bits(svbool_t p) {
  for (unsigned w = 0; w < svbool_t::kWords; ++w)
    p.word[w] |= ~detail::low_bytes_mask(vector_bytes(), w);
  return p;
}

void expect_same(const svbool_t& got, const svbool_t& want, const char* what) {
  for (unsigned w = 0; w < svbool_t::kWords; ++w)
    EXPECT_EQ(got.word[w], want.word[w]) << what << " word " << w;
}

template <typename E>
void check_word_masks() {
  SCOPED_TRACE(::testing::Message() << "sizeof(E) = " << sizeof(E));
  const unsigned n = lanes<E>();

  // Producers, fed where possible with a predicate that has every bit set
  // (built at the maximum VL), so a missing VL mask would show.
  svbool_t wide{};
  {
    VLGuard max_vl(kMaxVectorBits);
    wide = svptrue_b8();
  }
  expect_clear_above_vl(svptrue<E>(), "ptrue");
  expect_clear_above_vl(svwhilelt<E>(7, 7), "whilelt empty");
  expect_clear_above_vl(svwhilelt<E>(0, n / 2 + 1), "whilelt partial");
  expect_clear_above_vl(svwhilelt<E>(0, n), "whilelt full");
  expect_clear_above_vl(svwhilelt<E>(0, ~std::uint64_t{0}), "whilelt huge");
  expect_clear_above_vl(svpfalse_b(), "pfalse");
  expect_clear_above_vl(svand_b_z(wide, wide, wide), "and");
  expect_clear_above_vl(svorr_b_z(wide, wide, svpfalse_b()), "orr");
  expect_clear_above_vl(sveor_b_z(wide, wide, svpfalse_b()), "eor");
  expect_clear_above_vl(svnot_b_z(wide, svpfalse_b()), "not");
  expect_clear_above_vl(svtrn1_b<E>(wide, wide), "trn1");
  expect_clear_above_vl(svtrn2_b<E>(wide, wide), "trn2");
  svreg<E> x{}, y{};
  for (unsigned i = 0; i < svreg<E>::kMaxLanes; ++i) {
    x.lane[i] = static_cast<E>(i % 3);
    y.lane[i] = static_cast<E>(1);
  }
  expect_clear_above_vl(svcmpeq<E>(wide, x, y), "cmpeq");
  expect_clear_above_vl(svcmpne<E>(wide, x, y), "cmpne");
  expect_clear_above_vl(svcmplt<E>(wide, x, y), "cmplt");
  expect_clear_above_vl(svcmpgt<E>(wide, x, y), "cmpgt");
  expect_clear_above_vl(svbrkn_b_z(svptrue<E>(), svptrue<E>(), svptrue<E>()), "brkn");

  // Word-level ops against a per-element reference.
  std::mt19937 rng(vector_bits() * 16 + sizeof(E));
  for (unsigned trial = 0; trial < 24; ++trial) {
    const unsigned density = trial % 4 == 0 ? 0 : 25 * (trial % 4);  // 0..75 %
    const svbool_t pg = random_pred<E>(rng, trial % 3 == 0 ? 100 : 60);
    const svbool_t a = random_pred<E>(rng, density);
    const svbool_t b = random_pred<E>(rng, 50);
    const svbool_t pg_stale = with_stale_bits(pg), a_stale = with_stale_bits(a);

    svbool_t trn1{}, trn2{};
    for (unsigned i = 0; i + 1 < n; i += 2) {
      detail::set_pred_elem<E>(trn1, i, detail::pred_elem<E>(a, i));
      detail::set_pred_elem<E>(trn1, i + 1, detail::pred_elem<E>(b, i));
      detail::set_pred_elem<E>(trn2, i, detail::pred_elem<E>(a, i + 1));
      detail::set_pred_elem<E>(trn2, i + 1, detail::pred_elem<E>(b, i + 1));
    }
    expect_same(svtrn1_b<E>(a, b), trn1, "trn1");
    expect_same(svtrn2_b<E>(a, b), trn2, "trn2");

    std::uint64_t count = 0;
    bool first = false, seen = false, last = false;
    for (unsigned i = 0; i < n; ++i) {
      if (!detail::pred_elem<E>(pg, i)) continue;
      if (detail::pred_elem<E>(a, i)) ++count;
      if (!seen) first = detail::pred_elem<E>(a, i);
      seen = true;
      last = detail::pred_elem<E>(a, i);
    }
    std::uint64_t cntp = 0;
    if constexpr (sizeof(E) == 1) cntp = svcntp_b8(pg_stale, a_stale);
    if constexpr (sizeof(E) == 2) cntp = svcntp_b16(pg_stale, a_stale);
    if constexpr (sizeof(E) == 4) cntp = svcntp_b32(pg_stale, a_stale);
    if constexpr (sizeof(E) == 8) cntp = svcntp_b64(pg_stale, a_stale);
    EXPECT_EQ(cntp, count);
    EXPECT_EQ(svptest_first(pg_stale, a_stale), first);
    const svbool_t brkn = svbrkn_b_z(pg_stale, a_stale, b);
    expect_same(brkn, last ? b : svbool_t{}, "brkn");
    expect_clear_above_vl(brkn, "brkn");
  }
}

TEST_P(PredTest, WordMasksStayInsideVLAndMatchElementReference) {
  check_word_masks<std::uint8_t>();
  check_word_masks<std::uint16_t>();
  check_word_masks<std::uint32_t>();
  check_word_masks<std::uint64_t>();
}

INSTANTIATE_TEST_SUITE_P(AllVL, PredTest,
                         ::testing::ValuesIn(testing::all_vector_lengths()));

}  // namespace
}  // namespace svelat::sve
