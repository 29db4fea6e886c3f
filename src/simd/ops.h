// Functor layer: the machine-specific operations of Grid's abstraction
// (paper Sec. II-C): arithmetic of real and complex numbers, permutations
// of vector elements, load/store, and reductions -- in three backends
// (see policy.h).
//
// Data convention: a vec<T> holds size/2 complex numbers with real parts in
// even lanes and imaginary parts in odd lanes, the layout FCMLA expects
// (paper Sec. III-D).
#pragma once

#include <complex>

#include "simd/acle.h"
#include "simd/policy.h"
#include "simd/vec.h"

namespace svelat::simd {

template <class Policy>
struct Ops;

// ---------------------------------------------------------------------------
// Generic backend: plain scalar loops (Table I "generic C/C++" row).
// ---------------------------------------------------------------------------
template <>
struct Ops<Generic> {
  template <typename T, std::size_t VLB>
  static vec<T, VLB> zero() {
    vec<T, VLB> r;
    for (std::size_t i = 0; i < r.size; ++i) r.v[i] = T{};
    return r;
  }

  template <typename T, std::size_t VLB>
  static vec<T, VLB> splat_real(T s) {
    vec<T, VLB> r;
    for (std::size_t i = 0; i < r.size; ++i) r.v[i] = s;
    return r;
  }

  template <typename T, std::size_t VLB>
  static vec<T, VLB> splat_complex(T re, T im) {
    vec<T, VLB> r;
    for (std::size_t i = 0; i < r.size; i += 2) {
      r.v[i] = re;
      r.v[i + 1] = im;
    }
    return r;
  }

  template <typename T, std::size_t VLB>
  static vec<T, VLB> add(const vec<T, VLB>& x, const vec<T, VLB>& y) {
    vec<T, VLB> r;
    for (std::size_t i = 0; i < r.size; ++i) r.v[i] = x.v[i] + y.v[i];
    return r;
  }

  template <typename T, std::size_t VLB>
  static vec<T, VLB> sub(const vec<T, VLB>& x, const vec<T, VLB>& y) {
    vec<T, VLB> r;
    for (std::size_t i = 0; i < r.size; ++i) r.v[i] = x.v[i] - y.v[i];
    return r;
  }

  template <typename T, std::size_t VLB>
  static vec<T, VLB> neg(const vec<T, VLB>& x) {
    vec<T, VLB> r;
    for (std::size_t i = 0; i < r.size; ++i) r.v[i] = -x.v[i];
    return r;
  }

  template <typename T, std::size_t VLB>
  static vec<T, VLB> mul(const vec<T, VLB>& x, const vec<T, VLB>& y) {
    vec<T, VLB> r;
    for (std::size_t i = 0; i < r.size; ++i) r.v[i] = x.v[i] * y.v[i];
    return r;
  }

  template <typename T, std::size_t VLB>
  static vec<T, VLB> scale(const vec<T, VLB>& x, T s) {
    vec<T, VLB> r;
    for (std::size_t i = 0; i < r.size; ++i) r.v[i] = x.v[i] * s;
    return r;
  }

  template <typename T, std::size_t VLB>
  static vec<T, VLB> mult_complex(const vec<T, VLB>& x, const vec<T, VLB>& y) {
    vec<T, VLB> r;
    for (std::size_t i = 0; i < r.size; i += 2) {
      r.v[i] = x.v[i] * y.v[i] - x.v[i + 1] * y.v[i + 1];
      r.v[i + 1] = x.v[i] * y.v[i + 1] + x.v[i + 1] * y.v[i];
    }
    return r;
  }

  template <typename T, std::size_t VLB>
  static vec<T, VLB> mac_complex(const vec<T, VLB>& acc, const vec<T, VLB>& x,
                                 const vec<T, VLB>& y) {
    // Evaluation order matches the FCMLA path (rotation 90 then 0) so all
    // backends produce bit-identical results.
    vec<T, VLB> r;
    for (std::size_t i = 0; i < r.size; i += 2) {
      r.v[i] = (acc.v[i] - x.v[i + 1] * y.v[i + 1]) + x.v[i] * y.v[i];
      r.v[i + 1] = (acc.v[i + 1] + x.v[i + 1] * y.v[i]) + x.v[i] * y.v[i + 1];
    }
    return r;
  }

  template <typename T, std::size_t VLB>
  static vec<T, VLB> mult_conj_complex(const vec<T, VLB>& x, const vec<T, VLB>& y) {
    vec<T, VLB> r;
    for (std::size_t i = 0; i < r.size; i += 2) {
      r.v[i] = x.v[i] * y.v[i] + x.v[i + 1] * y.v[i + 1];
      r.v[i + 1] = x.v[i] * y.v[i + 1] - x.v[i + 1] * y.v[i];
    }
    return r;
  }

  template <typename T, std::size_t VLB>
  static vec<T, VLB> mac_conj_complex(const vec<T, VLB>& acc, const vec<T, VLB>& x,
                                      const vec<T, VLB>& y) {
    // Order matches the FCMLA path (rotation 0 then 270).
    vec<T, VLB> r;
    for (std::size_t i = 0; i < r.size; i += 2) {
      r.v[i] = (acc.v[i] + x.v[i] * y.v[i]) + x.v[i + 1] * y.v[i + 1];
      r.v[i + 1] = (acc.v[i + 1] + x.v[i] * y.v[i + 1]) - x.v[i + 1] * y.v[i];
    }
    return r;
  }

  template <typename T, std::size_t VLB>
  static vec<T, VLB> times_i(const vec<T, VLB>& x) {
    vec<T, VLB> r;
    for (std::size_t i = 0; i < r.size; i += 2) {
      r.v[i] = -x.v[i + 1];
      r.v[i + 1] = x.v[i];
    }
    return r;
  }

  template <typename T, std::size_t VLB>
  static vec<T, VLB> times_minus_i(const vec<T, VLB>& x) {
    vec<T, VLB> r;
    for (std::size_t i = 0; i < r.size; i += 2) {
      r.v[i] = x.v[i + 1];
      r.v[i + 1] = -x.v[i];
    }
    return r;
  }

  template <typename T, std::size_t VLB>
  static vec<T, VLB> conj(const vec<T, VLB>& x) {
    vec<T, VLB> r;
    for (std::size_t i = 0; i < r.size; i += 2) {
      r.v[i] = x.v[i];
      r.v[i + 1] = -x.v[i + 1];
    }
    return r;
  }

  /// Lane permutation i -> i XOR d (d a power of two, in real lanes).
  template <typename T, std::size_t VLB>
  static vec<T, VLB> permute_xor(const vec<T, VLB>& x, std::size_t d) {
    SVELAT_DEBUG_ASSERT(d < vec<T, VLB>::size);
    vec<T, VLB> r;
    // Masking keeps the subscript provably in bounds (size is a power of
    // two; callers only pass valid d).
    for (std::size_t i = 0; i < r.size; ++i) r.v[i] = x.v[(i ^ d) & (r.size - 1)];
    return r;
  }

  template <typename T, std::size_t VLB>
  static std::complex<T> reduce_complex(const vec<T, VLB>& x) {
    T re{}, im{};
    for (std::size_t i = 0; i < x.size; i += 2) {
      re += x.v[i];
      im += x.v[i + 1];
    }
    return {re, im};
  }

  template <typename T, std::size_t VLB>
  static T reduce_real(const vec<T, VLB>& x) {
    T s{};
    for (std::size_t i = 0; i < x.size; ++i) s += x.v[i];
    return s;
  }
};

// ---------------------------------------------------------------------------
// Shared ACLE real arithmetic (used by both SVE backends).  The SVE paths
// load and store through fixed-length registers of VLB bytes (acle<T, VLB>);
// their outputs start value-initialized because a predicated store only
// writes the active lanes.
// ---------------------------------------------------------------------------
namespace detail {
struct SveRealArith {
  template <typename T, std::size_t VLB>
  static vec<T, VLB> zero() {
    using A = acle<T, VLB>;
    vec<T, VLB> out{};
    A::store(out.v, A::zero());
    return out;
  }

  template <typename T, std::size_t VLB>
  static vec<T, VLB> splat_real(T s) {
    using A = acle<T, VLB>;
    A::check_vl();
    vec<T, VLB> out{};
    A::store(out.v, sve::svdup<T, VLB>(s));
    return out;
  }

  template <typename T, std::size_t VLB>
  static vec<T, VLB> splat_complex(T re, T im) {
    using A = acle<T, VLB>;
    A::check_vl();
    vec<T, VLB> out{};
    // dup the real part everywhere, then overwrite odd lanes (merge) with
    // the imaginary part.
    typename A::vt v = sve::svdup<T, VLB>(re);
    v = sve::svsel(A::pg_even(), v, sve::svdup<T, VLB>(im));
    A::store(out.v, v);
    return out;
  }

  template <typename T, std::size_t VLB>
  static vec<T, VLB> add(const vec<T, VLB>& x, const vec<T, VLB>& y) {
    using A = acle<T, VLB>;
    const sve::svbool_t pg = A::pg1();
    vec<T, VLB> out{};
    A::store(out.v, sve::svadd_x(pg, A::load(x.v), A::load(y.v)));
    return out;
  }

  template <typename T, std::size_t VLB>
  static vec<T, VLB> sub(const vec<T, VLB>& x, const vec<T, VLB>& y) {
    using A = acle<T, VLB>;
    const sve::svbool_t pg = A::pg1();
    vec<T, VLB> out{};
    A::store(out.v, sve::svsub_x(pg, A::load(x.v), A::load(y.v)));
    return out;
  }

  template <typename T, std::size_t VLB>
  static vec<T, VLB> neg(const vec<T, VLB>& x) {
    using A = acle<T, VLB>;
    const sve::svbool_t pg = A::pg1();
    vec<T, VLB> out{};
    A::store(out.v, sve::svneg_x(pg, A::load(x.v)));
    return out;
  }

  template <typename T, std::size_t VLB>
  static vec<T, VLB> mul(const vec<T, VLB>& x, const vec<T, VLB>& y) {
    using A = acle<T, VLB>;
    const sve::svbool_t pg = A::pg1();
    vec<T, VLB> out{};
    A::store(out.v, sve::svmul_x(pg, A::load(x.v), A::load(y.v)));
    return out;
  }

  template <typename T, std::size_t VLB>
  static vec<T, VLB> scale(const vec<T, VLB>& x, T s) {
    using A = acle<T, VLB>;
    const sve::svbool_t pg = A::pg1();
    vec<T, VLB> out{};
    A::store(out.v, sve::svmul_x(pg, A::load(x.v), sve::svdup<T, VLB>(s)));
    return out;
  }

  template <typename T, std::size_t VLB>
  static vec<T, VLB> conj(const vec<T, VLB>& x) {
    // Negate the imaginary (odd) lanes: one predicated FNEG.
    using A = acle<T, VLB>;
    A::check_vl();
    vec<T, VLB> out{};
    A::store(out.v, sve::svneg_x(A::pg_odd(), A::load(x.v)));
    return out;
  }

  template <typename T, std::size_t VLB>
  static vec<T, VLB> permute_xor(const vec<T, VLB>& x, std::size_t d) {
    using A = acle<T, VLB>;
    A::check_vl();
    vec<T, VLB> out{};
    if (2 * d == A::lanes) {
      // Swapping the two halves is EXT by half the vector.
      const typename A::vt v = A::load(x.v);
      A::store(out.v, sve::svext(v, v, A::lanes / 2));
    } else {
      A::store(out.v, sve::svtbl(A::load(x.v), A::xor_index(d)));
    }
    return out;
  }

  template <typename T, std::size_t VLB>
  static std::complex<T> reduce_complex(const vec<T, VLB>& x) {
    using A = acle<T, VLB>;
    A::check_vl();
    const typename A::vt v = A::load(x.v);
    return {sve::svaddv(A::pg_even(), v), sve::svaddv(A::pg_odd(), v)};
  }

  template <typename T, std::size_t VLB>
  static T reduce_real(const vec<T, VLB>& x) {
    using A = acle<T, VLB>;
    return sve::svaddv(A::pg1(), A::load(x.v));
  }
};
}  // namespace detail

// ---------------------------------------------------------------------------
// SveFcmla backend: hardware complex arithmetic (Sec. V-C).
// ---------------------------------------------------------------------------
template <>
struct Ops<SveFcmla> : detail::SveRealArith {
  template <typename T, std::size_t VLB>
  static vec<T, VLB> mult_complex(const vec<T, VLB>& x, const vec<T, VLB>& y) {
    // The MultComplex listing of Sec. V-C: two FCMLAs from a zero
    // accumulator.
    using A = acle<T, VLB>;
    const sve::svbool_t pg1 = A::pg1();
    const typename A::vt zv = A::zero();
    const typename A::vt xv = sve::svld1<T, VLB>(pg1, x.v);
    const typename A::vt yv = sve::svld1<T, VLB>(pg1, y.v);
    typename A::vt rv = sve::svcmla_x(pg1, zv, xv, yv, 90);
    rv = sve::svcmla_x(pg1, rv, xv, yv, 0);
    vec<T, VLB> out{};
    sve::svst1(pg1, out.v, rv);
    return out;
  }

  template <typename T, std::size_t VLB>
  static vec<T, VLB> mac_complex(const vec<T, VLB>& acc, const vec<T, VLB>& x,
                                 const vec<T, VLB>& y) {
    using A = acle<T, VLB>;
    const sve::svbool_t pg1 = A::pg1();
    const typename A::vt xv = sve::svld1<T, VLB>(pg1, x.v);
    const typename A::vt yv = sve::svld1<T, VLB>(pg1, y.v);
    typename A::vt rv = sve::svld1<T, VLB>(pg1, acc.v);
    rv = sve::svcmla_x(pg1, rv, xv, yv, 90);
    rv = sve::svcmla_x(pg1, rv, xv, yv, 0);
    vec<T, VLB> out{};
    sve::svst1(pg1, out.v, rv);
    return out;
  }

  template <typename T, std::size_t VLB>
  static vec<T, VLB> mult_conj_complex(const vec<T, VLB>& x, const vec<T, VLB>& y) {
    // conj(x)*y: rotations 0 and 270 (paper Eq. (2), conjugate case).
    using A = acle<T, VLB>;
    const sve::svbool_t pg1 = A::pg1();
    const typename A::vt zv = A::zero();
    const typename A::vt xv = sve::svld1<T, VLB>(pg1, x.v);
    const typename A::vt yv = sve::svld1<T, VLB>(pg1, y.v);
    typename A::vt rv = sve::svcmla_x(pg1, zv, xv, yv, 0);
    rv = sve::svcmla_x(pg1, rv, xv, yv, 270);
    vec<T, VLB> out{};
    sve::svst1(pg1, out.v, rv);
    return out;
  }

  template <typename T, std::size_t VLB>
  static vec<T, VLB> mac_conj_complex(const vec<T, VLB>& acc, const vec<T, VLB>& x,
                                      const vec<T, VLB>& y) {
    using A = acle<T, VLB>;
    const sve::svbool_t pg1 = A::pg1();
    const typename A::vt xv = sve::svld1<T, VLB>(pg1, x.v);
    const typename A::vt yv = sve::svld1<T, VLB>(pg1, y.v);
    typename A::vt rv = sve::svld1<T, VLB>(pg1, acc.v);
    rv = sve::svcmla_x(pg1, rv, xv, yv, 0);
    rv = sve::svcmla_x(pg1, rv, xv, yv, 270);
    vec<T, VLB> out{};
    sve::svst1(pg1, out.v, rv);
    return out;
  }

  template <typename T, std::size_t VLB>
  static vec<T, VLB> times_i(const vec<T, VLB>& x) {
    // i*x = 0 + i*x: a single FCADD #90 against a zero vector.
    using A = acle<T, VLB>;
    const sve::svbool_t pg1 = A::pg1();
    vec<T, VLB> out{};
    sve::svst1(pg1, out.v,
               sve::svcadd_x(pg1, A::zero(), sve::svld1<T, VLB>(pg1, x.v), 90));
    return out;
  }

  template <typename T, std::size_t VLB>
  static vec<T, VLB> times_minus_i(const vec<T, VLB>& x) {
    using A = acle<T, VLB>;
    const sve::svbool_t pg1 = A::pg1();
    vec<T, VLB> out{};
    sve::svst1(pg1, out.v,
               sve::svcadd_x(pg1, A::zero(), sve::svld1<T, VLB>(pg1, x.v), 270));
    return out;
  }
};

// ---------------------------------------------------------------------------
// SveReal backend: complex arithmetic from real instructions + permutes
// (Sec. V-E alternative; higher instruction count by design).
// ---------------------------------------------------------------------------
template <>
struct Ops<SveReal> : detail::SveRealArith {
  template <typename T, std::size_t VLB>
  static vec<T, VLB> mult_complex(const vec<T, VLB>& x, const vec<T, VLB>& y) {
    return mac_impl<T, VLB>(nullptr, x, y, /*conjugate_x=*/false);
  }

  template <typename T, std::size_t VLB>
  static vec<T, VLB> mac_complex(const vec<T, VLB>& acc, const vec<T, VLB>& x,
                                 const vec<T, VLB>& y) {
    return mac_impl<T, VLB>(&acc, x, y, /*conjugate_x=*/false);
  }

  template <typename T, std::size_t VLB>
  static vec<T, VLB> mult_conj_complex(const vec<T, VLB>& x, const vec<T, VLB>& y) {
    return mac_impl<T, VLB>(nullptr, x, y, /*conjugate_x=*/true);
  }

  template <typename T, std::size_t VLB>
  static vec<T, VLB> mac_conj_complex(const vec<T, VLB>& acc, const vec<T, VLB>& x,
                                      const vec<T, VLB>& y) {
    return mac_impl<T, VLB>(&acc, x, y, /*conjugate_x=*/true);
  }

  template <typename T, std::size_t VLB>
  static vec<T, VLB> times_i(const vec<T, VLB>& x) {
    // Swap lanes (TBL) then negate the new real (even) lanes.
    using A = acle<T, VLB>;
    A::check_vl();
    vec<T, VLB> out{};
    typename A::vt v = sve::svtbl(A::load(x.v), A::swap_index());
    v = sve::svneg_x(A::pg_even(), v);
    A::store(out.v, v);
    return out;
  }

  template <typename T, std::size_t VLB>
  static vec<T, VLB> times_minus_i(const vec<T, VLB>& x) {
    using A = acle<T, VLB>;
    A::check_vl();
    vec<T, VLB> out{};
    typename A::vt v = sve::svtbl(A::load(x.v), A::swap_index());
    v = sve::svneg_x(A::pg_odd(), v);
    A::store(out.v, v);
    return out;
  }

 private:
  /// Complex multiply-accumulate from real instructions, evaluating in the
  /// exact order of the FCMLA rotation pairs so results stay bit-identical
  /// across backends:
  ///   x_re2 = trn1(x, x)           -- (xr, xr) pairs
  ///   x_im2 = trn2(x, x)           -- (xi, xi) pairs
  ///   y_sw  = tbl(y, swap)         -- (yi, yr) pairs
  ///   plain:  r = acc;  r -= x_im2*y_sw (even); r += x_im2*y_sw (odd);
  ///           r += x_re2*y            [rot 90 then rot 0]
  ///   conj:   r = acc;  r += x_re2*y;  r += x_im2*y_sw (even);
  ///           r -= x_im2*y_sw (odd)    [rot 0 then rot 270]
  /// Cost: 2 TRN + 1 index load + 1 TBL + 3 FMLA-class ops (+ loads/stores)
  /// versus 2 FCMLA -- the "higher instruction count" of paper Sec. V-E.
  template <typename T, std::size_t VLB>
  static vec<T, VLB> mac_impl(const vec<T, VLB>* acc, const vec<T, VLB>& x,
                              const vec<T, VLB>& y, bool conjugate_x) {
    using A = acle<T, VLB>;
    const sve::svbool_t pg1 = A::pg1();
    const sve::svbool_t even = A::pg_even();
    const sve::svbool_t odd = A::pg_odd();

    const typename A::vt xv = sve::svld1<T, VLB>(pg1, x.v);
    const typename A::vt yv = sve::svld1<T, VLB>(pg1, y.v);
    const typename A::vt x_re2 = sve::svtrn1(xv, xv);
    const typename A::vt x_im2 = sve::svtrn2(xv, xv);
    const typename A::vt y_sw = sve::svtbl(yv, A::swap_index());

    typename A::vt r = (acc != nullptr) ? sve::svld1<T, VLB>(pg1, acc->v) : A::zero();
    if (!conjugate_x) {
      r = sve::svmls_x(even, r, x_im2, y_sw);
      r = sve::svmla_x(odd, r, x_im2, y_sw);
      r = sve::svmla_x(pg1, r, x_re2, yv);
    } else {
      r = sve::svmla_x(pg1, r, x_re2, yv);
      r = sve::svmla_x(even, r, x_im2, y_sw);
      r = sve::svmls_x(odd, r, x_im2, y_sw);
    }
    vec<T, VLB> out{};
    sve::svst1(pg1, out.v, r);
    return out;
  }
};

}  // namespace svelat::simd
