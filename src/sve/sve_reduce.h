// Horizontal reductions.
//
// FADDV/FMAXV/FMINV reduce the active elements of a vector to a scalar.
// Hardware reduces in a tree; the simulator reduces strictly in lane order,
// which is deterministic and keeps cross-VL comparisons in the tests
// reproducible down to the last bit for integer-valued data.
#pragma once

#include "sve/sve_detail.h"

namespace svelat::sve {

template <typename E, std::size_t Bytes>
inline E svaddv(const svbool_t& pg, const svreg<E, Bytes>& a) {
  detail::record(InsnClass::kReduce, "faddv s, p, z", detail::suffix<E>());
  E sum{};
  const unsigned n = detail::reg_lanes<E, Bytes>();
  for (unsigned i = 0; i < n; ++i)
    if (detail::pred_elem<E>(pg, i)) sum = static_cast<E>(sum + a.lane[i]);
  return sum;
}

template <typename E, std::size_t Bytes>
inline E svmaxv(const svbool_t& pg, const svreg<E, Bytes>& a) {
  detail::record(InsnClass::kReduce, "fmaxv s, p, z", detail::suffix<E>());
  bool found = false;
  E best{};
  const unsigned n = detail::reg_lanes<E, Bytes>();
  for (unsigned i = 0; i < n; ++i) {
    if (!detail::pred_elem<E>(pg, i)) continue;
    if (!found || best < a.lane[i]) best = a.lane[i];
    found = true;
  }
  return best;
}

template <typename E, std::size_t Bytes>
inline E svminv(const svbool_t& pg, const svreg<E, Bytes>& a) {
  detail::record(InsnClass::kReduce, "fminv s, p, z", detail::suffix<E>());
  bool found = false;
  E best{};
  const unsigned n = detail::reg_lanes<E, Bytes>();
  for (unsigned i = 0; i < n; ++i) {
    if (!detail::pred_elem<E>(pg, i)) continue;
    if (!found || a.lane[i] < best) best = a.lane[i];
    found = true;
  }
  return best;
}

}  // namespace svelat::sve
