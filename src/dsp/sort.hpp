#pragma once
// Stable sorting for sequences that are already almost in order: pulse
// trains after channel jitter, receiver output, per-channel event runs.
// An insertion pass costs O(n + inversions) and needs no buffer, where
// std::stable_sort pays O(n log n) and a temporary of n/2 elements even
// when only a handful of neighbours are swapped.

#include <algorithm>
#include <cstddef>
#include <utility>
#include <vector>

namespace datc::dsp {

/// Element moves the insertion pass may spend per element before it
/// hands the rest of the work to std::stable_sort.
inline constexpr std::size_t kNearSortMovesPerItem = 4;

/// Sorts `v` by `less` with exactly std::stable_sort's result. Runs an
/// insertion pass (stable: an element never passes an equal one) and, once
/// it has moved more than kNearSortMovesPerItem * v.size() elements,
/// finishes with std::stable_sort. The partial pass kept every run of
/// equal keys in input order, so the fallback still yields the stable
/// order of the original input.
template <class T, class Less>
void stable_sort_near_sorted(std::vector<T>& v, Less less) {
  const std::size_t n = v.size();
  std::size_t budget = kNearSortMovesPerItem * n;
  for (std::size_t i = 1; i < n; ++i) {
    if (!less(v[i], v[i - 1])) continue;
    T item = std::move(v[i]);
    std::size_t j = i;
    do {
      v[j] = std::move(v[j - 1]);
      --j;
    } while (j > 0 && less(item, v[j - 1]));
    v[j] = std::move(item);
    if (i - j > budget) {
      std::stable_sort(v.begin(), v.end(), less);
      return;
    }
    budget -= i - j;
  }
}

}  // namespace datc::dsp
