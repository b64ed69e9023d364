#ifndef TRINITY_COMMON_COUNTERS_H_
#define TRINITY_COMMON_COUNTERS_H_

#include <array>
#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <type_traits>

namespace trinity {

namespace internal {

/// The word-array view of a counter struct: T must be a plain bundle of
/// 8-byte words (uint64_t counters, possibly doubles filled in by hand) so
/// that std::bit_cast maps it onto an array of words and back.
template <class T>
struct CounterWords {
  static_assert(std::is_trivially_copyable_v<T>,
                "counter structs must be trivially copyable");
  static_assert(sizeof(T) % sizeof(std::uint64_t) == 0 &&
                    alignof(T) == alignof(std::uint64_t),
                "counter structs must be an array of 8-byte words");
  static constexpr std::size_t kCount = sizeof(T) / sizeof(std::uint64_t);
  using Array = std::array<std::uint64_t, kCount>;

  /// The word a member pointer names, e.g. &NetworkStats::dropped.
  static std::size_t Slot(std::uint64_t T::*field) {
    static constexpr T kLayout{};
    return static_cast<std::size_t>(
               reinterpret_cast<const char*>(&(kLayout.*field)) -
               reinterpret_cast<const char*>(&kLayout)) /
           sizeof(std::uint64_t);
  }
};

}  // namespace internal

/// The one home of cumulative counters: a relaxed-atomic twin of the plain
/// snapshot struct T, one std::atomic word per 8-byte word of T. Hot paths
/// bump a field through its member pointer (one relaxed fetch_add); readers
/// take a Snapshot() that is a T again, so the snapshot type, the atomic
/// mirror and the copy-out can never disagree about the fields.
///
/// Reads are relaxed: fields may be mutually inconsistent for an instant,
/// which is fine for meters read at phase boundaries. Fields a reader
/// derives itself (latency percentiles, deltas of other meters) simply stay
/// 0 in the block and are filled in on the snapshot.
template <class T>
class Counters {
  using Words = internal::CounterWords<T>;

 public:
  /// One uint64_t field of T, e.g. &NetworkStats::dropped.
  using Field = std::uint64_t T::*;

  void Add(Field field, std::uint64_t n) {
    words_[Words::Slot(field)].fetch_add(n, std::memory_order_relaxed);
  }
  /// Overwrites a gauge-like field (e.g. the duration of the last event).
  void Store(Field field, std::uint64_t value) {
    words_[Words::Slot(field)].store(value, std::memory_order_relaxed);
  }
  T Snapshot() const {
    typename Words::Array out;
    for (std::size_t i = 0; i < Words::kCount; ++i) {
      out[i] = words_[i].load(std::memory_order_relaxed);
    }
    return std::bit_cast<T>(out);
  }

  void Reset() {
    for (auto& word : words_) word.store(0, std::memory_order_relaxed);
  }

 private:
  std::array<std::atomic<std::uint64_t>, Words::kCount> words_{};
};

/// Adds every field of `part` into `total`. For structs made only of
/// uint64_t fields (a double's bits do not add).
template <class T>
void Accumulate(T* total, const T& part) {
  using Words = internal::CounterWords<T>;
  auto sum = std::bit_cast<typename Words::Array>(*total);
  const auto add = std::bit_cast<typename Words::Array>(part);
  for (std::size_t i = 0; i < Words::kCount; ++i) sum[i] += add[i];
  *total = std::bit_cast<T>(sum);
}

}  // namespace trinity

#endif  // TRINITY_COMMON_COUNTERS_H_
