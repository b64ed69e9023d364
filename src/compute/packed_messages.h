#ifndef TRINITY_COMPUTE_PACKED_MESSAGES_H_
#define TRINITY_COMPUTE_PACKED_MESSAGES_H_

#include <cstdint>
#include <cstring>
#include <string>

#include "common/slice.h"
#include "common/types.h"

namespace trinity::compute {

/// Flat wire format of a packed payload (paper §4.2 message packing, done
/// explicitly at the engine layer; see compute::Exchange):
///
///   record := [target u64][len u32][len bytes]
///
/// A vertex send appends one record to its (src,dst) outbox; the whole
/// buffer travels through the fabric as one payload at the barrier, so the
/// fabric mutex is taken O(machines^2) times per superstep instead of once
/// per message.
inline void AppendPackedRecord(std::string* buf, CellId target, Slice msg) {
  const std::uint32_t len = static_cast<std::uint32_t>(msg.size());
  char header[12];
  std::memcpy(header, &target, 8);
  std::memcpy(header + 8, &len, 4);
  buf->append(header, 12);
  buf->append(msg.data(), msg.size());
}

/// Iterates the records of one packed payload in arrival order. Returns
/// false on a malformed buffer (truncated record).
template <typename Fn>
inline bool ForEachPackedRecord(Slice payload, const Fn& fn) {
  std::size_t pos = 0;
  while (pos < payload.size()) {
    if (pos + 12 > payload.size()) return false;
    CellId target = 0;
    std::uint32_t len = 0;
    std::memcpy(&target, payload.data() + pos, 8);
    std::memcpy(&len, payload.data() + pos + 8, 4);
    pos += 12;
    if (pos + len > payload.size()) return false;
    fn(target, Slice(payload.data() + pos, len));
    pos += len;
  }
  return true;
}

}  // namespace trinity::compute

#endif  // TRINITY_COMPUTE_PACKED_MESSAGES_H_
