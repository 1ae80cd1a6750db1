// Layer replay: after the traced window, the Update frames the clients
// sent are pushed once more through the public functions the daemon runs
// on its ack path, each timed on its own — frame decode, decompress,
// delta decode + apply (or the digest-only CDC advance), content CRC,
// cache put, and a journal append over a timing StorageDir that splits
// write time from fsync time.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "util/types.hpp"

namespace shadowbench {

/// One Update frame as the client sent it, with the content of the version
/// it is a delta against (empty for a full transfer).
struct CapturedUpdate {
  shadow::Bytes frame;
  std::string base;
};

/// Per-layer timings in microseconds (one sample per replayed update,
/// except crc32, which is accumulated as time per MiB).
struct ReplayTimings {
  std::vector<double> decode_us, decompress_us, apply_us, put_us, write_us,
      fsync_us;
  double crc32_us_per_mib = 0.0;
  std::size_t failures = 0;  // updates that no longer decode or apply
};

/// Replays `updates`; journal appends go to a fresh FsDir at `journal_dir`
/// (on the same filesystem as the daemon's journal).
ReplayTimings replay_layers(const std::vector<CapturedUpdate>& updates,
                            const std::string& journal_dir);

}  // namespace shadowbench
