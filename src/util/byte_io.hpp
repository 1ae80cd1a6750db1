// Bounds-checked binary readers/writers used by the wire codec and the
// delta serializer. Integers are little-endian; variable-length integers
// use LEB128 so that small values (line numbers, short lengths — the common
// case in ed-script deltas) cost one byte on the wire.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>

#include "util/result.hpp"
#include "util/types.hpp"

namespace shadow {

/// Appends primitives to a growable byte buffer.
class BufWriter {
 public:
  BufWriter() = default;

  void put_u8(u8 v) { buf_.push_back(v); }
  void put_u16(u16 v);
  void put_u32(u32 v);
  void put_u64(u64 v);

  /// Unsigned LEB128.
  void put_varint(u64 v);
  /// ZigZag-encoded signed LEB128.
  void put_varint_signed(i64 v);

  /// Length-prefixed (varint) byte block.
  void put_bytes(const Bytes& b);
  /// Length-prefixed (varint) string.
  void put_string(std::string_view s);
  /// Raw bytes, no length prefix.
  void put_raw(const u8* data, std::size_t len);
  void put_raw(const Bytes& b) { put_raw(b.data(), b.size()); }

  const Bytes& data() const { return buf_; }
  Bytes take() { return std::move(buf_); }
  std::size_t size() const { return buf_.size(); }

 private:
  Bytes buf_;
};

/// Reads primitives from a byte buffer with bounds checking. Every getter
/// returns an error instead of reading past the end, so a truncated or
/// malicious wire message can never cause out-of-bounds access.
class BufReader {
 public:
  explicit BufReader(const Bytes& buf) : buf_(buf) {}

  Result<u8> get_u8();
  Result<u16> get_u16();
  Result<u32> get_u32();
  Result<u64> get_u64();
  Result<u64> get_varint();
  Result<i64> get_varint_signed();
  Result<Bytes> get_bytes();
  Result<std::string> get_string();
  /// Length-prefixed string viewed in place: valid while the buffer is.
  Result<std::string_view> get_string_view();
  /// Exactly `len` raw bytes.
  Result<Bytes> get_raw(std::size_t len);

  std::size_t remaining() const { return buf_.size() - pos_; }
  bool at_end() const { return pos_ == buf_.size(); }
  std::size_t position() const { return pos_; }

 private:
  const Bytes& buf_;
  std::size_t pos_ = 0;
};

}  // namespace shadow
