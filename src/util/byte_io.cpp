#include "util/byte_io.hpp"

namespace shadow {

void BufWriter::put_u16(u16 v) {
  put_u8(static_cast<u8>(v));
  put_u8(static_cast<u8>(v >> 8));
}

void BufWriter::put_u32(u32 v) {
  put_u16(static_cast<u16>(v));
  put_u16(static_cast<u16>(v >> 16));
}

void BufWriter::put_u64(u64 v) {
  put_u32(static_cast<u32>(v));
  put_u32(static_cast<u32>(v >> 32));
}

void BufWriter::put_varint(u64 v) {
  while (v >= 0x80) {
    put_u8(static_cast<u8>(v) | 0x80);
    v >>= 7;
  }
  put_u8(static_cast<u8>(v));
}

void BufWriter::put_varint_signed(i64 v) {
  // ZigZag: map signed to unsigned preserving small magnitudes.
  put_varint((static_cast<u64>(v) << 1) ^ static_cast<u64>(v >> 63));
}

void BufWriter::put_bytes(const Bytes& b) {
  put_varint(b.size());
  put_raw(b);
}

void BufWriter::put_string(std::string_view s) {
  put_varint(s.size());
  buf_.insert(buf_.end(), s.begin(), s.end());
}

void BufWriter::put_raw(const u8* data, std::size_t len) {
  buf_.insert(buf_.end(), data, data + len);
}

Result<u8> BufReader::get_u8() {
  if (pos_ >= buf_.size()) {
    return Error{ErrorCode::kProtocolError, "read past end of buffer"};
  }
  return buf_[pos_++];
}

Result<u16> BufReader::get_u16() {
  SHADOW_ASSIGN_OR_RETURN(lo, get_u8());
  SHADOW_ASSIGN_OR_RETURN(hi, get_u8());
  return static_cast<u16>(lo | (static_cast<u16>(hi) << 8));
}

Result<u32> BufReader::get_u32() {
  SHADOW_ASSIGN_OR_RETURN(lo, get_u16());
  SHADOW_ASSIGN_OR_RETURN(hi, get_u16());
  return static_cast<u32>(lo) | (static_cast<u32>(hi) << 16);
}

Result<u64> BufReader::get_u64() {
  SHADOW_ASSIGN_OR_RETURN(lo, get_u32());
  SHADOW_ASSIGN_OR_RETURN(hi, get_u32());
  return static_cast<u64>(lo) | (static_cast<u64>(hi) << 32);
}

Result<u64> BufReader::get_varint() {
  u64 value = 0;
  int shift = 0;
  for (;;) {
    if (shift >= 64) {
      return Error{ErrorCode::kProtocolError, "varint too long"};
    }
    SHADOW_ASSIGN_OR_RETURN(byte, get_u8());
    value |= static_cast<u64>(byte & 0x7F) << shift;
    if ((byte & 0x80) == 0) break;
    shift += 7;
  }
  return value;
}

Result<i64> BufReader::get_varint_signed() {
  SHADOW_ASSIGN_OR_RETURN(z, get_varint());
  return static_cast<i64>((z >> 1) ^ (0 - (z & 1)));
}

Result<Bytes> BufReader::get_bytes() {
  SHADOW_ASSIGN_OR_RETURN(len, get_varint());
  return get_raw(static_cast<std::size_t>(len));
}

Result<std::string> BufReader::get_string() {
  SHADOW_ASSIGN_OR_RETURN(view, get_string_view());
  return std::string(view);
}

Result<std::string_view> BufReader::get_string_view() {
  SHADOW_ASSIGN_OR_RETURN(len, get_varint());
  if (len > remaining()) {
    return Error{ErrorCode::kProtocolError,
                 "length prefix exceeds remaining buffer"};
  }
  const std::string_view view(
      reinterpret_cast<const char*>(buf_.data()) + pos_,
      static_cast<std::size_t>(len));
  pos_ += view.size();
  return view;
}

Result<Bytes> BufReader::get_raw(std::size_t len) {
  if (len > remaining()) {
    return Error{ErrorCode::kProtocolError,
                 "length prefix exceeds remaining buffer"};
  }
  Bytes out(buf_.begin() + static_cast<std::ptrdiff_t>(pos_),
            buf_.begin() + static_cast<std::ptrdiff_t>(pos_ + len));
  pos_ += len;
  return out;
}

}  // namespace shadow
