// Bounds-checked big-endian wire serialization.
//
// Every packet in src/net has an explicit wire format encoded/decoded with
// these helpers. WireReader never reads past the buffer: all getters return
// false (or std::nullopt via helpers) on truncated input, so decoding
// attacker-supplied bytes can never crash — a property fuzz-tested in
// tests/wire_test.cc.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "util/bytes.h"

namespace paai {

class WireWriter {
 public:
  WireWriter() = default;
  /// Reserves `capacity` bytes up front, so a writer that knows its exact
  /// output size allocates once.
  explicit WireWriter(std::size_t capacity) { buf_.reserve(capacity); }

  void u8(std::uint8_t v);
  void u16(std::uint16_t v);
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  /// Raw bytes, no length prefix.
  void raw(ByteView data);
  /// Length-prefixed (u16) variable byte string.
  void var_bytes(ByteView data);

  const Bytes& data() const& { return buf_; }
  Bytes take() && { return std::move(buf_); }
  std::size_t size() const { return buf_.size(); }

 private:
  Bytes buf_;
};

class WireReader {
 public:
  explicit WireReader(ByteView data) : data_(data) {}

  bool u8(std::uint8_t& out);
  bool u16(std::uint16_t& out);
  bool u32(std::uint32_t& out);
  bool u64(std::uint64_t& out);
  /// Copies exactly n bytes.
  bool raw(std::size_t n, Bytes& out);
  /// Copies exactly n bytes into caller storage (no allocation).
  bool copy(std::uint8_t* out, std::size_t n);
  /// Reads a u16 length prefix then that many bytes. Fails if the prefix
  /// exceeds the remaining buffer.
  bool var_bytes(Bytes& out);
  /// Skips n bytes.
  bool skip(std::size_t n);

  std::size_t remaining() const { return data_.size() - pos_; }
  bool done() const { return pos_ == data_.size(); }

 private:
  bool take(std::size_t n, const std::uint8_t*& p);

  ByteView data_;
  std::size_t pos_ = 0;
};

}  // namespace paai
