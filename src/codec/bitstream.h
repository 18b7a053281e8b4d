// Bit-level serialization used by all three codecs: BitWriter, the
// Status-returning BitReader for headers and SPNG, and the BitCursor that the
// block codecs' entropy decoders run on.
#ifndef SMOL_CODEC_BITSTREAM_H_
#define SMOL_CODEC_BITSTREAM_H_

#include <cstdint>
#include <cstring>
#include <vector>

#include "src/util/result.h"

namespace smol {

/// \brief MSB-first bit writer over a growable byte vector.
class BitWriter {
 public:
  /// Appends the low \p nbits bits of \p value, most significant first.
  void WriteBits(uint32_t value, int nbits);

  /// Flushes partial bits (zero-padded) so the stream is byte aligned.
  void AlignToByte();

  /// Appends a full byte (stream must be byte-aligned for raw writes).
  void WriteByte(uint8_t b);

  /// Appends a little-endian 32-bit integer (byte-aligned).
  void WriteU32(uint32_t v);

  /// Appends a little-endian 16-bit integer (byte-aligned).
  void WriteU16(uint16_t v);

  /// Current size in bytes, counting any partial byte.
  size_t SizeBytes() const { return bytes_.size() + (bit_count_ > 0 ? 1 : 0); }

  /// Finishes the stream and moves out the bytes.
  std::vector<uint8_t> Finish();

 private:
  std::vector<uint8_t> bytes_;
  uint32_t bit_buffer_ = 0;  // Up to 31 pending bits, MSB-first.
  int bit_count_ = 0;
};

/// \brief MSB-first bit reader over a byte span.
class BitReader {
 public:
  BitReader(const uint8_t* data, size_t size) : data_(data), size_(size) {}

  /// Reads \p nbits (<= 24) bits MSB-first. Fails past end of stream.
  Result<uint32_t> ReadBits(int nbits);

  /// Returns the next \p nbits (1..24) bits MSB-first without consuming
  /// them, zero-padded past the end of the stream (hot path, no Status).
  uint32_t PeekBits(int nbits) const {
    uint64_t window;
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__
    if (byte_pos_ + 8 <= size_) {
      // Hot path: one unaligned load covers bit_pos_ + nbits (< 33 bits).
      std::memcpy(&window, data_ + byte_pos_, 8);
      window = __builtin_bswap64(window);
      return static_cast<uint32_t>((window >> (64 - bit_pos_ - nbits)) &
                                   ((1u << nbits) - 1u));
    }
#endif
    window = 0;
    for (int i = 0; i < 5; ++i) {
      window = (window << 8) |
               (byte_pos_ + i < size_ ? data_[byte_pos_ + i] : 0u);
    }
    return static_cast<uint32_t>((window >> (40 - bit_pos_ - nbits)) &
                                 ((1u << nbits) - 1u));
  }

  /// Consumes \p nbits bits; false if that would pass the end of the stream
  /// (the position is left unchanged on failure).
  bool SkipBits(int nbits) {
    const size_t target = byte_pos_ * 8 + static_cast<size_t>(bit_pos_) +
                          static_cast<size_t>(nbits);
    if (target > size_ * 8) return false;
    byte_pos_ = target >> 3;
    bit_pos_ = static_cast<int>(target & 7);
    return true;
  }

  /// Skips to the next byte boundary.
  void AlignToByte() {
    if (bit_pos_ != 0) {
      bit_pos_ = 0;
      ++byte_pos_;
    }
  }

  Result<uint8_t> ReadByte();
  Result<uint32_t> ReadU32();
  Result<uint16_t> ReadU16();

  /// Repositions the reader to an absolute byte offset (byte-aligned).
  Status SeekToByte(size_t offset);

  size_t byte_position() const { return byte_pos_; }
  bool AtEnd() const { return byte_pos_ >= size_; }

 private:
  const uint8_t* data_;
  size_t size_;
  size_t byte_pos_ = 0;
  int bit_pos_ = 0;
};

/// \brief Register-resident MSB-first bit cursor for the entropy decoders'
/// inner loops.
///
/// A 64-bit window holds the next bits of the stream, topped up by Refill()
/// with one unaligned 8-byte load. Bits past the end of the data read as
/// zero and no per-read status is kept: callers check Overrun() once per
/// block (or other unit of work) and report truncation then. Copy the cursor
/// into a local for a hot loop so the window stays in registers.
class BitCursor {
 public:
  /// Starts reading at byte \p start (<= \p size) of \p data.
  BitCursor(const uint8_t* data, size_t size, size_t start)
      : data_(data), size_(size), pos_(start) {}

  /// Tops the window up to at least 56 valid bits.
  void Refill() {
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__
    if (pos_ + 8 <= size_) {
      // Bits already in the window below the new ones are the same stream
      // bits, so OR-ing the whole load in is idempotent; pos_ advances by
      // the whole bytes that fit.
      uint64_t word;
      std::memcpy(&word, data_ + pos_, 8);
      window_ |= __builtin_bswap64(word) >> count_;
      pos_ += static_cast<size_t>((63 - count_) >> 3);
      count_ |= 56;
      return;
    }
#endif
    while (count_ < 56) {
      const uint64_t byte = pos_ < size_ ? data_[pos_] : 0u;
      window_ |= byte << (56 - count_);
      ++pos_;
      count_ += 8;
    }
  }

  /// Refills only when fewer than \p nbits (<= 56) bits are left.
  void Ensure(int nbits) {
    if (count_ < nbits) Refill();
  }

  /// Next \p nbits (0..32) bits without consuming them. The window must
  /// hold at least that many (a Refill() leaves 56).
  uint32_t Peek(int nbits) const {
    return static_cast<uint32_t>((window_ >> 32) >> (32 - nbits));
  }

  void Consume(int nbits) {
    window_ <<= nbits;
    count_ -= nbits;
  }

  /// Peek + Consume.
  uint32_t Read(int nbits) {
    const uint32_t v = Peek(nbits);
    Consume(nbits);
    return v;
  }

  /// Bits consumed from the start of the data.
  size_t bit_position() const {
    return pos_ * 8 - static_cast<size_t>(count_);
  }

  /// True once more bits were consumed than the data holds.
  bool Overrun() const { return bit_position() > size_ * 8; }

 private:
  const uint8_t* data_;
  size_t size_;
  size_t pos_;           // next byte to load (may run past size_)
  uint64_t window_ = 0;  // MSB-first; bits below count_ are zero or the
                         // stream's next bits
  int count_ = 0;        // valid bits at the top of window_
};

}  // namespace smol

#endif  // SMOL_CODEC_BITSTREAM_H_
