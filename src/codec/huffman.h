// Canonical Huffman coding (length-limited), shared by SJPG/SPNG/SV264.
//
// JPEG transmits Huffman tables as 16 length counts plus the symbol list in
// canonical order; we follow the same wire format so tables are compact and
// decode-side reconstruction is deterministic.
#ifndef SMOL_CODEC_HUFFMAN_H_
#define SMOL_CODEC_HUFFMAN_H_

#include <cstdint>
#include <vector>

#include "src/codec/bitstream.h"
#include "src/util/result.h"

namespace smol {

/// Maximum code length (JPEG's limit).
inline constexpr int kMaxHuffmanBits = 16;

/// Lookahead width of the decode LUT: codes up to this length decode with a
/// single table probe; longer (rare) codes fall back to the canonical
/// bit-at-a-time scan.
inline constexpr int kHuffmanLutBits = 10;

/// \brief Canonical Huffman code table for a byte-symbol alphabet.
class HuffmanTable {
 public:
  /// Builds a length-limited canonical code from symbol frequencies.
  /// Symbols with zero frequency get no code. At least one symbol must have
  /// nonzero frequency. \p alphabet_size <= 65536.
  static Result<HuffmanTable> FromFrequencies(const std::vector<uint64_t>& freq);

  /// Serializes as: u16 alphabet size, 16 bytes of per-length counts,
  /// then the symbols in canonical order (u16 each).
  void Serialize(BitWriter* writer) const;

  /// Reconstructs a table from the wire format.
  static Result<HuffmanTable> Deserialize(BitReader* reader);

  /// Writes the code for \p symbol; the symbol must have a code.
  void EncodeSymbol(BitWriter* writer, int symbol) const;

  /// Reads one symbol; Corruption on invalid prefix or truncation.
  Result<int> DecodeSymbol(BitReader* reader) const;

  /// Decode-LUT probe for the next kHuffmanLutBits bits of a stream:
  /// (symbol << 8 | length) when a code of at most kHuffmanLutBits bits
  /// prefixes them, 0 otherwise (a longer code or an invalid prefix).
  uint32_t LutEntry(uint32_t lookahead) const { return lut_[lookahead]; }

  /// Resolves a code longer than kHuffmanLutBits from the next
  /// kMaxHuffmanBits bits of a stream (zero-padded past its end): the
  /// symbol, with its code length in \p length, or -1 for an invalid prefix.
  int DecodeLong(uint32_t lookahead, int* length) const;

  /// Code length for \p symbol (0 if absent).
  int CodeLength(int symbol) const {
    return symbol >= 0 && symbol < static_cast<int>(lengths_.size())
               ? lengths_[symbol]
               : 0;
  }

  int alphabet_size() const { return static_cast<int>(lengths_.size()); }

 private:
  // Builds codes_, first_code_/first_index_ decode acceleration from lengths_.
  Status BuildFromLengths();

  std::vector<uint8_t> lengths_;        // per-symbol code length, 0 = absent
  std::vector<uint16_t> codes_;         // per-symbol canonical code
  std::vector<uint16_t> sorted_symbols_;  // symbols in canonical order
  // Decode LUT indexed by the next kHuffmanLutBits of the stream: entry
  // (symbol << 8 | length) for codes short enough to fit, 0 for longer
  // codes and invalid prefixes (both resolved by the slow path).
  std::vector<uint32_t> lut_;
  // Canonical decode acceleration: for each length L, the first code value and
  // the index of its symbol in sorted_symbols_.
  int32_t first_code_[kMaxHuffmanBits + 1] = {0};
  int32_t first_index_[kMaxHuffmanBits + 1] = {0};
  int32_t count_[kMaxHuffmanBits + 1] = {0};
};

}  // namespace smol

#endif  // SMOL_CODEC_HUFFMAN_H_
