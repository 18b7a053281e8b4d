// Shared 8x8 block transform + entropy coding primitives used by the SJPG
// image codec and the SV264 video codec (both are block-DCT codecs): the
// encoder's transform and Huffman coding, and the decoder's BlockDecoder
// (fused-LUT entropy decode on a BitCursor) and fused reconstruct + store.
#ifndef SMOL_CODEC_BLOCK_CODEC_H_
#define SMOL_CODEC_BLOCK_CODEC_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/codec/bitstream.h"
#include "src/codec/dct.h"
#include "src/codec/huffman.h"
#include "src/util/result.h"

namespace smol {

/// One 8x8 block of quantized coefficients in zig-zag order.
struct CoeffBlock {
  int16_t zz[64];
};

/// JPEG-style magnitude category: bits needed to represent |v| (0 for v==0).
int BitSize(int v);

/// JPEG signed-value bit encoding (negatives stored as v + 2^size - 1).
uint32_t EncodeValueBits(int v, int size);
int DecodeValueBits(uint32_t bits, int size);

/// Extracts an 8x8 block at (bx, by) from \p plane with edge replication,
/// level-shifted by \p bias (128 for intra samples, 0 for residuals).
void ExtractBlock(const std::vector<uint8_t>& plane, int plane_w, int plane_h,
                  int bx, int by, int bias, int16_t out[64]);

/// Forward DCT + quantization + zig-zag of one block of samples.
CoeffBlock TransformBlock(const int16_t samples[64], const QuantTable& qt);

/// Dequantization + inverse DCT of one block (output natural order samples).
void ReconstructBlock(const CoeffBlock& block, const QuantTable& qt,
                      int16_t out[64]);

/// First-pass Huffman statistics for one block (DC diff + AC run/size).
/// \p dc_freq must have >= 17 entries, \p ac_freq >= 256.
void AccumulateBlockStats(const CoeffBlock& block, int* dc_pred,
                          std::vector<uint64_t>& dc_freq,
                          std::vector<uint64_t>& ac_freq);

/// Entropy-encodes one block (JPEG DC-differential + AC run-length coding).
void EncodeBlock(const CoeffBlock& block, int* dc_pred,
                 const HuffmanTable& dc_table, const HuffmanTable& ac_table,
                 BitWriter* writer);

/// Fused dequantize + inverse DCT + level-shift store for the decoder:
/// reconstructs the n x n samples (n = 8 full, 4/2/1 scaled) of the
/// natural-order (row-major) quantized \p coeffs as saturated bytes at
/// \p dst (row stride \p stride), bit-identical to ReconstructBlock (or
/// InverseDctScaled) plus a +128 clip to [0, 255] at every dispatch level.
/// Coefficients past the first \p count zig-zag positions must be zero
/// (BlockDecoder::Decode reports the count; 64 is always safe), so sparse
/// blocks transform only their nonzero rows and columns, and a DC-only block
/// is a fill.
void ReconstructStoreBlock(const int16_t coeffs[64], int count,
                           const QuantTable& qt, int n, uint8_t* dst,
                           size_t stride);

/// \brief Entropy decoder for one component class (a DC + AC Huffman table
/// pair), inverting EncodeBlock.
///
/// Each table gets a fused lookahead LUT, built once when the decoder is
/// constructed (once per parsed stream): one probe of the next
/// kHuffmanLutBits bits yields the symbol's run, its decoded value and the
/// total bit length whenever code + value bits fit, and the symbol alone
/// otherwise. Longer codes fall back to the canonical scan.
class BlockDecoder {
 public:
  BlockDecoder() = default;
  BlockDecoder(HuffmanTable dc_table, HuffmanTable ac_table);

  /// Decodes one block at \p cursor into \p coeffs in natural (row-major)
  /// order, which must be all zero on entry, updating the DC predictor.
  /// Returns 1 + the highest zig-zag position written (>= 1), or 0 for an
  /// invalid code or symbol. Bits read past the end of the data are zeros:
  /// check cursor->Overrun() after the block and report truncation then.
  int Decode(BitCursor* cursor, int* dc_pred, int16_t coeffs[64]) const;

 private:
  HuffmanTable dc_table_;
  HuffmanTable ac_table_;
  std::vector<uint32_t> dc_lut_;
  std::vector<uint32_t> ac_lut_;
};

}  // namespace smol

#endif  // SMOL_CODEC_BLOCK_CODEC_H_
