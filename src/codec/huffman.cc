#include "src/codec/huffman.h"

#include <algorithm>
#include <queue>

#include "src/util/macros.h"

namespace smol {

namespace {

// Computes unrestricted Huffman code lengths via the standard two-queue /
// heap construction, then limits lengths to kMaxHuffmanBits with the JPEG
// Annex K adjustment (repeatedly move leaves up the tree).
std::vector<uint8_t> ComputeLimitedLengths(const std::vector<uint64_t>& freq) {
  const int n = static_cast<int>(freq.size());
  struct Node {
    uint64_t weight;
    int index;  // < n: leaf symbol; >= n: internal node
  };
  auto cmp = [](const Node& a, const Node& b) {
    if (a.weight != b.weight) return a.weight > b.weight;
    return a.index > b.index;  // deterministic tie-break
  };
  std::priority_queue<Node, std::vector<Node>, decltype(cmp)> heap(cmp);
  for (int i = 0; i < n; ++i) {
    if (freq[i] > 0) heap.push({freq[i], i});
  }
  std::vector<uint8_t> lengths(n, 0);
  if (heap.empty()) return lengths;
  if (heap.size() == 1) {
    lengths[heap.top().index] = 1;
    return lengths;
  }
  // parent[] over leaves and internal nodes.
  std::vector<int> parent(n, -1);
  std::vector<std::pair<int, int>> internal;  // children of each internal node
  int next_internal = n;
  std::vector<int> internal_parent;
  while (heap.size() > 1) {
    Node a = heap.top();
    heap.pop();
    Node b = heap.top();
    heap.pop();
    internal.emplace_back(a.index, b.index);
    internal_parent.push_back(-1);
    const int id = next_internal++;
    if (a.index < n) {
      parent[a.index] = id;
    } else {
      internal_parent[a.index - n] = id;
    }
    if (b.index < n) {
      parent[b.index] = id;
    } else {
      internal_parent[b.index - n] = id;
    }
    heap.push({a.weight + b.weight, id});
  }
  // Depth of each leaf = code length.
  std::vector<int> depth_internal(internal.size(), 0);
  for (int i = static_cast<int>(internal.size()) - 1; i >= 0; --i) {
    const int p = internal_parent[i];
    depth_internal[i] = (p < 0) ? 0 : depth_internal[p - n] + 1;
  }
  for (int i = 0; i < n; ++i) {
    if (parent[i] >= 0) {
      lengths[i] =
          static_cast<uint8_t>(depth_internal[parent[i] - n] + 1);
    }
  }

  // Length-limit: count codes per length; push overlong codes up (JPEG-style).
  std::vector<int> bl_count(64, 0);
  for (int i = 0; i < n; ++i) bl_count[lengths[i]]++;
  for (int len = 63; len > kMaxHuffmanBits; --len) {
    while (bl_count[len] > 0) {
      // Find a shorter code to pair with: standard Annex K procedure.
      int j = len - 2;
      while (j > 0 && bl_count[j] == 0) --j;
      bl_count[len] -= 2;
      bl_count[len - 1] += 1;
      bl_count[j + 1] += 2;
      bl_count[j] -= 1;
    }
  }
  // Reassign lengths to symbols: sort symbols by original length (stable by
  // frequency) and dole out the adjusted length multiset shortest-first to the
  // most frequent symbols.
  std::vector<int> symbols;
  for (int i = 0; i < n; ++i) {
    if (lengths[i] > 0) symbols.push_back(i);
  }
  std::sort(symbols.begin(), symbols.end(), [&](int a, int b) {
    if (freq[a] != freq[b]) return freq[a] > freq[b];
    return a < b;
  });
  std::vector<uint8_t> adjusted;
  for (int len = 1; len <= kMaxHuffmanBits; ++len) {
    for (int k = 0; k < bl_count[len]; ++k) {
      adjusted.push_back(static_cast<uint8_t>(len));
    }
  }
  std::sort(adjusted.begin(), adjusted.end());
  std::fill(lengths.begin(), lengths.end(), 0);
  for (size_t i = 0; i < symbols.size(); ++i) {
    lengths[symbols[i]] = adjusted[i];
  }
  return lengths;
}

}  // namespace

Result<HuffmanTable> HuffmanTable::FromFrequencies(
    const std::vector<uint64_t>& freq) {
  if (freq.empty() || freq.size() > 65536) {
    return Status::InvalidArgument("bad alphabet size");
  }
  bool any = false;
  for (uint64_t f : freq) {
    if (f > 0) {
      any = true;
      break;
    }
  }
  if (!any) return Status::InvalidArgument("all frequencies zero");
  HuffmanTable table;
  table.lengths_ = ComputeLimitedLengths(freq);
  SMOL_RETURN_IF_ERROR(table.BuildFromLengths());
  return table;
}

Status HuffmanTable::BuildFromLengths() {
  const int n = static_cast<int>(lengths_.size());
  codes_.assign(n, 0);
  sorted_symbols_.clear();
  std::fill(std::begin(count_), std::end(count_), 0);
  for (int i = 0; i < n; ++i) {
    if (lengths_[i] > kMaxHuffmanBits) {
      return Status::Corruption("code length exceeds limit");
    }
    if (lengths_[i] > 0) count_[lengths_[i]]++;
  }
  // Kraft inequality check guards against corrupt tables.
  uint64_t kraft = 0;
  for (int len = 1; len <= kMaxHuffmanBits; ++len) {
    kraft += static_cast<uint64_t>(count_[len])
             << (kMaxHuffmanBits - len);
  }
  if (kraft > (1ULL << kMaxHuffmanBits)) {
    return Status::Corruption("over-subscribed Huffman table");
  }
  // Canonical codes: symbols sorted by (length, symbol).
  std::vector<int> order;
  for (int i = 0; i < n; ++i) {
    if (lengths_[i] > 0) order.push_back(i);
  }
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    if (lengths_[a] != lengths_[b]) return lengths_[a] < lengths_[b];
    return a < b;
  });
  uint32_t code = 0;
  int prev_len = 0;
  int index = 0;
  std::fill(std::begin(first_code_), std::end(first_code_), -1);
  std::fill(std::begin(first_index_), std::end(first_index_), 0);
  for (int sym : order) {
    const int len = lengths_[sym];
    code <<= (len - prev_len);
    if (first_code_[len] < 0) {
      first_code_[len] = static_cast<int32_t>(code);
      first_index_[len] = index;
    }
    codes_[sym] = static_cast<uint16_t>(code);
    sorted_symbols_.push_back(static_cast<uint16_t>(sym));
    ++code;
    ++index;
    prev_len = len;
  }
  // Lookahead LUT: every kHuffmanLutBits-wide prefix of a short code maps
  // straight to (symbol, length). Canonical order is shortest-first, so the
  // fill can stop at the first over-wide code.
  lut_.assign(1u << kHuffmanLutBits, 0);
  for (int sym : order) {
    const int len = lengths_[sym];
    if (len > kHuffmanLutBits) break;
    const uint32_t entry =
        (static_cast<uint32_t>(sym) << 8) | static_cast<uint32_t>(len);
    const uint32_t base = static_cast<uint32_t>(codes_[sym])
                          << (kHuffmanLutBits - len);
    const uint32_t span = 1u << (kHuffmanLutBits - len);
    for (uint32_t i = 0; i < span; ++i) lut_[base + i] = entry;
  }
  return Status::OK();
}

void HuffmanTable::Serialize(BitWriter* writer) const {
  writer->WriteU16(static_cast<uint16_t>(lengths_.size() == 65536
                                             ? 0
                                             : lengths_.size()));
  for (int len = 1; len <= kMaxHuffmanBits; ++len) {
    writer->WriteU16(static_cast<uint16_t>(count_[len]));
  }
  for (uint16_t sym : sorted_symbols_) {
    writer->WriteU16(sym);
  }
}

Result<HuffmanTable> HuffmanTable::Deserialize(BitReader* reader) {
  SMOL_ASSIGN_OR_RETURN(uint16_t raw_size, reader->ReadU16());
  const int alphabet = raw_size == 0 ? 65536 : raw_size;
  int counts[kMaxHuffmanBits + 1] = {0};
  int total = 0;
  for (int len = 1; len <= kMaxHuffmanBits; ++len) {
    SMOL_ASSIGN_OR_RETURN(uint16_t c, reader->ReadU16());
    counts[len] = c;
    total += c;
  }
  if (total > alphabet) return Status::Corruption("too many Huffman symbols");
  HuffmanTable table;
  table.lengths_.assign(alphabet, 0);
  std::vector<uint16_t> symbols(total);
  int idx = 0;
  for (int len = 1; len <= kMaxHuffmanBits; ++len) {
    for (int k = 0; k < counts[len]; ++k) {
      SMOL_ASSIGN_OR_RETURN(uint16_t sym, reader->ReadU16());
      if (sym >= alphabet) return Status::Corruption("symbol out of range");
      table.lengths_[sym] = static_cast<uint8_t>(len);
      symbols[idx++] = sym;
    }
  }
  SMOL_RETURN_IF_ERROR(table.BuildFromLengths());
  return table;
}

void HuffmanTable::EncodeSymbol(BitWriter* writer, int symbol) const {
  writer->WriteBits(codes_[symbol], lengths_[symbol]);
}

Result<int> HuffmanTable::DecodeSymbol(BitReader* reader) const {
  // Fast path: one LUT probe resolves any code of up to kHuffmanLutBits
  // bits (the peek zero-pads past end-of-stream; SkipBits rejects a match
  // whose real bits run past the end, so truncation still surfaces).
  const uint32_t entry = lut_[reader->PeekBits(kHuffmanLutBits)];
  if (entry != 0) {
    if (!reader->SkipBits(static_cast<int>(entry & 0xFF))) {
      return Status::Corruption("bitstream truncated in Huffman");
    }
    return static_cast<int>(entry >> 8);
  }
  // Longer codes: the canonical scan over the next kMaxHuffmanBits bits.
  int length = 0;
  const int symbol = DecodeLong(reader->PeekBits(kMaxHuffmanBits), &length);
  if (symbol < 0) return Status::Corruption("invalid Huffman prefix");
  if (!reader->SkipBits(length)) {
    return Status::Corruption("bitstream truncated in Huffman");
  }
  return symbol;
}

int HuffmanTable::DecodeLong(uint32_t lookahead, int* length) const {
  // Canonical decode: at each length, check whether the code's first bits
  // fall within [first_code, first_code + count). Lengths that fit the LUT
  // cannot match here (the probe would have hit).
  for (int len = kHuffmanLutBits + 1; len <= kMaxHuffmanBits; ++len) {
    const int32_t code =
        static_cast<int32_t>(lookahead >> (kMaxHuffmanBits - len));
    if (first_code_[len] >= 0 && code >= first_code_[len] &&
        code < first_code_[len] + count_[len]) {
      *length = len;
      return sorted_symbols_[first_index_[len] + (code - first_code_[len])];
    }
  }
  return -1;
}

}  // namespace smol
