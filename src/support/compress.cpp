#include "support/compress.hpp"

#include <array>
#include <cstring>

namespace sv::svz {

namespace {

constexpr std::array<u8, 4> kMagic{'S', 'V', 'Z', '1'};
constexpr usize kWindow = 4095;   // max back-reference distance (12 bits)
constexpr usize kMinMatch = 4;    // matches shorter than this are literals
constexpr usize kMaxMatch = 19;   // kMinMatch + 15 (4-bit length field)
constexpr usize kHashSize = 1 << 15;

u32 hash3(const u8 *p) {
  // Multiplicative hash of 3 bytes; cheap and adequate for a 4 KiB window.
  const u32 v = static_cast<u32>(p[0]) | (static_cast<u32>(p[1]) << 8) |
                (static_cast<u32>(p[2]) << 16);
  return (v * 2654435761u) >> (32 - 15);
}

} // namespace

std::vector<u8> compress(const std::vector<u8> &raw) {
  std::vector<u8> out;
  out.reserve(raw.size() / 2 + 16);
  out.insert(out.end(), kMagic.begin(), kMagic.end());
  const u32 rawSize = static_cast<u32>(raw.size());
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<u8>(rawSize >> (8 * i)));

  // head[h] = most recent position with hash h; prev[] chains earlier ones.
  std::vector<i64> head(kHashSize, -1);
  std::vector<i64> prev(raw.size(), -1);

  usize pos = 0;
  while (pos < raw.size()) {
    const usize ctrlAt = out.size();
    out.push_back(0); // control byte patched below
    u8 ctrl = 0;
    for (int bit = 0; bit < 8 && pos < raw.size(); ++bit) {
      usize bestLen = 0;
      usize bestOff = 0;
      if (pos + kMinMatch <= raw.size()) {
        const u32 h = hash3(raw.data() + pos);
        i64 cand = head[h];
        int chain = 16; // bounded chain walk keeps compression O(n)
        while (cand >= 0 && chain-- > 0 && pos - static_cast<usize>(cand) <= kWindow) {
          const usize c = static_cast<usize>(cand);
          usize len = 0;
          const usize maxLen = std::min(kMaxMatch, raw.size() - pos);
          while (len < maxLen && raw[c + len] == raw[pos + len]) ++len;
          if (len > bestLen) {
            bestLen = len;
            bestOff = pos - c;
            if (len == kMaxMatch) break;
          }
          cand = prev[c];
        }
      }
      // Insert current position into the hash chain before advancing.
      const auto insertHash = [&](usize p) {
        if (p + 3 <= raw.size()) {
          const u32 h = hash3(raw.data() + p);
          prev[p] = head[h];
          head[h] = static_cast<i64>(p);
        }
      };
      if (bestLen >= kMinMatch) {
        ctrl |= static_cast<u8>(1 << bit);
        const u16 token =
            static_cast<u16>((bestOff & 0xFFF) | ((bestLen - kMinMatch) << 12));
        out.push_back(static_cast<u8>(token & 0xFF));
        out.push_back(static_cast<u8>(token >> 8));
        for (usize i = 0; i < bestLen; ++i) insertHash(pos + i);
        pos += bestLen;
      } else {
        out.push_back(raw[pos]);
        insertHash(pos);
        ++pos;
      }
    }
    out[ctrlAt] = ctrl;
  }
  return out;
}

std::vector<u8> decompress(const std::vector<u8> &compressed) {
  if (compressed.size() < 8 || !looksCompressed(compressed))
    throw ParseError("svz: bad magic");
  u32 rawSize = 0;
  for (int i = 0; i < 4; ++i) rawSize |= static_cast<u32>(compressed[4 + static_cast<usize>(i)]) << (8 * i);
  // A 2-byte match token expands to at most kMaxMatch bytes and literals and
  // control bytes expand less, so no stream can honestly claim more. Checked
  // before the reserve so a forged header cannot demand gigabytes.
  if (rawSize > (compressed.size() - 8) * kMaxMatch / 2)
    throw ParseError("svz: claimed size exceeds what the stream can encode");

  std::vector<u8> out;
  out.reserve(rawSize);
  usize pos = 8;
  const auto need = [&](usize n) {
    if (pos + n > compressed.size()) throw ParseError("svz: truncated stream");
  };
  while (out.size() < rawSize) {
    need(1);
    const u8 ctrl = compressed[pos++];
    for (int bit = 0; bit < 8 && out.size() < rawSize; ++bit) {
      if (ctrl & (1 << bit)) {
        need(2);
        const u16 token = static_cast<u16>(compressed[pos]) |
                          (static_cast<u16>(compressed[pos + 1]) << 8);
        pos += 2;
        const usize off = token & 0xFFF;
        const usize len = kMinMatch + (token >> 12);
        if (off == 0 || off > out.size()) throw ParseError("svz: match offset out of range");
        const usize start = out.size() - off;
        for (usize i = 0; i < len; ++i) out.push_back(out[start + i]); // may self-overlap
      } else {
        need(1);
        out.push_back(compressed[pos++]);
      }
    }
  }
  if (out.size() != rawSize) throw ParseError("svz: size mismatch");
  return out;
}

bool looksCompressed(const std::vector<u8> &bytes) {
  return bytes.size() >= 4 && std::memcmp(bytes.data(), kMagic.data(), 4) == 0;
}

} // namespace sv::svz
