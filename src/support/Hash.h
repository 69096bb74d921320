//===- support/Hash.h - Platform-stable content hashing -------------------===//
//
// Part of the fpint project (PLDI 1998 idle-FP-resources reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The repository's one content-hash primitive, 64-bit FNV-1a, and
/// its one way to key a list of parts, ChainedKey. std::hash is not
/// stable across standard-library implementations, but these hashes
/// leak into artifacts that outlive a process -- golden-baseline run
/// ids (stats::runId), the durable campaign cell keys
/// (campaign::cellKey), the fuzz battery key (testgen::batteryKey) and
/// the campaign keys of both journals (fpint-explore, fpint-fuzz) --
/// so a fixed, platform-independent function is required.
///
//===----------------------------------------------------------------------===//

#ifndef FPINT_SUPPORT_HASH_H
#define FPINT_SUPPORT_HASH_H

#include <cstdint>
#include <cstdio>
#include <string>

namespace fpint {
namespace support {

/// 64-bit FNV-1a over \p S, optionally chained from a previous hash
/// (pass the prior result as \p Seed to hash a concatenation without
/// materializing it).
inline uint64_t fnv1a64(const std::string &S,
                        uint64_t Seed = 1469598103934665603ULL) {
  uint64_t H = Seed;
  for (char C : S) {
    H ^= static_cast<unsigned char>(C);
    H *= 1099511628211ULL;
  }
  return H;
}

/// Fixed-width lower-case hex spelling of \p H (16 digits).
inline std::string hex64(uint64_t H) {
  char Buf[17];
  std::snprintf(Buf, sizeof(Buf), "%016llx",
                static_cast<unsigned long long>(H));
  return Buf;
}

/// A content key over an ordered list of parts: FNV-1a of the first
/// part, then of a 0x1f separator plus each later part, chained. The
/// separator keeps ("ab", "c") and ("a", "bc") apart.
class ChainedKey {
public:
  explicit ChainedKey(const std::string &First) : H(fnv1a64(First)) {}

  ChainedKey &add(const std::string &Part) {
    H = fnv1a64(Part, fnv1a64("\x1f", H));
    return *this;
  }

  std::string hex() const { return hex64(H); }

private:
  uint64_t H;
};

} // namespace support
} // namespace fpint

#endif // FPINT_SUPPORT_HASH_H
