//===- timing/Cache.cpp - Set-associative cache model ----------------------===//

#include "timing/Cache.h"

#include <cassert>
#include <cstddef>

using namespace fpint;
using namespace fpint::timing;

namespace {

bool isPowerOfTwo(uint32_t N) { return N != 0 && (N & (N - 1)) == 0; }

} // namespace

Cache::Cache(CacheConfig ConfigIn) : Config(ConfigIn) {
  assert(isPowerOfTwo(Config.LineBytes) &&
         "line size must be a power of two");
  assert(Config.Assoc != 0);
  NumSets = Config.SizeBytes / (Config.LineBytes * Config.Assoc);
  assert(isPowerOfTwo(NumSets) && "set count must be a power of two");
  LineShift = static_cast<unsigned>(__builtin_ctz(Config.LineBytes));
  SetShift = static_cast<unsigned>(__builtin_ctz(NumSets));
  Lines.assign(static_cast<size_t>(NumSets) * Config.Assoc, Line());
}

unsigned Cache::access(uint32_t Addr, bool Write) {
  ++Tick;
  uint32_t LineAddr = lineOf(Addr);
  uint32_t Set = LineAddr & (NumSets - 1);
  uint32_t Tag = LineAddr >> SetShift;
  Line *Base = &Lines[static_cast<size_t>(Set) * Config.Assoc];

  for (uint32_t W = 0; W < Config.Assoc; ++W) {
    Line &L = Base[W];
    if (L.Valid && L.Tag == Tag) {
      L.LastUse = Tick;
      L.Dirty |= Write;
      return Config.HitLatency;
    }
  }

  // Miss: evict LRU.
  ++Misses;
  Line *Victim = Base;
  for (uint32_t W = 1; W < Config.Assoc; ++W)
    if (!Base[W].Valid ||
        (Victim->Valid && Base[W].LastUse < Victim->LastUse))
      Victim = &Base[W];
  if (Victim->Valid && Victim->Dirty)
    ++Writebacks;
  Victim->Valid = true;
  Victim->Tag = Tag;
  Victim->LastUse = Tick;
  Victim->Dirty = Write;
  return Config.HitLatency + Config.MissPenalty;
}

bool Cache::probe(uint32_t Addr) const {
  uint32_t LineAddr = lineOf(Addr);
  uint32_t Set = LineAddr & (NumSets - 1);
  uint32_t Tag = LineAddr >> SetShift;
  const Line *Base = &Lines[static_cast<size_t>(Set) * Config.Assoc];
  for (uint32_t W = 0; W < Config.Assoc; ++W)
    if (Base[W].Valid && Base[W].Tag == Tag)
      return true;
  return false;
}
