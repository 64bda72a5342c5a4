#include "crdt/gcounter.h"

namespace evc::crdt {

GCounter GCounter::Increment(uint32_t replica, uint64_t amount) {
  shares_[replica] += amount;
  GCounter delta;
  delta.shares_[replica] = shares_[replica];
  return delta;
}

uint64_t GCounter::Value() const {
  uint64_t total = 0;
  for (const auto& [replica, share] : shares_) total += share;
  return total;
}

uint64_t GCounter::ShareOf(uint32_t replica) const {
  auto it = shares_.find(replica);
  return it == shares_.end() ? 0 : it->second;
}

void GCounter::Merge(const GCounter& other) {
  for (const auto& [replica, share] : other.shares_) {
    auto& mine = shares_[replica];
    if (share > mine) mine = share;
  }
}

bool GCounter::Includes(const GCounter& other) const {
  for (const auto& [replica, share] : other.shares_) {
    if (ShareOf(replica) < share) return false;
  }
  return true;
}

size_t GCounter::StateBytes() const {
  // varint-ish estimate: ~(4 + 8) bytes per entry plus map overhead proxy.
  return shares_.size() * 12;
}

std::string GCounter::ToString() const {
  std::string out = "GCounter{";
  bool first = true;
  for (const auto& [replica, share] : shares_) {
    if (!first) out += ", ";
    first = false;
    out += "r" + std::to_string(replica) + ":" + std::to_string(share);
  }
  return out + "}";
}

}  // namespace evc::crdt
