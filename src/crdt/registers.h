// Last-writer-wins register CRDT.
//
// LwwRegister resolves concurrent assignments by timestamp: arbitrary but
// convergent, and one write silently loses. Fig. 6 times its Set.

#ifndef EVC_CRDT_REGISTERS_H_
#define EVC_CRDT_REGISTERS_H_

#include <string>

#include "clock/lamport.h"

namespace evc::crdt {

/// Last-writer-wins register. Ties broken by (counter, node) so the order is
/// total and all replicas pick the same winner.
class LwwRegister {
 public:
  LwwRegister() = default;

  /// Assigns `value` at timestamp `ts`. Stale assignments are ignored.
  /// Returns true if the assignment took effect locally.
  bool Set(std::string value, LamportTimestamp ts) {
    if (has_value_ && !(ts_ < ts)) return false;
    value_ = std::move(value);
    ts_ = ts;
    has_value_ = true;
    return true;
  }

  void Merge(const LwwRegister& other) {
    if (!other.has_value_) return;
    Set(other.value_, other.ts_);
  }

  bool has_value() const { return has_value_; }
  const std::string& value() const { return value_; }
  LamportTimestamp timestamp() const { return ts_; }

  bool operator==(const LwwRegister& other) const {
    if (has_value_ != other.has_value_) return false;
    if (!has_value_) return true;
    return value_ == other.value_ && ts_ == other.ts_;
  }

 private:
  std::string value_;
  LamportTimestamp ts_{};
  bool has_value_ = false;
};

}  // namespace evc::crdt

#endif  // EVC_CRDT_REGISTERS_H_
