// Operation-based (commutative) CRDTs, to contrast with the state-based
// variants: smaller messages (one op instead of full state) but a delivery
// contract — exactly-once, and causal order for the OR-set. GeoBroadcast
// (geo_broadcast.h) provides the contract; Fig. 6e measures both the bytes
// and what breaks without causal order.

#ifndef EVC_CRDT_OP_CRDTS_H_
#define EVC_CRDT_OP_CRDTS_H_

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "clock/version_vector.h"

namespace evc::crdt {

/// Op-based counter: ops are signed deltas; any delivery order works, but
/// each op must be delivered exactly once.
class OpCounter {
 public:
  struct Op {
    int64_t delta = 0;

    /// Serialized-size proxy: one 12-byte entry, as StateBytes counts.
    size_t Bytes() const { return 12; }
  };

  /// Produces the op for a local increment (caller broadcasts it; local
  /// application happens on delivery/echo).
  static Op MakeIncrement(int64_t amount) { return Op{amount}; }

  void Apply(const Op& op) { value_ += op.delta; }
  int64_t Value() const { return value_; }

 private:
  int64_t value_ = 0;
};

/// Op-based observed-remove set. Add ships a unique tag; Remove ships the
/// set of tags observed at the origin. Requires causal delivery: a Remove
/// must arrive after the Adds it observed.
class OpOrSet {
 public:
  struct Op {
    enum class Type { kAdd, kRemove };
    Type type = Type::kAdd;
    std::string element;
    Dot tag;                 ///< add: the new tag
    std::vector<Dot> tags;   ///< remove: observed tags

    /// Serialized-size proxy, as StateBytes counts: the element plus 12
    /// bytes per tag.
    size_t Bytes() const {
      return element.size() + 12 * (type == Type::kAdd ? 1 : tags.size());
    }
  };

  explicit OpOrSet(uint32_t replica_id) : replica_id_(replica_id) {}

  /// Builds the op for a local add (fresh unique tag).
  Op MakeAdd(const std::string& element) {
    Op op;
    op.type = Op::Type::kAdd;
    op.element = element;
    op.tag = Dot{replica_id_, ++next_tag_};
    return op;
  }

  /// Builds the op for a local remove (captures currently observed tags).
  /// Returns an op with empty tags if the element is absent (no-op remove).
  Op MakeRemove(const std::string& element) const {
    Op op;
    op.type = Op::Type::kRemove;
    op.element = element;
    auto it = tags_.find(element);
    if (it != tags_.end()) {
      op.tags.assign(it->second.begin(), it->second.end());
    }
    return op;
  }

  /// Applies a delivered op (local echo or remote).
  void Apply(const Op& op) {
    if (op.type == Op::Type::kAdd) {
      tags_[op.element].insert(op.tag);
      return;
    }
    auto it = tags_.find(op.element);
    if (it == tags_.end()) return;
    for (const Dot& d : op.tags) it->second.erase(d);
    if (it->second.empty()) tags_.erase(it);
  }

  bool Contains(const std::string& element) const {
    return tags_.count(element) > 0;
  }

  std::vector<std::string> Elements() const {
    std::vector<std::string> out;
    for (const auto& [element, tags] : tags_) out.push_back(element);
    return out;
  }

  size_t size() const { return tags_.size(); }

  bool operator==(const OpOrSet& other) const { return tags_ == other.tags_; }

 private:
  uint32_t replica_id_;
  uint64_t next_tag_ = 0;
  std::map<std::string, std::set<Dot>> tags_;
};

}  // namespace evc::crdt

#endif  // EVC_CRDT_OP_CRDTS_H_
