// Server-side per-key lease registry for the edge-cache tier.
//
// The master of a record hands out read leases (Gray & Cheriton): a client
// holding an unexpired lease may serve its cached copy locally; a write to
// the key must first revoke (or wait out) every outstanding lease. The
// registry is the master's book of record for that protocol: who holds a
// lease on which key, under which id, until when.
//
// Lease ids are minted from one per-registry monotone counter. That makes
// the revoke race resolvable entirely client-side: a client that sees
// revoke(id=L) drops any entry with lease_id <= L and remembers L as a
// floor, so a read reply still in flight when the revoke landed (its grant
// necessarily has id <= L, since grants are suppressed once the write's
// revocation starts) can never re-install the revoked entry.
//
// The registry is VOLATILE by design — leases are a performance contract,
// not durable state. Crash recovery does not reconstruct the table; it
// drops it and the owner conservatively fences writes for one full TTL (see
// EdgeCacheTier::OnRestart), by which time every pre-crash lease has
// expired on its own.

#ifndef EVC_CACHE_LEASE_REGISTRY_H_
#define EVC_CACHE_LEASE_REGISTRY_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "sim/network.h"

namespace evc::cache {

/// One outstanding lease as the registry sees it.
struct Lease {
  uint64_t id = 0;
  sim::Time expiry = 0;  ///< absolute sim time; holder stops serving at it
};

/// A granted-or-renewed lease plus its holder (revoke fan-out unit).
struct LeaseHolder {
  sim::NodeId holder = 0;
  Lease lease;
};

class LeaseRegistry {
 public:
  explicit LeaseRegistry(sim::Time ttl) : ttl_(ttl) {}

  sim::Time ttl() const { return ttl_; }

  /// Grants (or renews) `holder`'s lease on `key`, expiring at now + ttl.
  /// Renewal mints a fresh id; one (key, holder) pair holds at most one
  /// lease at a time.
  Lease Grant(const std::string& key, sim::NodeId holder, sim::Time now);

  /// Every unexpired lease on `key` as of `now`, in holder order. Expired
  /// entries are dropped as a side effect (lazy GC).
  std::vector<LeaseHolder> Outstanding(const std::string& key, sim::Time now);

  /// Removes `holder`'s lease on `key` iff it still carries `id` (a renewal
  /// minted after the caller's snapshot must survive). Returns true when an
  /// entry was removed.
  bool Release(const std::string& key, sim::NodeId holder, uint64_t id);

  /// Crash amnesia: forget every lease. (The owner must fence writes for a
  /// TTL afterwards; see file comment.)
  void DropAll() { leases_.clear(); }

  /// Outstanding (possibly expired-but-uncollected) entries, all keys.
  size_t size() const;

 private:
  sim::Time ttl_;
  uint64_t next_id_ = 1;
  // key -> holder -> lease. Ordered: Outstanding() iterates.
  std::map<std::string, std::map<sim::NodeId, Lease>> leases_;
};

}  // namespace evc::cache

#endif  // EVC_CACHE_LEASE_REGISTRY_H_
