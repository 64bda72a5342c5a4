// Umbrella header: the full public API of the evc library.
//
// Most adopters only need core/replicated_store.h (the consistency dial) or
// one protocol header; this header exists for exploratory use and for
// keeping the public surface compiling as one unit.

#ifndef EVC_EVC_H_
#define EVC_EVC_H_

// Substrate.
#include "common/distributions.h"   // IWYU pragma: export
#include "common/encoding.h"        // IWYU pragma: export
#include "common/hash.h"            // IWYU pragma: export
#include "common/logging.h"         // IWYU pragma: export
#include "common/rng.h"             // IWYU pragma: export
#include "common/stats.h"           // IWYU pragma: export
#include "common/status.h"          // IWYU pragma: export

// Observability.
#include "obs/export.h"   // IWYU pragma: export
#include "obs/json.h"     // IWYU pragma: export
#include "obs/metrics.h"  // IWYU pragma: export
#include "obs/trace.h"    // IWYU pragma: export

// Simulation.
#include "sim/latency.h"    // IWYU pragma: export
#include "sim/nemesis.h"    // IWYU pragma: export
#include "sim/network.h"    // IWYU pragma: export
#include "sim/rpc.h"        // IWYU pragma: export
#include "sim/simulator.h"  // IWYU pragma: export

// Version tracking.
#include "clock/lamport.h"         // IWYU pragma: export
#include "clock/version_vector.h"  // IWYU pragma: export

// Storage.
#include "storage/dvv_store.h"        // IWYU pragma: export
#include "storage/merkle.h"           // IWYU pragma: export
#include "storage/replica_storage.h"  // IWYU pragma: export
#include "storage/versioned_store.h"  // IWYU pragma: export
#include "storage/wal.h"              // IWYU pragma: export

// Protocols.
#include "causal/causal_store.h"         // IWYU pragma: export
#include "consensus/paxos.h"             // IWYU pragma: export
#include "replication/anti_entropy.h"    // IWYU pragma: export
#include "replication/hash_ring.h"       // IWYU pragma: export
#include "replication/quorum_store.h"    // IWYU pragma: export
#include "replication/timeline_store.h"  // IWYU pragma: export
#include "session/session.h"             // IWYU pragma: export
#include "sla/pileus.h"                  // IWYU pragma: export
#include "stale/pbs.h"                   // IWYU pragma: export
#include "txn/escrow.h"                  // IWYU pragma: export
#include "txn/redblue.h"                 // IWYU pragma: export

// CRDTs.
#include "crdt/delta_orset.h"  // IWYU pragma: export
#include "crdt/gcounter.h"       // IWYU pragma: export
#include "crdt/geo_broadcast.h"  // IWYU pragma: export
#include "crdt/op_crdts.h"     // IWYU pragma: export
#include "crdt/orset.h"        // IWYU pragma: export
#include "crdt/registers.h"    // IWYU pragma: export
#include "crdt/rga.h"          // IWYU pragma: export

// Workloads, verification, facade.
#include "core/replicated_store.h"        // IWYU pragma: export
#include "verify/causal_checker.h"        // IWYU pragma: export
#include "verify/convergence.h"           // IWYU pragma: export
#include "verify/fuzz.h"                  // IWYU pragma: export
#include "verify/linearizability.h"       // IWYU pragma: export
#include "verify/session_guarantees.h"    // IWYU pragma: export
#include "workload/workload.h"            // IWYU pragma: export

#endif  // EVC_EVC_H_
