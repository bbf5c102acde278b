// Interfaces between consensus replicas and the client world.

#ifndef HOTSTUFF1_CONSENSUS_MEMPOOL_H_
#define HOTSTUFF1_CONSENSUS_MEMPOOL_H_

#include <memory>
#include <vector>

#include "common/units.h"
#include "crypto/signer.h"
#include "ledger/block.h"

namespace hotstuff1 {

/// \brief Where leaders draw batches of pending client transactions.
///
/// Modelling note (see DESIGN.md): clients broadcast requests to all
/// replicas in the paper's system; we model the resulting shared pending set
/// as one queue with per-replica visibility delays, which gives exact
/// dedup across leaders. Transactions in orphaned (never committed) blocks
/// are re-submitted by their clients after a timeout, exactly like a real
/// client retry.
class TransactionSource {
 public:
  virtual ~TransactionSource() = default;

  /// Up to `max` transactions visible to `leader` at `now`, in FIFO order.
  virtual std::vector<Transaction> DrawBatch(ReplicaId leader, size_t max,
                                             SimTime now) = 0;
};

/// \brief Where replicas deliver client responses. One call covers a whole
/// block (the per-client fan-out is aggregated; latency accounting uses the
/// replica->client network delay inside the implementation).
class ResponseSink {
 public:
  virtual ~ResponseSink() = default;

  /// `speculative` distinguishes HotStuff-1 early (prepare-time) responses
  /// from committed responses. `results` aligns with block->txns().
  virtual void OnBlockResponse(ReplicaId from, const BlockPtr& block,
                               const std::vector<uint64_t>& results,
                               bool speculative, SimTime send_time) = 0;
};

}  // namespace hotstuff1

#endif  // HOTSTUFF1_CONSENSUS_MEMPOOL_H_
