// The dual ledger of §3/§4: a committed global-ledger plus a speculative
// local-ledger implemented as an undo-logged overlay on one KvState.
//
// Invariants:
//  * state() always equals: committed chain effects + speculative stack
//    effects, applied in chain order.
//  * the speculative stack is a single path extending the committed tip.
//  * Rollback (Def. 4.7) pops the stack down to a common ancestor, restoring
//    state byte-for-byte; the global ledger is never rolled back.

#ifndef HOTSTUFF1_LEDGER_LEDGER_H_
#define HOTSTUFF1_LEDGER_LEDGER_H_

#include <cstdint>
#include <vector>

#include "ledger/block.h"
#include "ledger/block_store.h"
#include "ledger/kv_state.h"

namespace hotstuff1 {

/// Execution outcome for one committed or speculated block.
struct ExecResult {
  BlockPtr block;
  /// One result per transaction, positionally aligned with block->txns().
  std::vector<uint64_t> txn_results;
  /// True if the block had already been speculatively executed (so the
  /// replica already sent speculative responses for it).
  bool was_speculated = false;
};

class Ledger {
 public:
  /// `store` must outlive the ledger and contain every block passed in.
  /// `initial_state` is the pre-loaded application database.
  Ledger(const BlockStore* store, KvState initial_state);

  // --- committed (global) ledger --------------------------------------------
  const BlockPtr& committed_tip() const { return committed_tip_; }
  uint64_t committed_height() const { return committed_tip_->height(); }
  /// Committed blocks in order, starting with genesis.
  const std::vector<BlockPtr>& committed_chain() const { return committed_chain_; }
  bool IsCommitted(const Hash256& hash) const;

  // --- speculative (local) ledger -------------------------------------------
  /// Tip of the speculative chain (== committed tip when nothing is
  /// speculated).
  BlockPtr spec_tip() const;
  size_t spec_depth() const { return spec_stack_.size(); }
  bool IsSpeculated(const Hash256& hash) const;

  /// Speculatively executes `block`, which must extend spec_tip(). Returns
  /// per-transaction results. The caller (protocol) is responsible for the
  /// Prefix-Speculation and No-Gap rules; the ledger enforces only chain
  /// shape.
  const std::vector<uint64_t>& Speculate(const BlockPtr& block);

  /// Rolls the local ledger back so that spec_tip() has hash
  /// `ancestor_hash`; the ancestor must be on the speculative stack or be
  /// the committed tip. Returns the number of blocks rolled back.
  size_t RollbackTo(const Hash256& ancestor_hash);

  /// Commits every uncommitted ancestor of `target` (inclusive), in chain
  /// order. Speculated prefix blocks are promoted without re-execution;
  /// conflicting speculation is rolled back first; remaining blocks are
  /// executed directly. All blocks on the path must be in the store.
  std::vector<ExecResult> CommitChain(const BlockPtr& target);

  const KvState& state() const { return state_; }

  // --- stats -----------------------------------------------------------------
  uint64_t rollback_events() const { return rollback_events_; }
  uint64_t blocks_rolled_back() const { return blocks_rolled_back_; }
  uint64_t txns_committed() const { return txns_committed_; }
  uint64_t txns_speculated() const { return txns_speculated_; }

 private:
  struct SpecEntry {
    BlockPtr block;
    KvState::UndoLog undo;
    std::vector<uint64_t> results;
  };

  const BlockStore* store_;
  KvState state_;
  BlockPtr committed_tip_;
  std::vector<BlockPtr> committed_chain_;
  std::vector<SpecEntry> spec_stack_;

  uint64_t rollback_events_ = 0;
  uint64_t blocks_rolled_back_ = 0;
  uint64_t txns_committed_ = 0;
  uint64_t txns_speculated_ = 0;
};

}  // namespace hotstuff1

#endif  // HOTSTUFF1_LEDGER_LEDGER_H_
