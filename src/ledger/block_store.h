// Per-replica store of every block the replica has seen, indexed by hash.
// Supports the ancestry queries the commit/speculation rules need and the
// fetch-by-hash recovery path (§4.2, Recovery Mechanism).

#ifndef HOTSTUFF1_LEDGER_BLOCK_STORE_H_
#define HOTSTUFF1_LEDGER_BLOCK_STORE_H_

#include <unordered_map>

#include "ledger/block.h"

namespace hotstuff1 {

class BlockStore {
 public:
  BlockStore();

  /// Inserts a block (idempotent). The parent need not be present yet.
  void Put(BlockPtr block);

  bool Contains(const Hash256& hash) const { return by_hash_.count(hash) > 0; }

  /// Returns the block, or nullptr when absent.
  BlockPtr GetOrNull(const Hash256& hash) const;

  BlockPtr genesis() const { return genesis_; }
  size_t size() const { return by_hash_.size(); }

  /// True iff `ancestor` is on the parent chain of `block` (inclusive).
  /// Requires intermediate blocks to be present; returns false on a gap.
  bool IsAncestor(const Hash256& ancestor, const BlockPtr& block) const;

  /// Walks up from `block` to its ancestor at `height`. nullptr on a gap.
  BlockPtr AncestorAt(const BlockPtr& block, uint64_t height) const;

  /// Lowest common ancestor of two blocks; nullptr on a gap. Both chains
  /// share genesis, so for fully-connected stores this never fails.
  BlockPtr CommonAncestor(const BlockPtr& a, const BlockPtr& b) const;

  /// Parent of `block`, or nullptr if missing / genesis.
  BlockPtr Parent(const BlockPtr& block) const;

 private:
  std::unordered_map<Hash256, BlockPtr, Hash256Hasher> by_hash_;
  BlockPtr genesis_;
};

}  // namespace hotstuff1

#endif  // HOTSTUFF1_LEDGER_BLOCK_STORE_H_
