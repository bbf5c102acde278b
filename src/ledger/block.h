// Transactions and blocks. Blocks are identified by (view, slot) per the
// slotting design (§6.1) and hash-linked through parent pointers; the
// non-slotted protocols always use slot 1.

#ifndef HOTSTUFF1_LEDGER_BLOCK_H_
#define HOTSTUFF1_LEDGER_BLOCK_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/units.h"
#include "crypto/sha256.h"
#include "crypto/signer.h"

namespace hotstuff1 {

/// A single key-value operation inside a transaction.
struct TxnOp {
  enum class Kind : uint8_t { kRead = 0, kWrite = 1, kReadModifyWrite = 2 };
  Kind kind = Kind::kWrite;
  uint64_t key = 0;
  uint64_t value = 0;
};

/// A client transaction: an ordered list of KV operations. `submit_time`
/// feeds client-latency measurement; it does not affect execution.
struct Transaction {
  uint64_t id = 0;  // globally unique (client id, sequence) packed by caller
  SimTime submit_time = 0;
  std::vector<TxnOp> ops;
  uint32_t payload_bytes = 0;  // extra wire bytes beyond the op encoding

  size_t WireSize() const { return 24 + ops.size() * 17 + payload_bytes; }
};

/// Block position in the two-dimensional (view, slot) chain of Fig. 5.
/// Ordering is lexicographic: lower view first, then lower slot (§6.1).
struct BlockId {
  uint64_t view = 0;
  uint32_t slot = 1;

  bool operator==(const BlockId& o) const { return view == o.view && slot == o.slot; }
  bool operator!=(const BlockId& o) const { return !(*this == o); }
  bool operator<(const BlockId& o) const {
    if (view != o.view) return view < o.view;
    return slot < o.slot;
  }
  bool operator<=(const BlockId& o) const { return *this < o || *this == o; }
  /// Adjacency in the chain (No-Gap, Def. 3.2; the prefix commit rule):
  /// `next` is the next slot of this view, or slot 1 of the next view. For
  /// unslotted blocks, always slot 1, this is `next.view == view + 1`.
  bool Precedes(const BlockId& next) const {
    return next.view == view ? next.slot == slot + 1
                             : next.view == view + 1 && next.slot == 1;
  }

  std::string ToString() const {
    return "B(" + std::to_string(slot) + "," + std::to_string(view) + ")";
  }
};

class Block;
using BlockPtr = std::shared_ptr<const Block>;

/// \brief Immutable block of client transactions.
class Block {
 public:
  /// Builds a block and computes its hash. `carry_hash` is the hash of the
  /// carried uncertified block for first-slot proposals in way (ii) of §6.1,
  /// or zero when absent.
  Block(BlockId id, Hash256 parent_hash, uint64_t height, ReplicaId proposer,
        std::vector<Transaction> txns, Hash256 carry_hash = Hash256{});

  const BlockId& id() const { return id_; }
  uint64_t view() const { return id_.view; }
  uint32_t slot() const { return id_.slot; }
  const Hash256& parent_hash() const { return parent_hash_; }
  /// Distance from genesis (genesis = 0); commit order index.
  uint64_t height() const { return height_; }
  ReplicaId proposer() const { return proposer_; }
  const std::vector<Transaction>& txns() const { return txns_; }
  const Hash256& carry_hash() const { return carry_hash_; }
  bool has_carry() const { return !carry_hash_.IsZero(); }
  const Hash256& hash() const { return hash_; }

  bool IsGenesis() const { return height_ == 0; }

  size_t WireSize() const;

  /// The genesis block every replica hard-codes ("the Propose message for
  /// view 0 extends a hard-coded certificate", §4.1).
  static BlockPtr Genesis();

  std::string ToString() const;

 private:
  BlockId id_;
  Hash256 parent_hash_;
  uint64_t height_;
  ReplicaId proposer_;
  std::vector<Transaction> txns_;
  Hash256 carry_hash_;
  Hash256 hash_;
};

}  // namespace hotstuff1

#endif  // HOTSTUFF1_LEDGER_BLOCK_H_
