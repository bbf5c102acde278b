#include "ledger/block_store.h"

#include "common/logging.h"

namespace hotstuff1 {

BlockStore::BlockStore() : genesis_(Block::Genesis()) {
  by_hash_.emplace(genesis_->hash(), genesis_);
}

void BlockStore::Put(BlockPtr block) {
  by_hash_.emplace(block->hash(), std::move(block));
}

BlockPtr BlockStore::GetOrNull(const Hash256& hash) const {
  auto it = by_hash_.find(hash);
  return it == by_hash_.end() ? nullptr : it->second;
}

BlockPtr BlockStore::Parent(const BlockPtr& block) const {
  if (block->IsGenesis()) return nullptr;
  return GetOrNull(block->parent_hash());
}

BlockPtr BlockStore::AncestorAt(const BlockPtr& block, uint64_t height) const {
  BlockPtr cur = block;
  while (cur && cur->height() > height) cur = Parent(cur);
  if (!cur || cur->height() != height) return nullptr;
  return cur;
}

bool BlockStore::IsAncestor(const Hash256& ancestor, const BlockPtr& block) const {
  BlockPtr anc = GetOrNull(ancestor);
  if (!anc) return false;
  BlockPtr at = AncestorAt(block, anc->height());
  return at && at->hash() == ancestor;
}

BlockPtr BlockStore::CommonAncestor(const BlockPtr& a, const BlockPtr& b) const {
  BlockPtr x = a, y = b;
  while (x && y && x->hash() != y->hash()) {
    if (x->height() > y->height()) {
      x = Parent(x);
    } else if (y->height() > x->height()) {
      y = Parent(y);
    } else {
      x = Parent(x);
      y = Parent(y);
    }
  }
  if (!x || !y) return nullptr;
  return x;
}

}  // namespace hotstuff1
