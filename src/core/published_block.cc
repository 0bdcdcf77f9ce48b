#include "core/published_block.h"

#include <algorithm>

#include "common/coding.h"
#include "common/epoch.h"
#include "common/memory_tracker.h"

namespace sketchlink {

MemberChunkList::~MemberChunkList() {
  Chunk* chunk = head_.load(std::memory_order_relaxed);
  while (chunk != nullptr) {
    Chunk* next = chunk->next.load(std::memory_order_relaxed);
    delete chunk;
    chunk = next;
  }
}

void MemberChunkList::Append(RecordId id) {
  if (tail_ == nullptr || tail_used_ == tail_->capacity) {
    const size_t capacity =
        tail_ == nullptr
            ? kFirstChunkCapacity
            : std::min(tail_->capacity * 2, kMaxChunkCapacity);
    Chunk* chunk = new Chunk(capacity);
    if (tail_ == nullptr) {
      head_.store(chunk, std::memory_order_release);
    } else {
      tail_->next.store(chunk, std::memory_order_release);
    }
    tail_ = chunk;
    tail_used_ = 0;
  }
  tail_->slots[tail_used_++] = id;
  // The release store publishes the slot write (and any new chunk links)
  // to readers that acquire size().
  size_.store(size_.load(std::memory_order_relaxed) + 1,
              std::memory_order_release);
}

size_t MemberChunkList::ApproximateHeapBytes() const {
  size_t bytes = 0;
  const Chunk* chunk = head_.load(std::memory_order_acquire);
  while (chunk != nullptr) {
    bytes += sizeof(Chunk) + chunk->capacity * sizeof(RecordId);
    chunk = chunk->next.load(std::memory_order_acquire);
  }
  return bytes;
}

const RepSet* PublishedBlock::EmptyReps() {
  static const RepSet* empty = new RepSet();
  return empty;
}

PublishedBlock::PublishedBlock(size_t lambda)
    : num_subs_(lambda), subs_(new Sub[lambda]) {
  for (size_t i = 0; i < num_subs_; ++i) {
    subs_[i].reps.store(EmptyReps(), std::memory_order_relaxed);
  }
}

PublishedBlock::~PublishedBlock() {
  // No reader can hold this block (shared_ptr refcount reached zero), so
  // the current snapshots can be freed directly; replaced ones were already
  // handed to the epoch manager by PublishReps.
  for (size_t i = 0; i < num_subs_; ++i) {
    const RepSet* reps = subs_[i].reps.load(std::memory_order_relaxed);
    if (reps != EmptyReps()) delete reps;
  }
}

void PublishedBlock::PublishReps(size_t i, const RepSet* fresh) {
  const RepSet* old = subs_[i].reps.load(std::memory_order_relaxed);
  subs_[i].reps.store(fresh, std::memory_order_release);
  if (old != EmptyReps()) {
    epoch::EpochManager::Global().Retire([old] { delete old; });
  }
}

size_t PublishedBlock::TotalMembers() const {
  size_t total = 0;
  for (size_t i = 0; i < num_subs_; ++i) total += subs_[i].members.size();
  return total;
}

size_t PublishedBlock::ApproximateMemoryUsage() const {
  size_t bytes =
      sizeof(*this) + StringHeapBytes(anchor) + num_subs_ * sizeof(Sub);
  bytes += anchor_bits.HeapBytes();
  for (size_t i = 0; i < num_subs_; ++i) {
    const RepSet* reps = subs_[i].reps.load(std::memory_order_acquire);
    if (reps != EmptyReps()) {
      bytes += sizeof(RepSet) + reps->ApproximateHeapBytes();
    }
    bytes += subs_[i].members.ApproximateHeapBytes();
  }
  return bytes;
}

SketchBlock PublishedBlock::Materialize() const {
  SketchBlock block(num_subs_);
  block.anchor = anchor;
  block.anchor_bits = anchor_bits;
  for (size_t i = 0; i < num_subs_; ++i) {
    const RepSet* reps = subs_[i].reps.load(std::memory_order_acquire);
    static_cast<RepSet&>(block.subs[i]) = *reps;
    const size_t count = subs_[i].members.size();
    block.subs[i].members.reserve(count);
    auto it = subs_[i].members.begin_prefix(count);
    for (size_t m = 0; m < count; ++m, ++it) {
      block.subs[i].members.push_back(*it);
    }
  }
  return block;
}

void PublishedBlock::EncodeTo(std::string* dst) const {
  // Byte-identical to SketchBlock::EncodeTo for the same logical content.
  PutLengthPrefixed(dst, anchor);
  PutVarint32(dst, static_cast<uint32_t>(num_subs_));
  for (size_t i = 0; i < num_subs_; ++i) {
    const RepSet* reps = subs_[i].reps.load(std::memory_order_acquire);
    PutVarint32(dst, static_cast<uint32_t>(reps->representatives.size()));
    for (const std::string& rep : reps->representatives) {
      PutLengthPrefixed(dst, rep);
    }
    const size_t count = subs_[i].members.size();
    PutVarint32(dst, static_cast<uint32_t>(count));
    auto it = subs_[i].members.begin_prefix(count);
    for (size_t m = 0; m < count; ++m, ++it) {
      PutVarint64(dst, *it);
    }
  }
}

std::shared_ptr<PublishedBlock> PublishedBlock::FromSketchBlock(
    SketchBlock&& block) {
  auto published = std::make_shared<PublishedBlock>(block.subs.size());
  published->anchor = std::move(block.anchor);
  published->anchor_bits = std::move(block.anchor_bits);
  for (size_t i = 0; i < published->num_subs_; ++i) {
    SketchSubBlock& sub = block.subs[i];
    if (!sub.representatives.empty()) {
      auto* reps = new RepSet(std::move(static_cast<RepSet&>(sub)));
      published->subs_[i].reps.store(reps, std::memory_order_relaxed);
    }
    for (RecordId id : sub.members) {
      published->subs_[i].members.Append(id);
    }
  }
  return published;
}

std::vector<RecordId> CandidateList::ToVector() const {
  std::vector<RecordId> out;
  AppendTo(&out);
  return out;
}

void CandidateList::AppendTo(std::vector<RecordId>* out) const {
  out->reserve(out->size() + size_);
  for (RecordId id : *this) out->push_back(id);
}

bool operator==(const CandidateList& a, const CandidateList& b) {
  if (a.size_ != b.size_) return false;
  auto ia = a.begin();
  auto ib = b.begin();
  for (size_t i = 0; i < a.size_; ++i, ++ia, ++ib) {
    if (*ia != *ib) return false;
  }
  return true;
}

std::ostream& operator<<(std::ostream& os, const CandidateList& list) {
  os << "{";
  bool first = true;
  for (RecordId id : list) {
    if (!first) os << ", ";
    os << id;
    first = false;
  }
  return os << "}";
}

}  // namespace sketchlink
