#ifndef SKETCHLINK_CORE_PUBLISHED_BLOCK_H_
#define SKETCHLINK_CORE_PUBLISHED_BLOCK_H_

// The concurrent block representation behind the sketch (core/block_sketch.h).
//
// A PublishedBlock is built (or decoded) by a writer, published into an
// epoch-protected table, and from then on read lock-free:
//   - the anchor section is immutable after publish;
//   - each sub-block's representative reservoir is an immutable RepSet
//     snapshot behind an atomic pointer — mutations copy-on-write a fresh
//     snapshot and epoch-retire the old one;
//   - member ids live in an append-only chunk list whose release-published
//     size bounds what readers may traverse.
//
// CandidateList is the read-side handle Candidates() returns: it pins the
// block via shared_ptr and iterates a fixed-size prefix of one sub-block's
// member list — no copy of the id vector, no lock.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "core/sketch_types.h"

namespace sketchlink {

/// Append-only list of record ids in linked chunks. Exactly one writer
/// appends; readers observe a consistent prefix bounded by size() (release
/// store on append, acquire load on read). Chunks are never reallocated or
/// freed before the owning block, so iterators stay valid while the block
/// is pinned.
class MemberChunkList {
 public:
  MemberChunkList() = default;
  ~MemberChunkList();

  MemberChunkList(const MemberChunkList&) = delete;
  MemberChunkList& operator=(const MemberChunkList&) = delete;

  struct Chunk {
    explicit Chunk(size_t cap)
        : capacity(cap), slots(new RecordId[cap]) {}
    const size_t capacity;
    std::atomic<Chunk*> next{nullptr};
    std::unique_ptr<RecordId[]> slots;
  };

  /// Appends one id (single writer).
  void Append(RecordId id);

  /// Ids visible to a reader right now (acquire: every slot below the
  /// returned count is readable).
  size_t size() const { return size_.load(std::memory_order_acquire); }

  /// Iterates the first `count` ids; `count` must come from size().
  class const_iterator {
   public:
    using iterator_category = std::input_iterator_tag;
    using value_type = RecordId;
    using difference_type = std::ptrdiff_t;
    using pointer = const RecordId*;
    using reference = RecordId;

    const_iterator() = default;
    const_iterator(const Chunk* chunk, size_t remaining)
        : chunk_(remaining == 0 ? nullptr : chunk), remaining_(remaining) {}

    RecordId operator*() const { return chunk_->slots[index_]; }

    const_iterator& operator++() {
      if (--remaining_ == 0) {
        chunk_ = nullptr;
        index_ = 0;
        return *this;
      }
      if (++index_ == chunk_->capacity) {
        chunk_ = chunk_->next.load(std::memory_order_acquire);
        index_ = 0;
      }
      return *this;
    }

    bool operator==(const const_iterator& other) const {
      return remaining_ == other.remaining_ && chunk_ == other.chunk_ &&
             index_ == other.index_;
    }
    bool operator!=(const const_iterator& other) const {
      return !(*this == other);
    }

   private:
    const Chunk* chunk_ = nullptr;
    size_t index_ = 0;
    size_t remaining_ = 0;
  };

  const_iterator begin_prefix(size_t count) const {
    return const_iterator(head_.load(std::memory_order_acquire), count);
  }

  /// Allocated chunk bytes (reader-safe; for memory accounting).
  size_t ApproximateHeapBytes() const;

 private:
  static constexpr size_t kFirstChunkCapacity = 8;
  static constexpr size_t kMaxChunkCapacity = 65536;

  std::atomic<Chunk*> head_{nullptr};
  Chunk* tail_ = nullptr;     // writer only
  size_t tail_used_ = 0;      // writer only
  std::atomic<size_t> size_{0};
};

/// A block published for concurrent reads. See the file comment for the
/// synchronization contract of each section.
class PublishedBlock {
 public:
  explicit PublishedBlock(size_t lambda);
  ~PublishedBlock();

  PublishedBlock(const PublishedBlock&) = delete;
  PublishedBlock& operator=(const PublishedBlock&) = delete;

  /// The shared all-empty reservoir every sub starts from; never retired.
  static const RepSet* EmptyReps();

  // --- anchor section: written before publish, immutable afterwards ---
  std::string anchor;
  simd::BitProfile anchor_bits;

  struct Sub {
    std::atomic<const RepSet*> reps{nullptr};  // set to EmptyReps() in ctor
    MemberChunkList members;
  };

  size_t num_subs() const { return num_subs_; }
  Sub& sub(size_t i) { return subs_[i]; }
  const Sub& sub(size_t i) const { return subs_[i]; }

  /// Publishes a fresh reservoir snapshot for sub `i` (writer only) and
  /// epoch-retires the replaced one. Takes ownership of `fresh`.
  void PublishReps(size_t i, const RepSet* fresh);

  // --- Residency bookkeeping (bounded sketch only) ---
  // The residency rule's eviction scoring reads these; an unbounded sketch
  // never touches them. xi / last_access are bumped by lock-free readers
  // (relaxed; they only feed eviction scoring). The plain fields are
  // written at admission under the sketch's write lock and never read
  // outside it.
  std::atomic<uint64_t> xi{0};
  std::atomic<uint64_t> last_access{0};
  uint64_t admit_evictions = 0;  // global eviction count at admission
  uint64_t admitted_at = 0;      // for the FIFO ablation
  uint64_t version = 0;          // invalidates stale eviction-queue entries

  size_t TotalMembers() const;
  size_t ApproximateMemoryUsage() const;

  /// Deep-copies into the classic representation (diagnostics, spilling).
  /// Safe concurrently with readers and the single writer.
  SketchBlock Materialize() const;

  /// Serializes with the exact SketchBlock::EncodeTo wire format, reading
  /// the published state directly (no intermediate copy).
  void EncodeTo(std::string* dst) const;

  /// Moves a decoded (and rehydrated) SketchBlock into the published
  /// representation.
  static std::shared_ptr<PublishedBlock> FromSketchBlock(SketchBlock&& block);

 private:
  size_t num_subs_;
  std::unique_ptr<Sub[]> subs_;
};

/// The candidate set of one query: a pinned, fixed-size view over the
/// chosen sub-block's member ids. Cheap to move, copyable (copies share the
/// pin), and iterable like the std::vector<RecordId> it replaces. The ids
/// stay valid for the lifetime of this handle even if the block is
/// concurrently evicted or mutated.
class CandidateList {
 public:
  CandidateList() = default;
  CandidateList(std::shared_ptr<const PublishedBlock> block, size_t sub)
      : block_(std::move(block)),
        members_(&block_->sub(sub).members),
        size_(members_->size()) {}

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  MemberChunkList::const_iterator begin() const {
    return members_ == nullptr ? MemberChunkList::const_iterator()
                               : members_->begin_prefix(size_);
  }
  MemberChunkList::const_iterator end() const {
    return MemberChunkList::const_iterator();
  }

  std::vector<RecordId> ToVector() const;
  void AppendTo(std::vector<RecordId>* out) const;

  friend bool operator==(const CandidateList& a, const CandidateList& b);
  friend bool operator!=(const CandidateList& a, const CandidateList& b) {
    return !(a == b);
  }

 private:
  std::shared_ptr<const PublishedBlock> block_;
  const MemberChunkList* members_ = nullptr;
  size_t size_ = 0;
};

/// gtest-friendly printing (mirrors how a vector of ids would print).
std::ostream& operator<<(std::ostream& os, const CandidateList& list);

}  // namespace sketchlink

#endif  // SKETCHLINK_CORE_PUBLISHED_BLOCK_H_
