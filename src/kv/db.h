#ifndef SKETCHLINK_KV_DB_H_
#define SKETCHLINK_KV_DB_H_

#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "kv/block_cache.h"
#include "obs/registry.h"
#include "kv/env.h"
#include "kv/iterator.h"
#include "kv/memtable.h"
#include "kv/options.h"
#include "kv/sstable.h"
#include "kv/wal.h"

namespace sketchlink::kv {

/// Live instruments of one Db (see obs/instruments.h). Counters always
/// count; the duration histograms only receive samples while
/// `timing_enabled` is set, which happens when the store is registered with
/// an enabled registry. The DbStats accessor is a thin view over these.
struct DbMetrics {
  obs::Counter puts;
  obs::Counter gets;
  obs::Counter deletes;
  obs::Counter memtable_hits;
  obs::Counter sstable_reads;
  obs::Counter bloom_skips;
  obs::Counter flushes;
  obs::Counter compactions;
  obs::Counter wal_appends;    // records appended (incl. rotation rewrites)
  obs::Counter wal_rotations;  // successful log rotations
  obs::Counter wal_syncs;      // fsyncs issued on the log
  obs::Counter flush_bytes;       // key+value payload flushed to runs
  obs::Counter compaction_bytes;  // key+value payload rewritten by merges
  obs::Histogram flush_duration_nanos;
  obs::Histogram compaction_duration_nanos;
  bool timing_enabled = false;  // guarded by the Db mutex

  DbStats ToStats() const {
    DbStats stats;
    stats.puts = puts.value();
    stats.gets = gets.value();
    stats.deletes = deletes.value();
    stats.memtable_hits = memtable_hits.value();
    stats.sstable_reads = sstable_reads.value();
    stats.bloom_skips = bloom_skips.value();
    stats.flushes = flushes.value();
    stats.compactions = compactions.value();
    return stats;
  }
};

/// Embedded log-structured key/value store: WAL + skip-list memtable +
/// size-tiered sorted runs, our stand-in for the LevelDB instance the paper
/// uses as persistent block storage (Secs. 4-6). Point lookups are O(log n)
/// in the number of stored keys (memtable skip list + per-run sparse index
/// binary search), matching the complexity the paper assumes for
/// `retrieve(k)`.
///
/// Thread-safe for point operations: Put/Delete/Get/Contains/Flush/Compact
/// and the scan helpers serialize on one internal mutex (a spill store is
/// latency-bound, not lock-bound — the sharded sketches above it keep their
/// own finer-grained locks). NewIterator is the exception: the returned
/// cursor reads the memtable without holding the lock, so iteration must be
/// externally synchronized against writers.
class Db {
 public:
  ~Db();

  Db(const Db&) = delete;
  Db& operator=(const Db&) = delete;

  /// Opens (or creates) a database rooted at directory `path`, replaying any
  /// WAL left by a previous process.
  static Result<std::unique_ptr<Db>> Open(const std::string& path,
                                          const Options& options = Options());

  /// Inserts or overwrites `key`. After a failed WAL rotation the store is
  /// poisoned: writes fail with the sticky rotation error (retrying the
  /// rotation first) instead of acknowledging updates the log never saw.
  Status Put(std::string_view key, std::string_view value);

  /// Removes `key` (idempotent). Same poisoning contract as Put.
  Status Delete(std::string_view key);

  /// Point lookup; NotFound status when absent.
  Status Get(std::string_view key, std::string* value);

  /// True if `key` exists (no value copy).
  bool Contains(std::string_view key);

  /// Forces the memtable out to an SSTable.
  Status Flush();

  /// Runs a full merge of all sorted runs if the compaction trigger is met
  /// (or `force` is true).
  Status Compact(bool force = false);

  /// Streaming cursor over the live entries (tombstones hidden) in key
  /// order: a merge of the memtable and every sorted run, newest layer
  /// winning per key. The iterator pins the runs it reads (compaction may
  /// retire them concurrently-in-program-order) but is invalidated by
  /// writes to the memtable; iterate-then-write, externally synchronized
  /// against concurrent writers, as the linkage pipelines do.
  std::unique_ptr<Iterator> NewIterator() const;

  /// Returns every live entry in key order (merged view). Intended for
  /// tests, examples and small scans, not for bulk workloads.
  Result<std::vector<TableEntry>> ScanAll();

  /// Returns live entries whose key starts with `prefix`, in key order;
  /// seeks directly to the prefix instead of scanning the whole store.
  Result<std::vector<TableEntry>> ScanPrefix(std::string_view prefix);

  /// Operation counters: a thin by-value view over the live instruments, so
  /// historical callers keep compiling unchanged.
  DbStats stats() const { return metrics_.ToStats(); }

  /// Live instruments (registry closures and tests read these directly).
  const DbMetrics& metrics() const { return metrics_; }

  /// Attaches this store's instruments to `registry` under the `instance`
  /// label and arms flush/compaction timing when the registry is enabled.
  /// Called by Open when Options::registry is set; the Db owns the handles,
  /// so destruction deregisters them.
  void RegisterMetrics(obs::Registry* registry, const std::string& instance);

  /// The shared block cache, or nullptr when disabled (hit/miss counters
  /// live on the cache itself).
  const BlockCache* block_cache() const { return block_cache_.get(); }

  /// Number of sorted runs currently on disk.
  size_t num_tables() const { return tables_.size(); }

  /// In-memory footprint: memtable + per-run indexes/bloom filters.
  size_t ApproximateMemoryUsage() const;

  const std::string& path() const { return path_; }

 private:
  Db(std::string path, Options options)
      : path_(std::move(path)),
        options_(options),
        env_(options.env != nullptr ? options.env : Env::Default()) {}

  std::string TableFileName(uint64_t number) const;
  std::string WalFileName() const;
  std::string ManifestFileName() const;

  Status Recover();
  Status WriteManifest();
  Status ApplyToMemtable(const WalRecord& record);
  // *Locked methods expect mutex_ to be held by the caller.
  Status GetLocked(std::string_view key, std::string* value);
  Status FlushLocked();
  Status CompactLocked(bool force);
  Status MaybeFlushAndCompactLocked();
  // Rebuilds the WAL from the current memtable (fresh file beside the live
  // one, sync, atomic rename). On failure wal_ is dropped and wal_status_
  // keeps the error, poisoning the write path.
  Status RotateWalLocked();
  // Write-path gate: OK when the WAL is healthy, otherwise retries the
  // rotation so a transient failure can heal.
  Status EnsureWalLocked();
  std::unique_ptr<Iterator> NewIteratorLocked() const;

  mutable std::mutex mutex_;
  std::string path_;
  Options options_;
  Env* env_;  // never null: resolved to Env::Default() at construction
  std::unique_ptr<BlockCache> block_cache_;
  MemTable mem_;
  std::unique_ptr<WalWriter> wal_;
  // Sticky result of the last WAL rotation; non-OK poisons Put/Delete.
  Status wal_status_;
  // Sorted runs, oldest first; lookups scan newest -> oldest.
  std::vector<std::shared_ptr<Table>> tables_;
  uint64_t next_file_number_ = 1;
  mutable DbMetrics metrics_;
  // Declared last: deregistration (whose closures read this Db) must run
  // before any other member is torn down.
  std::vector<obs::Registration> metric_registrations_;
};

}  // namespace sketchlink::kv

#endif  // SKETCHLINK_KV_DB_H_
