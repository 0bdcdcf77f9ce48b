#include "kv/db.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <map>

#include "common/coding.h"
#include "kv/merging_iterator.h"
#include "obs/spans.h"

namespace sketchlink::kv {

namespace {

constexpr uint32_t kManifestMagic = 0x534b4c4d;  // "SKLM"

}  // namespace

Db::~Db() {
  if (wal_ != nullptr) {
    (void)wal_->Sync();
    (void)wal_->Close();
  }
}

std::string Db::TableFileName(uint64_t number) const {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%06" PRIu64 ".sst", number);
  return path_ + "/" + buf;
}

std::string Db::WalFileName() const { return path_ + "/wal.log"; }

std::string Db::ManifestFileName() const { return path_ + "/MANIFEST"; }

Result<std::unique_ptr<Db>> Db::Open(const std::string& path,
                                     const Options& options) {
  Env* env = options.env != nullptr ? options.env : Env::Default();
  if (options.create_if_missing) {
    SKETCHLINK_RETURN_IF_ERROR(env->CreateDirIfMissing(path));
  } else if (!env->FileExists(path)) {
    return Status::NotFound("database directory missing: " + path);
  }
  auto db = std::unique_ptr<Db>(new Db(path, options));
  if (options.block_cache_bytes > 0) {
    db->block_cache_ = std::make_unique<BlockCache>(options.block_cache_bytes);
  }
  SKETCHLINK_RETURN_IF_ERROR(db->Recover());
  if (options.registry != nullptr) {
    db->RegisterMetrics(options.registry, options.metrics_instance);
  }
  return db;
}

void Db::RegisterMetrics(obs::Registry* registry, const std::string& instance) {
  if (registry == nullptr) return;
  if (registry->enabled()) {
    std::lock_guard<std::mutex> lock(mutex_);
    metrics_.timing_enabled = true;
  }
  auto& regs = metric_registrations_;
  const std::vector<std::pair<std::string, std::string>> labels = {
      {"instance", instance}};
  const auto add_counter = [&](const char* name, const char* help,
                               const obs::Counter* counter) {
    regs.push_back(
        registry->AddCounter(obs::MetricId(name, help, labels), counter));
  };
  add_counter("sketchlink_kv_puts_total", "Put operations", &metrics_.puts);
  add_counter("sketchlink_kv_gets_total", "Get operations", &metrics_.gets);
  add_counter("sketchlink_kv_deletes_total", "Delete operations",
              &metrics_.deletes);
  add_counter("sketchlink_kv_memtable_hits_total",
              "Lookups answered by the memtable", &metrics_.memtable_hits);
  add_counter("sketchlink_kv_sstable_reads_total",
              "Lookups that touched at least one SSTable",
              &metrics_.sstable_reads);
  add_counter("sketchlink_kv_bloom_skips_total",
              "SSTables skipped by their Bloom filter", &metrics_.bloom_skips);
  add_counter("sketchlink_kv_flushes_total", "Memtable flushes",
              &metrics_.flushes);
  add_counter("sketchlink_kv_compactions_total", "Full merges of sorted runs",
              &metrics_.compactions);
  add_counter("sketchlink_kv_wal_appends_total",
              "Records appended to the write-ahead log",
              &metrics_.wal_appends);
  add_counter("sketchlink_kv_wal_rotations_total",
              "Successful write-ahead log rotations",
              &metrics_.wal_rotations);
  add_counter("sketchlink_kv_wal_syncs_total",
              "fsyncs issued on the write-ahead log", &metrics_.wal_syncs);
  add_counter("sketchlink_kv_flush_bytes_total",
              "Key+value payload flushed to sorted runs",
              &metrics_.flush_bytes);
  add_counter("sketchlink_kv_compaction_bytes_total",
              "Key+value payload rewritten by compactions",
              &metrics_.compaction_bytes);
  regs.push_back(registry->AddHistogram(
      obs::MetricId("sketchlink_kv_flush_duration_nanos",
                    "Memtable flush duration", labels),
      &metrics_.flush_duration_nanos));
  regs.push_back(registry->AddHistogram(
      obs::MetricId("sketchlink_kv_compaction_duration_nanos",
                    "Compaction duration", labels),
      &metrics_.compaction_duration_nanos));
  regs.push_back(registry->AddCallbackGauge(
      obs::MetricId("sketchlink_kv_tables", "Sorted runs on disk", labels),
      [this] {
        std::lock_guard<std::mutex> lock(mutex_);
        return static_cast<double>(tables_.size());
      }));
  regs.push_back(registry->AddCallbackGauge(
      obs::MetricId("sketchlink_kv_memtable_bytes",
                    "Key+value payload buffered in the memtable", labels),
      [this] {
        std::lock_guard<std::mutex> lock(mutex_);
        return static_cast<double>(mem_.payload_bytes());
      }));
  regs.push_back(registry->AddCallbackGauge(
      obs::MetricId("sketchlink_kv_memory_bytes",
                    "Approximate in-memory footprint", labels),
      [this] { return static_cast<double>(ApproximateMemoryUsage()); }));
}

Status Db::Recover() {
  // 1. Manifest -> table list.
  if (env_->FileExists(ManifestFileName())) {
    std::string manifest;
    SKETCHLINK_RETURN_IF_ERROR(
        env_->ReadFileToString(ManifestFileName(), &manifest));
    if (manifest.size() < 8) return Status::Corruption("manifest too small");
    std::string_view body(manifest.data(), manifest.size() - 8);
    std::string_view tail(manifest.data() + manifest.size() - 8, 8);
    uint32_t crc, magic;
    GetFixed32(&tail, &crc);
    GetFixed32(&tail, &magic);
    if (magic != kManifestMagic || Crc32c(body) != crc) {
      return Status::Corruption("bad manifest checksum");
    }
    std::string_view input = body;
    uint64_t next_number;
    uint32_t count;
    if (!GetVarint64(&input, &next_number) || !GetVarint32(&input, &count)) {
      return Status::Corruption("bad manifest header");
    }
    next_file_number_ = next_number;
    for (uint32_t i = 0; i < count; ++i) {
      std::string_view name;
      if (!GetLengthPrefixed(&input, &name)) {
        return Status::Corruption("bad manifest entry");
      }
      auto table = Table::Open(path_ + "/" + std::string(name),
                               block_cache_.get(), env_);
      if (!table.ok()) return table.status();
      tables_.push_back(std::move(*table));
    }
  }

  // 2. Sweep .sst files the manifest never adopted: a crash between writing
  // a run and committing the manifest leaves an orphan whose number may be
  // reused. Best effort — an undeletable orphan is only wasted space.
  if (auto listing = env_->ListDir(path_); listing.ok()) {
    for (const std::string& name : *listing) {
      if (name.size() < 4 || name.substr(name.size() - 4) != ".sst") continue;
      const std::string full = path_ + "/" + name;
      const bool live = std::any_of(
          tables_.begin(), tables_.end(),
          [&](const auto& table) { return table->path() == full; });
      if (!live) (void)env_->RemoveFile(full);
    }
  }

  // 3. Replay the WAL into a fresh memtable.
  if (env_->FileExists(WalFileName())) {
    auto records =
        ReadWal(WalFileName(), env_, options_.best_effort_wal_recovery);
    if (!records.ok()) return records.status();
    for (const WalRecord& record : *records) {
      SKETCHLINK_RETURN_IF_ERROR(ApplyToMemtable(record));
    }
  }

  // 4. Re-open the WAL for appending. Re-writing the replayed records keeps
  // the implementation simple (single WAL segment) at the cost of one
  // rewrite on recovery.
  return RotateWalLocked();
}

Status Db::RotateWalLocked() {
  if (wal_ != nullptr) (void)wal_->Close();
  wal_ = nullptr;
  auto rotate = [&]() -> Status {
    const std::string tmp = WalFileName() + ".new";
    auto wal = WalWriter::Open(tmp, options_.sync_writes, env_);
    if (!wal.ok()) return wal.status();
    for (auto it = mem_.NewIterator(); it.Valid(); it.Next()) {
      if (it.value().tombstone) {
        SKETCHLINK_RETURN_IF_ERROR((*wal)->AppendDelete(it.key()));
      } else {
        SKETCHLINK_RETURN_IF_ERROR(
            (*wal)->AppendPut(it.key(), it.value().value));
      }
      metrics_.wal_appends.Inc();
    }
    SKETCHLINK_RETURN_IF_ERROR((*wal)->Sync());
    metrics_.wal_syncs.Inc();
    // The writer keeps its handle across the rename: appends land in the
    // newly-named live log.
    SKETCHLINK_RETURN_IF_ERROR(env_->RenameFile(tmp, WalFileName()));
    wal_ = std::move(*wal);
    return Status::OK();
  };
  wal_status_ = rotate();
  if (wal_status_.ok()) metrics_.wal_rotations.Inc();
  return wal_status_;
}

Status Db::EnsureWalLocked() {
  if (wal_status_.ok() && wal_ != nullptr) return Status::OK();
  return RotateWalLocked();
}

Status Db::ApplyToMemtable(const WalRecord& record) {
  if (record.op == WalRecord::Op::kPut) {
    mem_.Put(record.key, record.value);
  } else {
    mem_.Delete(record.key);
  }
  return Status::OK();
}

Status Db::WriteManifest() {
  std::string body;
  PutVarint64(&body, next_file_number_);
  PutVarint32(&body, static_cast<uint32_t>(tables_.size()));
  for (const auto& table : tables_) {
    const std::string& path = table->path();
    const size_t slash = path.find_last_of('/');
    PutLengthPrefixed(&body,
                      slash == std::string::npos ? path
                                                 : path.substr(slash + 1));
  }
  std::string file = body;
  PutFixed32(&file, Crc32c(body));
  PutFixed32(&file, kManifestMagic);
  return env_->WriteStringToFileSync(ManifestFileName(), file);
}

Status Db::Put(std::string_view key, std::string_view value) {
  std::lock_guard<std::mutex> lock(mutex_);
  {
    obs::Span span("kv", "wal_append");
    Status status = EnsureWalLocked();
    if (status.ok()) status = wal_->AppendPut(key, value);
    if (!status.ok()) {
      span.MarkError();
      return status;
    }
  }
  metrics_.wal_appends.Inc();
  if (options_.sync_writes) metrics_.wal_syncs.Inc();
  mem_.Put(std::string(key), std::string(value));
  metrics_.puts.Inc();
  return MaybeFlushAndCompactLocked();
}

Status Db::Delete(std::string_view key) {
  std::lock_guard<std::mutex> lock(mutex_);
  {
    obs::Span span("kv", "wal_append");
    Status status = EnsureWalLocked();
    if (status.ok()) status = wal_->AppendDelete(key);
    if (!status.ok()) {
      span.MarkError();
      return status;
    }
  }
  metrics_.wal_appends.Inc();
  if (options_.sync_writes) metrics_.wal_syncs.Inc();
  mem_.Delete(std::string(key));
  metrics_.deletes.Inc();
  return MaybeFlushAndCompactLocked();
}

Status Db::MaybeFlushAndCompactLocked() {
  if (mem_.payload_bytes() >= options_.memtable_bytes) {
    SKETCHLINK_RETURN_IF_ERROR(FlushLocked());
    SKETCHLINK_RETURN_IF_ERROR(CompactLocked(false));
  }
  return Status::OK();
}

Status Db::Get(std::string_view key, std::string* value) {
  obs::Span span("kv", "get");
  std::lock_guard<std::mutex> lock(mutex_);
  return GetLocked(key, value);
}

Status Db::GetLocked(std::string_view key, std::string* value) {
  metrics_.gets.Inc();
  const std::string k(key);
  switch (mem_.Get(k, value)) {
    case MemTable::LookupState::kFound:
      metrics_.memtable_hits.Inc();
      return Status::OK();
    case MemTable::LookupState::kDeleted:
      return Status::NotFound(k);
    case MemTable::LookupState::kAbsent:
      break;
  }
  // Newest run first: the most recent version of a key wins.
  for (auto it = tables_.rbegin(); it != tables_.rend(); ++it) {
    if ((*it)->DefinitelyAbsent(key)) {
      metrics_.bloom_skips.Inc();
      continue;
    }
    metrics_.sstable_reads.Inc();
    auto state = (*it)->Get(key, value);
    if (!state.ok()) return state.status();
    if (*state == Table::LookupState::kFound) return Status::OK();
    if (*state == Table::LookupState::kDeleted) return Status::NotFound(k);
  }
  return Status::NotFound(k);
}

bool Db::Contains(std::string_view key) {
  std::lock_guard<std::mutex> lock(mutex_);
  std::string scratch;
  return GetLocked(key, &scratch).ok();
}

Status Db::Flush() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (mem_.empty()) return Status::OK();
  return FlushLocked();
}

Status Db::FlushLocked() {
  obs::Span span("kv", "flush");
  obs::LatencyTimer timer(
      metrics_.timing_enabled ? &metrics_.flush_duration_nanos : nullptr);
  const uint64_t number = next_file_number_++;
  const std::string table_path = TableFileName(number);
  auto builder = TableBuilder::Open(table_path, options_);
  if (!builder.ok()) return builder.status();
  for (auto it = mem_.NewIterator(); it.Valid(); it.Next()) {
    SKETCHLINK_RETURN_IF_ERROR(
        (*builder)->Add(it.key(), it.value().value, it.value().tombstone));
  }
  SKETCHLINK_RETURN_IF_ERROR((*builder)->Finish());
  auto table = Table::Open(table_path, block_cache_.get(), env_);
  if (!table.ok()) return table.status();
  tables_.push_back(std::move(*table));
  SKETCHLINK_RETURN_IF_ERROR(WriteManifest());

  // Reset the memtable + WAL: everything buffered is now durable in the run.
  // A failed rotation poisons the write path (the flushed data itself is
  // safe) until EnsureWalLocked heals it.
  metrics_.flush_bytes.Add(mem_.payload_bytes());
  mem_.Clear();
  metrics_.flushes.Inc();
  return RotateWalLocked();
}

Status Db::Compact(bool force) {
  std::lock_guard<std::mutex> lock(mutex_);
  return CompactLocked(force);
}

Status Db::CompactLocked(bool force) {
  if (!force && tables_.size() < options_.compaction_trigger) {
    return Status::OK();
  }
  if (tables_.size() <= 1) return Status::OK();

  obs::Span span("kv", "compact");
  obs::LatencyTimer timer(
      metrics_.timing_enabled ? &metrics_.compaction_duration_nanos : nullptr);

  // Stream a merge of all runs (newest first) straight into the builder —
  // no materialized map, so compaction memory is O(stride), not O(data).
  std::vector<std::unique_ptr<Iterator>> children;
  children.reserve(tables_.size());
  for (auto it = tables_.rbegin(); it != tables_.rend(); ++it) {
    children.push_back((*it)->NewIterator());
  }
  auto merged = NewMergingIterator(std::move(children));

  const uint64_t number = next_file_number_++;
  const std::string table_path = TableFileName(number);
  auto builder = TableBuilder::Open(table_path, options_);
  if (!builder.ok()) return builder.status();
  uint64_t rewritten_bytes = 0;
  for (merged->SeekToFirst(); merged->Valid(); merged->Next()) {
    // The merged output is the only (hence oldest) run: tombstones have
    // nothing left to shadow and can be dropped.
    if (merged->tombstone()) continue;
    rewritten_bytes += merged->key().size() + merged->value().size();
    SKETCHLINK_RETURN_IF_ERROR(
        (*builder)->Add(merged->key(), merged->value(), false));
  }
  SKETCHLINK_RETURN_IF_ERROR(merged->status());
  SKETCHLINK_RETURN_IF_ERROR((*builder)->Finish());

  auto table = Table::Open(table_path, block_cache_.get(), env_);
  if (!table.ok()) return table.status();

  std::vector<std::string> obsolete;
  obsolete.reserve(tables_.size());
  for (const auto& old_table : tables_) obsolete.push_back(old_table->path());
  tables_.clear();
  tables_.push_back(std::move(*table));
  SKETCHLINK_RETURN_IF_ERROR(WriteManifest());
  for (const std::string& old_path : obsolete) {
    // Best effort; manifest no longer refs them, and recovery re-sweeps.
    (void)env_->RemoveFile(old_path);
    if (block_cache_ != nullptr) block_cache_->EraseByPrefix(old_path + "@");
  }
  metrics_.compaction_bytes.Add(rewritten_bytes);
  metrics_.compactions.Inc();
  return Status::OK();
}

namespace {

// DB-level cursor: merged view with tombstones suppressed.
class DbIterator : public Iterator {
 public:
  explicit DbIterator(std::unique_ptr<Iterator> merged)
      : merged_(std::move(merged)) {}

  bool Valid() const override { return merged_->Valid(); }
  void SeekToFirst() override {
    merged_->SeekToFirst();
    SkipTombstones();
  }
  void Seek(std::string_view target) override {
    merged_->Seek(target);
    SkipTombstones();
  }
  void Next() override {
    merged_->Next();
    SkipTombstones();
  }
  std::string_view key() const override { return merged_->key(); }
  std::string_view value() const override { return merged_->value(); }
  bool tombstone() const override { return false; }
  Status status() const override { return merged_->status(); }

 private:
  void SkipTombstones() {
    while (merged_->Valid() && merged_->tombstone()) {
      merged_->Next();
    }
  }

  std::unique_ptr<Iterator> merged_;
};

}  // namespace

std::unique_ptr<Iterator> Db::NewIterator() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return NewIteratorLocked();
}

std::unique_ptr<Iterator> Db::NewIteratorLocked() const {
  std::vector<std::unique_ptr<Iterator>> children;
  children.reserve(tables_.size() + 1);
  children.push_back(mem_.NewKvIterator());  // newest layer first
  for (auto it = tables_.rbegin(); it != tables_.rend(); ++it) {
    children.push_back((*it)->NewIterator());
  }
  return std::make_unique<DbIterator>(NewMergingIterator(std::move(children)));
}

Result<std::vector<TableEntry>> Db::ScanAll() {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<TableEntry> out;
  auto it = NewIteratorLocked();
  for (it->SeekToFirst(); it->Valid(); it->Next()) {
    out.push_back(TableEntry{std::string(it->key()),
                             std::string(it->value()), false});
  }
  SKETCHLINK_RETURN_IF_ERROR(it->status());
  return out;
}

Result<std::vector<TableEntry>> Db::ScanPrefix(std::string_view prefix) {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<TableEntry> out;
  auto it = NewIteratorLocked();
  for (it->Seek(prefix); it->Valid(); it->Next()) {
    const std::string_view key = it->key();
    if (key.size() < prefix.size() ||
        key.substr(0, prefix.size()) != prefix) {
      break;  // sorted order: past the prefix range
    }
    out.push_back(TableEntry{std::string(key), std::string(it->value()),
                             false});
  }
  SKETCHLINK_RETURN_IF_ERROR(it->status());
  return out;
}

size_t Db::ApproximateMemoryUsage() const {
  std::lock_guard<std::mutex> lock(mutex_);
  size_t bytes = sizeof(*this) + mem_.ApproximateMemoryUsage();
  for (const auto& table : tables_) bytes += table->ApproximateMemoryUsage();
  return bytes;
}

}  // namespace sketchlink::kv
