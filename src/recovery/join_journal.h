// JoinJournal: the durable per-query manifest that makes long spilled
// joins restartable (docs/recovery.md).
//
// One append-only file per query records, in commit order:
//   1. a header fingerprinting the query (input relation ids/versions/
//      sizes, join kind, team size, page geometry) so a restarted
//      process can tell whether durable state still matches,
//   2. one record per spooled run — its page ids, per-page min keys and
//      tuple counts (enough to rebuild the S page index without
//      touching the data), and a checksum over the run's tuple content,
//   3. one record per completed phase-4 chunk walk — the worker id and
//      its consumer's serialized state.
//
// Commit discipline: a record is appended and fdatasync'd only after
// the state it describes is itself durable (the buffer pool's
// write-back for the run's pages has retired and the spool fd has been
// fdatasync'd through the IoScheduler's write barrier). The invariant
// that buys: *every prefix of the journal references only durable
// spool state*, so an arbitrary crash point is equivalent to some
// record-prefix of the file, and truncating the journal simulates any
// crash.
//
// Every record is framed [u32 payload_len][u32 type][payload]
// [u64 fnv1a(type + payload)]. Replay walks the frames and treats the
// first short or checksum-failing frame as a torn tail: the file is
// truncated to the last valid record and the valid prefix is returned
// — a torn tail is an expected crash artifact, never an error. Only a
// missing or corrupt *header* fails replay (the caller then falls back
// to a cold run).
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "disk/page_index.h"
#include "util/status.h"

namespace mpsm::recovery {

/// Identity of one join query for crash recovery: durable state is
/// resumable only when every field matches the restarted query.
struct QueryFingerprint {
  uint64_t r_id = 0;
  uint64_t r_version = 0;
  uint64_t r_tuples = 0;
  uint64_t s_id = 0;
  uint64_t s_version = 0;
  uint64_t s_tuples = 0;
  uint32_t join_kind = 0;
  uint32_t team_size = 0;
  uint64_t tuples_per_page = 0;

  /// Stable 64-bit digest (names the journal/spool files on disk).
  uint64_t Hash() const;

  friend bool operator==(const QueryFingerprint&,
                         const QueryFingerprint&) = default;
};

/// One durably spooled run: everything needed to re-attach it without
/// re-sorting. `pages` is in spool order (ascending key); each entry's
/// `run` field equals `run_id`. `content_checksum` is fnv1a over the
/// run's sorted tuple bytes (verified on resume when the caller opts
/// in).
struct RunRecord {
  uint32_t run_id = 0;
  bool is_private = false;
  uint64_t content_checksum = 0;
  std::vector<disk::PageIndexEntry> pages;
};

/// One completed phase-4 chunk walk: worker `worker`'s consumer state
/// at walk completion (DurableConsumerFactory::SerializeWorker).
struct ChunkRecord {
  uint32_t worker = 0;
  std::string state;
};

/// fnv1a-64 over `len` bytes, continuing from `seed` (exposed so the
/// spool path can checksum run content incrementally).
uint64_t Fnv1a(const void* data, size_t len,
               uint64_t seed = 0xcbf29ce484222325ull);

/// Append side of the manifest. Thread-safe: workers commit their runs
/// and chunks concurrently; each Commit* call is one atomic
/// append+fdatasync under an internal latch.
class JoinJournal {
 public:
  /// Starts a fresh manifest at `path` (truncating any stale one) and
  /// writes the fingerprint header before returning — device-durably
  /// under `strict_sync`, else deferred with the same group-commit
  /// policy as the records (an unsynced header just means a power cut
  /// before the first sync falls back to a cold run).
  static Result<std::unique_ptr<JoinJournal>> Create(
      const std::string& path, const QueryFingerprint& fingerprint,
      bool strict_sync = true);

  /// Reopens an existing (replayed and validated) manifest for
  /// appending — the resume path keeps extending the same file.
  static Result<std::unique_ptr<JoinJournal>> OpenForAppend(
      const std::string& path);

  ~JoinJournal();
  JoinJournal(const JoinJournal&) = delete;
  JoinJournal& operator=(const JoinJournal&) = delete;

  /// Durably appends one spooled-run record. Call only after the run's
  /// pages are themselves durable (FlushUpTo + scheduler flush).
  Status CommitRun(const RunRecord& run);

  /// Durably appends one chunk-completion record.
  Status CommitChunk(const ChunkRecord& chunk);

  /// Records durably appended through this handle (header excluded).
  uint64_t commits() const;

  /// Per-commit fdatasync policy. Strict (the default) makes every
  /// Commit* power-loss durable before it returns. Relaxed defers the
  /// fdatasync to Sync()/close (group commit): records are appended
  /// with plain writes — visible to a resume after a process kill (the
  /// OS page cache survives SIGKILL) but a power cut may lose the
  /// un-synced tail, which resume treats as ordinary lost work. The
  /// D-MPSM spill path runs relaxed by default
  /// (RecoveryOptions::strict_sync) — the per-query overhead
  /// budget cannot afford ~20 device flushes.
  void set_strict_sync(bool strict) { strict_sync_ = strict; }

  /// Flushes any deferred appends to the device (relaxed mode).
  Status Sync();

  /// Marks the journal as about-to-be-retired: the destructor skips
  /// the deferred-sync flush (no point making a file durable right
  /// before unlinking it).
  void Discard();

  /// Crash-injection hook (tools/crash_harness): SIGKILL this process
  /// immediately after the n-th successful commit is appended (and, in
  /// strict mode, fdatasync'd). 0 disables. The kill lands *after* the
  /// record is visible to a restarted process, so the resumed run must
  /// be able to use it.
  void set_kill_after_commits(uint64_t n) { kill_after_commits_ = n; }

  /// A replayed manifest: the validated prefix of one journal file.
  struct Replay {
    QueryFingerprint fingerprint;
    std::vector<RunRecord> runs;
    std::vector<ChunkRecord> chunks;
    /// True when a torn/corrupt tail was truncated away.
    bool tail_truncated = false;
    /// File size after truncation (the valid prefix).
    uint64_t valid_bytes = 0;
  };

  /// Replays `path`. NotFound when no manifest exists; any torn or
  /// corrupt tail is truncated in place and reported via
  /// `tail_truncated` (resume continues from the valid prefix). A
  /// missing/corrupt header is InvalidArgument — the caller treats the
  /// file as stale garbage and falls back to a cold run.
  static Result<Replay> ReplayFile(const std::string& path);

  /// Deletes the manifest file (query completed; durable state retired).
  static void Remove(const std::string& path);

 private:
  JoinJournal(int fd, std::string path);

  Status AppendLocked(uint32_t type, const std::string& payload);

  const int fd_;
  const std::string path_;
  mutable std::mutex mu_;
  uint64_t commits_ = 0;
  uint64_t kill_after_commits_ = 0;
  bool strict_sync_ = true;
  /// Appended-but-not-fdatasync'd bytes pending (relaxed mode).
  bool dirty_ = false;
};

}  // namespace mpsm::recovery
