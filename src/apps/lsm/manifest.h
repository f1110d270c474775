#ifndef BBF_APPS_LSM_MANIFEST_H_
#define BBF_APPS_LSM_MANIFEST_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "apps/lsm/run.h"

namespace bbf::lsm {

/// Filesystem primitives behind the LSM persistence layer. Everything the
/// commit protocol does to disk goes through one of these virtuals, so a
/// test environment can count mutations, fail them, or tear a write in
/// half at any point — the crash-point sweep in lsm_recovery_test drives
/// exactly that. Reads are not fault points (a crashed process never
/// reads); they return false/empty on absent or unreadable files instead
/// of throwing.
class StorageEnv {
 public:
  /// An open handle that appends to one file: the WAL's write path.
  class Appender {
   public:
    Appender() = default;
    Appender(const Appender&) = delete;  // A handle owns its descriptor.
    Appender& operator=(const Appender&) = delete;
    virtual ~Appender() = default;
    /// Appends `bytes` at the end of the file. True once every byte is
    /// in the kernel (no fsync: it survives the process, not the
    /// machine). After a false return the caller drops the handle.
    virtual bool Append(std::string_view bytes) = 0;
  };

  virtual ~StorageEnv() = default;

  /// Creates `path` (and parents). True if it exists afterwards.
  virtual bool CreateDir(const std::string& path);
  /// Replaces `path` with `bytes`. NOT atomic — callers wanting atomic
  /// replacement write a sibling temp file and Rename over the target.
  virtual bool WriteFile(const std::string& path, std::string_view bytes);
  /// Appends `bytes` to `path`, creating it if absent.
  virtual bool AppendFile(const std::string& path, std::string_view bytes);
  /// An appender for `path`, creating it if absent; null if it cannot be
  /// opened. The default one calls AppendFile(path, bytes) once per
  /// append, so an env that overrides AppendFile sees every append; the
  /// real env's holds one descriptor open. A handle follows the file it
  /// opened, so the caller drops it before replacing `path`.
  virtual std::unique_ptr<Appender> OpenAppender(const std::string& path);
  /// Atomically replaces `to` with `from` (POSIX rename semantics — the
  /// commit point of every multi-file transition).
  virtual bool Rename(const std::string& from, const std::string& to);
  /// Removes `path`; true if it is gone afterwards (absent counts).
  virtual bool Remove(const std::string& path);

  // --- Reads (never fault-injected). ---
  virtual bool ReadFileBytes(const std::string& path, std::string* out) const;
  virtual bool Exists(const std::string& path) const;
  /// Plain file names (not paths) directly under `dir`; empty on error.
  virtual std::vector<std::string> ListDir(const std::string& dir) const;
};

/// The process-wide real-filesystem environment.
StorageEnv* RealEnv();

// --- File naming -------------------------------------------------------------

inline constexpr std::string_view kCurrentFileName = "CURRENT";
inline constexpr std::string_view kWalFileName = "wal";

std::string ManifestFileName(uint64_t generation);
/// Parses "MANIFEST-<gen>"; false for anything else.
bool ParseManifestFileName(std::string_view name, uint64_t* generation);
std::string RunDataFileName(uint64_t run_id);
std::string PointFilterFileName(uint64_t run_id);
std::string RangeFilterFileName(uint64_t run_id);

// --- Manifest contents -------------------------------------------------------

/// One run's row in a manifest: which files exist for it and how many
/// entries its data frame must decode to.
struct RunManifest {
  uint64_t id = 0;
  uint64_t entries = 0;
  bool has_point_filter = false;
  bool has_range_filter = false;
};

struct LevelManifest {
  std::vector<RunManifest> runs;  // Newest first, like LsmTree levels.
};

/// A complete generation description — everything LsmTree::Open needs to
/// reconstruct the tree shape. Self-contained by design: whichever single
/// manifest recovery picks yields a consistent tree, never a mix.
struct ManifestData {
  uint64_t generation = 0;
  uint64_t next_run_id = 1;
  std::vector<LevelManifest> levels;
};

/// Serializes `m` into the manifest frame payload (DESIGN.md §13).
std::string EncodeManifest(const ManifestData& m);
/// Strict inverse; false on truncation, hostile counts, or id/flag fields
/// that cannot describe a valid tree. Leaves `*out` unspecified on false.
bool DecodeManifest(std::string_view payload, ManifestData* out);

// --- WAL records -------------------------------------------------------------

/// One framed Put/Delete record ready for StorageEnv::AppendFile.
std::string EncodeWalRecord(const Entry& e);
/// Parses a concatenation of WAL frames, appending decoded entries in log
/// order. Stops at the first defective frame — a torn tail is the
/// expected crash artifact, everything before it is durable — and returns
/// the number of records recovered.
uint64_t DecodeWalRecords(const std::string& bytes, std::vector<Entry>* out);

// --- Generation directory ----------------------------------------------------

/// Owns the manifest/CURRENT commit protocol for one LSM directory
/// (DESIGN.md §13). The store itself is stateless between calls; all
/// durability decisions live in the file layout:
///
///   CURRENT          frame("lsm-current", <manifest file name>)
///   MANIFEST-<gen>   frame("lsm-manifest", EncodeManifest(...))
///   wal              frame("lsm-wal", record)*
///   run-<id>.data    frame("lsm-run", entries)
///   run-<id>.pf      the run's point filter snapshot (Filter::Save)
///   run-<id>.rf      the run's range filter snapshot (RangeFilter::Save)
///
/// Every file is written to a ".tmp" sibling first and renamed into
/// place; pointing CURRENT at the new manifest is the single atomic
/// commit. A crash before that rename leaves CURRENT on the old
/// generation (whose files are retained until after the commit); a crash
/// after it leaves the new generation fully referenced.
class ManifestStore {
 public:
  ManifestStore(std::string dir, StorageEnv* env);

  const std::string& dir() const { return dir_; }
  StorageEnv* env() const { return env_; }
  std::string PathOf(std::string_view file_name) const;

  /// Write-temp-then-rename. False if either step fails.
  bool WriteFileAtomic(std::string_view file_name, std::string_view bytes);

  /// Writes MANIFEST-<m.generation> atomically, then atomically points
  /// CURRENT at it — the commit. False as soon as any step fails, in
  /// which case CURRENT still names the previous generation.
  bool Commit(const ManifestData& m);

  /// Manifest file names to try, most-preferred first: CURRENT's target
  /// (when CURRENT parses and the target exists), then every MANIFEST-*
  /// in the directory, newest generation first. `current_target_ok`
  /// reports whether the first entry came from CURRENT, so recovery can
  /// count fallbacks.
  std::vector<std::string> CandidateManifests(bool* current_target_ok) const;

  /// Reads and verifies one manifest file. False on any frame or payload
  /// defect.
  bool ReadManifest(const std::string& file_name, ManifestData* out) const;

  /// Removes files that no retained generation references: temp litter,
  /// manifests other than `keep`'s generations, and run files whose id
  /// appears in no retained manifest. CURRENT and the WAL are always
  /// kept. Failures are ignored — GC is advisory, correctness never
  /// depends on it.
  void GarbageCollect(const std::vector<const ManifestData*>& keep) const;

 private:
  std::string dir_;
  StorageEnv* env_;
};

}  // namespace bbf::lsm

#endif  // BBF_APPS_LSM_MANIFEST_H_
