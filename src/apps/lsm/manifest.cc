#include "apps/lsm/manifest.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <system_error>

#include "util/hash.h"
#include "util/serialize.h"

namespace bbf::lsm {
namespace {

namespace fs = std::filesystem;

constexpr std::string_view kManifestTag = "lsm-manifest";
constexpr std::string_view kCurrentTag = "lsm-current";
constexpr std::string_view kWalTag = "lsm-wal";
constexpr uint64_t kManifestVersion = 1;
// A tree deeper than this holds size_ratio^64 entries — corruption.
constexpr uint64_t kMaxManifestLevels = 64;
constexpr uint64_t kMaxManifestRunsPerLevel = 1u << 16;

// Opens `path` write-only with `flags` (O_TRUNC or O_APPEND), creating it
// with mode 0666 less the umask. -1 on failure.
int OpenForWrite(const std::string& path, int flags) {
  int fd = -1;
  do {
    fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_CLOEXEC | flags, 0666);
  } while (fd < 0 && errno == EINTR);
  return fd;
}

// Hands every byte to the kernel: short writes resume, EINTR retries. No
// fsync — a true return means the bytes survive the process, not the
// machine.
bool WriteAll(int fd, std::string_view bytes) {
  while (!bytes.empty()) {
    const ssize_t n = ::write(fd, bytes.data(), bytes.size());
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    bytes.remove_prefix(static_cast<size_t>(n));
  }
  return true;
}

// Linux releases the descriptor even when close reports EINTR, so it is
// never retried; any other error fails the call.
bool CloseFd(int fd) { return ::close(fd) == 0 || errno == EINTR; }

bool WriteWholeFile(const std::string& path, int flags,
                    std::string_view bytes) {
  const int fd = OpenForWrite(path, flags);
  if (fd < 0) return false;
  const bool ok = WriteAll(fd, bytes);
  return CloseFd(fd) && ok;
}

// One AppendFile call per append: every env that overrides AppendFile
// keeps seeing each one.
class ForwardingAppender : public StorageEnv::Appender {
 public:
  ForwardingAppender(StorageEnv* env, std::string path)
      : env_(env), path_(std::move(path)) {}
  bool Append(std::string_view bytes) override {
    return env_->AppendFile(path_, bytes);
  }

 private:
  StorageEnv* env_;
  std::string path_;
};

// Holds one O_APPEND descriptor for its lifetime. Every Append's bytes
// were in the kernel when it returned, so the close at the end adds
// nothing an ack relied on and its result is not reported.
class FdAppender : public StorageEnv::Appender {
 public:
  explicit FdAppender(int fd) : fd_(fd) {}
  ~FdAppender() override { CloseFd(fd_); }
  bool Append(std::string_view bytes) override { return WriteAll(fd_, bytes); }

 private:
  int fd_;
};

class RealStorageEnv : public StorageEnv {
 public:
  std::unique_ptr<Appender> OpenAppender(const std::string& path) override {
    const int fd = OpenForWrite(path, O_APPEND);
    if (fd < 0) return nullptr;
    return std::make_unique<FdAppender>(fd);
  }
};

// Little-endian, as WriteU64 writes to a stream.
void PutU64(char* dst, uint64_t v) {
  for (int i = 0; i < 8; ++i) dst[i] = static_cast<char>(v >> (8 * i));
}

void AppendU64(std::string* out, uint64_t v) {
  char buf[8];
  PutU64(buf, v);
  out->append(buf, sizeof(buf));
}

}  // namespace

// --- StorageEnv (real filesystem) --------------------------------------------

bool StorageEnv::CreateDir(const std::string& path) {
  std::error_code ec;
  fs::create_directories(path, ec);
  return fs::is_directory(path, ec);
}

bool StorageEnv::WriteFile(const std::string& path, std::string_view bytes) {
  return WriteWholeFile(path, O_TRUNC, bytes);
}

bool StorageEnv::AppendFile(const std::string& path, std::string_view bytes) {
  return WriteWholeFile(path, O_APPEND, bytes);
}

std::unique_ptr<StorageEnv::Appender> StorageEnv::OpenAppender(
    const std::string& path) {
  return std::make_unique<ForwardingAppender>(this, path);
}

bool StorageEnv::Rename(const std::string& from, const std::string& to) {
  std::error_code ec;
  fs::rename(from, to, ec);
  return !ec;
}

bool StorageEnv::Remove(const std::string& path) {
  std::error_code ec;
  fs::remove(path, ec);
  return !fs::exists(path, ec);
}

bool StorageEnv::ReadFileBytes(const std::string& path,
                               std::string* out) const {
  std::ifstream is(path, std::ios::binary);
  if (!is) return false;
  std::ostringstream buf;
  buf << is.rdbuf();
  if (is.bad()) return false;
  *out = std::move(buf).str();
  return true;
}

bool StorageEnv::Exists(const std::string& path) const {
  std::error_code ec;
  return fs::exists(path, ec);
}

std::vector<std::string> StorageEnv::ListDir(const std::string& dir) const {
  std::vector<std::string> names;
  std::error_code ec;
  for (fs::directory_iterator it(dir, ec), end; !ec && it != end;
       it.increment(ec)) {
    names.push_back(it->path().filename().string());
  }
  return names;
}

StorageEnv* RealEnv() {
  static RealStorageEnv env;
  return &env;
}

// --- File naming -------------------------------------------------------------

std::string ManifestFileName(uint64_t generation) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "MANIFEST-%08llu",
                static_cast<unsigned long long>(generation));
  return buf;
}

bool ParseManifestFileName(std::string_view name, uint64_t* generation) {
  constexpr std::string_view kPrefix = "MANIFEST-";
  if (name.size() <= kPrefix.size() ||
      name.substr(0, kPrefix.size()) != kPrefix) {
    return false;
  }
  uint64_t gen = 0;
  for (char c : name.substr(kPrefix.size())) {
    if (c < '0' || c > '9') return false;
    gen = gen * 10 + static_cast<uint64_t>(c - '0');
  }
  *generation = gen;
  return true;
}

std::string RunDataFileName(uint64_t run_id) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "run-%08llu.data",
                static_cast<unsigned long long>(run_id));
  return buf;
}

std::string PointFilterFileName(uint64_t run_id) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "run-%08llu.pf",
                static_cast<unsigned long long>(run_id));
  return buf;
}

std::string RangeFilterFileName(uint64_t run_id) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "run-%08llu.rf",
                static_cast<unsigned long long>(run_id));
  return buf;
}

// --- Manifest encode/decode --------------------------------------------------

std::string EncodeManifest(const ManifestData& m) {
  std::ostringstream os;
  WriteU64(os, kManifestVersion);
  WriteU64(os, m.generation);
  WriteU64(os, m.next_run_id);
  WriteU64(os, m.levels.size());
  for (const LevelManifest& level : m.levels) {
    WriteU64(os, level.runs.size());
    for (const RunManifest& run : level.runs) {
      WriteU64(os, run.id);
      WriteU64(os, run.entries);
      const uint64_t flags = (run.has_point_filter ? 1u : 0u) |
                             (run.has_range_filter ? 2u : 0u);
      WriteU64(os, flags);
    }
  }
  return std::move(os).str();
}

bool DecodeManifest(std::string_view payload, ManifestData* out) {
  std::istringstream is{std::string(payload)};
  uint64_t version;
  ManifestData m;
  uint64_t num_levels;
  if (!ReadU64(is, &version) || version != kManifestVersion ||
      !ReadU64(is, &m.generation) || !ReadU64(is, &m.next_run_id) ||
      !ReadU64Capped(is, &num_levels, kMaxManifestLevels)) {
    return false;
  }
  m.levels.resize(num_levels);
  for (LevelManifest& level : m.levels) {
    uint64_t num_runs;
    if (!ReadU64Capped(is, &num_runs, kMaxManifestRunsPerLevel)) return false;
    level.runs.resize(num_runs);
    for (RunManifest& run : level.runs) {
      uint64_t flags;
      if (!ReadU64(is, &run.id) ||
          !ReadU64Capped(is, &run.entries, kMaxSnapshotElements) ||
          !ReadU64Capped(is, &flags, 3)) {
        return false;
      }
      // Run ids below next_run_id only; an id at/above the allocator
      // high-water mark cannot have been written by any committed
      // generation.
      if (run.id == 0 || run.id >= m.next_run_id) return false;
      run.has_point_filter = (flags & 1) != 0;
      run.has_range_filter = (flags & 2) != 0;
    }
  }
  // The whole payload must be consumed: trailing bytes mean a foreign or
  // damaged frame that happened to parse.
  is.peek();
  if (!is.eof()) return false;
  *out = std::move(m);
  return true;
}

// --- WAL ---------------------------------------------------------------------

std::string EncodeWalRecord(const Entry& e) {
  // Byte for byte what WriteSnapshotFrame(os, kWalTag, payload) writes,
  // built in one buffer instead of through two string streams.
  char payload[3 * 8];
  PutU64(payload, e.key);
  PutU64(payload + 8, e.value);
  PutU64(payload + 16, e.tombstone ? 1 : 0);
  std::string frame;
  frame.reserve(5 * 8 + kWalTag.size() + sizeof(payload));
  AppendU64(&frame, kSnapshotMagic);
  AppendU64(&frame, kSnapshotVersion);
  AppendU64(&frame, kWalTag.size());
  frame += kWalTag;
  AppendU64(&frame, sizeof(payload));
  AppendU64(&frame,
            HashBytes(payload, sizeof(payload), kSnapshotChecksumSeed));
  frame.append(payload, sizeof(payload));
  return frame;
}

uint64_t DecodeWalRecords(const std::string& bytes, std::vector<Entry>* out) {
  std::istringstream is(bytes);
  uint64_t recovered = 0;
  std::string tag;
  std::string payload;
  while (is.peek() != std::char_traits<char>::eof()) {
    if (!ReadSnapshotFrame(is, &tag, &payload) || tag != kWalTag) break;
    std::istringstream ps(payload);
    Entry e;
    uint64_t tombstone;
    if (!ReadU64(ps, &e.key) || !ReadU64(ps, &e.value) ||
        !ReadU64Capped(ps, &tombstone, 1)) {
      break;
    }
    e.tombstone = tombstone != 0;
    out->push_back(e);
    ++recovered;
  }
  return recovered;
}

// --- ManifestStore -----------------------------------------------------------

ManifestStore::ManifestStore(std::string dir, StorageEnv* env)
    : dir_(std::move(dir)), env_(env) {}

std::string ManifestStore::PathOf(std::string_view file_name) const {
  std::string path = dir_;
  path += '/';
  path += file_name;
  return path;
}

bool ManifestStore::WriteFileAtomic(std::string_view file_name,
                                    std::string_view bytes) {
  const std::string tmp = PathOf(std::string(file_name) + ".tmp");
  if (!env_->WriteFile(tmp, bytes)) return false;
  return env_->Rename(tmp, PathOf(file_name));
}

bool ManifestStore::Commit(const ManifestData& m) {
  const std::string manifest_name = ManifestFileName(m.generation);
  std::ostringstream manifest_frame;
  if (!WriteSnapshotFrame(manifest_frame, kManifestTag, EncodeManifest(m))) {
    return false;
  }
  if (!WriteFileAtomic(manifest_name, std::move(manifest_frame).str())) {
    return false;
  }
  std::ostringstream current_frame;
  if (!WriteSnapshotFrame(current_frame, kCurrentTag, manifest_name)) {
    return false;
  }
  // The commit point: replacing CURRENT is one atomic rename.
  return WriteFileAtomic(kCurrentFileName, std::move(current_frame).str());
}

std::vector<std::string> ManifestStore::CandidateManifests(
    bool* current_target_ok) const {
  std::vector<std::string> candidates;
  *current_target_ok = false;
  std::string current_bytes;
  if (env_->ReadFileBytes(PathOf(kCurrentFileName), &current_bytes)) {
    std::istringstream is(current_bytes);
    std::string tag;
    std::string target;
    uint64_t gen;
    if (ReadSnapshotFrame(is, &tag, &target) && tag == kCurrentTag &&
        ParseManifestFileName(target, &gen) && env_->Exists(PathOf(target))) {
      candidates.push_back(target);
      *current_target_ok = true;
    }
  }
  // Fallback pool: every manifest on disk, newest first. Recovery walks
  // these only when the CURRENT route (or a file it references) is
  // unusable — falling back can lose the newest generation but never
  // mixes two.
  std::vector<std::pair<uint64_t, std::string>> found;
  for (const std::string& name : env_->ListDir(dir_)) {
    uint64_t gen;
    if (ParseManifestFileName(name, &gen)) found.emplace_back(gen, name);
  }
  std::sort(found.begin(), found.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });
  for (auto& [gen, name] : found) {
    if (candidates.empty() || candidates.front() != name) {
      candidates.push_back(std::move(name));
    }
  }
  return candidates;
}

bool ManifestStore::ReadManifest(const std::string& file_name,
                                 ManifestData* out) const {
  std::string bytes;
  if (!env_->ReadFileBytes(PathOf(file_name), &bytes)) return false;
  std::istringstream is(bytes);
  std::string tag;
  std::string payload;
  if (!ReadSnapshotFrame(is, &tag, &payload) || tag != kManifestTag) {
    return false;
  }
  return DecodeManifest(payload, out);
}

void ManifestStore::GarbageCollect(
    const std::vector<const ManifestData*>& keep) const {
  std::set<std::string> retained;
  retained.insert(std::string(kCurrentFileName));
  retained.insert(std::string(kWalFileName));
  for (const ManifestData* m : keep) {
    if (m == nullptr) continue;
    retained.insert(ManifestFileName(m->generation));
    for (const LevelManifest& level : m->levels) {
      for (const RunManifest& run : level.runs) {
        retained.insert(RunDataFileName(run.id));
        if (run.has_point_filter) retained.insert(PointFilterFileName(run.id));
        if (run.has_range_filter) retained.insert(RangeFilterFileName(run.id));
      }
    }
  }
  for (const std::string& name : env_->ListDir(dir_)) {
    if (!retained.contains(name)) env_->Remove(PathOf(name));
  }
}

}  // namespace bbf::lsm
