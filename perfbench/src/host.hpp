// Host helpers: the output directory's filesystem and the CPUs a
// single-threaded loop runs on.  Kept apart from the Splice headers: the
// system headers they need declare a global splice() function, which
// clashes with namespace splice.
#pragma once

#include <chrono>
#include <filesystem>
#include <string>
#include <vector>

namespace perfbench {

/// Mount a fresh tmpfs on `dir` (created if needed) in a private mount
/// namespace of this process, so files written there live in memory and
/// vanish with the process.  Call before any thread starts.  Returns false,
/// leaving `dir` a plain directory, where the process may not do so.
bool mount_private_tmpfs(const std::filesystem::path& dir);

/// Filesystem type name of `dir`; sets `memory_backed` for tmpfs/ramfs.
[[nodiscard]] std::string fs_type(const std::filesystem::path& dir,
                                  bool* memory_backed);

/// Moves the calling thread over the CPUs it may run on, spending an equal
/// share of a run on each, and restores its affinity on destruction.  On a
/// shared host the CPUs of one machine run at different speeds from moment
/// to moment; a single-threaded loop that visits every CPU equally measures
/// their average instead of whichever CPU it happened to get.  Each CPU is
/// visited once per run because a CPU the thread arrives on runs slowly for
/// some milliseconds, which frequent moves would turn into a latency tail.
class CpuRotation {
 public:
  explicit CpuRotation(double run_seconds);
  ~CpuRotation();
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  /// Move to the next CPU once the current visit has lasted its share.
  void tick();

 private:
  std::vector<int> cpus_;  ///< the CPUs allowed at construction
  std::size_t next_ = 0;
  std::chrono::duration<double> visit_{};
  std::chrono::steady_clock::time_point visit_start_{};
};

}  // namespace perfbench
