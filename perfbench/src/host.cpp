#include "host.hpp"

#include <sched.h>
#include <sys/mount.h>
#include <sys/vfs.h>

#include <cinttypes>
#include <cstdint>
#include <cstdio>

namespace perfbench {

bool mount_private_tmpfs(const std::filesystem::path& dir) {
  std::filesystem::create_directories(dir);
  if (unshare(CLONE_NEWNS) != 0) return false;
  // Stop mount events propagating back to the parent namespace, then
  // cover the directory.  The namespace, and the tmpfs with it, ends with
  // the process.
  if (mount(nullptr, "/", nullptr, MS_REC | MS_PRIVATE, nullptr) != 0) {
    return false;
  }
  return mount("perfbench", dir.c_str(), "tmpfs", MS_NOSUID | MS_NODEV,
               "size=512m,mode=0755") == 0;
}

std::string fs_type(const std::filesystem::path& dir, bool* memory_backed) {
  struct statfs st {};
  *memory_backed = false;
  if (statfs(dir.c_str(), &st) != 0) return "unknown";
  switch (static_cast<std::uint64_t>(st.f_type)) {
    case 0x01021994: *memory_backed = true; return "tmpfs";
    case 0x858458f6: *memory_backed = true; return "ramfs";
    case 0xef53: return "ext4";
    case 0x58465342: return "xfs";
    case 0x9123683e: return "btrfs";
    case 0x794c7630: return "overlayfs";
    case 0x6969: return "nfs";
    default: break;
  }
  char buf[32];
  std::snprintf(buf, sizeof buf, "0x%" PRIx64,
                static_cast<std::uint64_t>(st.f_type));
  return buf;
}

CpuRotation::CpuRotation(double run_seconds) {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &set)) cpus_.push_back(c);
  }
  if (!cpus_.empty()) {
    visit_ = std::chrono::duration<double>(run_seconds /
                                           static_cast<double>(cpus_.size()));
  }
}

CpuRotation::~CpuRotation() {
  if (cpus_.empty()) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int c : cpus_) CPU_SET(c, &set);
  sched_setaffinity(0, sizeof set, &set);
}

void CpuRotation::tick() {
  if (cpus_.size() < 2) return;
  const auto now = std::chrono::steady_clock::now();
  if (now - visit_start_ < visit_) return;
  visit_start_ = now;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpus_[next_], &set);
  next_ = (next_ + 1) % cpus_.size();
  sched_setaffinity(0, sizeof set, &set);  // best effort: a refusal only
                                           // leaves the thread where it is
}

}  // namespace perfbench
