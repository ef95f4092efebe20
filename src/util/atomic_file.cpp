#include "util/atomic_file.h"

#include <fcntl.h>
#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <fstream>

#include "util/error.h"

namespace phast {

void WriteFileAtomically(const std::string& path,
                         const std::function<void(std::ostream&)>& write) {
  static std::atomic<uint64_t> counter{0};
  const std::string temp = path + ".tmp." + std::to_string(::getpid()) + "." +
                           std::to_string(counter.fetch_add(1));
  // O_EXCL never adopts a file another writer owns; mode 0666 lets the
  // umask choose the permissions, as std::ofstream does for a new file.
  const int fd =
      ::open(temp.c_str(), O_WRONLY | O_CREAT | O_EXCL | O_CLOEXEC, 0666);
  Require(fd >= 0, "cannot open file for writing: " + path);
  ::close(fd);
  try {
    std::ofstream out(temp, std::ios::binary | std::ios::trunc);
    Require(out.good(), "cannot open file for writing: " + path);
    write(out);
    out.close();
    Require(!out.fail(), "error while writing: " + path);
    Require(std::rename(temp.c_str(), path.c_str()) == 0,
            "cannot replace " + path);
  } catch (...) {
    std::remove(temp.c_str());
    throw;
  }
}

}  // namespace phast
