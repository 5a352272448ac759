#include "common/replace_file.h"

#include <sys/stat.h>
#include <unistd.h>

namespace hcd {

Status ReplaceFile(const std::string& path,
                   const std::function<bool(std::FILE*)>& write) {
  // A directory takes the rename route too, where the rename fails.
  struct stat st;
  const bool in_place = ::stat(path.c_str(), &st) == 0 &&
                        !S_ISREG(st.st_mode) && !S_ISDIR(st.st_mode);
  const std::string target =
      in_place ? path : path + ".tmp." + std::to_string(::getpid());
  std::FILE* f = std::fopen(target.c_str(), "wb");
  if (f == nullptr) return Status::IoError("cannot open " + target);
  const bool wrote = write(f);
  // fclose flushes the stdio buffer, so it can be the call that fails.
  const bool closed = std::fclose(f) == 0;
  if (!wrote || !closed) {
    if (!in_place) std::remove(target.c_str());
    return Status::IoError("write failed or short write to " + target);
  }
  if (!in_place && std::rename(target.c_str(), path.c_str()) != 0) {
    std::remove(target.c_str());
    return Status::IoError("cannot rename " + target + " to " + path);
  }
  return Status::Ok();
}

}  // namespace hcd
