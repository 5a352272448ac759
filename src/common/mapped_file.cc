#include "common/mapped_file.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstring>

#include "common/metrics.h"

namespace hcd {
namespace {

std::atomic<uint64_t> g_total_mapped_bytes{0};

/// Publishes the current process-wide mapped-bytes total, when a metrics
/// registry is installed. Mapping lifecycle is a cold path, so the
/// per-event registry lookup is fine.
void PublishMappedBytesGauge() {
  if (MetricsRegistry* registry = MetricsRegistry::Current()) {
    registry
        ->GetGauge("hcd_snapshot_mapped_bytes",
                   "Bytes of snapshot and graph files currently mmapped "
                   "into the process")
        ->Set(static_cast<double>(
            g_total_mapped_bytes.load(std::memory_order_relaxed)));
  }
}

}  // namespace

Status MappedFile::Open(const std::string& path,
                        std::shared_ptr<const MappedFile>* out) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    return Status::IoError("cannot open " + path + ": " +
                           std::strerror(errno));
  }
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    const int err = errno;
    ::close(fd);
    return Status::IoError("cannot stat " + path + ": " + std::strerror(err));
  }
  const Status s = Map(fd, static_cast<uint64_t>(st.st_size), path, out);
  // The mapping holds its own reference to the pages; the descriptor is
  // no longer needed.
  ::close(fd);
  return s;
}

Status MappedFile::Map(int fd, uint64_t size, const std::string& path,
                       std::shared_ptr<const MappedFile>* out) {
  auto file = std::shared_ptr<MappedFile>(new MappedFile());
  file->path_ = path;
  if (size > 0) {
    void* addr = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
    if (addr == MAP_FAILED) {
      const int err = errno;
      return Status::IoError("cannot mmap " + path + ": " +
                             std::strerror(err));
    }
    file->data_ = addr;
    file->size_ = size;
  }
  g_total_mapped_bytes.fetch_add(file->size_, std::memory_order_relaxed);
  PublishMappedBytesGauge();
  *out = std::move(file);
  return Status::Ok();
}

MappedFile::~MappedFile() {
  if (data_ != nullptr) ::munmap(data_, size_);
  if (size_ > 0) {
    g_total_mapped_bytes.fetch_sub(size_, std::memory_order_relaxed);
    PublishMappedBytesGauge();
  }
}

uint64_t MappedFile::TotalMappedBytes() {
  return g_total_mapped_bytes.load(std::memory_order_relaxed);
}

}  // namespace hcd
