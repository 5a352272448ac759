#ifndef HCD_COMMON_MAPPED_FILE_H_
#define HCD_COMMON_MAPPED_FILE_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/status.h"

namespace hcd {

/// Read-only RAII memory mapping of a whole file. Opened via the factory so
/// the mapping is always held behind a shared_ptr: views into the mapping
/// (ArrayRef below) co-own the MappedFile, so the region outlives every
/// reader no matter which handle is dropped first.
///
/// The process-wide total of currently mapped bytes is published to the
/// metrics registry (gauge `hcd_snapshot_mapped_bytes`) whenever a mapping
/// is created or destroyed, so a serving process can be monitored for the
/// residency of its snapshot and graph files.
class MappedFile {
 public:
  /// Maps `path` PROT_READ and returns a shared handle. An empty file maps
  /// to a valid zero-length handle (data() == nullptr). Open / stat / mmap
  /// failures return IoError.
  static Status Open(const std::string& path,
                     std::shared_ptr<const MappedFile>* out);

  /// Maps the first `size` bytes of the open descriptor `fd`, for a caller
  /// that has already measured the file with fstat on that descriptor and
  /// goes on reading from it: the mapping and every check made against
  /// `size` then see the same inode. The descriptor stays the caller's to
  /// close. `path` only names the mapping in path() and in errors.
  static Status Map(int fd, uint64_t size, const std::string& path,
                    std::shared_ptr<const MappedFile>* out);

  MappedFile(const MappedFile&) = delete;
  MappedFile& operator=(const MappedFile&) = delete;
  ~MappedFile();

  const uint8_t* data() const { return static_cast<const uint8_t*>(data_); }
  uint64_t size() const { return size_; }
  const std::string& path() const { return path_; }

  /// Total bytes currently mapped by live MappedFile instances in this
  /// process (the value the hcd_snapshot_mapped_bytes gauge tracks).
  static uint64_t TotalMappedBytes();

 private:
  MappedFile() = default;

  void* data_ = nullptr;
  uint64_t size_ = 0;
  std::string path_;
};

/// A section of a FlatHcdIndex or a Graph: either owns its elements (a
/// plain vector) or aliases elements owned elsewhere — a range inside a
/// shared MappedFile, or another object's owned section (Share). The storage seam
/// is invisible to readers — data()/size()/operator[] are branch-free in
/// every mode because `ptr_`/`size_` always track the active storage.
///
/// Semantics:
///   - Owned mode behaves like std::vector<T>: copies are deep, mutation
///     (resize / push_back / pop_back / operator[] writes) is supported.
///   - Aliased mode shares the backing: copies are cheap views that co-own
///     it (the MappedFile, or the owner passed to Share). Growth/shrink
///     mutators HCD_CHECK; assignment of a whole new value (operator=,
///     assign) re-seats the ref to owned mode. The non-const element
///     accessors still *read* correctly from an aliased ref (validation
///     code walks non-const Data), but aliased sections are immutable:
///     writing through them into a PROT_READ page faults, and writing into
///     a shared owner's storage would change another index.
template <typename T>
class ArrayRef {
 public:
  using value_type = T;
  using const_iterator = const T*;

  ArrayRef() = default;
  ArrayRef(std::initializer_list<T> init) : own_(init) { Sync(); }
  explicit ArrayRef(std::vector<T> v) : own_(std::move(v)) { Sync(); }

  /// Aliasing constructor: a view of `size` elements at `data`, which must
  /// lie inside `backing`'s mapping. Shares ownership of the mapping.
  ArrayRef(const T* data, size_t size,
           std::shared_ptr<const MappedFile> backing)
      : ptr_(data), size_(size), backing_(std::move(backing)), mapped_(true) {}

  /// A view of `source`'s elements that copies none of them. A view of an
  /// aliased source is a copy of it (it co-owns the same backing); a view
  /// of an owned source aliases its vector and keeps `owner` — the object
  /// that holds `source` — alive for as long as the view or a copy of it
  /// lives. `source` must not be mutated while views of it exist.
  static ArrayRef Share(const ArrayRef& source,
                        std::shared_ptr<const void> owner) {
    if (source.backing_ != nullptr) return source;
    ArrayRef view;
    view.ptr_ = source.ptr_;
    view.size_ = source.size_;
    view.backing_ = std::move(owner);
    return view;
  }

  ArrayRef(const ArrayRef& other) { *this = other; }
  ArrayRef& operator=(const ArrayRef& other) {
    if (this == &other) return *this;
    mapped_ = other.mapped_;
    if (other.backing_ != nullptr) {
      own_.clear();
      backing_ = other.backing_;
      ptr_ = other.ptr_;
      size_ = other.size_;
    } else {
      backing_ = nullptr;
      own_ = other.own_;
      Sync();
    }
    return *this;
  }

  ArrayRef(ArrayRef&& other) noexcept { *this = std::move(other); }
  ArrayRef& operator=(ArrayRef&& other) noexcept {
    if (this == &other) return *this;
    backing_ = std::move(other.backing_);
    mapped_ = other.mapped_;
    if (backing_ != nullptr) {
      own_.clear();
      ptr_ = other.ptr_;
      size_ = other.size_;
    } else {
      own_ = std::move(other.own_);
      Sync();
    }
    other.backing_ = nullptr;
    other.mapped_ = false;
    other.own_.clear();
    other.Sync();
    return *this;
  }

  ArrayRef& operator=(std::initializer_list<T> init) {
    Unshare();
    own_.assign(init);
    Sync();
    return *this;
  }
  ArrayRef& operator=(std::vector<T> v) {
    Unshare();
    own_ = std::move(v);
    Sync();
    return *this;
  }

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  /// True when the elements live in a mapped file (a snapshot or a graph).
  bool mapped() const { return mapped_; }

  const T* data() const { return ptr_; }
  const T& operator[](size_t i) const { return ptr_[i]; }
  const T& front() const { return ptr_[0]; }
  const T& back() const { return ptr_[size_ - 1]; }
  const T* begin() const { return ptr_; }
  const T* end() const { return ptr_ + size_; }

  // Non-const element access reads from either storage (the mapped bytes
  // are not const objects, so the cast is well-defined for reads); writes
  // are only meaningful in owned mode.
  T* data() { return const_cast<T*>(ptr_); }
  T& operator[](size_t i) { return const_cast<T*>(ptr_)[i]; }
  T& front() { return const_cast<T*>(ptr_)[0]; }
  T& back() { return const_cast<T*>(ptr_)[size_ - 1]; }

  operator std::span<const T>() const { return {ptr_, size_}; }

  // Growth / shrink: owned mode only. `assign` is a whole-value
  // replacement, so (like operator=) it re-seats an aliased ref to owned.
  void resize(size_t n) {
    HCD_CHECK(backing_ == nullptr)
        << "cannot resize a mapped section or a shared view";
    own_.resize(n);
    Sync();
  }
  void assign(size_t n, const T& value) {
    Unshare();
    own_.assign(n, value);
    Sync();
  }
  void push_back(const T& value) {
    HCD_CHECK(backing_ == nullptr)
        << "cannot grow a mapped section or a shared view";
    own_.push_back(value);
    Sync();
  }
  void pop_back() {
    HCD_CHECK(backing_ == nullptr)
        << "cannot shrink a mapped section or a shared view";
    own_.pop_back();
    Sync();
  }

  friend bool operator==(const ArrayRef& a, const ArrayRef& b) {
    return a.size_ == b.size_ && std::equal(a.begin(), a.end(), b.begin());
  }
  friend bool operator!=(const ArrayRef& a, const ArrayRef& b) {
    return !(a == b);
  }

 private:
  /// Re-points the view at the owned vector. Every mutation of `own_`
  /// ends with this, so the branch-free read accessors stay valid.
  void Sync() {
    ptr_ = own_.data();
    size_ = own_.size();
  }

  /// Drops any aliased backing ahead of a whole-value assignment.
  void Unshare() {
    backing_ = nullptr;
    mapped_ = false;
  }

  std::vector<T> own_;            ///< owned storage (empty when aliased)
  const T* ptr_ = nullptr;        ///< active storage, either mode
  size_t size_ = 0;
  /// What keeps aliased elements alive: the MappedFile, or the owner given
  /// to Share. Null in owned mode.
  std::shared_ptr<const void> backing_;
  bool mapped_ = false;           ///< backing_ is a MappedFile
};

}  // namespace hcd

#endif  // HCD_COMMON_MAPPED_FILE_H_
