// RAII wrapper over POSIX mmap'd files.
//
// This is GPSA's I/O substrate (paper §IV.C): instead of explicit buffered
// reads/writes, vertex values and CSR edge arrays are memory-mapped and the
// OS page cache handles residency. The wrapper supports:
//   - creating a file of a given size and mapping it read-write,
//   - opening an existing file read-only or read-write,
//   - msync (used by checkpointing) and madvise hints
//     (sequential for CSR edge scans, random for the value file).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>

#include "util/status.hpp"

namespace gpsa {

class MmapFile {
 public:
  enum class Mode { kReadOnly, kReadWrite };
  enum class Advice { kNormal, kSequential, kRandom, kWillNeed, kDontNeed };

  MmapFile() = default;
  ~MmapFile();

  MmapFile(MmapFile&& other) noexcept;
  MmapFile& operator=(MmapFile&& other) noexcept;
  MmapFile(const MmapFile&) = delete;
  MmapFile& operator=(const MmapFile&) = delete;

  /// Creates (truncating any existing file) a file of `size` bytes,
  /// zero-filled, mapped read-write.
  static Result<MmapFile> create(const std::string& path, std::size_t size);

  /// Maps an existing file in its entirety.
  static Result<MmapFile> open(const std::string& path, Mode mode);

  bool is_mapped() const { return base_ != nullptr; }
  std::size_t size() const { return size_; }
  const std::string& path() const { return path_; }

  std::byte* data() { return static_cast<std::byte*>(base_); }
  const std::byte* data() const { return static_cast<const std::byte*>(base_); }

  /// Typed view over the mapping. The file size must be a multiple of
  /// sizeof(T); T must be trivially copyable.
  template <typename T>
  std::span<T> as_span() {
    static_assert(std::is_trivially_copyable_v<T>);
    GPSA_CHECK(size_ % sizeof(T) == 0);
    return std::span<T>(reinterpret_cast<T*>(base_), size_ / sizeof(T));
  }

  template <typename T>
  std::span<const T> as_span() const {
    static_assert(std::is_trivially_copyable_v<T>);
    GPSA_CHECK(size_ % sizeof(T) == 0);
    return std::span<const T>(reinterpret_cast<const T*>(base_),
                              size_ / sizeof(T));
  }

  /// Flushes dirty pages to disk (synchronous). Used by checkpoints.
  Status sync();

  /// Access-pattern hint forwarded to madvise.
  Status advise(Advice advice);

  /// madvise over a byte sub-range of the mapping. The range is clamped to
  /// the file and widened to page boundaries (madvise requires a
  /// page-aligned start). Used by the I/O readahead scheduler for
  /// WILLNEED/DONTNEED windows; kDontNeed on a MAP_SHARED file mapping is a
  /// pure cache hint — dirty pages are written back, never lost — so it is
  /// const: the mapped bytes read the same after it.
  Status advise_range(std::size_t offset, std::size_t length,
                      Advice advice) const;

  /// Unmaps and closes. Idempotent; also called by the destructor.
  void close();

 private:
  void* base_ = nullptr;
  std::size_t size_ = 0;
  int fd_ = -1;
  Mode mode_ = Mode::kReadOnly;
  std::string path_;
};

}  // namespace gpsa
