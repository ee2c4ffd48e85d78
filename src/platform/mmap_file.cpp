#include "platform/mmap_file.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <utility>

namespace gpsa {

MmapFile::~MmapFile() { close(); }

MmapFile::MmapFile(MmapFile&& other) noexcept { *this = std::move(other); }

MmapFile& MmapFile::operator=(MmapFile&& other) noexcept {
  if (this != &other) {
    close();
    base_ = std::exchange(other.base_, nullptr);
    size_ = std::exchange(other.size_, 0);
    fd_ = std::exchange(other.fd_, -1);
    mode_ = other.mode_;
    path_ = std::move(other.path_);
  }
  return *this;
}

Result<MmapFile> MmapFile::create(const std::string& path, std::size_t size) {
  if (size == 0) {
    return invalid_argument("MmapFile::create: zero-size mapping for " + path);
  }
  const int fd = ::open(path.c_str(), O_RDWR | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    return io_error_errno("open(create) " + path);
  }
  if (::ftruncate(fd, static_cast<off_t>(size)) != 0) {
    Status st = io_error_errno("ftruncate " + path);
    ::close(fd);
    return st;
  }
  void* base = ::mmap(nullptr, size, PROT_READ | PROT_WRITE, MAP_SHARED, fd, 0);
  if (base == MAP_FAILED) {
    Status st = io_error_errno("mmap " + path);
    ::close(fd);
    return st;
  }
  MmapFile out;
  out.base_ = base;
  out.size_ = size;
  out.fd_ = fd;
  out.mode_ = Mode::kReadWrite;
  out.path_ = path;
  return out;
}

Result<MmapFile> MmapFile::open(const std::string& path, Mode mode) {
  const int flags = mode == Mode::kReadOnly ? O_RDONLY : O_RDWR;
  const int fd = ::open(path.c_str(), flags);
  if (fd < 0) {
    return io_error_errno("open " + path);
  }
  struct stat st {};
  if (::fstat(fd, &st) != 0) {
    Status status = io_error_errno("fstat " + path);
    ::close(fd);
    return status;
  }
  if (st.st_size == 0) {
    ::close(fd);
    return invalid_argument("MmapFile::open: empty file " + path);
  }
  const std::size_t size = static_cast<std::size_t>(st.st_size);
  const int prot =
      mode == Mode::kReadOnly ? PROT_READ : (PROT_READ | PROT_WRITE);
  void* base = ::mmap(nullptr, size, prot, MAP_SHARED, fd, 0);
  if (base == MAP_FAILED) {
    Status status = io_error_errno("mmap " + path);
    ::close(fd);
    return status;
  }
  MmapFile out;
  out.base_ = base;
  out.size_ = size;
  out.fd_ = fd;
  out.mode_ = mode;
  out.path_ = path;
  return out;
}

Status MmapFile::sync() {
  if (base_ == nullptr) {
    return failed_precondition("MmapFile::sync on unmapped file");
  }
  if (::msync(base_, size_, MS_SYNC) != 0) {
    return io_error_errno("msync " + path_);
  }
  return Status::ok();
}

namespace {

int advice_flag(MmapFile::Advice advice) {
  switch (advice) {
    case MmapFile::Advice::kNormal:
      return MADV_NORMAL;
    case MmapFile::Advice::kSequential:
      return MADV_SEQUENTIAL;
    case MmapFile::Advice::kRandom:
      return MADV_RANDOM;
    case MmapFile::Advice::kWillNeed:
      return MADV_WILLNEED;
    case MmapFile::Advice::kDontNeed:
      return MADV_DONTNEED;
  }
  return MADV_NORMAL;
}

}  // namespace

Status MmapFile::advise(Advice advice) {
  if (base_ == nullptr) {
    return failed_precondition("MmapFile::advise on unmapped file");
  }
  if (::madvise(base_, size_, advice_flag(advice)) != 0) {
    return io_error_errno("madvise " + path_);
  }
  return Status::ok();
}

Status MmapFile::advise_range(std::size_t offset, std::size_t length,
                              Advice advice) const {
  if (base_ == nullptr) {
    return failed_precondition("MmapFile::advise_range on unmapped file");
  }
  if (offset >= size_ || length == 0) {
    return Status::ok();
  }
  length = std::min(length, size_ - offset);
  const auto page = static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
  const std::size_t begin = offset & ~(page - 1);
  const std::size_t end = std::min(size_, (offset + length + page - 1) & ~(page - 1));
  if (::madvise(static_cast<std::byte*>(base_) + begin, end - begin,
                advice_flag(advice)) != 0) {
    return io_error_errno("madvise(range) " + path_);
  }
  return Status::ok();
}

void MmapFile::close() {
  if (base_ != nullptr) {
    ::munmap(base_, size_);
    base_ = nullptr;
  }
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  size_ = 0;
}

}  // namespace gpsa
