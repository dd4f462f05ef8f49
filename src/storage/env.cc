#include "storage/env.h"

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#define AUJOIN_ENV_POSIX 1
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#endif

namespace aujoin {

std::string ParentDirectory(const std::string& path) {
  size_t slash = path.find_last_of('/');
  if (slash == std::string::npos) return ".";
  if (slash == 0) return "/";
  return path.substr(0, slash);
}

namespace {

Status PosixError(const std::string& context) {
  return Status::IoError(context + ": " + std::strerror(errno));
}

#if AUJOIN_ENV_POSIX

class PosixWritableFile : public WritableFile {
 public:
  PosixWritableFile(int fd, std::string path)
      : fd_(fd), path_(std::move(path)) {}

  ~PosixWritableFile() override {
    if (fd_ >= 0) ::close(fd_);
  }

  Status Append(const void* data, size_t size) override {
    const char* p = static_cast<const char*>(data);
    while (size > 0) {
      ssize_t n = ::write(fd_, p, size);
      if (n < 0) {
        if (errno == EINTR) continue;
        return PosixError("write " + path_);
      }
      p += n;
      size -= static_cast<size_t>(n);
    }
    return Status::OK();
  }

  Status Sync() override {
    if (::fsync(fd_) != 0) return PosixError("fsync " + path_);
    return Status::OK();
  }

  Status Allocate(uint64_t size) override {
#if defined(__linux__)
    if (size == 0) return Status::OK();
    // KEEP_SIZE: reserve extents without moving the logical EOF, so a
    // crash never exposes unwritten reserved bytes as file content.
    if (::fallocate(fd_, FALLOC_FL_KEEP_SIZE, 0,
                    static_cast<off_t>(size)) != 0) {
      // Filesystems without fallocate support say EOPNOTSUPP/EINVAL;
      // preallocation is an optimisation, not a requirement.
      if (errno == EOPNOTSUPP || errno == ENOSYS || errno == EINVAL) {
        return Status::OK();
      }
      return PosixError("fallocate " + path_);
    }
#else
    (void)size;
#endif
    return Status::OK();
  }

  Status Close() override {
    if (fd_ < 0) return Status::OK();
    int fd = fd_;
    fd_ = -1;
    if (::close(fd) != 0) return PosixError("close " + path_);
    return Status::OK();
  }

 private:
  int fd_;
  std::string path_;
};

/// mmap-backed read view; heap fallback below covers empty files too.
class PosixFileMapping : public FileMapping {
 public:
  PosixFileMapping(const uint8_t* data, uint64_t size, bool mapped)
      : data_(data), size_(size), mapped_(mapped) {}

  ~PosixFileMapping() override {
    if (data_ == nullptr) return;
    if (mapped_) {
      ::munmap(const_cast<uint8_t*>(data_), size_);
    } else {
      delete[] data_;
    }
  }

  const uint8_t* data() const override { return data_; }
  uint64_t size() const override { return size_; }

 private:
  const uint8_t* data_;
  uint64_t size_;
  bool mapped_;
};

class PosixEnv : public Env {
 public:
  Result<std::unique_ptr<WritableFile>> NewWritableFile(
      const std::string& path, bool truncate) override {
    int flags = O_WRONLY | O_CREAT | (truncate ? O_TRUNC : 0);
    int fd = ::open(path.c_str(), flags, 0644);
    if (fd < 0) return PosixError("open " + path);
    if (!truncate && ::lseek(fd, 0, SEEK_END) < 0) {
      ::close(fd);
      return PosixError("seek to end of " + path);
    }
    return std::unique_ptr<WritableFile>(new PosixWritableFile(fd, path));
  }

  Result<std::shared_ptr<const FileMapping>> MapFile(
      const std::string& path) override {
    int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0) return PosixError("open " + path);
    struct stat st;
    if (::fstat(fd, &st) != 0) {
      ::close(fd);
      return PosixError("stat " + path);
    }
    uint64_t size = static_cast<uint64_t>(st.st_size);
    if (size == 0) {
      ::close(fd);
      return std::shared_ptr<const FileMapping>(
          new PosixFileMapping(nullptr, 0, false));
    }
    void* map = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
    ::close(fd);
    if (map == MAP_FAILED) return PosixError("mmap " + path);
    return std::shared_ptr<const FileMapping>(new PosixFileMapping(
        static_cast<const uint8_t*>(map), size, true));
  }

  Result<uint64_t> GetFileSize(const std::string& path) override {
    struct stat st;
    if (::stat(path.c_str(), &st) != 0) return PosixError("stat " + path);
    return static_cast<uint64_t>(st.st_size);
  }

  bool FileExists(const std::string& path) override {
    return ::access(path.c_str(), F_OK) == 0;
  }

  Status RenameFile(const std::string& from, const std::string& to) override {
    if (::rename(from.c_str(), to.c_str()) != 0) {
      return PosixError("rename " + from + " -> " + to);
    }
    return Status::OK();
  }

  Status RemoveFile(const std::string& path) override {
    if (::unlink(path.c_str()) != 0) return PosixError("remove " + path);
    return Status::OK();
  }

  Status TruncateFile(const std::string& path, uint64_t size) override {
    if (::truncate(path.c_str(), static_cast<off_t>(size)) != 0) {
      return PosixError("truncate " + path);
    }
    return Status::OK();
  }

  Status SyncDir(const std::string& dir) override {
    int fd = ::open(dir.c_str(), O_RDONLY);
    if (fd < 0) return PosixError("open directory " + dir);
    Status status = Status::OK();
    if (::fsync(fd) != 0) status = PosixError("fsync directory " + dir);
    ::close(fd);
    return status;
  }
};

#else  // !AUJOIN_ENV_POSIX — stdio fallback, no real durability control.

class StdioWritableFile : public WritableFile {
 public:
  StdioWritableFile(std::FILE* file, std::string path)
      : file_(file), path_(std::move(path)) {}

  ~StdioWritableFile() override {
    if (file_ != nullptr) std::fclose(file_);
  }

  Status Append(const void* data, size_t size) override {
    if (size == 0) return Status::OK();
    if (std::fwrite(data, 1, size, file_) != size) {
      return Status::IoError("short write to " + path_);
    }
    return Status::OK();
  }

  Status Sync() override {
    if (std::fflush(file_) != 0) {
      return Status::IoError("flush failed for " + path_);
    }
    return Status::OK();
  }

  Status Close() override {
    if (file_ == nullptr) return Status::OK();
    std::FILE* file = file_;
    file_ = nullptr;
    if (std::fclose(file) != 0) {
      return Status::IoError("close failed for " + path_);
    }
    return Status::OK();
  }

 private:
  std::FILE* file_;
  std::string path_;
};

class HeapFileMapping : public FileMapping {
 public:
  explicit HeapFileMapping(std::vector<uint8_t> bytes)
      : bytes_(std::move(bytes)) {}
  const uint8_t* data() const override {
    return bytes_.empty() ? nullptr : bytes_.data();
  }
  uint64_t size() const override { return bytes_.size(); }

 private:
  std::vector<uint8_t> bytes_;
};

class PosixEnv : public Env {  // name kept so Default() reads the same
 public:
  Result<std::unique_ptr<WritableFile>> NewWritableFile(
      const std::string& path, bool truncate) override {
    std::FILE* file = std::fopen(path.c_str(), truncate ? "wb" : "ab");
    if (file == nullptr) {
      return Status::IoError("cannot open " + path + " for writing");
    }
    return std::unique_ptr<WritableFile>(new StdioWritableFile(file, path));
  }

  Result<std::shared_ptr<const FileMapping>> MapFile(
      const std::string& path) override {
    std::FILE* file = std::fopen(path.c_str(), "rb");
    if (file == nullptr) return Status::IoError("cannot open " + path);
    std::fseek(file, 0, SEEK_END);
    long size = std::ftell(file);
    std::fseek(file, 0, SEEK_SET);
    std::vector<uint8_t> bytes(size < 0 ? 0 : static_cast<size_t>(size));
    if (!bytes.empty() &&
        std::fread(bytes.data(), 1, bytes.size(), file) != bytes.size()) {
      std::fclose(file);
      return Status::IoError("short read from " + path);
    }
    std::fclose(file);
    return std::shared_ptr<const FileMapping>(
        new HeapFileMapping(std::move(bytes)));
  }

  Result<uint64_t> GetFileSize(const std::string& path) override {
    std::FILE* file = std::fopen(path.c_str(), "rb");
    if (file == nullptr) return Status::IoError("cannot open " + path);
    std::fseek(file, 0, SEEK_END);
    long size = std::ftell(file);
    std::fclose(file);
    return size < 0 ? 0 : static_cast<uint64_t>(size);
  }

  bool FileExists(const std::string& path) override {
    std::FILE* file = std::fopen(path.c_str(), "rb");
    if (file == nullptr) return false;
    std::fclose(file);
    return true;
  }

  Status RenameFile(const std::string& from, const std::string& to) override {
    if (std::rename(from.c_str(), to.c_str()) != 0) {
      return Status::IoError("cannot rename " + from + " to " + to);
    }
    return Status::OK();
  }

  Status RemoveFile(const std::string& path) override {
    if (std::remove(path.c_str()) != 0) {
      return Status::IoError("cannot remove " + path);
    }
    return Status::OK();
  }

  Status TruncateFile(const std::string& path, uint64_t size) override {
    Result<std::shared_ptr<const FileMapping>> mapping = MapFile(path);
    if (!mapping.ok()) return mapping.status();
    if ((*mapping)->size() < size) {
      return Status::InvalidArgument("cannot extend " + path);
    }
    std::FILE* file = std::fopen(path.c_str(), "wb");
    if (file == nullptr) return Status::IoError("cannot rewrite " + path);
    if (size > 0 &&
        std::fwrite((*mapping)->data(), 1, size, file) != size) {
      std::fclose(file);
      return Status::IoError("short write to " + path);
    }
    std::fclose(file);
    return Status::OK();
  }

  Status SyncDir(const std::string& dir) override {
    (void)dir;  // no directory durability control without POSIX
    return Status::OK();
  }
};

#endif  // AUJOIN_ENV_POSIX

}  // namespace

Env* Env::Default() {
  static PosixEnv* env = new PosixEnv();
  return env;
}

}  // namespace aujoin
