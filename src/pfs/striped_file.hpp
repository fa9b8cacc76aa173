// A file striped round-robin across the stripe directories of a
// StripedFileSystem, with synchronous and asynchronous positioned I/O.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "pfs/io_engine.hpp"

namespace pstap::pfs {

class StripedFileSystem;

/// Open handle to a striped file. Obtained from StripedFileSystem::open()
/// or ::create() — the analogue of the paper's global open (gopen).
///
/// All reads/writes are positioned (pread/pwrite style) and thread-safe
/// with respect to each other, matching the paper's usage where every node
/// of the first task reads its own exclusive file region.
class StripedFile {
 public:
  StripedFile(StripedFile&&) noexcept = default;
  StripedFile& operator=(StripedFile&&) noexcept = default;
  StripedFile(const StripedFile&) = delete;
  StripedFile& operator=(const StripedFile&) = delete;

  const std::string& name() const noexcept { return name_; }

  /// Stable id of the logical file: the key of its ChecksumCatalog entries.
  std::uint64_t id() const noexcept { return file_id_; }

  /// Current logical file size in bytes.
  std::uint64_t size() const;

  /// Blocking read of out.size() bytes at `offset`. The range must lie
  /// within the file.
  void read(std::uint64_t offset, std::span<std::byte> out);

  /// Asynchronous read (the paper's iread()): returns immediately with a
  /// request handle on async-capable file systems; on synchronous-only
  /// configurations (PIOFS) the transfer completes before returning and
  /// the handle is already done — callers get no overlap, by design.
  [[nodiscard]] IoRequest iread(std::uint64_t offset, std::span<std::byte> out);

  /// Blocking write of data.size() bytes at `offset`, extending the file
  /// as needed.
  void write(std::uint64_t offset, std::span<const std::byte> data);

  /// One piece of a gather read: `buf.size()` bytes at file offset `offset`.
  struct IoSegment {
    std::uint64_t offset = 0;
    std::span<std::byte> buf;
  };

  /// Asynchronous gather read: every segment is queued under ONE request —
  /// the strided-access primitive (e.g. a range slab of a pulse-major CPI
  /// file is pulses*channels small segments). Segments must lie within the
  /// file. Honors the file system's async capability like iread().
  [[nodiscard]] IoRequest iread_gather(std::span<const IoSegment> segments);

  /// Typed convenience wrappers.
  template <typename T>
  void read_values(std::uint64_t offset, std::span<T> out) {
    read(offset, std::as_writable_bytes(out));
  }
  template <typename T>
  [[nodiscard]] IoRequest iread_values(std::uint64_t offset, std::span<T> out) {
    return iread(offset, std::as_writable_bytes(out));
  }
  template <typename T>
  void write_values(std::uint64_t offset, std::span<const T> data) {
    write(offset, std::as_bytes(data));
  }

 private:
  friend class StripedFileSystem;
  StripedFile(StripedFileSystem* fs, std::string name, std::uint64_t file_id,
              std::shared_ptr<const SegmentFds> fds);

  /// Jobs for one logical request, accumulated before dispatch. With
  /// `coalesce` set (straggler scheduler on) chunks landing on the same
  /// (server, segment fd) merge into ONE list-I/O job — pieces of every
  /// gather segment included — so a strided slab becomes one request per
  /// server instead of one per chunk; otherwise one single-piece job per
  /// chunk (the paper's baseline shape).
  struct Batch {
    std::vector<IoEngine::Job> jobs;
    std::map<std::pair<std::size_t, int>, std::size_t> slot;  // (server,fd)
    bool coalesce = false;
  };

  /// Split [offset, offset+len) into per-stripe-unit pieces and append
  /// them to the batch (replica redirect and write mirroring included).
  void append_jobs(Batch& batch, std::uint64_t offset, std::byte* buf,
                   std::size_t len, bool is_write);

  /// Create the request, attach state (and hedge chunk states), submit.
  IoRequest dispatch(Batch&& batch);

  IoRequest submit(std::uint64_t offset, std::byte* buf, std::size_t len, bool is_write);
  bool replicated() const noexcept { return !fds_->replica.empty(); }

  StripedFileSystem* fs_ = nullptr;
  std::string name_;
  std::uint64_t file_id_ = 0;
  std::shared_ptr<const SegmentFds> fds_;  // shared with in-flight jobs
};

}  // namespace pstap::pfs
