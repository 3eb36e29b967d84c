#include "recovery/storage.hpp"

#include <filesystem>
#include <fstream>
#include <utility>

namespace ndsm::recovery {

namespace {
// A file record longer than this is read as a torn or corrupt tail.
constexpr std::uint32_t kMaxFileRecord = 16u << 20;
}  // namespace

StableStorage::StableStorage(std::string path, DiskModel disk)
    : disk_(disk), path_(std::move(path)) {
  std::ifstream in(path_, std::ios::binary);  // no file yet: first boot
  std::uintmax_t whole = 0;  // file bytes up to the end of the last whole record
  std::uint8_t len_buf[4];
  while (in.read(reinterpret_cast<char*>(len_buf), 4)) {
    std::uint32_t len = 0;
    for (int i = 0; i < 4; ++i) len |= static_cast<std::uint32_t>(len_buf[i]) << (8 * i);
    if (len > kMaxFileRecord) break;  // corrupt length: stop at the tear
    Bytes record(len);
    if (!in.read(reinterpret_cast<char*>(record.data()), static_cast<std::streamsize>(len))) {
      break;  // torn tail: the crash interrupted the final append
    }
    records_.push_back(std::move(record));
    whole += 4 + len;
  }
  in.close();
  // Cut the tear off, so that the next append follows the last whole
  // record: appended after bytes no load can get past, it would be lost.
  std::error_code no_file;
  const std::uintmax_t size = std::filesystem::file_size(path_, no_file);
  if (!no_file && size > whole) std::filesystem::resize_file(path_, whole);
}

void StableStorage::write_through(const Bytes& record) const {
  std::ofstream out(path_, std::ios::binary | std::ios::app);
  const auto len = static_cast<std::uint32_t>(record.size());
  for (int i = 0; i < 4; ++i) out.put(static_cast<char>((len >> (8 * i)) & 0xff));
  out.write(reinterpret_cast<const char*>(record.data()),
            static_cast<std::streamsize>(record.size()));
  out.flush();
}

}  // namespace ndsm::recovery
