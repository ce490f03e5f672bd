#include "common/binio.h"

#include <fcntl.h>
#include <unistd.h>

#include <array>
#include <cerrno>
#include <cstdio>
#include <fstream>
#include <sstream>

namespace vdrift {

namespace {

std::array<uint32_t, 256> MakeCrcTable() {
  std::array<uint32_t, 256> table{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    table[i] = c;
  }
  return table;
}

}  // namespace

uint32_t Crc32(const void* data, size_t size, uint32_t seed) {
  static const std::array<uint32_t, 256> kTable = MakeCrcTable();
  const auto* bytes = static_cast<const unsigned char*>(data);
  uint32_t c = seed ^ 0xFFFFFFFFu;
  for (size_t i = 0; i < size; ++i) {
    c = kTable[(c ^ bytes[i]) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

void BinaryWriter::WriteString(const std::string& s) {
  WriteU64(static_cast<uint64_t>(s.size()));
  bytes_.append(s);
}

void BinaryWriter::WriteDoubleVec(const std::vector<double>& v) {
  WriteU64(static_cast<uint64_t>(v.size()));
  for (double d : v) WriteDouble(d);
}

void BinaryWriter::WriteFloatVec(const std::vector<float>& v) {
  WriteU64(static_cast<uint64_t>(v.size()));
  for (float f : v) WriteF32(f);
}

void BinaryWriter::WriteI64Vec(const std::vector<int64_t>& v) {
  WriteU64(static_cast<uint64_t>(v.size()));
  for (int64_t d : v) WriteI64(d);
}

Status BinaryReader::ReadString(std::string* s) {
  uint64_t size = 0;
  VDRIFT_RETURN_NOT_OK(ReadU64(&size));
  if (offset_ + size > bytes_.size()) {
    return Status::DataLoss("truncated string of declared length " +
                            std::to_string(size));
  }
  s->assign(bytes_.data() + offset_, size);
  offset_ += size;
  return Status::OK();
}

Status BinaryReader::ReadDoubleVec(std::vector<double>* v) {
  uint64_t size = 0;
  VDRIFT_RETURN_NOT_OK(ReadU64(&size));
  if (size > remaining() / sizeof(double)) {
    return Status::DataLoss("truncated double vector of declared length " +
                            std::to_string(size));
  }
  v->resize(size);
  for (uint64_t i = 0; i < size; ++i) {
    VDRIFT_RETURN_NOT_OK(ReadDouble(&(*v)[i]));
  }
  return Status::OK();
}

Status BinaryReader::ReadFloatVec(std::vector<float>* v) {
  uint64_t size = 0;
  VDRIFT_RETURN_NOT_OK(ReadU64(&size));
  if (size > remaining() / sizeof(float)) {
    return Status::DataLoss("truncated float vector of declared length " +
                            std::to_string(size));
  }
  v->resize(size);
  for (uint64_t i = 0; i < size; ++i) {
    VDRIFT_RETURN_NOT_OK(ReadF32(&(*v)[i]));
  }
  return Status::OK();
}

Status BinaryReader::ReadI64Vec(std::vector<int64_t>* v) {
  uint64_t size = 0;
  VDRIFT_RETURN_NOT_OK(ReadU64(&size));
  if (size > remaining() / sizeof(int64_t)) {
    return Status::DataLoss("truncated int64 vector of declared length " +
                            std::to_string(size));
  }
  v->resize(size);
  for (uint64_t i = 0; i < size; ++i) {
    VDRIFT_RETURN_NOT_OK(ReadI64(&(*v)[i]));
  }
  return Status::OK();
}

std::string SealEnvelope(std::string_view magic, uint32_t version,
                         const std::string& payload) {
  BinaryWriter writer;
  writer.WriteU32(version);
  writer.WriteU64(payload.size());
  std::string bytes(magic);
  bytes += writer.bytes();
  bytes += payload;
  const uint32_t crc = Crc32(payload.data(), payload.size());
  bytes.append(reinterpret_cast<const char*>(&crc), sizeof(crc));
  return bytes;
}

Result<std::string> OpenEnvelope(std::string_view magic, uint32_t version,
                                 const std::string& bytes,
                                 const std::string& what) {
  const size_t envelope = magic.size() + 4 + 8 + 4;
  if (bytes.size() < envelope) {
    return Status::DataLoss(what + " too short: " +
                            std::to_string(bytes.size()) + " bytes");
  }
  if (std::string_view(bytes).substr(0, magic.size()) != magic) {
    return Status::DataLoss(what + " magic mismatch");
  }
  uint32_t stored_version = 0;
  uint64_t length = 0;
  std::memcpy(&stored_version, bytes.data() + magic.size(), 4);
  std::memcpy(&length, bytes.data() + magic.size() + 4, 8);
  if (stored_version != version) {
    return Status::DataLoss(what + " version " +
                            std::to_string(stored_version) +
                            " not supported (want " +
                            std::to_string(version) + ")");
  }
  if (length != bytes.size() - envelope) {
    return Status::DataLoss(what + " length mismatch: header says " +
                            std::to_string(length) + " payload bytes, have " +
                            std::to_string(bytes.size() - envelope));
  }
  std::string payload = bytes.substr(magic.size() + 4 + 8, length);
  uint32_t stored_crc = 0;
  std::memcpy(&stored_crc, bytes.data() + bytes.size() - 4, 4);
  const uint32_t actual_crc = Crc32(payload.data(), payload.size());
  if (stored_crc != actual_crc) {
    return Status::DataLoss(what + " CRC mismatch: stored " +
                            std::to_string(stored_crc) + ", computed " +
                            std::to_string(actual_crc));
  }
  return payload;
}

Status AtomicWriteFile(const std::string& path, const std::string& bytes) {
  const std::string tmp = path + ".tmp";
  int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    return Status::IoError("cannot open '" + tmp + "' for writing");
  }
  size_t written = 0;
  while (written < bytes.size()) {
    ssize_t n = ::write(fd, bytes.data() + written, bytes.size() - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      ::close(fd);
      std::remove(tmp.c_str());
      return Status::IoError("short write to '" + tmp + "'");
    }
    written += static_cast<size_t>(n);
  }
  // Durability, not just atomicity: the data must be on stable storage
  // BEFORE the rename publishes it, or a power cut can promote an empty
  // tmp file over a good checkpoint.
  if (::fsync(fd) != 0) {
    ::close(fd);
    std::remove(tmp.c_str());
    return Status::IoError("fsync failed on '" + tmp + "'");
  }
  if (::close(fd) != 0) {
    std::remove(tmp.c_str());
    return Status::IoError("close failed on '" + tmp + "'");
  }
  // vdrift-lint: allow(no-unchecked-rename): this IS the checked rename
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return Status::IoError("cannot rename '" + tmp + "' to '" + path + "'");
  }
  // The rename is a directory mutation; fsync the parent so the new name
  // itself is durable. Best-effort on filesystems that refuse O_RDONLY
  // directory fds — the data fsync above already happened.
  size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos
                              ? std::string(".")
                              : path.substr(0, slash == 0 ? 1 : slash);
  int dirfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (dirfd >= 0) {
    if (::fsync(dirfd) != 0) {
      ::close(dirfd);
      return Status::IoError("fsync failed on directory '" + dir + "'");
    }
    ::close(dirfd);
  }
  return Status::OK();
}

Result<std::string> ReadFileToString(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Status::IoError("cannot open '" + path + "' for reading");
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  if (in.bad()) {
    return Status::IoError("read failure on '" + path + "'");
  }
  return buffer.str();
}

}  // namespace vdrift
