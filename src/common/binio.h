#ifndef VDRIFT_COMMON_BINIO_H_
#define VDRIFT_COMMON_BINIO_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "common/status.h"

namespace vdrift {

/// CRC-32 (IEEE 802.3 polynomial, the zlib/PNG variant) of `size` bytes.
/// `seed` allows incremental computation: pass the previous return value.
uint32_t Crc32(const void* data, size_t size, uint32_t seed = 0);

/// \brief Appends little-endian POD values and length-prefixed blobs to a
/// byte buffer.
///
/// The writing half of the checkpoint codec: values are laid out in call
/// order with no alignment or padding, so the byte stream is identical
/// across platforms of the same endianness (we assume little-endian, as
/// every deployment target is).
class BinaryWriter {
 public:
  void WriteU8(uint8_t v) { Append(&v, sizeof(v)); }
  void WriteU32(uint32_t v) { Append(&v, sizeof(v)); }
  void WriteU64(uint64_t v) { Append(&v, sizeof(v)); }
  void WriteI32(int32_t v) { Append(&v, sizeof(v)); }
  void WriteI64(int64_t v) { Append(&v, sizeof(v)); }
  void WriteDouble(double v) { Append(&v, sizeof(v)); }
  void WriteF32(float v) { Append(&v, sizeof(v)); }
  void WriteString(const std::string& s);
  void WriteDoubleVec(const std::vector<double>& v);
  void WriteFloatVec(const std::vector<float>& v);
  void WriteI64Vec(const std::vector<int64_t>& v);

  const std::string& bytes() const { return bytes_; }
  std::string&& TakeBytes() { return std::move(bytes_); }

 private:
  void Append(const void* data, size_t size) {
    bytes_.append(static_cast<const char*>(data), size);
  }

  std::string bytes_;
};

/// \brief Bounds-checked reader over a byte buffer written by BinaryWriter.
///
/// Every Read* returns kDataLoss on truncation instead of walking off the
/// buffer — a torn checkpoint surfaces as a clean Status, never as UB.
class BinaryReader {
 public:
  explicit BinaryReader(const std::string& bytes) : bytes_(bytes) {}

  [[nodiscard]] Status ReadU8(uint8_t* v) { return Extract(v, sizeof(*v)); }
  [[nodiscard]] Status ReadU32(uint32_t* v) { return Extract(v, sizeof(*v)); }
  [[nodiscard]] Status ReadU64(uint64_t* v) { return Extract(v, sizeof(*v)); }
  [[nodiscard]] Status ReadI32(int32_t* v) { return Extract(v, sizeof(*v)); }
  [[nodiscard]] Status ReadI64(int64_t* v) { return Extract(v, sizeof(*v)); }
  [[nodiscard]] Status ReadDouble(double* v) { return Extract(v, sizeof(*v)); }
  [[nodiscard]] Status ReadF32(float* v) { return Extract(v, sizeof(*v)); }
  [[nodiscard]] Status ReadString(std::string* s);
  [[nodiscard]] Status ReadDoubleVec(std::vector<double>* v);
  [[nodiscard]] Status ReadFloatVec(std::vector<float>* v);
  [[nodiscard]] Status ReadI64Vec(std::vector<int64_t>* v);

  /// Bytes not yet consumed.
  size_t remaining() const { return bytes_.size() - offset_; }

 private:
  [[nodiscard]] Status Extract(void* out, size_t size) {
    if (offset_ + size > bytes_.size()) {
      return Status::DataLoss("truncated buffer: need " +
                              std::to_string(size) + " bytes at offset " +
                              std::to_string(offset_) + ", have " +
                              std::to_string(bytes_.size() - offset_));
    }
    std::memcpy(out, bytes_.data() + offset_, size);
    offset_ += size;
    return Status::OK();
  }

  const std::string& bytes_;
  size_t offset_ = 0;
};

/// \brief The checksummed envelope every on-disk codec wraps its payload in:
///
///   magic | u32 version | u64 payload length | payload | u32 CRC-32(payload)
///
/// `magic` is the format's tag, written without a terminator ("VDCKPT01"
/// is 8 bytes, "VDFLEET01" 9).
std::string SealEnvelope(std::string_view magic, uint32_t version,
                         const std::string& payload);

/// The payload of an envelope written by SealEnvelope with the same magic
/// and version. Too short, bad magic, another version, a length mismatch
/// or a CRC mismatch is kDataLoss; `what` names the format in the message.
[[nodiscard]] Result<std::string> OpenEnvelope(std::string_view magic,
                                               uint32_t version,
                                               const std::string& bytes,
                                               const std::string& what);

/// Writes `bytes` to `path` atomically AND durably: the data lands in
/// `path + ".tmp"` first, is fsync'd, renamed over `path` (rename(2)
/// within one filesystem is atomic), and finally the parent directory is
/// fsync'd so the rename itself survives a power cut. A crash at any point
/// leaves either the old file or the complete new one under the final
/// name — never a half-written or vanished file.
[[nodiscard]] Status AtomicWriteFile(const std::string& path, const std::string& bytes);

/// Reads a whole file into a string. kIoError when it cannot be opened.
[[nodiscard]] Result<std::string> ReadFileToString(const std::string& path);

}  // namespace vdrift

#endif  // VDRIFT_COMMON_BINIO_H_
