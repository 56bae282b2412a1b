#include "util/archive.h"

#include <cstring>
#include <fstream>
#include <sstream>

// The carry-less-multiply CRC kernel is written with a GCC/Clang target
// attribute against the x86 intrinsic set; anything else runs the tables.
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define PAWS_CRC32_CLMUL 1
#include <immintrin.h>
#endif

namespace paws {

namespace {

constexpr char kMagic[4] = {'P', 'A', 'W', 'S'};
constexpr size_t kHeaderSize = 8;  // magic + container version
constexpr size_t kCrcSize = 4;

}  // namespace

std::string FourCcName(uint32_t tag) {
  std::string out;
  for (int i = 0; i < 4; ++i) {
    const char c = static_cast<char>((tag >> (8 * i)) & 0xff);
    if (c >= 0x20 && c < 0x7f) {
      out += c;
    } else {
      static const char* hex = "0123456789abcdef";
      out += "\\x";
      out += hex[(c >> 4) & 0xf];
      out += hex[c & 0xf];
    }
  }
  return out;
}

namespace {

// Slicing-by-16 (Kounavis & Berry, ISCC 2005): kCrcTables[k][b] is the CRC
// of byte b followed by k zero bytes, so sixteen lookups fold sixteen input
// bytes at once into the checksum the byte-at-a-time loop computes.
struct CrcTables {
  uint32_t t[16][256];
};

constexpr CrcTables kCrcTables = [] {
  CrcTables tables{};
  for (uint32_t b = 0; b < 256; ++b) {
    uint32_t c = b;
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
    }
    tables.t[0][b] = c;
  }
  for (int k = 1; k < 16; ++k) {
    for (uint32_t b = 0; b < 256; ++b) {
      const uint32_t c = tables.t[k - 1][b];
      tables.t[k][b] = tables.t[0][c & 0xff] ^ (c >> 8);
    }
  }
  return tables;
}();

// The CRC of the little-endian word `w` followed by `k` zero bytes: its
// four bytes looked up in tables k+3 down to k.
inline uint32_t FoldWord(uint32_t w, int k) {
  const auto& t = kCrcTables.t;
  return t[k + 3][w & 0xff] ^ t[k + 2][(w >> 8) & 0xff] ^
         t[k + 1][(w >> 16) & 0xff] ^ t[k][w >> 24];
}

#if defined(PAWS_CRC32_CLMUL)

// Carry-less-multiply folding (Gopal et al., "Fast CRC Computation for
// Generic Polynomials Using PCLMULQDQ Instruction", Intel, 2009), with the
// white paper's constants for the reflected polynomial 0xedb88320, the same
// as Linux's crc32-pclmul_asm.S. A fold constant pair is x^(d+32) and
// x^(d-32) mod P, bit-reflected and shifted left by one, for a fold over d
// bits; the Barrett pair is floor(x^64 / P) and P itself, bit-reflected.

// Folds lane `x` forward over the distance its constant pair `k` encodes
// and adds `next`, the 16 bytes found there.
__attribute__((target("pclmul,sse4.1"))) inline __m128i Fold16(__m128i x,
                                                               __m128i k,
                                                               __m128i next) {
  const __m128i low = _mm_clmulepi64_si128(x, k, 0x00);
  const __m128i high = _mm_clmulepi64_si128(x, k, 0x11);
  return _mm_xor_si128(_mm_xor_si128(low, high), next);
}

// The running crc over n >= 64 bytes, of which it consumes n rounded down
// to a multiple of 16: four lanes fold 64 bytes a pass, then the lanes and
// each remaining 16-byte block fold into one, which is reduced
// 128 -> 64 -> 32 bits, the last step by Barrett reduction.
__attribute__((target("pclmul,sse4.1"))) uint32_t FoldCrc(uint32_t crc,
                                                          const char* p,
                                                          size_t n) {
  const auto load = [](const char* q) {
    return _mm_loadu_si128(reinterpret_cast<const __m128i*>(q));
  };
  const __m128i by64 = _mm_set_epi64x(0x1c6e41596, 0x154442bd4);  // d = 512
  const __m128i by16 = _mm_set_epi64x(0x0ccaa009e, 0x1751997d0);  // d = 128
  const __m128i by4 = _mm_set_epi64x(0, 0x163cd6124);             // x^64
  const __m128i barrett = _mm_set_epi64x(0x1f7011641, 0x1db710641);
  const __m128i low32 = _mm_set_epi32(0, 0, 0, -1);

  const __m128i seed = _mm_cvtsi32_si128(static_cast<int>(crc));
  __m128i x0 = _mm_xor_si128(load(p), seed);
  __m128i x1 = load(p + 16);
  __m128i x2 = load(p + 32);
  __m128i x3 = load(p + 48);
  for (p += 64, n -= 64; n >= 64; p += 64, n -= 64) {
    x0 = Fold16(x0, by64, load(p));
    x1 = Fold16(x1, by64, load(p + 16));
    x2 = Fold16(x2, by64, load(p + 32));
    x3 = Fold16(x3, by64, load(p + 48));
  }
  x0 = Fold16(Fold16(Fold16(x0, by16, x1), by16, x2), by16, x3);
  for (; n >= 16; p += 16, n -= 16) x0 = Fold16(x0, by16, load(p));

  // 128 -> 64 bits, appending the 32 zero bits the checksum is defined with.
  __m128i t = _mm_clmulepi64_si128(x0, by16, 0x10);
  x0 = _mm_xor_si128(t, _mm_srli_si128(x0, 8));
  // 64 -> 32 bits, then Barrett reduction modulo P.
  t = _mm_clmulepi64_si128(_mm_and_si128(x0, low32), by4, 0x00);
  x0 = _mm_xor_si128(t, _mm_srli_si128(x0, 4));
  t = _mm_clmulepi64_si128(_mm_and_si128(x0, low32), barrett, 0x10);
  t = _mm_clmulepi64_si128(_mm_and_si128(t, low32), barrett, 0x00);
  return static_cast<uint32_t>(_mm_extract_epi32(_mm_xor_si128(t, x0), 1));
}

// The fold needs PCLMULQDQ, and SSE4.1 for the final extract. The probe
// picks only the speed: both paths compute the same checksum.
bool HasClmul() {
  static const bool has =
      __builtin_cpu_supports("pclmul") && __builtin_cpu_supports("sse4.1");
  return has;
}

#endif  // PAWS_CRC32_CLMUL

}  // namespace

uint32_t Crc32(const void* data, size_t n) {
  uint32_t crc = 0xffffffffu;
  const char* p = static_cast<const char*>(data);
#if defined(PAWS_CRC32_CLMUL)
  if (n >= 64 && HasClmul()) {
    const size_t folded = n & ~size_t{15};
    crc = FoldCrc(crc, p, folded);
    p += folded;
    n -= folded;
  }
#endif
  for (; n >= 16; p += 16, n -= 16) {
    crc = FoldWord(LoadU32(p) ^ crc, 12) ^ FoldWord(LoadU32(p + 4), 8) ^
          FoldWord(LoadU32(p + 8), 4) ^ FoldWord(LoadU32(p + 12), 0);
  }
  for (; n > 0; ++p, --n) {
    const uint32_t byte = static_cast<unsigned char>(*p);
    crc = kCrcTables.t[0][(crc ^ byte) & 0xff] ^ (crc >> 8);
  }
  return crc ^ 0xffffffffu;
}

// ------------------------------------------------------------- writer

void ArchiveWriter::WriteString(const std::string& s) {
  WriteU64(s.size());
  payload_.append(s);
}

void ArchiveWriter::WriteDoubleVector(const std::vector<double>& v) {
  WriteU64(v.size());
  WriteRun(v.data(), v.size());
}

void ArchiveWriter::WriteIntVector(const std::vector<int>& v) {
  static_assert(sizeof(int) == 4, "ints are stored as 32 bits");
  WriteU64(v.size());
  WriteRun(v.data(), v.size());
}

void ArchiveWriter::WriteU8Vector(const std::vector<uint8_t>& v) {
  WriteU64(v.size());
  payload_.append(reinterpret_cast<const char*>(v.data()), v.size());
}

void ArchiveWriter::BeginSection(uint32_t tag) {
  WriteU32(tag);
  open_sections_.push_back(payload_.size());
  WriteU64(0);  // patched by EndSection
}

void ArchiveWriter::EndSection() {
  CheckOrDie(!open_sections_.empty(), "ArchiveWriter: EndSection unbalanced");
  const size_t at = open_sections_.back();
  open_sections_.pop_back();
  const uint64_t length = payload_.size() - at - 8;
  for (int i = 0; i < 8; ++i) {
    payload_[at + i] = static_cast<char>((length >> (8 * i)) & 0xff);
  }
}

std::string ArchiveWriter::Bytes() const {
  CheckOrDie(open_sections_.empty(),
             "ArchiveWriter: Bytes() with an open section");
  std::string out;
  out.reserve(kHeaderSize + payload_.size() + kCrcSize);
  out.append(kMagic, sizeof(kMagic));
  AppendU32(&out, kArchiveFormatVersion);
  out.append(payload_);
  AppendU32(&out, Crc32(out.data(), out.size()));
  return out;
}

// ------------------------------------------------------------- reader

StatusOr<ArchiveReader> ArchiveReader::FromBytes(std::string bytes) {
  if (bytes.size() < kHeaderSize + kCrcSize) {
    return Status::InvalidArgument("archive: truncated (smaller than header)");
  }
  if (std::memcmp(bytes.data(), kMagic, sizeof(kMagic)) != 0) {
    return Status::InvalidArgument("archive: bad magic (not a PAWS archive)");
  }
  const uint32_t version = LoadU32(bytes.data() + 4);
  if (version != kArchiveFormatVersion) {
    return Status::InvalidArgument(
        "archive: unsupported container format version " +
        std::to_string(version) + " (expected " +
        std::to_string(kArchiveFormatVersion) + ")");
  }
  const uint32_t stored_crc = LoadU32(bytes.data() + bytes.size() - kCrcSize);
  const uint32_t actual_crc = Crc32(bytes.data(), bytes.size() - kCrcSize);
  if (stored_crc != actual_crc) {
    return Status::InvalidArgument("archive: CRC mismatch (corrupt file)");
  }
  const size_t end = bytes.size() - kCrcSize;
  return ArchiveReader(std::move(bytes), kHeaderSize, end);
}

Status ArchiveReader::Take(size_t n, const char** data) {
  if (n > remaining()) {
    return Status::InvalidArgument(
        "archive: truncated read (" + std::to_string(n) + " bytes needed, " +
        std::to_string(remaining()) + " available)");
  }
  *data = bytes_.data() + pos_;
  pos_ += n;
  return Status::OK();
}

Status ArchiveReader::ReadCount(size_t elem_size, uint64_t* out) {
  const char* p = nullptr;
  PAWS_RETURN_IF_ERROR(Take(8, &p));
  *out = LoadU64(p);
  if (*out > (Limit() - pos_) / elem_size) {
    return Status::InvalidArgument(
        "archive: container length " + std::to_string(*out) +
        " overruns the remaining " + std::to_string(Limit() - pos_) +
        " bytes");
  }
  return Status::OK();
}

Status ArchiveReader::PeekSectionTag(uint32_t* tag) {
  const char* p = nullptr;
  PAWS_RETURN_IF_ERROR(Take(4, &p));
  pos_ -= 4;  // a peek consumes nothing
  *tag = LoadU32(p);
  return Status::OK();
}

Status ArchiveReader::EnterSection(uint32_t expected_tag) {
  const char* p = nullptr;
  PAWS_RETURN_IF_ERROR(Take(4, &p));
  const uint32_t tag = LoadU32(p);
  if (tag != expected_tag) {
    return Status::InvalidArgument("archive: expected section '" +
                                   FourCcName(expected_tag) + "', found '" +
                                   FourCcName(tag) + "'");
  }
  uint64_t length = 0;
  PAWS_RETURN_IF_ERROR(ReadCount(1, &length));
  section_ends_.push_back(pos_ + length);
  return Status::OK();
}

Status ArchiveReader::LeaveSection() {
  CheckOrDie(!section_ends_.empty(), "ArchiveReader: LeaveSection unbalanced");
  const size_t sec_end = section_ends_.back();
  if (pos_ != sec_end) {
    return Status::InvalidArgument(
        "archive: section not consumed exactly (" +
        std::to_string(sec_end - pos_) + " bytes left over)");
  }
  section_ends_.pop_back();
  return Status::OK();
}

Status ArchiveReader::ExpectEnd() const {
  if (!section_ends_.empty() || pos_ != end_) {
    return Status::InvalidArgument("archive: trailing bytes after payload");
  }
  return Status::OK();
}

// ------------------------------------------------------------- records

void FieldWriter::Write(
    const FlatRows<const std::vector<std::vector<double>>>& table) {
  const int cols =
      table.rows.empty() ? 0 : static_cast<int>(table.rows[0].size());
  (*this)(static_cast<int>(table.rows.size()), cols);
  for (const std::vector<double>& row : table.rows) {
    CheckOrDie(static_cast<int>(row.size()) == cols, "FlatRows: ragged table");
    out_->WriteRun(row.data(), row.size());
  }
}

void FieldReader::Read(FlatRows<std::vector<std::vector<double>>>& table) {
  int rows = 0, cols = 0;
  (*this)(rows, cols);
  // Every row holds at least one value, so the shape is proven by the
  // bytes before anything is allocated.
  if (ok() && (rows < 0 || cols < 0 || (rows > 0 && cols == 0) ||
               static_cast<uint64_t>(rows) * cols > in_->remaining() / 8)) {
    Check(Status::InvalidArgument(
        "archive: table of " + std::to_string(rows) + " x " +
        std::to_string(cols) + " values overruns the remaining " +
        std::to_string(in_->remaining()) + " bytes"));
  }
  if (!ok()) return;
  table.rows.assign(rows, std::vector<double>(cols));
  for (std::vector<double>& row : table.rows) ReadRun(row.data(), row.size());
}

void FieldReader::Read(bool& v) {
  uint8_t raw = 0;
  Read(raw);
  if (ok() && raw > 1) {
    Check(Status::InvalidArgument("archive: bool field holds " +
                                  std::to_string(raw)));
  }
  if (ok()) v = raw != 0;
}

void FieldReader::CheckVersion(ArchiveSection section) {
  uint32_t version = 0;
  Read(version);
  if (ok() && version != section.version) {
    Check(Status::InvalidArgument(
        "archive: unsupported schema version " + std::to_string(version) +
        (section.tag != 0 ? " of section '" + FourCcName(section.tag) + "'"
                          : std::string()) +
        " (expected " + std::to_string(section.version) + ")"));
  }
}

// ------------------------------------------------------------- file IO

StatusOr<std::string> ReadFileToString(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  if (!f) return Status::NotFound("cannot open: " + path);
  std::ostringstream buffer;
  buffer << f.rdbuf();
  if (!f && !f.eof()) return Status::Internal("failed reading: " + path);
  return std::move(buffer).str();
}

Status WriteStringToFile(const std::string& data, const std::string& path) {
  std::ofstream f(path, std::ios::binary);
  if (!f) return Status::Internal("cannot open for writing: " + path);
  f.write(data.data(), static_cast<std::streamsize>(data.size()));
  f.flush();
  if (!f) return Status::Internal("failed writing: " + path);
  return Status::OK();
}

}  // namespace paws
