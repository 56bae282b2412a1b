#ifndef PAWS_UTIL_ARCHIVE_H_
#define PAWS_UTIL_ARCHIVE_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/status.h"

namespace paws {

/// Versioned, endian-safe binary archive — the one encoding layer shared by
/// model snapshots, fleet maps and wire payloads. Design goals, in order:
///
///  1. *Bit-exact round trips.* Doubles are stored as their IEEE-754 bit
///     pattern, so a loaded model predicts bit-identically to the one that
///     was saved.
///  2. *Corruption is a Status, never UB.* Every read is bounds-checked
///     against the payload and the innermost open section; the whole file
///     carries a CRC-32 checked before any field is parsed; containers are
///     length-prefixed and their lengths validated against the remaining
///     bytes before any allocation.
///  3. *Versioned evolution.* The container header carries a format
///     version, and each serialized object writes its own schema version
///     inside its section, so old readers reject new files cleanly and new
///     readers can keep loading old ones.
///
/// Wire format (all integers little-endian):
///
///   bytes 0..3   magic "PAWS"
///   bytes 4..7   container format version (u32)
///   bytes 8..n-5 payload (sections and fields, see below)
///   last 4 bytes CRC-32 of everything before them
///
/// Sections are `tag (u32 fourcc) + payload length (u64) + payload`; they
/// nest, and the reader verifies both the tag and that the section was
/// consumed exactly. Strings and vectors are `count (u64) + elements`; the
/// elements of a double or int vector form one contiguous little-endian
/// run, copied in bulk.

/// Container format version written into every archive header. Bump when
/// the *container* layout changes (magic/CRC/section framing); per-object
/// schema changes bump that object's own version field instead.
constexpr uint32_t kArchiveFormatVersion = 1;

/// Packs a four-character section/type tag, e.g. FourCc("TREE").
constexpr uint32_t FourCc(const char (&s)[5]) {
  return static_cast<uint32_t>(static_cast<unsigned char>(s[0])) |
         static_cast<uint32_t>(static_cast<unsigned char>(s[1])) << 8 |
         static_cast<uint32_t>(static_cast<unsigned char>(s[2])) << 16 |
         static_cast<uint32_t>(static_cast<unsigned char>(s[3])) << 24;
}

/// Human-readable form of a fourcc tag for error messages, e.g. "TREE"
/// (non-printable bytes rendered as hex).
std::string FourCcName(uint32_t tag);

/// Little-endian fixed-width integers: the byte order of archives and of
/// the wire frame header. Inline, because every field of every archive
/// passes through them.
inline void AppendU32(std::string* out, uint32_t v) {
  out->push_back(static_cast<char>(v & 0xff));
  out->push_back(static_cast<char>((v >> 8) & 0xff));
  out->push_back(static_cast<char>((v >> 16) & 0xff));
  out->push_back(static_cast<char>((v >> 24) & 0xff));
}

inline void AppendU64(std::string* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

inline uint32_t LoadU32(const char* p) {
  uint32_t v = 0;
  for (int i = 3; i >= 0; --i) {
    v = (v << 8) | static_cast<unsigned char>(p[i]);
  }
  return v;
}

inline uint64_t LoadU64(const char* p) {
  uint64_t v = 0;
  for (int i = 7; i >= 0; --i) {
    v = (v << 8) | static_cast<unsigned char>(p[i]);
  }
  return v;
}

namespace internal {
/// Swaps a run of `count` values of `width` bytes between host and archive
/// byte order, in place. Archives are little-endian, so on little-endian
/// hosts (a platform property) a run is one memcpy and this is a no-op.
inline void SwapRunIfBigEndian(char* run, size_t count, size_t width) {
  if constexpr (__BYTE_ORDER__ != __ORDER_LITTLE_ENDIAN__) {
    for (size_t i = 0; i < count; ++i) {
      std::reverse(run + i * width, run + (i + 1) * width);
    }
  }
}
}  // namespace internal

/// CRC-32 (IEEE 802.3 polynomial) of `n` bytes — the archive's trailer
/// checksum, exposed for callers that checksum auxiliary payloads.
uint32_t Crc32(const void* data, size_t n);

/// Append-only archive builder. Write fields in order, bracket logical
/// objects with Begin/EndSection, then Bytes() to emit the framed,
/// checksummed archive. Writing cannot fail.
class ArchiveWriter {
 public:
  ArchiveWriter() = default;

  void WriteU8(uint8_t v) { payload_.push_back(static_cast<char>(v)); }
  void WriteBool(bool v) { WriteU8(v ? 1 : 0); }
  void WriteU32(uint32_t v) { AppendU32(&payload_, v); }
  void WriteI32(int32_t v) { WriteU32(static_cast<uint32_t>(v)); }
  void WriteU64(uint64_t v) { AppendU64(&payload_, v); }
  void WriteI64(int64_t v) { WriteU64(static_cast<uint64_t>(v)); }
  /// IEEE-754 bit pattern; round trips NaNs and signed zeros exactly.
  void WriteDouble(double v) {
    uint64_t bits;
    static_assert(sizeof(bits) == sizeof(v), "double must be 64-bit");
    std::memcpy(&bits, &v, sizeof(bits));
    WriteU64(bits);
  }
  void WriteString(const std::string& s);
  void WriteDoubleVector(const std::vector<double>& v);
  void WriteIntVector(const std::vector<int>& v);
  void WriteU8Vector(const std::vector<uint8_t>& v);
  /// `count` fixed-width values as one little-endian run, with no count
  /// before them.
  template <typename T>
  void WriteRun(const T* items, size_t count) {
    static_assert(std::is_arithmetic_v<T>, "a run holds numbers");
    const size_t at = payload_.size();
    payload_.append(reinterpret_cast<const char*>(items), count * sizeof(T));
    internal::SwapRunIfBigEndian(&payload_[at], count, sizeof(T));
  }

  /// Opens a `tag`-labelled section; its byte length is patched in by the
  /// matching EndSection. Sections nest.
  void BeginSection(uint32_t tag);
  void EndSection();

  /// The complete archive (header + payload + CRC). All sections must be
  /// closed. The writer remains usable (Bytes is a pure serialization).
  std::string Bytes() const;

  size_t payload_size() const { return payload_.size(); }

 private:
  std::string payload_;
  std::vector<size_t> open_sections_;  // offsets of length placeholders
};

/// Cursor over a validated archive. Construction verifies magic, container
/// version and CRC; every read checks bounds against the payload and the
/// innermost open section, so malformed input surfaces as Status. Fields
/// are decoded by FieldReader (LoadRecord) on top of Take.
class ArchiveReader {
 public:
  /// Parses and validates an archive from memory (takes ownership of the
  /// buffer; reads never copy it again).
  static StatusOr<ArchiveReader> FromBytes(std::string bytes);

  /// Consumes the next `n` bytes and points `*data` at them; fails unless
  /// they lie in scope.
  Status Take(size_t n, const char** data);

  /// Enters a section, failing if the tag is not `expected_tag` or the
  /// recorded length overruns the enclosing scope.
  Status EnterSection(uint32_t expected_tag);
  /// Reports the tag of the section that starts at the cursor without
  /// consuming anything — the polymorphic-load entry point (peek the tag,
  /// pick the type, read it).
  Status PeekSectionTag(uint32_t* tag);
  /// Leaves the innermost section, failing unless it was consumed exactly.
  Status LeaveSection();

  /// OK iff the payload was consumed exactly (no trailing garbage).
  Status ExpectEnd() const;

  /// Bytes left in the innermost open section (or the whole payload).
  size_t remaining() const { return Limit() - pos_; }

  /// Reads a u64 element count and fails unless `*out * elem_size` bytes
  /// are left — the one guard every container length passes.
  Status ReadCount(size_t elem_size, uint64_t* out);

 private:
  explicit ArchiveReader(std::string bytes, size_t payload_begin,
                         size_t payload_end)
      : bytes_(std::move(bytes)), pos_(payload_begin), end_(payload_end) {}

  size_t Limit() const {
    return section_ends_.empty() ? end_ : section_ends_.back();
  }

  std::string bytes_;
  size_t pos_ = 0;
  size_t end_ = 0;
  std::vector<size_t> section_ends_;
};

/// Whole-file IO for archive files and the text files benches write.
StatusOr<std::string> ReadFileToString(const std::string& path);
Status WriteStringToFile(const std::string& data, const std::string& path);

// ---------------------------------------------------------------------------
// Archived records. Every archived type is described once, beside its
// definition, and FieldWriter / FieldReader walk that one description in
// the two directions, so a Save and its Load cannot drift apart:
//
//  - `template <typename Io> void ArchiveFields(Io& io, ArchiveRef<Io, T> t)`
//    lists the fields in archive order, e.g. `io(t.risk, t.variance)`. It is
//    found by argument-dependent lookup (a hidden friend when the fields
//    are private). A field is a fixed-width integer, bool, double, string,
//    vector, another described type, or an enum stored through ArchiveAs.
//  - `static constexpr ArchiveSection kArchiveSection` (optional, public)
//    is the section that frames every T and the schema version written
//    first inside it. Section entry, version rejection and the
//    count-versus-remaining guards live here, once.
//  - `Status ArchiveLoaded(T& t)` (optional) runs once T's fields are read:
//    semantic validation, then derived state. Vector elements run theirs as
//    they are read, so a malformed first element stops a long read.
//  - A check that bounds what is read next belongs in the field list, not
//    in ArchiveLoaded: ArchiveGuarded caps a vector's count and checks each
//    element as it is read, and `io.Check(status)` between two `io(...)`
//    calls stops a read there.

/// A record's section tag (0: no section of its own) and schema version
/// (0: none written).
struct ArchiveSection {
  uint32_t tag = 0;
  uint32_t version = 0;
};

/// A field list takes its record as ArchiveRef<Io, T>: `const T&` when
/// writing, `T&` when reading.
template <typename Io, typename T>
using ArchiveRef = typename Io::template Ref<T>;

/// The post-read step of records that declare none.
template <typename T>
Status ArchiveLoaded(T&) { return Status::OK(); }

/// True when none of `count` values is NaN or infinite: what an
/// ArchiveLoaded hook asks of the doubles a served prediction is computed
/// from.
inline bool AllFinite(const double* values, size_t count) {
  return std::all_of(values, values + count,
                     [](double v) { return std::isfinite(v); });
}
inline bool AllFinite(const std::vector<double>& values) {
  return AllFinite(values.data(), values.size());
}

/// Field adapter for a rectangular table of doubles stored as rows (i32),
/// columns (i32), then rows x columns values with no per-row counts.
template <typename Rows>
struct FlatRows {
  Rows& rows;
};
template <typename Rows>
FlatRows<Rows> AsFlatRows(Rows& rows) { return {rows}; }

/// Field adapter: `value`, an enum whose valid values run from `first` to
/// `last`, stored as the integer type `Wire`; a read refuses the rest.
template <typename Wire, typename E>
struct StoredAs {
  E& value;
  E first, last;
};
template <typename Wire, typename E>
StoredAs<Wire, E> ArchiveAs(E& value, std::remove_const_t<E> first,
                            std::remove_const_t<E> last) {
  return {value, first, last};
}

/// Field adapter for a vector read under guards that run before the
/// elements they protect: a count above `max_count` is refused before any
/// element parses, and `check(element)` runs on each element as soon as it
/// is read, so an element that parses but is invalid stops the read there.
/// Writing ignores both.
template <typename Vec, typename Check>
struct Guarded {
  Vec& items;
  uint64_t max_count;
  Check check;
};

/// The element check of a Guarded vector that only caps its count.
struct AnyElement {
  template <typename T>
  Status operator()(const T&) const { return Status::OK(); }
};

/// The `max_count` of a Guarded vector that only checks its elements.
constexpr uint64_t kAnyCount = ~uint64_t{0};

template <typename Vec, typename Check = AnyElement>
Guarded<Vec, Check> ArchiveGuarded(Vec& items, uint64_t max_count,
                                   Check check = {}) {
  return {items, max_count, std::move(check)};
}

namespace internal {
template <typename T, typename = void>
struct SectionOf {
  static constexpr ArchiveSection value{};
};
template <typename T>
struct SectionOf<T, std::void_t<decltype(T::kArchiveSection)>> {
  static constexpr ArchiveSection value = T::kArchiveSection;
};
}  // namespace internal

/// Writes fields, in order, into an archive.
class FieldWriter {
 public:
  template <typename T>
  using Ref = const T&;

  explicit FieldWriter(ArchiveWriter* out) : out_(out) {}

  template <typename... Ts>
  void operator()(const Ts&... fields) { (Write(fields), ...); }

  /// Frames what `fields` writes with `section`.
  template <typename Fn>
  void Record(ArchiveSection section, Fn&& fields) {
    if (section.tag != 0) out_->BeginSection(section.tag);
    if (section.version != 0) out_->WriteU32(section.version);
    fields();
    if (section.tag != 0) out_->EndSection();
  }

  /// A record that contradicts its own description is a bug: abort.
  void Check(const Status& status) {
    CheckOrDie(status.ok(), status.message().c_str());
  }

  ArchiveWriter* archive() const { return out_; }

 private:
  void Write(bool v) { out_->WriteBool(v); }
  void Write(uint8_t v) { out_->WriteU8(v); }
  void Write(int32_t v) { out_->WriteI32(v); }
  void Write(uint32_t v) { out_->WriteU32(v); }
  void Write(int64_t v) { out_->WriteI64(v); }
  void Write(uint64_t v) { out_->WriteU64(v); }
  void Write(double v) { out_->WriteDouble(v); }
  void Write(const std::string& v) { out_->WriteString(v); }
  void Write(const std::vector<uint8_t>& v) { out_->WriteU8Vector(v); }
  void Write(const std::vector<int>& v) { out_->WriteIntVector(v); }
  void Write(const std::vector<double>& v) { out_->WriteDoubleVector(v); }
  void Write(const FlatRows<const std::vector<std::vector<double>>>& table);
  template <typename Wire, typename E>
  void Write(const StoredAs<Wire, E>& v) {
    Write(static_cast<Wire>(v.value));
  }
  template <typename Vec, typename CheckFn>
  void Write(const Guarded<Vec, CheckFn>& v) { Write(v.items); }
  template <typename T>
  void Write(const std::vector<T>& items) {
    out_->WriteU64(items.size());
    for (const T& item : items) Write(item);
  }
  template <typename T>
  void Write(const T& v) {
    Record(internal::SectionOf<T>::value, [&] { ArchiveFields(*this, v); });
  }

  ArchiveWriter* out_;
};

/// Reads fields, in order, out of an archive: the mirror of FieldWriter.
/// The first failure sticks; later reads are skipped and status() reports
/// it.
class FieldReader {
 public:
  template <typename T>
  using Ref = T&;

  explicit FieldReader(ArchiveReader* in) : in_(in) {}

  template <typename... Ts>
  void operator()(Ts&&... fields) { ((ok() ? Read(fields) : void()), ...); }

  /// Enters `section`, rejects any other schema version, runs `fields`
  /// and requires the section to be consumed exactly.
  template <typename Fn>
  void Record(ArchiveSection section, Fn&& fields) {
    if (section.tag != 0) Check(in_->EnterSection(section.tag));
    if (section.version != 0 && ok()) CheckVersion(section);
    if (ok()) fields();
    if (section.tag != 0 && ok()) Check(in_->LeaveSection());
  }

  /// Records `status` unless an earlier failure stands (OK is a no-op).
  void Check(const Status& status) {
    if (status_.ok() && !status.ok()) status_ = status;
  }
  bool ok() const { return status_.ok(); }
  const Status& status() const { return status_; }
  ArchiveReader* archive() const { return in_; }

 private:
  /// The next `n` bytes, consumed, or nullptr once a read has failed.
  const char* Take(size_t n) {
    const char* data = nullptr;
    if (ok()) Check(in_->Take(n, &data));
    return ok() ? data : nullptr;
  }
  void Read(bool& v);
  void Read(uint8_t& v) {
    if (const char* p = Take(1)) v = static_cast<uint8_t>(*p);
  }
  void Read(int32_t& v) {
    if (const char* p = Take(4)) v = static_cast<int32_t>(LoadU32(p));
  }
  void Read(uint32_t& v) { if (const char* p = Take(4)) v = LoadU32(p); }
  void Read(int64_t& v) {
    if (const char* p = Take(8)) v = static_cast<int64_t>(LoadU64(p));
  }
  void Read(uint64_t& v) { if (const char* p = Take(8)) v = LoadU64(p); }
  void Read(double& v) {
    uint64_t bits = 0;
    Read(bits);
    if (ok()) std::memcpy(&v, &bits, sizeof(v));
  }
  void Read(std::string& v) { ReadBytes(v); }
  void Read(std::vector<uint8_t>& v) { ReadBytes(v); }
  void Read(std::vector<int>& v) { ReadFixed(v); }
  void Read(std::vector<double>& v) { ReadFixed(v); }
  /// A count, then that many raw bytes.
  template <typename Bytes>
  void ReadBytes(Bytes& v) {
    uint64_t n = 0;
    Check(in_->ReadCount(1, &n));
    if (const char* p = Take(n)) v.assign(p, p + n);
  }
  /// Fixed-width values are as large in memory as in the archive, so the
  /// bytes prove the count and size the vector once.
  template <typename T>
  void ReadFixed(std::vector<T>& items) {
    uint64_t count = 0;
    Check(in_->ReadCount(sizeof(T), &count));
    if (!ok()) return;
    items.resize(count);
    ReadRun(items.data(), items.size());
  }
  /// Fills `items[0, count)` from one little-endian run. A run sits at any
  /// byte offset, so it is copied out, never read through a typed pointer.
  template <typename T>
  void ReadRun(T* items, size_t count) {
    const char* run = Take(count * sizeof(T));
    if (run == nullptr || count == 0) return;
    char* bytes = reinterpret_cast<char*>(items);
    std::memcpy(bytes, run, count * sizeof(T));
    internal::SwapRunIfBigEndian(bytes, count, sizeof(T));
  }
  void Read(FlatRows<std::vector<std::vector<double>>>& table);
  template <typename Wire, typename E>
  void Read(StoredAs<Wire, E>& v) {
    Wire raw = 0;
    Read(raw);
    if (ok() && (raw < static_cast<Wire>(v.first) ||
                 raw > static_cast<Wire>(v.last))) {
      Check(Status::InvalidArgument("archive: enumerator " +
                                    std::to_string(raw) + " out of range"));
    }
    if (ok()) v.value = static_cast<E>(raw);
  }
  void CheckVersion(ArchiveSection section);
  template <typename T>
  void Read(std::vector<T>& items) {
    Guarded<std::vector<T>, AnyElement> all{items, kAnyCount, {}};
    Read(all);
  }
  template <typename T, typename CheckFn>
  void Read(Guarded<std::vector<T>, CheckFn>& v) {
    uint64_t count = 0;
    Check(in_->ReadCount(1, &count));
    if (ok() && count > v.max_count) {
      Check(Status::InvalidArgument("archive: " + std::to_string(count) +
                                    " elements where at most " +
                                    std::to_string(v.max_count) + " fit"));
    }
    // Every element takes at least one byte, which refuses absurd counts
    // outright. The count is still unproven until its elements parse, and
    // an element can be far larger in memory than in the archive, so
    // nothing is reserved from it: elements are appended as they parse.
    v.items.clear();
    for (uint64_t i = 0; i < count && ok(); ++i) {
      T item;
      Read(item);
      if (ok()) Check(v.check(static_cast<const T&>(item)));
      if (ok()) v.items.push_back(std::move(item));
    }
  }
  template <typename T>
  void Read(T& v) {
    Record(internal::SectionOf<T>::value, [&] { ArchiveFields(*this, v); });
    if (ok()) Check(ArchiveLoaded(v));
  }

  ArchiveReader* in_;
  Status status_;
};

/// Writes `value` as its description says (its section included).
template <typename T>
void SaveRecord(const T& value, ArchiveWriter* ar) {
  FieldWriter io(ar);
  io(value);
}

/// Reads a `T` written by SaveRecord into `*value`; InvalidArgument on any
/// malformation or failed validation.
template <typename T>
Status LoadRecord(ArchiveReader* ar, T* value) {
  FieldReader io(ar);
  io(*value);
  return io.status();
}

/// One complete archive holding `value`, framed by a `frame_tag` section
/// when it is non-zero (the wire payloads' message tags).
template <typename T>
std::string ToArchiveBytes(const T& value, uint32_t frame_tag = 0) {
  ArchiveWriter archive;
  FieldWriter io(&archive);
  io.Record({frame_tag, 0}, [&] { io(value); });
  return archive.Bytes();
}

/// The inverse of ToArchiveBytes. Validates the whole archive — CRC,
/// frame, every field, no trailing bytes — and returns InvalidArgument on
/// any malformation.
template <typename T>
Status FromArchiveBytes(std::string bytes, T* value, uint32_t frame_tag = 0) {
  PAWS_ASSIGN_OR_RETURN(ArchiveReader archive,
                        ArchiveReader::FromBytes(std::move(bytes)));
  FieldReader io(&archive);
  io.Record({frame_tag, 0}, [&] { io(*value); });
  PAWS_RETURN_IF_ERROR(io.status());
  return archive.ExpectEnd();
}

template <typename T>
Status WriteArchiveFile(const T& value, const std::string& path) {
  return WriteStringToFile(ToArchiveBytes(value), path);
}

template <typename T>
Status ReadArchiveFile(const std::string& path, T* value) {
  PAWS_ASSIGN_OR_RETURN(std::string bytes, ReadFileToString(path));
  return FromArchiveBytes(std::move(bytes), value);
}

}  // namespace paws

#endif  // PAWS_UTIL_ARCHIVE_H_
