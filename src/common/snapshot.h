// Versioned, bounds-checked binary snapshot encoding — the substrate of
// deterministic checkpoint/resume and what-if forking.
//
// A snapshot is a flat byte buffer:
//
//   header   magic "CSNP" | format version | config hash | sim time
//   payload  tagged sections, one per layer, each length-prefixed so the
//            reader can verify that a layer consumed exactly what the
//            writer produced (truncation and framing bugs fail loudly at
//            the section boundary, not as garbage reads three layers on)
//   footer   FNV-1a checksum over header + payload
//
// Design rules:
//   - Only *dynamic* state is serialized.  Static substrate (link
//     capacities, dataset plans, executor topology) is rebuilt from the
//     ExperimentConfig on restore; the config hash in the header pins the
//     two together.
//   - No closures.  Pending events are stored as typed descriptors
//     (kind, time, original sequence number) and re-armed through
//     layer-specific callbacks on restore.
//   - Every read is bounds-checked and every failure is a typed
//     SnapshotError — a corrupt, truncated, or wrong-version file must
//     never become UB or a silent half-restore.
//
// Schema versioning policy: kFormatVersion bumps on ANY layout change;
// there is no in-place migration (a snapshot is a short-lived artifact of
// one build, not an archival format), so the reader rejects every other
// version loudly.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

namespace custody::snap {

/// Every snapshot encode/decode failure: bad magic, version mismatch,
/// checksum mismatch, truncation, section framing errors, out-of-range
/// values.  Deliberately a distinct type so callers can tell "snapshot
/// file is bad" from every other failure.
class SnapshotError : public std::runtime_error {
 public:
  explicit SnapshotError(const std::string& what)
      : std::runtime_error("snapshot: " + what) {}
};

inline constexpr std::uint32_t kMagic = 0x50'4E'53'43;  // "CSNP" little-endian
// v3: SubmissionStream serializes its what-if arrival-rate scale.
// v4: an application task serializes its primary attempt and its
//     speculative clone as two records of one attempt layout (executor,
//     locality, compute start, timer descriptor, read flow).
// v5: every run's SUBS section is the submission stream (per app: rng,
//     clock, remaining, pending kind and file; emitted count, rate scale)
//     plus the armed pump's seq; the posted-schedule mode, the mode byte
//     and the fields the stream derives (pending time and app, live and
//     total counts, pump armed flag and time) are gone.
// v6: an application's APPS section carries its seven work counters
//     (kicks, kick probes, launches, release checks, verdicts, blocks
//     walked, free ids copied) after the launch breakdown.
inline constexpr std::uint32_t kFormatVersion = 6;

/// Append-only binary encoder.  Sections group one layer's fields behind a
/// 4-char tag and a byte length so the reader can hard-verify framing.
class SnapshotWriter {
 public:
  void u8(std::uint8_t v);
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void i64(std::int64_t v);
  void f64(double v);
  void b(bool v) { u8(v ? 1 : 0); }
  /// Sizes and counts: encoded as u64.
  void size(std::size_t v) { u64(static_cast<std::uint64_t>(v)); }
  void str(const std::string& v);

  /// Open a section tagged `tag` (exactly 4 chars).  Sections must not
  /// nest.
  void begin_section(const char* tag);
  void end_section();

  /// Seal the snapshot: prepend the header, append the checksum, and
  /// return the full file bytes.  The writer is spent afterwards.
  [[nodiscard]] std::vector<std::uint8_t> finish(std::uint64_t config_hash,
                                                 double sim_time);

 private:
  std::vector<std::uint8_t> bytes_;
  std::size_t section_start_ = 0;  ///< offset of the open section's length
  bool in_section_ = false;
};

/// Bounds-checked decoder over a complete snapshot buffer.  The
/// constructor validates magic, version and checksum; every subsequent
/// read validates both the buffer bounds and the current section's
/// extent.
class SnapshotReader {
 public:
  explicit SnapshotReader(std::vector<std::uint8_t> bytes);

  [[nodiscard]] std::uint32_t format_version() const { return version_; }
  [[nodiscard]] std::uint64_t config_hash() const { return config_hash_; }
  [[nodiscard]] double sim_time() const { return sim_time_; }

  std::uint8_t u8();
  std::uint32_t u32();
  std::uint64_t u64();
  std::int64_t i64();
  double f64();
  bool b() { return u8() != 0; }
  std::size_t size();
  std::string str();

  /// Enter the next section, which must be tagged `tag`; throws when the
  /// framing disagrees.
  void begin_section(const char* tag);
  /// Leave the current section; throws unless exactly its length was
  /// consumed.
  void end_section();

  /// True once every payload byte has been consumed.
  [[nodiscard]] bool exhausted() const { return cursor_ == payload_end_; }

 private:
  const std::uint8_t* need(std::size_t n);

  std::vector<std::uint8_t> bytes_;
  std::size_t cursor_ = 0;
  std::size_t payload_end_ = 0;
  std::size_t section_end_ = 0;
  bool in_section_ = false;
  std::uint32_t version_ = 0;
  std::uint64_t config_hash_ = 0;
  double sim_time_ = 0.0;
};

/// FNV-1a 64-bit over a byte range — the snapshot footer checksum, also
/// reused for config hashing.
[[nodiscard]] std::uint64_t Fnv1a(const std::uint8_t* data, std::size_t n,
                                  std::uint64_t seed = 0xcbf29ce484222325ULL);

/// Write `bytes` to `path` atomically enough for our purposes (tmp file +
/// rename).  Throws SnapshotError on I/O failure.
void WriteFile(const std::string& path, const std::vector<std::uint8_t>& bytes);

/// Read the whole file; throws SnapshotError when it cannot be opened.
[[nodiscard]] std::vector<std::uint8_t> ReadFile(const std::string& path);

}  // namespace custody::snap
