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
//   - Each layer states its layout once, as one field list templated on the
//     direction: `template <class Self, class Io> static void
//     Fields(Self& self, Io& io)`, with Self const when saving.  SaveTo runs
//     it on a SnapshotWriter, RestoreFrom on a SnapshotReader; the two share
//     every field call (`io.u32(x)`, `io.f64(x)`, `io.layer(nested)`, ...),
//     the writer reading each field and the reader assigning it.
//     Restore-only work (checks, re-arms, index rebuilds) runs after the
//     list, or inside it under `if constexpr (Io::kLoading)`.  A check that
//     compares a read value with what the restore target already holds may
//     run in both directions: on save it holds trivially.
//   - Only *dynamic* state is serialized.  Static substrate (link
//     capacities, dataset plans, executor topology) is rebuilt from the
//     ExperimentConfig on restore; the config hash in the header pins the
//     two together.  Of the dynamic state, only what the simulation reads:
//     wall-clock diagnostics are observation, and state derivable from
//     other saved state is rebuilt by the restore, not read and checked.
//     So two identical runs save identical bytes.
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
// version loudly.  snapshot_equivalence_test's SectionDigestsArePinned pins
// an FNV-1a digest of every section's payload of saved runs under each
// manager, so a layout change fails it until the digests are re-recorded
// alongside the version bump.
#pragma once

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/types.h"

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
// v7: only primary simulation state.  No wall-clock values (NET's solve
//     wall, MGR's round walls, METR's round-wall samples), no copies (METR's
//     round records and counters, its network stats), no derived state
//     (CACH's merged location map; NET's slot-table size, list links, head,
//     tail and live count: the flow table is the free list, then the live
//     flows in start order); APPS drops its submitted-jobs counter.
// v8: NET drops its completion-rescan counter (the network no longer
//     rescans its flows to re-arm the completion event).
inline constexpr std::uint32_t kFormatVersion = 8;

/// Append-only binary encoder.  Sections group one layer's fields behind a
/// 4-char tag and a byte length so the reader can hard-verify framing.
/// Each field call names the wire encoding and takes the field's value.
class SnapshotWriter {
 public:
  static constexpr bool kLoading = false;

  void u8(std::uint8_t v);
  void u32(std::uint32_t v);
  template <typename Tag>
  void u32(Id<Tag> id) {
    u32(id.value());
  }
  void u64(std::uint64_t v);
  void i64(std::int64_t v);
  void f64(double v);
  void b(bool v) { u8(v ? 1 : 0); }
  /// Sizes and counts: encoded as u64.
  void size(std::size_t v) { u64(static_cast<std::uint64_t>(v)); }
  void str(const std::string& v);
  /// A nested layer: its SaveTo.  `context` is what its RestoreFrom needs
  /// beyond the reader; saving ignores it.
  template <typename Layer, typename... Context>
  void layer(const Layer& nested, Context&&... /*context*/) {
    nested.SaveTo(*this);
  }

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
/// extent.  Each read comes in two forms: one returns the decoded value,
/// the other takes a field, as SnapshotWriter's calls do, and assigns it
/// the value converted to the field's type.
class SnapshotReader {
 public:
  static constexpr bool kLoading = true;

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

  template <typename T>
  void u8(T& field) {
    field = static_cast<T>(u8());
  }
  template <typename T>
  void u32(T& field) {
    field = static_cast<T>(u32());
  }
  template <typename T>
  void u64(T& field) {
    field = static_cast<T>(u64());
  }
  template <typename T>
  void i64(T& field) {
    field = static_cast<T>(i64());
  }
  void f64(double& field) { field = f64(); }
  void b(bool& field) { field = b(); }
  void b(std::vector<bool>::reference field) { field = b(); }
  void size(std::size_t& field) { field = size(); }
  void str(std::string& field) { field = str(); }
  /// A nested layer: its RestoreFrom, given `context` after the reader.
  template <typename Layer, typename... Context>
  void layer(Layer& nested, Context&&... context) {
    nested.RestoreFrom(*this, std::forward<Context>(context)...);
  }

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

/// A section around `fields()`: a SnapshotWriter opens and closes it, a
/// SnapshotReader enters it and checks it was consumed exactly.
template <typename Io, typename Fields>
void Section(Io& io, const char* tag, Fields&& fields) {
  io.begin_section(tag);
  fields();
  io.end_section();
}

/// A vector field: its length as a size, then `each(element)` per element.
/// The reader resizes the vector to the length read first.
template <typename Io, typename Vec, typename Each>
void Seq(Io& io, Vec& v, Each&& each) {
  std::size_t n = v.size();
  io.size(n);
  if constexpr (Io::kLoading) v.assign(n, typename Vec::value_type{});
  for (auto& element : v) each(element);
}

/// A hash map keyed by an Id type, in ascending key order so the bytes do
/// not depend on the hash layout: its size, then per entry the key as a u32
/// and `entry(key, value)`.  The reader clears the map first, files each
/// entry under its key and rejects a repeated key with
/// SnapshotError(`what` + " " + the key).
template <typename Io, typename Map, typename Entry>
void SortedMap(Io& io, Map& map, const char* what, Entry&& entry) {
  using Key = typename std::remove_const_t<Map>::key_type;
  if constexpr (Io::kLoading) {
    map.clear();
    const std::size_t n = io.size();
    for (std::size_t i = 0; i < n; ++i) {
      Key key;
      io.u32(key);
      const auto [it, fresh] = map.try_emplace(key);
      if (!fresh) {
        throw SnapshotError(what + (" " + std::to_string(key.value())));
      }
      entry(key, it->second);
    }
  } else {
    std::vector<Key> keys;
    keys.reserve(map.size());
    for (const auto& kv : map) keys.push_back(kv.first);
    std::sort(keys.begin(), keys.end());
    io.size(keys.size());
    for (const Key key : keys) {
      io.u32(key);
      entry(key, map.find(key)->second);
    }
  }
}

/// An enum field stored as a u8; the reader rejects a value above `last`
/// with SnapshotError(`what` + the value).
template <typename Io, typename Enum>
void EnumU8(Io& io, Enum& field, std::remove_const_t<Enum> last,
            const char* what) {
  auto raw = static_cast<std::uint8_t>(field);
  io.u8(raw);
  if (raw > static_cast<std::uint8_t>(last)) {
    throw SnapshotError(what + std::to_string(raw));
  }
  if constexpr (Io::kLoading) field = static_cast<Enum>(raw);
}

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
