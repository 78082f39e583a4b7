// Compact, versioned binary trace format (.strc) — DESIGN.md §10, §11,
// §16.
//
// Layout:
//   8-byte magic "SHARCTRC"
//   u32 little-endian version (currently 4; version-1/2/3 traces are
//   still parsed — version 2 added the profile record tags, version 3
//   the abnormal-end record, version 4 the span records and the
//   skippable extension range below)
//   a sequence of records, each introduced by a tag byte:
//     0x01..0x0e  event record: tag = EventKind + 1, then varint Tid,
//                 varint Addr, zigzag-varint Value, varint Extra
//     0x40        stats record: the 17 StatsSnapshot counters as varints,
//                 in rt::StatTable order
//     0x41        site-profile record: varint Tid, Kind, Line, string
//                 File, string LValue, varints Count/Bytes/Cycles/Samples
//     0x42        lock-profile record: varint Tid, Lock, Line, string
//                 File, varints Acquires/Contended/WaitCycles/HoldCycles,
//                 16 wait-histogram varints, 16 hold-histogram varints
//     0x43        self-overhead record: varint Tid, Ops, Cycles,
//                 Samples, DrainCycles, TableBytes
//     0x44        abnormal-end record (v3): varint Signal (0 = policy or
//                 internal death, not a signal), varint violation policy
//                 (guard::Policy), varint total Conflict events, then
//                 NumConflictKinds varints of per-kind Conflict counts.
//                 Written by crash hooks so a dying process leaves a
//                 parseable trace that says *how* it died.
//     0x45/0x46   span begin/end record (v4): varint Tid, Req, Stage,
//                 TimeNs, Arg (DESIGN.md §16 — request-scoped pipeline
//                 spans)
//     0x60..0x7e  reserved extension records (v4): varint payload
//                 length, then that many payload bytes. Readers that do
//                 not understand the tag skip the payload and count the
//                 record, so future record families degrade to a
//                 summarize warning instead of a hard parse error.
//     0xff        end record: varint total record count (every record
//                 above, of any tag)
//   Strings are a varint length followed by raw bytes.
//   The end record is mandatory; a trace without it is reported as
//   truncated, which is how mid-write crashes and chopped files are
//   detected. A crashed run that got through its crash hooks ends with
//   abnormal-end + end records instead and parses cleanly.
//
// All varints are LEB128; signed values use zigzag. The writer buffers
// in memory (traces from bounded interpreter runs are small) and is NOT
// thread-safe on its own — multi-threaded producers go through
// obs::Collector, which serialises the downstream sink.
#ifndef SHARC_OBS_TRACEFILE_H
#define SHARC_OBS_TRACEFILE_H

#include "obs/Sink.h"

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace sharc::obs {

inline constexpr char TraceMagic[8] = {'S', 'H', 'A', 'R', 'C', 'T', 'R', 'C'};
inline constexpr uint32_t TraceVersion = 4;
inline constexpr uint32_t MinTraceVersion = 1;
inline constexpr uint8_t StatsRecordTag = 0x40;
inline constexpr uint8_t SiteProfileTag = 0x41;
inline constexpr uint8_t LockProfileTag = 0x42;
inline constexpr uint8_t SelfOverheadTag = 0x43;
inline constexpr uint8_t AbnormalEndTag = 0x44;
inline constexpr uint8_t SpanBeginTag = 0x45;
inline constexpr uint8_t SpanEndTag = 0x46;
// Length-prefixed records in this range are skipped (with a tally), not
// rejected — the forward-compatibility escape hatch for record families
// newer than this reader.
inline constexpr uint8_t ExtensionTagFirst = 0x60;
inline constexpr uint8_t ExtensionTagLast = 0x7e;
inline constexpr uint8_t EndRecordTag = 0xff;

// Appends a LEB128 varint / zigzag varint to Out.
void appendVarint(std::string &Out, uint64_t V);
void appendZigzag(std::string &Out, int64_t V);

// Reads a varint from Buf at Pos; returns false on truncation or a
// varint longer than 10 bytes.
bool readVarint(std::string_view Buf, size_t &Pos, uint64_t &Out);
bool readZigzag(std::string_view Buf, size_t &Pos, int64_t &Out);

// Length-prefixed string coding. readString rejects truncation and
// lengths over 1 MiB (no .strc string is remotely that long; the cap
// bounds allocations on corrupt input).
void appendString(std::string &Out, std::string_view S);
bool readString(std::string_view Buf, size_t &Pos, std::string &Out);

/// Serialising sink. Events and stats samples are encoded as they
/// arrive; call finish() (idempotent) to append the end record before
/// inspecting buffer() or saving.
class TraceWriter final : public Sink {
public:
  TraceWriter();

  void event(const Event &Ev) override;
  void stats(const rt::StatsSnapshot &S) override;
  void siteProfile(const SiteProfileRecord &R) override;
  void lockProfile(const LockProfileRecord &R) override;
  void selfOverhead(const SelfOverheadRecord &R) override;
  void span(const SpanRecord &S) override;

  /// Appends the end record. Further events are rejected (dropped)
  /// after this; calling it again is a no-op.
  void finish();

  /// Appends an abnormal-end record — \p Signal is the fatal signal (0
  /// for policy/internal deaths), \p Policy the active guard::Policy —
  /// followed by the ordinary end record. The violation summary inside
  /// it is tallied internally from the Conflict events this writer saw,
  /// so crash hooks need no external state. No-op once finished; safe
  /// to call from a signal context (appends to the in-memory buffer).
  void finishAbnormal(uint32_t Signal, uint8_t Policy);

  /// finish() + the encoded bytes.
  const std::string &buffer();

  /// finish() + write the encoded bytes to Path. Returns false and sets
  /// Error on I/O failure. With a torn-write fault armed
  /// (setFaultTruncate), writes only the fault's byte prefix and fails.
  bool writeToFile(const std::string &Path, std::string &Error);

  /// Arms the torn-write fault (SHARC_FAULT=torn-write:K, wired by the
  /// driver): the next writeToFile truncates the image to \p Bytes.
  void setFaultTruncate(uint64_t Bytes) {
    FaultTruncate = Bytes;
    HasFaultTruncate = true;
  }

  uint64_t recordCount() const { return Records; }

private:
  std::string Buf;
  uint64_t Records = 0;
  bool Finished = false;
  uint64_t TotalConflicts = 0;
  uint64_t ConflictCounts[NumConflictKinds] = {};
  uint64_t FaultTruncate = 0;
  bool HasFaultTruncate = false;
};

/// A fully decoded trace. SamplePos[i] is the number of events that
/// preceded Samples[i] in the record stream, so samples can be placed
/// on the event timeline (SpanPos does the same for Spans).
struct TraceData {
  /// Header version of the parsed image (set by parseTrace and the
  /// TailParser; parseOneRecord itself is version-agnostic).
  uint32_t Version = 0;
  std::vector<Event> Events;
  std::vector<rt::StatsSnapshot> Samples;
  std::vector<size_t> SamplePos;
  std::vector<SiteProfileRecord> Sites;
  std::vector<LockProfileRecord> Locks;
  std::vector<SelfOverheadRecord> Overheads;
  std::vector<SpanRecord> Spans;
  std::vector<size_t> SpanPos;
  /// Extension records (tags 0x60..0x7e) this reader skipped, and the
  /// distinct tags seen — summarize turns these into warnings.
  uint64_t SkippedUnknown = 0;
  std::vector<uint8_t> SkippedTags;
  /// Abnormal-end record (v3), present when the producing process died
  /// mid-run but its crash hooks flushed the trace.
  bool AbnormalEnd = false;
  uint32_t AbnormalSignal = 0; ///< 0 = policy/internal death.
  uint8_t AbnormalPolicy = 0;  ///< guard::Policy at death.
  uint64_t AbnormalTotalViolations = 0;
  uint64_t AbnormalConflictCounts[NumConflictKinds] = {};
};

/// Outcome of decoding one header or record from a (possibly still
/// growing) byte stream. parseTrace and the incremental TailParser are
/// both built on parseTraceHeader/parseOneRecord, so batch and tail
/// parsing agree on every byte prefix by construction — the property
/// fuzz oracle 7 (tail-vs-batch) checks.
enum class RecordParse : uint8_t {
  Ok,       ///< One record decoded; Out updated, Records incremented.
  End,      ///< The end record was decoded and its count matched.
  NeedMore, ///< Buf ends mid-record. Pos is left at the record's tag
            ///< byte so the caller can retry with more bytes; Error
            ///< holds the truncation message a batch parse reports for
            ///< this cut.
  Corrupt,  ///< Unrecoverable structural damage; Error set. More bytes
            ///< cannot fix it.
};

/// Parses the magic + version header at Pos. Ok advances Pos past the
/// header and sets Version. NeedMore means fewer than 12 bytes were
/// available (Pos unchanged); Corrupt means bad magic or an unsupported
/// version.
RecordParse parseTraceHeader(std::string_view Buf, size_t &Pos,
                             uint32_t &Version, std::string &Error);

/// Decodes the single record whose tag byte is at Pos. Ok appends the
/// decoded record to Out and increments Records. End consumes the end
/// record and verifies its declared count against Records. NeedMore
/// (including Pos == Buf.size(), the "missing end record" cut) leaves
/// Pos at the tag byte and Out untouched. Corrupt reports unknown tags,
/// unknown check kinds, and end-record count mismatches.
RecordParse parseOneRecord(std::string_view Buf, size_t &Pos, TraceData &Out,
                           uint64_t &Records, std::string &Error);

/// Decodes a complete trace image. Returns false and sets Error on bad
/// magic, unsupported version, unknown tags, truncation (including a
/// missing end record), or a record-count mismatch.
bool parseTrace(std::string_view Buf, TraceData &Out, std::string &Error);

/// Appends the whole of file \p Path to \p Out; false when it cannot be
/// opened or read.
bool readFile(const std::string &Path, std::string &Out);

/// Reads Path and parses it.
bool loadTraceFile(const std::string &Path, TraceData &Out,
                   std::string &Error);

} // namespace sharc::obs

#endif // SHARC_OBS_TRACEFILE_H
