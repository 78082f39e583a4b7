#include "obs/TraceFile.h"

#include <cstdio>
#include <cstring>

namespace sharc::obs {

void appendVarint(std::string &Out, uint64_t V) {
  while (V >= 0x80) {
    Out.push_back(static_cast<char>((V & 0x7f) | 0x80));
    V >>= 7;
  }
  Out.push_back(static_cast<char>(V));
}

void appendZigzag(std::string &Out, int64_t V) {
  appendVarint(Out, (static_cast<uint64_t>(V) << 1) ^
                        static_cast<uint64_t>(V >> 63));
}

bool readVarint(std::string_view Buf, size_t &Pos, uint64_t &Out) {
  uint64_t V = 0;
  for (unsigned Shift = 0; Shift < 70; Shift += 7) {
    if (Pos >= Buf.size())
      return false;
    uint8_t B = static_cast<uint8_t>(Buf[Pos++]);
    V |= static_cast<uint64_t>(B & 0x7f) << Shift;
    if (!(B & 0x80)) {
      Out = V;
      return true;
    }
  }
  return false; // over-long varint
}

bool readZigzag(std::string_view Buf, size_t &Pos, int64_t &Out) {
  uint64_t Raw;
  if (!readVarint(Buf, Pos, Raw))
    return false;
  Out = static_cast<int64_t>((Raw >> 1) ^ (~(Raw & 1) + 1));
  return true;
}

void appendString(std::string &Out, std::string_view S) {
  appendVarint(Out, S.size());
  Out.append(S.data(), S.size());
}

bool readString(std::string_view Buf, size_t &Pos, std::string &Out) {
  uint64_t Len;
  if (!readVarint(Buf, Pos, Len))
    return false;
  if (Len > (1u << 20) || Pos + Len > Buf.size())
    return false;
  Out.assign(Buf.data() + Pos, Len);
  Pos += Len;
  return true;
}

TraceWriter::TraceWriter() {
  Buf.append(TraceMagic, sizeof(TraceMagic));
  for (unsigned I = 0; I < 4; ++I)
    Buf.push_back(static_cast<char>((TraceVersion >> (8 * I)) & 0xff));
}

void TraceWriter::event(const Event &Ev) {
  if (Finished)
    return;
  Buf.push_back(static_cast<char>(static_cast<uint8_t>(Ev.K) + 1));
  appendVarint(Buf, Ev.Tid);
  appendVarint(Buf, Ev.Addr);
  appendZigzag(Buf, Ev.Value);
  appendVarint(Buf, Ev.Extra);
  ++Records;
  // Keep a running violation summary so finishAbnormal() can write a
  // self-contained abnormal-end record from a crash hook.
  if (Ev.K == EventKind::Conflict) {
    ++TotalConflicts;
    unsigned Kind = static_cast<unsigned>(conflictKindOf(Ev.Extra));
    if (Kind < NumConflictKinds)
      ++ConflictCounts[Kind];
  }
}

void TraceWriter::stats(const rt::StatsSnapshot &S) {
  if (Finished)
    return;
  Buf.push_back(static_cast<char>(StatsRecordTag));
  for (const rt::StatRow &R : rt::StatTable)
    appendVarint(Buf, S.*R.Field);
  ++Records;
}

void TraceWriter::siteProfile(const SiteProfileRecord &R) {
  if (Finished)
    return;
  Buf.push_back(static_cast<char>(SiteProfileTag));
  appendVarint(Buf, R.Tid);
  appendVarint(Buf, static_cast<uint8_t>(R.Kind));
  appendVarint(Buf, R.Line);
  appendString(Buf, R.File);
  appendString(Buf, R.LValue);
  appendVarint(Buf, R.Count);
  appendVarint(Buf, R.Bytes);
  appendVarint(Buf, R.Cycles);
  appendVarint(Buf, R.Samples);
  ++Records;
}

void TraceWriter::lockProfile(const LockProfileRecord &R) {
  if (Finished)
    return;
  Buf.push_back(static_cast<char>(LockProfileTag));
  appendVarint(Buf, R.Tid);
  appendVarint(Buf, R.Lock);
  appendVarint(Buf, R.Line);
  appendString(Buf, R.File);
  appendVarint(Buf, R.Acquires);
  appendVarint(Buf, R.Contended);
  appendVarint(Buf, R.WaitCycles);
  appendVarint(Buf, R.HoldCycles);
  for (uint64_t V : R.WaitHist)
    appendVarint(Buf, V);
  for (uint64_t V : R.HoldHist)
    appendVarint(Buf, V);
  ++Records;
}

void TraceWriter::span(const SpanRecord &S) {
  if (Finished)
    return;
  Buf.push_back(static_cast<char>(S.Begin ? SpanBeginTag : SpanEndTag));
  appendVarint(Buf, S.Tid);
  appendVarint(Buf, S.Req);
  appendVarint(Buf, static_cast<uint8_t>(S.Stage));
  appendVarint(Buf, S.TimeNs);
  appendVarint(Buf, S.Arg);
  ++Records;
}

void TraceWriter::selfOverhead(const SelfOverheadRecord &R) {
  if (Finished)
    return;
  Buf.push_back(static_cast<char>(SelfOverheadTag));
  appendVarint(Buf, R.Tid);
  appendVarint(Buf, R.Ops);
  appendVarint(Buf, R.Cycles);
  appendVarint(Buf, R.Samples);
  appendVarint(Buf, R.DrainCycles);
  appendVarint(Buf, R.TableBytes);
  ++Records;
}

void TraceWriter::finish() {
  if (Finished)
    return;
  Buf.push_back(static_cast<char>(EndRecordTag));
  appendVarint(Buf, Records);
  Finished = true;
}

void TraceWriter::finishAbnormal(uint32_t Signal, uint8_t Policy) {
  if (Finished)
    return;
  Buf.push_back(static_cast<char>(AbnormalEndTag));
  appendVarint(Buf, Signal);
  appendVarint(Buf, Policy);
  appendVarint(Buf, TotalConflicts);
  for (uint64_t C : ConflictCounts)
    appendVarint(Buf, C);
  ++Records;
  finish();
}

const std::string &TraceWriter::buffer() {
  finish();
  return Buf;
}

bool TraceWriter::writeToFile(const std::string &Path, std::string &Error) {
  finish();
  size_t ToWrite = Buf.size();
  if (HasFaultTruncate && FaultTruncate < ToWrite)
    ToWrite = static_cast<size_t>(FaultTruncate);
  std::FILE *F = std::fopen(Path.c_str(), "wb");
  if (!F) {
    Error = "cannot open '" + Path + "' for writing";
    return false;
  }
  bool Ok = std::fwrite(Buf.data(), 1, ToWrite, F) == ToWrite;
  if (std::fclose(F) != 0)
    Ok = false;
  if (!Ok) {
    Error = "short write to '" + Path + "'";
    return false;
  }
  if (HasFaultTruncate) {
    Error = "fault-injected torn write: wrote " + std::to_string(ToWrite) +
            " of " + std::to_string(Buf.size()) + " bytes to '" + Path + "'";
    return false;
  }
  return true;
}

namespace {

/// Field reader that, unlike the bare readVarint/readString helpers,
/// distinguishes "ran out of bytes" (more input could complete the
/// record — the incremental TailParser should wait) from structural
/// damage (over-long varint, oversize string — no amount of further
/// bytes helps). Batch parsing reports both with the same message, so
/// the distinction only affects the RecordParse outcome, never the
/// error string.
struct Cursor {
  std::string_view Buf;
  size_t Pos;
  bool Short = false; ///< hit the end of Buf mid-field
  bool Bad = false;   ///< structurally invalid field

  bool varint(uint64_t &Out) {
    uint64_t V = 0;
    for (unsigned Shift = 0; Shift < 70; Shift += 7) {
      if (Pos >= Buf.size()) {
        Short = true;
        return false;
      }
      uint8_t B = static_cast<uint8_t>(Buf[Pos++]);
      V |= static_cast<uint64_t>(B & 0x7f) << Shift;
      if (!(B & 0x80)) {
        Out = V;
        return true;
      }
    }
    Bad = true; // over-long varint
    return false;
  }

  bool zigzag(int64_t &Out) {
    uint64_t Raw;
    if (!varint(Raw))
      return false;
    Out = static_cast<int64_t>((Raw >> 1) ^ (~(Raw & 1) + 1));
    return true;
  }

  bool str(std::string &Out) {
    uint64_t Len;
    if (!varint(Len))
      return false;
    if (Len > (1u << 20)) {
      Bad = true;
      return false;
    }
    if (Pos + Len > Buf.size()) {
      Short = true;
      return false;
    }
    Out.assign(Buf.data() + Pos, Len);
    Pos += Len;
    return true;
  }
};

} // namespace

RecordParse parseTraceHeader(std::string_view Buf, size_t &Pos,
                             uint32_t &Version, std::string &Error) {
  if (Buf.size() < Pos + sizeof(TraceMagic) + 4) {
    Error = "trace too short for header";
    return RecordParse::NeedMore;
  }
  if (std::memcmp(Buf.data() + Pos, TraceMagic, sizeof(TraceMagic)) != 0) {
    Error = "bad magic (not a SharC trace)";
    return RecordParse::Corrupt;
  }
  Version = 0;
  for (unsigned I = 0; I < 4; ++I)
    Version |= static_cast<uint32_t>(static_cast<uint8_t>(
                   Buf[Pos + sizeof(TraceMagic) + I]))
               << (8 * I);
  if (Version < MinTraceVersion || Version > TraceVersion) {
    Error = "unsupported trace version " + std::to_string(Version) +
            " (supported: " + std::to_string(MinTraceVersion) + ".." +
            std::to_string(TraceVersion) + ")";
    return RecordParse::Corrupt;
  }
  Pos += sizeof(TraceMagic) + 4;
  return RecordParse::Ok;
}

RecordParse parseOneRecord(std::string_view Buf, size_t &Pos, TraceData &Out,
                           uint64_t &Records, std::string &Error) {
  const size_t Start = Pos;
  if (Pos >= Buf.size()) {
    Error = "truncated trace: missing end record";
    return RecordParse::NeedMore;
  }
  Cursor C{Buf, Pos};
  uint8_t Tag = static_cast<uint8_t>(Buf[C.Pos++]);
  // A field-read failure either needs more bytes (rewind to the tag so
  // the caller can retry) or is unfixable; the message is the one batch
  // parsing reports for a trace cut here, in both cases.
  auto Cut = [&](const char *Msg) {
    Error = Msg;
    Pos = Start;
    return C.Bad ? RecordParse::Corrupt : RecordParse::NeedMore;
  };

  if (Tag == EndRecordTag) {
    uint64_t Declared;
    if (!C.varint(Declared))
      return Cut("truncated trace: unreadable end record");
    if (Declared != Records) {
      Error = "corrupt trace: end record declares " +
              std::to_string(Declared) + " records, saw " +
              std::to_string(Records);
      Pos = Start;
      return RecordParse::Corrupt;
    }
    Pos = C.Pos;
    return RecordParse::End;
  }
  if (Tag == StatsRecordTag) {
    rt::StatsSnapshot S;
    for (const rt::StatRow &R : rt::StatTable)
      if (!C.varint(S.*R.Field))
        return Cut("truncated trace: cut mid stats record");
    Out.Samples.push_back(S);
    Out.SamplePos.push_back(Out.Events.size());
    ++Records;
    Pos = C.Pos;
    return RecordParse::Ok;
  }
  if (Tag == SiteProfileTag) {
    SiteProfileRecord R;
    uint64_t Tid, Kind, Line, Count, Bytes, Cycles, Samples;
    if (!C.varint(Tid) || !C.varint(Kind) || !C.varint(Line) ||
        !C.str(R.File) || !C.str(R.LValue) || !C.varint(Count) ||
        !C.varint(Bytes) || !C.varint(Cycles) || !C.varint(Samples))
      return Cut("truncated trace: cut mid site-profile record");
    if (Kind >= NumCheckKinds) {
      Error = "corrupt trace: unknown check kind " + std::to_string(Kind);
      Pos = Start;
      return RecordParse::Corrupt;
    }
    R.Tid = static_cast<uint32_t>(Tid);
    R.Kind = static_cast<CheckKind>(Kind);
    R.Line = static_cast<uint32_t>(Line);
    R.Count = Count;
    R.Bytes = Bytes;
    R.Cycles = Cycles;
    R.Samples = Samples;
    Out.Sites.push_back(std::move(R));
    ++Records;
    Pos = C.Pos;
    return RecordParse::Ok;
  }
  if (Tag == LockProfileTag) {
    LockProfileRecord R;
    uint64_t Tid, Line;
    bool Ok = C.varint(Tid) && C.varint(R.Lock) && C.varint(Line) &&
              C.str(R.File) && C.varint(R.Acquires) &&
              C.varint(R.Contended) && C.varint(R.WaitCycles) &&
              C.varint(R.HoldCycles);
    for (uint64_t &V : R.WaitHist)
      Ok = Ok && C.varint(V);
    for (uint64_t &V : R.HoldHist)
      Ok = Ok && C.varint(V);
    if (!Ok)
      return Cut("truncated trace: cut mid lock-profile record");
    R.Tid = static_cast<uint32_t>(Tid);
    R.Line = static_cast<uint32_t>(Line);
    Out.Locks.push_back(std::move(R));
    ++Records;
    Pos = C.Pos;
    return RecordParse::Ok;
  }
  if (Tag == AbnormalEndTag) {
    uint64_t Signal, Policy, Total;
    uint64_t Counts[NumConflictKinds];
    if (!C.varint(Signal) || !C.varint(Policy) || !C.varint(Total))
      return Cut("truncated trace: cut mid abnormal-end record");
    for (uint64_t &V : Counts)
      if (!C.varint(V))
        return Cut("truncated trace: cut mid abnormal-end record");
    Out.AbnormalEnd = true;
    Out.AbnormalSignal = static_cast<uint32_t>(Signal);
    Out.AbnormalPolicy = static_cast<uint8_t>(Policy);
    Out.AbnormalTotalViolations = Total;
    std::memcpy(Out.AbnormalConflictCounts, Counts, sizeof(Counts));
    ++Records;
    Pos = C.Pos;
    return RecordParse::Ok;
  }
  if (Tag == SelfOverheadTag) {
    SelfOverheadRecord R;
    uint64_t Tid;
    if (!C.varint(Tid) || !C.varint(R.Ops) || !C.varint(R.Cycles) ||
        !C.varint(R.Samples) || !C.varint(R.DrainCycles) ||
        !C.varint(R.TableBytes))
      return Cut("truncated trace: cut mid self-overhead record");
    R.Tid = static_cast<uint32_t>(Tid);
    Out.Overheads.push_back(R);
    ++Records;
    Pos = C.Pos;
    return RecordParse::Ok;
  }
  if (Tag == SpanBeginTag || Tag == SpanEndTag) {
    SpanRecord S;
    uint64_t Tid, Stage;
    if (!C.varint(Tid) || !C.varint(S.Req) || !C.varint(Stage) ||
        !C.varint(S.TimeNs) || !C.varint(S.Arg))
      return Cut("truncated trace: cut mid span record");
    if (Stage >= NumSpanStages) {
      Error = "corrupt trace: unknown span stage " + std::to_string(Stage);
      Pos = Start;
      return RecordParse::Corrupt;
    }
    S.Tid = static_cast<uint32_t>(Tid);
    S.Stage = static_cast<SpanStage>(Stage);
    S.Begin = Tag == SpanBeginTag;
    Out.Spans.push_back(S);
    Out.SpanPos.push_back(Out.Events.size());
    ++Records;
    Pos = C.Pos;
    return RecordParse::Ok;
  }
  if (Tag >= ExtensionTagFirst && Tag <= ExtensionTagLast) {
    // A record family newer than this reader: the length prefix lets us
    // hop over the payload, count the record, and keep going.
    uint64_t Len;
    if (!C.varint(Len))
      return Cut("truncated trace: cut mid extension record");
    if (Len > (1u << 20)) {
      Error = "corrupt trace: oversized extension record";
      Pos = Start;
      return RecordParse::Corrupt;
    }
    if (C.Pos + Len > Buf.size()) {
      C.Short = true;
      return Cut("truncated trace: cut mid extension record");
    }
    C.Pos += Len;
    ++Out.SkippedUnknown;
    bool Seen = false;
    for (uint8_t T : Out.SkippedTags)
      Seen = Seen || T == Tag;
    if (!Seen)
      Out.SkippedTags.push_back(Tag);
    ++Records;
    Pos = C.Pos;
    return RecordParse::Ok;
  }
  if (Tag == 0 || Tag > NumEventKinds) {
    Error = "corrupt trace: unknown record tag " + std::to_string(Tag);
    Pos = Start;
    return RecordParse::Corrupt;
  }
  Event Ev;
  Ev.K = static_cast<EventKind>(Tag - 1);
  uint64_t Tid;
  if (!C.varint(Tid) || !C.varint(Ev.Addr) || !C.zigzag(Ev.Value) ||
      !C.varint(Ev.Extra))
    return Cut("truncated trace: cut mid event record");
  Ev.Tid = static_cast<uint32_t>(Tid);
  Out.Events.push_back(Ev);
  ++Records;
  Pos = C.Pos;
  return RecordParse::Ok;
}

bool parseTrace(std::string_view Buf, TraceData &Out, std::string &Error) {
  Out = TraceData();
  size_t Pos = 0;
  uint32_t Version = 0;
  if (parseTraceHeader(Buf, Pos, Version, Error) != RecordParse::Ok)
    return false;
  Out.Version = Version;
  uint64_t Records = 0;
  while (true) {
    switch (parseOneRecord(Buf, Pos, Out, Records, Error)) {
    case RecordParse::Ok:
      break;
    case RecordParse::End:
      if (Pos != Buf.size()) {
        Error = "corrupt trace: trailing bytes after end record";
        return false;
      }
      return true;
    case RecordParse::NeedMore:
    case RecordParse::Corrupt:
      return false; // Error already set
    }
  }
}

bool readFile(const std::string &Path, std::string &Out) {
  std::FILE *F = std::fopen(Path.c_str(), "rb");
  if (!F)
    return false;
  char Chunk[1 << 16];
  size_t N;
  while ((N = std::fread(Chunk, 1, sizeof(Chunk), F)) > 0)
    Out.append(Chunk, N);
  bool Ok = std::ferror(F) == 0;
  std::fclose(F);
  return Ok;
}

bool loadTraceFile(const std::string &Path, TraceData &Out,
                   std::string &Error) {
  std::string Buf;
  if (!readFile(Path, Buf)) {
    Error = "cannot read '" + Path + "'";
    return false;
  }
  return parseTrace(Buf, Out, Error);
}

} // namespace sharc::obs
