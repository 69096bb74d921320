//===- campaign/Journal.cpp - Append-only write-ahead campaign journal ----===//

#include "campaign/Journal.h"

#include "support/FaultInject.h"

#include <cerrno>
#include <cstring>
#include <filesystem>
#include <vector>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

using namespace fpint;
using namespace fpint::campaign;
namespace fs = std::filesystem;

const char *const campaign::JournalSchema = "fpint-campaign-journal-v1";

namespace {

void setErr(std::string *Err, const std::string &What) {
  if (Err)
    *Err = What + ": " + std::strerror(errno);
}

/// EINTR-safe full write.
bool writeAllFd(int Fd, const char *Data, size_t Len) {
  size_t Done = 0;
  while (Done < Len) {
    ssize_t N = ::write(Fd, Data + Done, Len - Done);
    if (N < 0) {
      if (errno == EINTR)
        continue;
      return false;
    }
    Done += static_cast<size_t>(N);
  }
  return true;
}

/// EINTR-safe full read of the whole file from offset 0.
bool readWholeFd(int Fd, std::string &Out, std::string *Err) {
  struct stat St;
  if (::fstat(Fd, &St) != 0) {
    setErr(Err, "fstat");
    return false;
  }
  Out.clear();
  Out.resize(static_cast<size_t>(St.st_size));
  size_t Done = 0;
  while (Done < Out.size()) {
    ssize_t N = ::pread(Fd, &Out[Done], Out.size() - Done,
                        static_cast<off_t>(Done));
    if (N < 0) {
      if (errno == EINTR)
        continue;
      setErr(Err, "read");
      return false;
    }
    if (N == 0) { // File shrank under us; treat the rest as absent.
      Out.resize(Done);
      break;
    }
    Done += static_cast<size_t>(N);
  }
  return true;
}

} // namespace

Journal::~Journal() {
  if (Fd >= 0)
    ::close(Fd);
}

bool Journal::open(const std::string &Path,
                   const std::function<void(const json::Value &)> &OnRecord,
                   RecoveryInfo &Info, std::string *Err) {
  Info = RecoveryInfo();
  std::error_code EC;
  fs::create_directories(fs::path(Path).parent_path(), EC);

  Info.Existed = fs::exists(Path, EC);
  int NewFd = ::open(Path.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644);
  if (NewFd < 0) {
    setErr(Err, "open " + Path);
    return false;
  }

  std::string Text;
  if (!readWholeFd(NewFd, Text, Err)) {
    ::close(NewFd);
    return false;
  }

  // Replay every complete record; the first ill-formed suffix is a
  // torn tail and marks the truncation point.
  size_t Pos = 0;
  while (Pos + 4 <= Text.size()) {
    uint32_t Len = static_cast<uint8_t>(Text[Pos]) |
                   (static_cast<uint8_t>(Text[Pos + 1]) << 8) |
                   (static_cast<uint8_t>(Text[Pos + 2]) << 16) |
                   (static_cast<uint32_t>(static_cast<uint8_t>(Text[Pos + 3]))
                    << 24);
    if (Len == 0 || Len > MaxRecordBytes || Pos + 4 + Len > Text.size())
      break;
    json::Value Rec;
    std::string ParseErr;
    if (!json::Value::parse(Text.substr(Pos + 4, Len), Rec, &ParseErr))
      break;
    if (OnRecord)
      OnRecord(Rec);
    ++Info.Records;
    Pos += 4 + Len;
  }
  if (Pos < Text.size()) {
    Info.TruncatedBytes = Text.size() - Pos;
    if (::ftruncate(NewFd, static_cast<off_t>(Pos)) != 0) {
      setErr(Err, "ftruncate " + Path);
      ::close(NewFd);
      return false;
    }
  }
  if (::lseek(NewFd, 0, SEEK_END) < 0) {
    setErr(Err, "lseek " + Path);
    ::close(NewFd);
    return false;
  }

  if (Fd >= 0)
    ::close(Fd);
  Fd = NewFd;
  FilePath = Path;
  return true;
}

bool Journal::append(const json::Value &Record, std::string *Err) {
  if (Fd < 0) {
    if (Err)
      *Err = "journal is not open";
    return false;
  }
  const std::string Body = Record.dump();
  if (Body.size() > MaxRecordBytes) {
    if (Err)
      *Err = "record exceeds MaxRecordBytes";
    return false;
  }
  std::string Frame;
  Frame.reserve(4 + Body.size());
  uint32_t Len = static_cast<uint32_t>(Body.size());
  char Prefix[4] = {static_cast<char>(Len), static_cast<char>(Len >> 8),
                    static_cast<char>(Len >> 16),
                    static_cast<char>(Len >> 24)};
  Frame.append(Prefix, 4);
  Frame += Body;

  std::lock_guard<std::mutex> Lock(Mu);
  if (!writeAllFd(Fd, Frame.data(), Frame.size())) {
    setErr(Err, "write " + FilePath);
    return false;
  }
  if (::fsync(Fd) != 0) {
    setErr(Err, "fsync " + FilePath);
    return false;
  }
  // Fired only after the record is durable: a "crash" here kills the
  // journaling process without losing the record just written, which is
  // exactly the harness-death scenario the resume path must absorb.
  support::fault::inject("campaign:journal");
  return true;
}

bool Journal::reset(std::string *Err) {
  if (Fd < 0) {
    if (Err)
      *Err = "journal is not open";
    return false;
  }
  std::lock_guard<std::mutex> Lock(Mu);
  if (::ftruncate(Fd, 0) != 0 || ::lseek(Fd, 0, SEEK_SET) < 0) {
    setErr(Err, "truncate " + FilePath);
    return false;
  }
  if (::fsync(Fd) != 0) {
    setErr(Err, "fsync " + FilePath);
    return false;
  }
  return true;
}

bool campaign::openCampaignJournal(Journal &J, const std::string &Dir,
                                   const std::string &Key, json::Value Header,
                                   CampaignReplay &Out, std::string *Err) {
  Out = CampaignReplay();
  Journal::RecoveryInfo Info;
  if (!J.open(Dir + "/journal.wal",
              [&Out](const json::Value &R) { Out.Records.push_back(R); },
              Info, Err))
    return false;
  Out.TruncatedBytes = Info.TruncatedBytes;

  if (!Out.Records.empty()) {
    const json::Value &H = Out.Records.front();
    if (H.strOr("type", "") == "campaign" &&
        H.strOr("schema", "") == JournalSchema && H.strOr("key", "") == Key) {
      Out.Header = H;
      Out.Records.erase(Out.Records.begin());
      return true;
    }
    Out.Discarded = true;
    Out.Records.clear();
    if (!J.reset(Err))
      return false;
  }
  Out.Header = json::Value::object();
  Out.Header.set("type", "campaign");
  Out.Header.set("schema", JournalSchema);
  Out.Header.set("key", Key);
  if (Header.isObject())
    for (const auto &Member : Header.members())
      Out.Header.set(Member.first, Member.second);
  return J.append(Out.Header, Err);
}
