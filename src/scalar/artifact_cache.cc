// Copyright 2026 The GraphScape Authors.
// Licensed under the Apache License, Version 2.0.

#include "scalar/artifact_cache.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <utility>

#include "common/failpoint.h"
#include "common/fs.h"
#include "common/string_util.h"

namespace graphscape {
namespace {

constexpr char kManifestName[] = "MANIFEST";
constexpr char kEntriesDir[] = "entries";
constexpr char kQuarantineDir[] = "quarantine";
constexpr char kEntrySuffix[] = ".gsta";
constexpr char kTempSuffix[] = ".tmp";

bool EndsWith(const std::string& s, const char* suffix) {
  const size_t n = std::strlen(suffix);
  return s.size() >= n && s.compare(s.size() - n, n, suffix) == 0;
}

bool IsUnreservedKeyChar(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
         (c >= '0' && c <= '9') || c == '.' || c == '_' || c == '-';
}

int HexValue(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}

}  // namespace

std::string ArtifactCache::EncodeKey(const std::string& canonical) {
  static const char kHex[] = "0123456789ABCDEF";
  std::string out;
  out.reserve(canonical.size());
  for (const char c : canonical) {
    if (IsUnreservedKeyChar(c)) {
      out.push_back(c);
    } else {
      const unsigned char u = static_cast<unsigned char>(c);
      out.push_back('%');
      out.push_back(kHex[u >> 4]);
      out.push_back(kHex[u & 0xf]);
    }
  }
  return out;
}

StatusOr<std::string> ArtifactCache::DecodeKey(const std::string& encoded) {
  std::string out;
  out.reserve(encoded.size());
  for (size_t i = 0; i < encoded.size(); ++i) {
    const char c = encoded[i];
    if (c == '%') {
      if (i + 2 >= encoded.size()) {
        return Status::InvalidArgument("cache: truncated %-escape in '" +
                                       encoded + "'");
      }
      const int hi = HexValue(encoded[i + 1]);
      const int lo = HexValue(encoded[i + 2]);
      if (hi < 0 || lo < 0) {
        return Status::InvalidArgument("cache: bad %-escape in '" + encoded +
                                       "'");
      }
      out.push_back(static_cast<char>((hi << 4) | lo));
      i += 2;
    } else if (IsUnreservedKeyChar(c)) {
      out.push_back(c);
    } else {
      return Status::InvalidArgument("cache: unencoded byte in '" + encoded +
                                     "'");
    }
  }
  return out;
}

std::string ArtifactCache::EntryPath(const std::string& canonical) const {
  return root_ + "/" + kEntriesDir + "/" + EncodeKey(canonical) +
         kEntrySuffix;
}

StatusOr<ArtifactCache> ArtifactCache::Open(const std::string& root,
                                            const Options& options) {
  ArtifactCache cache(root, options);
  for (const char* dir : {"", kEntriesDir, kQuarantineDir}) {
    const Status made =
        MakeDirs(dir[0] == '\0' ? root : root + "/" + dir);
    if (!made.ok()) return made;
  }
  // Crash recovery step 1: any .tmp anywhere is an interrupted atomic
  // write whose rename never happened — the content is unreferenced and
  // possibly torn, so it is swept, not salvaged.
  for (const std::string& dir : {root, root + "/" + kEntriesDir}) {
    const Status swept = cache.SweepTemps(dir, &cache.stats_.temps_swept);
    if (!swept.ok()) return swept;
  }
  const Status loaded = cache.LoadOrRecoverManifest();
  if (!loaded.ok()) return loaded;
  return cache;
}

Status ArtifactCache::SweepTemps(const std::string& dir, uint64_t* removed) {
  StatusOr<std::vector<std::string>> names = ListDir(dir);
  if (!names.ok()) return names.status();
  for (const std::string& name : names.value()) {
    if (!EndsWith(name, kTempSuffix)) continue;
    const Status gone = RemoveFile(dir + "/" + name);
    if (!gone.ok()) return gone;
    ++*removed;
  }
  return Status::Ok();
}

StatusOr<ArtifactCache::ManifestEntry> ArtifactCache::ValidateEntryFile(
    const std::string& canonical) {
  const std::string path = EntryPath(canonical);
  StatusOr<std::string> bytes = RetryWithBackoffOr<std::string>(
      options_.retry, [&path]() { return ReadFileBytes(path); });
  if (!bytes.ok()) return bytes.status();
  const StatusOr<TreeArtifact> parsed =
      DeserializeTreeArtifact(bytes.value());
  if (!parsed.ok()) {
    return Status::DataLoss(StrPrintf("cache: entry '%s' invalid: %s",
                                      canonical.c_str(),
                                      parsed.status().ToString().c_str()));
  }
  ManifestEntry entry;
  entry.size = bytes.value().size();
  entry.checksum = VerifiedArtifactChecksum(bytes.value());
  return entry;
}

void ArtifactCache::QuarantineEntry(const std::string& canonical) {
  const std::string path = EntryPath(canonical);
  const std::string base =
      root_ + "/" + kQuarantineDir + "/" + EncodeKey(canonical);
  std::string target;
  for (uint32_t n = 0;; ++n) {
    target = StrPrintf("%s.%u%s", base.c_str(), n, kEntrySuffix);
    if (!PathExists(target)) break;
  }
  // Best effort: quarantine preserves the corrupt bytes for postmortem,
  // but a failed move must not keep the entry reachable.
  if (!RenameFile(path, target).ok()) (void)RemoveFile(path);
  entries_.erase(canonical);
  ++stats_.corrupt_quarantined;
}

Status ArtifactCache::LoadOrRecoverManifest() {
  const std::string manifest_path = root_ + "/" + kManifestName;
  const StatusOr<std::string> raw = ReadFileBytes(manifest_path);
  bool manifest_ok = false;
  if (raw.ok()) {
    // Parse: "GSCM <version>\n" + entry lines + "sum <fnv-hex>\n". Any
    // deviation (including a checksum mismatch) discards the manifest
    // and falls through to recovery-by-scan — the entry files are
    // individually self-validating, so nothing is lost.
    manifest_ok = true;
    std::map<std::string, ManifestEntry> parsed;
    const std::string& text = raw.value();
    size_t pos = 0;
    bool saw_header = false, saw_sum = false;
    while (pos < text.size() && manifest_ok) {
      size_t eol = text.find('\n', pos);
      if (eol == std::string::npos) {
        manifest_ok = false;
        break;
      }
      const std::string line = text.substr(pos, eol - pos);
      if (!saw_header) {
        manifest_ok = line == StrPrintf("GSCM %u", kArtifactCacheVersion);
        saw_header = true;
      } else if (line.compare(0, 4, "sum ") == 0) {
        const uint64_t stored =
            std::strtoull(line.c_str() + 4, nullptr, 16);
        const uint64_t actual = Fnv1aChecksum(text.substr(0, pos));
        manifest_ok = stored == actual && eol + 1 == text.size();
        saw_sum = true;
      } else if (line.compare(0, 6, "entry ") == 0) {
        char enc[512];
        unsigned long long size = 0, checksum = 0;
        if (std::sscanf(line.c_str(), "entry %511s %llu %llx", enc, &size,
                        &checksum) != 3) {
          manifest_ok = false;
          break;
        }
        StatusOr<std::string> key = DecodeKey(enc);
        if (!key.ok()) {
          manifest_ok = false;
          break;
        }
        parsed[key.value()] = ManifestEntry{size, checksum};
      } else {
        manifest_ok = false;
        break;
      }
      pos = eol + 1;
    }
    manifest_ok = manifest_ok && saw_header && saw_sum;
    if (manifest_ok) entries_ = std::move(parsed);
  }
  if (!manifest_ok && (raw.ok() || raw.status().code() != StatusCode::kNotFound)) {
    // Present but unreadable/corrupt counts as a recovery; merely absent
    // with zero entries is just a fresh cache.
    stats_.manifest_recovered = true;
  }

  // Reconcile against the entry files on disk: they are the source of
  // truth (each is internally checksummed); the manifest is an index.
  bool changed = !manifest_ok && !entries_.empty();
  if (!manifest_ok) entries_.clear();
  StatusOr<std::vector<std::string>> names =
      ListDir(root_ + "/" + kEntriesDir);
  if (!names.ok()) return names.status();
  std::map<std::string, ManifestEntry> on_disk_rows;
  for (const std::string& name : names.value()) {
    if (!EndsWith(name, kEntrySuffix)) continue;
    const std::string enc =
        name.substr(0, name.size() - std::strlen(kEntrySuffix));
    StatusOr<std::string> key = DecodeKey(enc);
    if (!key.ok()) continue;  // foreign file; leave it alone
    const std::string canonical = key.value();
    const auto it = entries_.find(canonical);
    if (it != entries_.end()) {
      // Fast path: size agrees with the manifest row — full checksum
      // verification happens on every Get anyway.
      StatusOr<uint64_t> size = FileSizeBytes(EntryPath(canonical));
      if (size.ok() && size.value() == it->second.size) continue;
    }
    // Stray or suspicious: validate completely, then adopt or
    // quarantine. A crash between entry rename and manifest commit
    // lands here and is healed.
    StatusOr<ManifestEntry> row = ValidateEntryFile(canonical);
    if (row.ok()) {
      entries_[canonical] = row.value();
      if (!manifest_ok) {
        stats_.manifest_recovered = true;
      } else {
        ++stats_.strays_adopted;
      }
      changed = true;
    } else if (row.status().code() == StatusCode::kDataLoss) {
      QuarantineEntry(canonical);
      changed = true;
    } else {
      return row.status();
    }
  }
  // Manifest rows whose files vanished are dropped.
  for (auto it = entries_.begin(); it != entries_.end();) {
    if (PathExists(EntryPath(it->first))) {
      ++it;
    } else {
      it = entries_.erase(it);
      changed = true;
    }
  }
  if (changed || !manifest_ok) return WriteManifest();
  return Status::Ok();
}

Status ArtifactCache::WriteManifest() {
  std::string text = StrPrintf("GSCM %u\n", kArtifactCacheVersion);
  for (const auto& entry : entries_) {
    text += StrPrintf("entry %s %llu %016llx\n",
                      EncodeKey(entry.first).c_str(),
                      static_cast<unsigned long long>(entry.second.size),
                      static_cast<unsigned long long>(entry.second.checksum));
  }
  text += StrPrintf("sum %016llx\n",
                    static_cast<unsigned long long>(Fnv1aChecksum(text)));
  const std::string path = root_ + "/" + kManifestName;
  return RetryWithBackoff(options_.retry, [&]() {
    if (failpoint::Fire("cache/manifest_write")) {
      return failpoint::InjectedFault("cache/manifest_write");
    }
    return WriteFileBytesAtomic(path, text);
  });
}

Status ArtifactCache::Put(const ArtifactKey& key,
                          const TreeArtifact& artifact) {
  const std::string canonical = key.Canonical();
  StatusOr<std::string> bytes = SerializeTreeArtifact(artifact);
  if (!bytes.ok()) return bytes.status();

  // cache/torn_entry models a write the disk acknowledged but never
  // completed (half the payload lands, rename still happens): the
  // manifest keeps the INTENDED checksum, so the tear is caught — and
  // quarantined — on the next load.
  const std::string& full = bytes.value();
  const bool tear = failpoint::Fire("cache/torn_entry");
  const std::string torn = tear ? full.substr(0, full.size() / 2) : "";
  const std::string& disk_bytes = tear ? torn : full;

  const std::string path = EntryPath(canonical);
  const std::string tmp = path + kTempSuffix;
  Status status = RetryWithBackoff(options_.retry, [&]() {
    return WriteFileBytes(tmp, disk_bytes, /*sync=*/true);
  });
  if (!status.ok()) {
    (void)RemoveFile(tmp);
    return status;
  }
  // cache/crash_after_temp: the process "dies" after the temp write,
  // before the rename — the stray .tmp must be swept at the next Open
  // and the previous entry must still be served.
  if (failpoint::Fire("cache/crash_after_temp")) {
    return failpoint::InjectedFault("cache/crash_after_temp");
  }
  status = RetryWithBackoff(options_.retry,
                            [&]() { return RenameFile(tmp, path); });
  if (!status.ok()) {
    (void)RemoveFile(tmp);
    return status;
  }
  status = SyncDir(root_ + "/" + kEntriesDir);
  if (!status.ok()) return status;
  // cache/manifest_crash: entry durably renamed, manifest commit never
  // happens — the next Open adopts the stray entry.
  if (failpoint::Fire("cache/manifest_crash")) {
    return failpoint::InjectedFault("cache/manifest_crash");
  }
  entries_[canonical] =
      ManifestEntry{full.size(), VerifiedArtifactChecksum(full)};
  return WriteManifest();
}

StatusOr<TreeArtifact> ArtifactCache::Get(const ArtifactKey& key) {
  const std::string canonical = key.Canonical();
  const auto it = entries_.find(canonical);
  if (it == entries_.end()) {
    ++stats_.misses;
    return Status::NotFound("cache: no entry for '" + canonical + "'");
  }
  const std::string path = EntryPath(canonical);
  StatusOr<std::string> bytes = RetryWithBackoffOr<std::string>(
      options_.retry, [&path]() { return ReadFileBytes(path); });
  if (!bytes.ok()) {
    if (bytes.status().code() == StatusCode::kNotFound) {
      // The file vanished behind the manifest's back: drop the row so
      // GetOrBuild can rebuild instead of failing forever.
      entries_.erase(canonical);
      CommitManifestBestEffort();
      ++stats_.misses;
    }
    return bytes.status();
  }
  std::string data = std::move(bytes).value();
  // cache/load_corrupt: the read "succeeded" with one flipped bit, as a
  // failing disk would. Must be caught by the checksums.
  if (failpoint::Fire("cache/load_corrupt") && !data.empty()) {
    data[data.size() / 3] = static_cast<char>(data[data.size() / 3] ^ 0x10);
  }
  const auto quarantine = [&](const std::string& why) {
    QuarantineEntry(canonical);
    CommitManifestBestEffort();
    return Status::DataLoss(StrPrintf("cache: entry '%s' quarantined: %s",
                                      canonical.c_str(), why.c_str()));
  };
  if (data.size() != it->second.size) {
    return quarantine("size disagrees with the manifest");
  }
  // One hash pass: Deserialize verifies the trailer, and a verified
  // trailer yields the whole-file checksum the manifest row holds.
  StatusOr<TreeArtifact> parsed = DeserializeTreeArtifact(data);
  if (!parsed.ok()) return quarantine(parsed.status().ToString());
  if (VerifiedArtifactChecksum(data) != it->second.checksum) {
    return quarantine("checksum disagrees with the manifest");
  }
  ++stats_.hits;
  return parsed;
}

void ArtifactCache::CommitManifestBestEffort() {
  if (!WriteManifest().ok()) ++stats_.manifest_write_failures;
}

StatusOr<TreeArtifact> ArtifactCache::GetOrBuild(const ArtifactKey& key,
                                                 const Builder& builder) {
  StatusOr<TreeArtifact> cached = Get(key);
  if (cached.ok()) return cached;
  const StatusCode code = cached.status().code();
  if (code != StatusCode::kNotFound && code != StatusCode::kDataLoss) {
    return cached.status();  // transient I/O already outlasted retry
  }
  StatusOr<TreeArtifact> built = builder();
  if (!built.ok()) return built.status();
  ++stats_.rebuilds;
  const Status stored = Put(key, built.value());
  if (!stored.ok()) {
    // Serving beats caching: the artifact is good even if the store
    // failed; the next GetOrBuild will try to store again.
    ++stats_.put_failures;
  }
  return built;
}

bool ArtifactCache::Contains(const ArtifactKey& key) const {
  return entries_.count(key.Canonical()) != 0;
}

std::vector<std::string> ArtifactCache::Keys() const {
  std::vector<std::string> keys;
  keys.reserve(entries_.size());
  for (const auto& entry : entries_) keys.push_back(entry.first);
  return keys;
}

Status ArtifactCache::Remove(const ArtifactKey& key) {
  const std::string canonical = key.Canonical();
  if (entries_.erase(canonical) == 0) return Status::Ok();
  const Status gone = RemoveFile(EntryPath(canonical));
  if (!gone.ok()) return gone;
  return WriteManifest();
}

StatusOr<ScrubReport> ArtifactCache::Scrub() {
  ScrubReport report;
  for (const std::string& dir : {root_, root_ + "/" + kEntriesDir}) {
    const Status swept = SweepTemps(dir, &report.temps_removed);
    if (!swept.ok()) return swept;
  }
  bool changed = report.temps_removed != 0;

  // Pass 1: every manifest row re-verified byte-for-byte.
  std::vector<std::string> keys = Keys();
  for (const std::string& canonical : keys) {
    ++report.entries_checked;
    const ManifestEntry expected = entries_[canonical];
    StatusOr<ManifestEntry> actual = ValidateEntryFile(canonical);
    if (actual.ok()) {
      if (actual.value().size == expected.size &&
          actual.value().checksum == expected.checksum) {
        ++report.entries_ok;
      } else {
        // The file is a valid artifact but not the one the manifest
        // promised (torn write that half-landed, then got repaired out
        // of band). The file is self-validating; trust it.
        entries_[canonical] = actual.value();
        report.adopted.push_back(canonical);
        changed = true;
      }
    } else if (actual.status().code() == StatusCode::kDataLoss) {
      QuarantineEntry(canonical);
      report.quarantined.push_back(canonical);
      changed = true;
    } else if (actual.status().code() == StatusCode::kNotFound) {
      entries_.erase(canonical);
      ++report.missing_dropped;
      changed = true;
    } else {
      return actual.status();
    }
  }

  // Pass 2: entry files the manifest doesn't know about.
  StatusOr<std::vector<std::string>> names =
      ListDir(root_ + "/" + kEntriesDir);
  if (!names.ok()) return names.status();
  for (const std::string& name : names.value()) {
    if (!EndsWith(name, kEntrySuffix)) continue;
    const std::string enc =
        name.substr(0, name.size() - std::strlen(kEntrySuffix));
    StatusOr<std::string> key = DecodeKey(enc);
    if (!key.ok() || entries_.count(key.value()) != 0) continue;
    ++report.entries_checked;
    StatusOr<ManifestEntry> row = ValidateEntryFile(key.value());
    if (row.ok()) {
      entries_[key.value()] = row.value();
      report.adopted.push_back(key.value());
      ++stats_.strays_adopted;
    } else if (row.status().code() == StatusCode::kDataLoss) {
      QuarantineEntry(key.value());
      report.quarantined.push_back(key.value());
    } else {
      return row.status();
    }
    changed = true;
  }

  if (changed) {
    const Status committed = WriteManifest();
    if (!committed.ok()) return committed;
  }
  return report;
}

}  // namespace graphscape
