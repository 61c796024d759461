// Typed entries of the per-rank metadata journal.
//
// The entry vocabulary mirrors CephFS's LogEvent hierarchy, reduced to the
// four kinds that matter for the balancing/recovery model:
//   * EUpdate       — a metadata mutation (create/unlink/rename) against a
//                     dirfrag the rank is authoritative for;
//   * ESubtreeMap   — a checkpoint of everything the rank is authoritative
//                     for (subtree roots + pinned dirfrags) plus its recent
//                     load history.  Replay starts from the newest durable
//                     one; segments wholly before it can be trimmed.
//   * EExportCommit — this rank handed a subtree to `peer` (exporter side
//                     of a committed migration);
//   * EImportStart  — this rank adopted a subtree from `peer` (importer
//                     side of a commit, or a crash take-over).
//
// Entries carry simulated time only (tick + epoch) and a modeled on-journal
// byte size, so journal traffic is reportable without serializing anything.
#pragma once

#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <vector>

#include "common/types.h"
#include "fs/namespace_tree.h"

namespace lunule::journal {

enum class EntryType : std::uint8_t {
  kUpdate,        // EUpdate: one metadata mutation (dir, frag)
  kSubtreeMap,    // ESubtreeMap: authority + load-history checkpoint
  kExportCommit,  // EExportCommit: subtree handed to `peer`
  kImportStart,   // EImportStart: subtree adopted from `peer`
};

/// The checkpoint payload of an ESubtreeMap entry: every unit the rank is
/// authoritative for (in deterministic namespace order) and the rank's
/// per-epoch load history, oldest first.
struct SubtreeSnapshot {
  std::vector<fs::SubtreeRef> owned;
  std::vector<double> load_history;
};

/// One journal record.  Fixed-size and trivially copyable: an ESubtreeMap's
/// payload lives beside the segments (`MdsJournal::checkpoints()`), so an
/// EUpdate append writes 48 bytes and trimming frees whole segments without
/// visiting their entries.
struct JournalEntry {
  /// Monotonic per-journal sequence number, stamped by MdsJournal::append.
  std::uint64_t seq = 0;
  /// Sequence of the newest earlier entry this one depends on (0 = none),
  /// stamped by MdsJournal::append: a dir-scoped entry depends on the
  /// previous entry touching the same directory (create-before-child-create,
  /// export-commit-before-dependent-update), a checkpoint on the whole
  /// prefix.  Group commit makes contiguous prefixes durable, so a durable
  /// entry's dependency is always durable — replay audits exactly that
  /// (prefix consistency) and async mode relies on it.
  std::uint64_t dep_seq = 0;
  Tick tick = -1;
  EpochId epoch = -1;
  /// Namespace unit the entry is about (unused by kSubtreeMap).
  DirId dir = kNoDir;
  FragId frag = kWholeDir;
  /// Migration peer of kExportCommit / kImportStart (kNoMds otherwise).
  MdsId peer = kNoMds;
  EntryType type = EntryType::kUpdate;
};
static_assert(std::is_trivially_copyable_v<JournalEntry>);
static_assert(sizeof(JournalEntry) <= 48);

/// Modeled on-journal size of an entry in bytes (CephFS EUpdates run from
/// hundreds of bytes to kilobytes; ESubtreeMap grows with the subtree map:
/// `owned_units` bound records and `load_samples` history doubles).
[[nodiscard]] std::uint64_t entry_bytes(EntryType type,
                                        std::size_t owned_units = 0,
                                        std::size_t load_samples = 0);

}  // namespace lunule::journal
