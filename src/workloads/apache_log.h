// Apache access-log parsing and generation.
//
// The paper's Web workload "replays a web access trace ... in the Apache
// access log format" (Table 1).  This module closes that loop for the
// simulator: it can *emit* a synthetic trace as Common-Log-Format text and
// *import* CLF text as a namespace plus replayable trace records, one per
// request.  The Web scenario's internal generator produces the same
// distribution directly; this module exists so users can feed their own
// real logs to the simulator (examples/replay_apache_log.cpp) and so the
// generator round-trips through the on-disk format under test.
//
// Supported line shape (Common Log Format; the combined format's trailing
// referer/agent fields are tolerated and ignored):
//
//   127.0.0.1 - - [23/Aug/2013:10:01:02 -0400] "GET /a/b/file17 HTTP/1.1" 200 512
#pragma once

#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "fs/path_resolver.h"
#include "workloads/web_trace.h"

namespace lunule::workloads {

/// One parsed access-log entry.
struct LogEntry {
  std::string path;     // URL path, e.g. "/web/section3/dir7/file12"
  std::string method;   // "GET", ...
  int status = 0;       // HTTP status
  std::uint64_t bytes = 0;
};

/// Parses one Common-Log-Format line; nullopt if malformed.
[[nodiscard]] std::optional<LogEntry> parse_log_line(std::string_view line);

/// Renders a trace record as one CLF line addressing the simulated tree
/// (file index i maps to ".../fileI").
[[nodiscard]] std::string format_log_line(const fs::NamespaceTree& tree,
                                          const TraceRecord& record,
                                          std::uint64_t sequence);

/// Writes a whole trace as CLF text.
void write_log(std::ostream& os, const fs::NamespaceTree& tree,
               const WebTrace& trace);

/// A namespace and trace imported from a log of *arbitrary* URL paths
/// (no "fileN" convention required): every distinct directory path becomes
/// a directory, every distinct leaf name becomes a file, and the requests
/// become replayable trace records in log order.
struct ImportedLog {
  std::unique_ptr<fs::NamespaceTree> tree;
  std::vector<TraceRecord> records;
  std::size_t malformed_lines = 0;
  std::uint64_t distinct_files = 0;
};

/// Builds a fresh namespace from the log's path population and maps each
/// request onto it.  This is how a user replays a real web-server log
/// against the simulator (see examples/replay_apache_log.cpp).
[[nodiscard]] ImportedLog import_log(std::istream& is);

}  // namespace lunule::workloads
