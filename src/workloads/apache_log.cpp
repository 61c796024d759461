#include "workloads/apache_log.h"

#include <charconv>
#include <istream>
#include <map>
#include <memory>
#include <ostream>

namespace lunule::workloads {

std::optional<LogEntry> parse_log_line(std::string_view line) {
  // host ident user [timestamp] "METHOD path PROTO" status bytes ...
  const std::size_t quote_open = line.find('"');
  if (quote_open == std::string_view::npos) return std::nullopt;
  const std::size_t quote_close = line.find('"', quote_open + 1);
  if (quote_close == std::string_view::npos) return std::nullopt;

  const std::string_view request =
      line.substr(quote_open + 1, quote_close - quote_open - 1);
  const std::size_t sp1 = request.find(' ');
  if (sp1 == std::string_view::npos) return std::nullopt;
  const std::size_t sp2 = request.find(' ', sp1 + 1);

  LogEntry entry;
  entry.method = std::string(request.substr(0, sp1));
  entry.path = std::string(
      sp2 == std::string_view::npos
          ? request.substr(sp1 + 1)
          : request.substr(sp1 + 1, sp2 - sp1 - 1));
  if (entry.path.empty() || entry.path[0] != '/') return std::nullopt;

  // Status and bytes follow the closing quote.
  std::string_view tail = line.substr(quote_close + 1);
  const auto skip_spaces = [&tail] {
    while (!tail.empty() && tail.front() == ' ') tail.remove_prefix(1);
  };
  skip_spaces();
  {
    const auto [ptr, ec] =
        std::from_chars(tail.data(), tail.data() + tail.size(), entry.status);
    if (ec != std::errc{}) return std::nullopt;
    tail.remove_prefix(static_cast<std::size_t>(ptr - tail.data()));
  }
  skip_spaces();
  if (!tail.empty() && tail.front() != '-') {
    const auto [ptr, ec] =
        std::from_chars(tail.data(), tail.data() + tail.size(), entry.bytes);
    if (ec != std::errc{}) return std::nullopt;
  }
  return entry;
}

std::string format_log_line(const fs::NamespaceTree& tree,
                            const TraceRecord& record,
                            std::uint64_t sequence) {
  // A synthetic-but-valid CLF line; the timestamp advances one second per
  // record from an arbitrary epoch (its value is irrelevant to replay).
  std::string line = "10.0.0.1 - - [";
  line += "23/Aug/2013:00:";
  const std::uint64_t minutes = (sequence / 60) % 60;
  const std::uint64_t seconds = sequence % 60;
  line += (minutes < 10 ? "0" : "") + std::to_string(minutes) + ":";
  line += (seconds < 10 ? "0" : "") + std::to_string(seconds);
  line += " -0400] \"GET ";
  line += tree.path_of(record.dir);
  line += "/file" + std::to_string(record.file);
  line += " HTTP/1.1\" 200 512";
  return line;
}

void write_log(std::ostream& os, const fs::NamespaceTree& tree,
               const WebTrace& trace) {
  std::uint64_t sequence = 0;
  for (const TraceRecord& record : trace.records()) {
    os << format_log_line(tree, record, sequence++) << '\n';
  }
}

ImportedLog import_log(std::istream& is) {
  ImportedLog out;
  out.tree = std::make_unique<fs::NamespaceTree>();
  fs::NamespaceTree& tree = *out.tree;

  // Maps a directory path to its DirId, and each (dir, leaf name) to a
  // file index within the directory.
  std::map<std::string, DirId, std::less<>> dirs;
  dirs.emplace("/", tree.root());
  std::map<DirId, std::map<std::string, FileIndex, std::less<>>> files;

  const auto dir_for = [&](std::string_view path) -> DirId {
    const auto it = dirs.find(path);
    if (it != dirs.end()) return it->second;
    // Create the chain component by component.
    DirId current = tree.root();
    std::string so_far;
    for (const std::string_view part : fs::split_path(path)) {
      so_far += '/';
      so_far += part;
      const auto known = dirs.find(so_far);
      if (known != dirs.end()) {
        current = known->second;
        continue;
      }
      current = tree.add_dir(current, std::string(part));
      dirs.emplace(so_far, current);
    }
    return current;
  };

  std::string line;
  while (std::getline(is, line)) {
    if (line.empty()) continue;
    const std::optional<LogEntry> entry = parse_log_line(line);
    if (!entry) {
      ++out.malformed_lines;
      continue;
    }
    const std::size_t last_slash = entry->path.find_last_of('/');
    const std::string_view dir_path =
        last_slash == 0 ? std::string_view("/")
                        : std::string_view(entry->path).substr(0, last_slash);
    const std::string leaf = entry->path.substr(last_slash + 1);
    if (leaf.empty()) {
      ++out.malformed_lines;
      continue;
    }
    const DirId dir = dir_for(dir_path);
    auto& dir_files = files[dir];
    const auto it = dir_files.find(leaf);
    FileIndex idx;
    if (it != dir_files.end()) {
      idx = it->second;
    } else {
      idx = tree.create_file(dir);
      dir_files.emplace(leaf, idx);
      ++out.distinct_files;
    }
    out.records.push_back(TraceRecord{.dir = dir, .file = idx});
  }
  return out;
}

}  // namespace lunule::workloads
