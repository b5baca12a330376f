#include "lint_core.h"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <sstream>

namespace xfraud::lint {

namespace {

namespace fs = std::filesystem;

bool IsWordChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

/// True when src[quote] is the '"' of a raw-string literal: immediately
/// preceded by an R / LR / uR / UR / u8R prefix that is not glued onto a
/// longer identifier (`FOOR"..."` is a macro-pasted ordinary string).
bool IsRawStringQuote(const std::string& src, size_t quote) {
  if (quote == 0 || src[quote - 1] != 'R') return false;
  size_t start = quote - 1;  // index of 'R'
  if (start > 0) {
    if (src[start - 1] == '8' && start >= 2 && src[start - 2] == 'u') {
      start -= 2;
    } else if (src[start - 1] == 'L' || src[start - 1] == 'u' ||
               src[start - 1] == 'U') {
      start -= 1;
    }
  }
  return start == 0 || !IsWordChar(src[start - 1]);
}

/// For a raw string opening at src[quote] == '"', finds the '(' that ends
/// the d-char-seq. Returns npos when no well-formed delimiter follows (at
/// most 16 d-chars, none of space/paren/backslash/newline), in which case
/// the literal is scanned as an ordinary string.
size_t RawDelimiterOpen(const std::string& src, size_t quote) {
  for (size_t j = quote + 1; j < src.size() && j <= quote + 17; ++j) {
    char d = src[j];
    if (d == '(') return j;
    if (d == ' ' || d == ')' || d == '\\' || d == '\n' || d == '"') break;
  }
  return std::string::npos;
}

bool ShouldSkipDir(const fs::path& dir) {
  std::string name = dir.filename().string();
  return name == ".git" || name.ends_with("_fixtures") ||
         name.rfind("build", 0) == 0 || name == "CMakeFiles";
}

bool LintableFile(const fs::path& p) {
  std::string ext = p.extension().string();
  return ext == ".cc" || ext == ".h" || ext == ".cpp" || ext == ".hpp";
}

}  // namespace

SplitSource SplitCodeComments(const std::string& src) {
  SplitSource out;
  out.code.assign(src.size(), ' ');
  out.comments.assign(src.size(), ' ');
  enum class State { kCode, kLine, kBlock, kString, kChar, kRaw };
  State state = State::kCode;
  std::string raw_delim;
  for (size_t i = 0; i < src.size(); ++i) {
    char c = src[i];
    char next = i + 1 < src.size() ? src[i + 1] : '\0';
    if (c == '\n') {
      out.code[i] = '\n';
      out.comments[i] = '\n';
      if (state == State::kLine) state = State::kCode;
      continue;
    }
    switch (state) {
      case State::kCode:
        if (c == '/' && next == '/') {
          state = State::kLine;
          break;
        }
        if (c == '/' && next == '*') {
          state = State::kBlock;
          ++i;
          break;
        }
        if (c == '"') {
          if (IsRawStringQuote(src, i)) {
            size_t open = RawDelimiterOpen(src, i);
            if (open != std::string::npos) {
              raw_delim = ")" + src.substr(i + 1, open - (i + 1)) + "\"";
              out.code[i] = '"';
              state = State::kRaw;
              i = open;  // literal contents blanked from here on
              break;
            }
          }
          state = State::kString;
          out.code[i] = '"';
          break;
        }
        if (c == '\'' && (i == 0 || !IsWordChar(src[i - 1]))) {
          state = State::kChar;
          out.code[i] = '\'';
          break;
        }
        out.code[i] = c;
        break;
      case State::kLine:
        out.comments[i] = c;
        break;
      case State::kBlock:
        if (c == '*' && next == '/') {
          ++i;
          state = State::kCode;
        } else {
          out.comments[i] = c;
        }
        break;
      case State::kString:
        if (c == '\\') {
          ++i;
        } else if (c == '"') {
          out.code[i] = '"';
          state = State::kCode;
        }
        break;
      case State::kChar:
        if (c == '\\') {
          ++i;
        } else if (c == '\'') {
          out.code[i] = '\'';
          state = State::kCode;
        }
        break;
      case State::kRaw:
        if (src.compare(i, raw_delim.size(), raw_delim) == 0) {
          i += raw_delim.size() - 1;
          out.code[i] = '"';
          state = State::kCode;
        }
        break;
    }
  }
  return out;
}

std::vector<std::string> SplitLines(const std::string& text) {
  std::vector<std::string> lines;
  std::string::size_type begin = 0;
  while (begin <= text.size()) {
    std::string::size_type end = text.find('\n', begin);
    if (end == std::string::npos) {
      lines.push_back(text.substr(begin));
      break;
    }
    lines.push_back(text.substr(begin, end - begin));
    begin = end + 1;
  }
  return lines;
}

bool HasWord(const std::string& line, const std::string& word,
             bool requires_call) {
  std::string::size_type pos = 0;
  while ((pos = line.find(word, pos)) != std::string::npos) {
    bool start_ok = pos == 0 || !IsWordChar(line[pos - 1]);
    std::string::size_type end = pos + word.size();
    bool end_ok = end >= line.size() || !IsWordChar(line[end]);
    if (start_ok && end_ok) {
      if (!requires_call) return true;
      while (end < line.size() && line[end] == ' ') ++end;
      if (end < line.size() && line[end] == '(') return true;
    }
    pos += word.size();
  }
  return false;
}

std::vector<std::vector<std::string>> ParseAllowDirectives(
    const std::vector<std::string>& comment_lines, const std::string& tag) {
  std::vector<std::vector<std::string>> allowed(comment_lines.size());
  for (size_t i = 0; i < comment_lines.size(); ++i) {
    std::string::size_type tag_pos = comment_lines[i].find(tag);
    if (tag_pos == std::string::npos) continue;
    std::string::size_type open =
        comment_lines[i].find("allow(", tag_pos + tag.size());
    if (open == std::string::npos) continue;
    std::string::size_type close = comment_lines[i].find(')', open);
    if (close == std::string::npos) continue;
    std::string args =
        comment_lines[i].substr(open + 6, close - (open + 6));
    std::stringstream ss(args);
    std::string rule;
    while (std::getline(ss, rule, ',')) {
      rule.erase(std::remove(rule.begin(), rule.end(), ' '), rule.end());
      if (!rule.empty()) allowed[i].push_back(rule);
    }
  }
  return allowed;
}

bool ListSourceFiles(const std::vector<std::string>& roots,
                     std::vector<std::string>* files, std::string* error) {
  for (const std::string& root : roots) {
    std::error_code ec;
    fs::file_status st = fs::status(root, ec);
    if (ec) {
      *error = "cannot stat " + root + ": " + ec.message();
      return false;
    }
    if (fs::is_regular_file(st)) {
      files->push_back(root);
      continue;
    }
    if (!fs::is_directory(st)) {
      *error = root + " is neither a file nor a directory";
      return false;
    }
    fs::recursive_directory_iterator it(root, ec), end;
    if (ec) {
      *error = "cannot walk " + root + ": " + ec.message();
      return false;
    }
    for (; it != end; it.increment(ec)) {
      if (ec) {
        *error = "walk failed under " + root + ": " + ec.message();
        return false;
      }
      if (it->is_directory() && ShouldSkipDir(it->path())) {
        it.disable_recursion_pending();
        continue;
      }
      if (it->is_regular_file() && LintableFile(it->path())) {
        files->push_back(it->path().string());
      }
    }
  }
  std::sort(files->begin(), files->end());
  return true;
}

bool ReadFileToString(const std::string& path, std::string* contents,
                      std::string* error) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    *error = "cannot read " + path;
    return false;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  *contents = buf.str();
  return true;
}

namespace {

struct FileScope {
  bool is_header = false;
  bool in_library = false;   // under src/xfraud — library-only rules
  bool rng_exempt = false;   // the one sanctioned randomness source
  bool io_exempt = false;    // sanctioned output sinks
  bool durable_write_exempt = false;  // sanctioned file-write primitives
  bool clock_exempt = false;  // common/ wraps the raw clock for everyone
  bool socket_exempt = false;  // dist/ is the sanctioned transport layer
  bool bytes_exempt = false;   // common/bytes.* is the one byte codec
  bool parses_input = false;   // under src/ or tools/ — no std::sto*/ato*
};

/// True when `dir` is a whole path component of `p`.
bool HasDir(const std::string& p, const std::string& dir) {
  return p.rfind(dir + "/", 0) == 0 ||
         p.find("/" + dir + "/") != std::string::npos;
}

FileScope ClassifyPath(const std::string& path) {
  std::string p = path;
  std::replace(p.begin(), p.end(), '\\', '/');
  FileScope scope;
  scope.is_header = p.size() >= 2 && (p.ends_with(".h") || p.ends_with(".hpp"));
  scope.in_library = p.find("src/xfraud") != std::string::npos;
  scope.rng_exempt = p.find("common/rng") != std::string::npos;
  scope.io_exempt = p.find("common/logging") != std::string::npos ||
                    p.find("common/table_printer") != std::string::npos ||
                    p.find("/obs/") != std::string::npos;
  // The two sanctioned write paths: the atomic-write helper itself and the
  // log-structured store's append/compact machinery.
  scope.durable_write_exempt =
      p.find("common/atomic_file") != std::string::npos ||
      p.find("kv/log_kv") != std::string::npos;
  // common/ (clock.h/.cc, timer.h) is where raw std::chrono lives; the rest
  // of the library must take an injectable Clock so tests can use virtual
  // time.
  scope.clock_exempt = p.find("common/") != std::string::npos;
  // Raw socket syscalls live behind the dist/ socket transport; only
  // src/xfraud/dist (sockets, rendezvous, ring framing) may issue them.
  scope.socket_exempt = p.find("src/xfraud/dist") != std::string::npos;
  scope.bytes_exempt = p.find("common/bytes.") != std::string::npos;
  scope.parses_input = HasDir(p, "src") || HasDir(p, "tools");
  return scope;
}

class Linter {
 public:
  Linter(const std::string& path, const std::string& contents)
      : path_(path),
        scope_(ClassifyPath(path)),
        split_(SplitCodeComments(contents)),
        code_lines_(SplitLines(split_.code)),
        comment_lines_(SplitLines(split_.comments)),
        allowed_(ParseAllowDirectives(comment_lines_, "xfraud-lint:")) {}

  std::vector<Finding> Run() {
    CheckNondeterminism();
    CheckRawClock();
    CheckRawSocket();
    CheckRawBytes();
    CheckStoAto();
    CheckNakedNew();
    CheckRawIo();
    CheckDirectWrite();
    CheckUsingNamespace();
    CheckHeaderGuard();
    CheckCatchAll();
    CheckTodoIssue();
    return std::move(findings_);
  }

 private:
  bool Allowed(size_t line0, const std::string& rule) const {
    for (size_t l = line0 > 0 ? line0 - 1 : 0; l <= line0; ++l) {
      if (l >= allowed_.size()) break;
      for (const std::string& r : allowed_[l]) {
        if (r == rule) return true;
      }
    }
    return false;
  }

  void Report(size_t line0, const std::string& rule,
              const std::string& message) {
    if (Allowed(line0, rule)) return;
    findings_.push_back(
        {path_, static_cast<int>(line0) + 1, rule, message});
  }

  void CheckNondeterminism() {
    if (scope_.rng_exempt) return;
    for (size_t i = 0; i < code_lines_.size(); ++i) {
      const std::string& line = code_lines_[i];
      if (HasWord(line, "rand", true) || HasWord(line, "srand", true)) {
        Report(i, "nondeterminism",
               "rand()/srand() break bit-reproducible sampling; take an "
               "explicit xfraud::Rng");
      }
      if (HasWord(line, "random_device", false)) {
        Report(i, "nondeterminism",
               "std::random_device is nondeterministic; seed through "
               "common/rng instead");
      }
      if (HasWord(line, "time", true)) {
        Report(i, "nondeterminism",
               "time() as an input makes runs unreproducible; thread a seed "
               "or WallTimer through instead");
      }
    }
  }

  /// Library code that reads std::chrono clocks or sleeps directly cannot
  /// be driven by a VirtualClock, so its timeouts/deadlines are untestable
  /// without real waiting. Everything outside common/ must go through the
  /// injectable xfraud::Clock (common/clock.h).
  void CheckRawClock() {
    if (!scope_.in_library || scope_.clock_exempt) return;
    for (size_t i = 0; i < code_lines_.size(); ++i) {
      const std::string& line = code_lines_[i];
      bool clock_read = (HasWord(line, "steady_clock", false) ||
                         HasWord(line, "system_clock", false) ||
                         HasWord(line, "high_resolution_clock", false)) &&
                        line.find("::now") != std::string::npos;
      bool raw_sleep = HasWord(line, "sleep_for", true) ||
                       HasWord(line, "sleep_until", true);
      if (clock_read || raw_sleep) {
        Report(i, "no-raw-clock",
               "raw std::chrono clock/sleep in library code defeats virtual "
               "time; take an xfraud::Clock (common/clock.h)");
      }
    }
  }

  /// Socket syscalls scattered through library code bypass the dist/
  /// socket transport — its deadline budgets, error mapping, retry policy,
  /// and break-on-failure semantics. Everything outside src/xfraud/dist
  /// must either speak through dist/socket_transport or add a sanctioned
  /// primitive to it.
  void CheckRawSocket() {
    if (!scope_.in_library || scope_.socket_exempt) return;
    for (size_t i = 0; i < code_lines_.size(); ++i) {
      const std::string& line = code_lines_[i];
      bool hit = false;
      // Lifecycle calls plus the data-plane and option syscalls: the serve/
      // tier (and everything else) speaks CRC'd frames through
      // dist/socket_transport, so even a bare send()/recv()/poll() on a
      // smuggled fd is a layering break.
      for (const char* fn :
           {"socket", "socketpair", "connect", "bind", "listen", "accept",
            "send", "recv", "sendto", "recvfrom", "setsockopt", "getsockopt",
            "shutdown", "poll"}) {
        if (HasWord(line, fn, /*requires_call=*/true)) {
          hit = true;
          break;
        }
      }
      if (hit) {
        Report(i, "no-raw-socket",
               "raw socket syscall outside src/xfraud/dist bypasses the "
               "socket transport (deadlines, retries, error mapping); "
               "use dist::SocketCommunicator or extend dist/socket_transport");
      }
    }
  }

  /// Viewing an object as a char pointer is how a hand-rolled byte codec
  /// starts: its own widths, its own endianness assumptions, its own (or
  /// no) bounds checks. Every byte library code persists or ships goes
  /// through common/bytes.h's ByteWriter/ByteReader instead.
  void CheckRawBytes() {
    if (!scope_.in_library || scope_.bytes_exempt) return;
    const std::string& code = split_.code;
    const std::string kCast = "reinterpret_cast";
    for (size_t at = code.find(kCast); at != std::string::npos;
         at = code.find(kCast, at + kCast.size())) {
      if (at > 0 && IsWordChar(code[at - 1])) continue;
      const size_t open = code.find_first_not_of(" \t\n", at + kCast.size());
      if (open == std::string::npos || code[open] != '<') continue;
      const size_t close = code.find('>', open);
      if (close == std::string::npos) continue;
      // The target type with qualifiers and whitespace dropped.
      std::string target;
      std::istringstream words(code.substr(open + 1, close - open - 1));
      for (std::string word; words >> word;) {
        if (word != "const" && word != "volatile") target += word;
      }
      if (target == "char*" || target == "unsignedchar*" ||
          target == "signedchar*") {
        Report(static_cast<size_t>(
                   std::count(code.begin(), code.begin() + at, '\n')),
               "no-raw-bytes",
               "reinterpret_cast to a char pointer hand-encodes bytes; use "
               "common/bytes.h (ByteWriter/ByteReader)");
      }
    }
  }

  /// std::stoi and friends throw std::invalid_argument on junk and accept
  /// a valid prefix ("12abc" is 12); atoi and friends return 0 on junk.
  /// Flags, logs and plans are parsed with common/parse_number.h, which
  /// takes the whole string or returns a Status.
  void CheckStoAto() {
    if (!scope_.parses_input) return;
    for (size_t i = 0; i < code_lines_.size(); ++i) {
      const std::string& line = code_lines_[i];
      for (const char* fn : {"stoi", "stol", "stoll", "stoul", "stoull",
                             "stof", "stod", "stold", "atoi", "atol", "atoll",
                             "atof"}) {
        if (HasWord(line, fn, /*requires_call=*/false)) {
          Report(i, "no-sto-ato",
                 std::string(fn) +
                     " throws or takes a prefix of its input; parse with "
                     "common/parse_number.h (ParseNumber<T>)");
          break;
        }
      }
    }
  }

  void CheckNakedNew() {
    if (!scope_.in_library) return;
    for (size_t i = 0; i < code_lines_.size(); ++i) {
      const std::string& line = code_lines_[i];
      if (HasWord(line, "new", false)) {
        Report(i, "no-naked-new",
               "naked new in library code; use make_unique/make_shared or a "
               "container");
      }
      if (HasWord(line, "malloc", true) || HasWord(line, "calloc", true) ||
          HasWord(line, "realloc", true) || HasWord(line, "free", true)) {
        Report(i, "no-naked-new",
               "manual malloc/free in library code; use RAII containers");
      }
    }
  }

  void CheckRawIo() {
    if (!scope_.in_library || scope_.io_exempt) return;
    for (size_t i = 0; i < code_lines_.size(); ++i) {
      const std::string& line = code_lines_[i];
      bool hit = line.find("std::cout") != std::string::npos ||
                 HasWord(line, "printf", true) ||
                 HasWord(line, "fprintf", true) ||
                 HasWord(line, "puts", true);
      if (hit) {
        Report(i, "no-raw-io",
               "direct stdout/printf in library code; route through "
               "XF_LOG/obs or take an std::ostream&");
      }
    }
  }

  /// A write that goes through std::ofstream / fopen / ::open can be torn
  /// by a crash between the first byte and the last. Library code must
  /// write durable files through common/atomic_file (tmp + fsync + rename,
  /// optional CRC footer); only the allowlisted sinks (the helper itself
  /// and the log-structured KV, whose append/replay protocol handles torn
  /// tails by design) may open files for writing directly.
  void CheckDirectWrite() {
    if (!scope_.in_library || scope_.durable_write_exempt) return;
    for (size_t i = 0; i < code_lines_.size(); ++i) {
      const std::string& line = code_lines_[i];
      bool hit = HasWord(line, "ofstream", false) ||
                 HasWord(line, "fopen", true);
      if (!hit) {
        std::string::size_type pos = line.find("::open");
        if (pos != std::string::npos) {
          std::string::size_type j = pos + 6;
          while (j < line.size() && line[j] == ' ') ++j;
          hit = j < line.size() && line[j] == '(';
        }
      }
      if (hit) {
        Report(i, "no-direct-write",
               "direct file write in library code can tear on crash; use "
               "common/atomic_file (AtomicWriteFile[WithCrc])");
      }
    }
  }

  void CheckUsingNamespace() {
    if (!scope_.is_header) return;
    for (size_t i = 0; i < code_lines_.size(); ++i) {
      const std::string& line = code_lines_[i];
      if (HasWord(line, "using", false) && HasWord(line, "namespace", false)) {
        std::string::size_type u = line.find("using");
        std::string::size_type n = line.find("namespace", u);
        if (n != std::string::npos) {
          Report(i, "no-using-namespace",
                 "using namespace in a header leaks into every includer");
        }
      }
    }
  }

  void CheckHeaderGuard() {
    if (!scope_.is_header) return;
    bool pragma_once = false;
    bool ifndef = false;
    bool define = false;
    size_t limit = std::min<size_t>(code_lines_.size(), 50);
    for (size_t i = 0; i < limit; ++i) {
      const std::string& line = code_lines_[i];
      if (line.find("#pragma once") != std::string::npos) pragma_once = true;
      if (line.find("#ifndef") != std::string::npos) ifndef = true;
      if (ifndef && line.find("#define") != std::string::npos) define = true;
    }
    if (!pragma_once && !(ifndef && define)) {
      Report(0, "header-guard",
             "header lacks an include guard (#pragma once or "
             "#ifndef/#define pair)");
    }
  }

  void CheckCatchAll() {
    if (!scope_.in_library) return;
    const std::string& code = split_.code;
    size_t line0 = 0;
    for (size_t i = 0; i < code.size(); ++i) {
      if (code[i] == '\n') {
        ++line0;
        continue;
      }
      if (code.compare(i, 5, "catch") != 0) continue;
      if (i > 0 && IsWordChar(code[i - 1])) continue;
      if (i + 5 < code.size() && IsWordChar(code[i + 5])) continue;
      size_t j = i + 5;
      while (j < code.size() &&
             (code[j] == ' ' || code[j] == '\n' || code[j] == '\t')) {
        ++j;
      }
      if (j >= code.size() || code[j] != '(') continue;
      size_t close = code.find(')', j);
      if (close == std::string::npos) continue;
      std::string params = code.substr(j + 1, close - j - 1);
      params.erase(std::remove_if(params.begin(), params.end(),
                                  [](char c) { return std::isspace(
                                        static_cast<unsigned char>(c)); }),
                   params.end());
      if (params != "...") continue;
      // Walk the handler block and demand the exception is rethrown,
      // captured, or converted into a returned error.
      size_t open = code.find('{', close);
      if (open == std::string::npos) continue;
      int depth = 1;
      size_t k = open + 1;
      while (k < code.size() && depth > 0) {
        if (code[k] == '{') ++depth;
        if (code[k] == '}') --depth;
        ++k;
      }
      std::string body = code.substr(open + 1, k - open - 2);
      bool handled = HasWord(body, "throw", false) ||
                     body.find("current_exception") != std::string::npos ||
                     HasWord(body, "return", false);
      if (!handled) {
        Report(line0, "no-catch-all",
               "catch (...) swallows the exception; rethrow, capture via "
               "std::current_exception, or convert to Status");
      }
    }
  }

  void CheckTodoIssue() {
    for (size_t i = 0; i < comment_lines_.size(); ++i) {
      const std::string& line = comment_lines_[i];
      for (const char* tag : {"TODO", "FIXME"}) {
        std::string::size_type pos = line.find(tag);
        if (pos == std::string::npos) continue;
        // Accept TODO(#123) / FIXME(#123) — a trackable reference.
        std::string::size_type after = pos + std::string(tag).size();
        bool has_issue = line.compare(after, 2, "(#") == 0 &&
                         after + 2 < line.size() &&
                         std::isdigit(static_cast<unsigned char>(
                             line[after + 2])) != 0;
        if (!has_issue) {
          Report(i, "todo-issue",
                 std::string(tag) +
                     " without an issue reference; use TODO(#123) so it is "
                     "trackable");
        }
        break;  // one finding per line is enough
      }
    }
  }

  std::string path_;
  FileScope scope_;
  SplitSource split_;
  std::vector<std::string> code_lines_;
  std::vector<std::string> comment_lines_;
  std::vector<std::vector<std::string>> allowed_;
  std::vector<Finding> findings_;
};

}  // namespace

const std::vector<std::string>& RuleIds() {
  static const std::vector<std::string> kRules = {
      "nondeterminism", "no-raw-clock",       "no-raw-socket",
      "no-raw-bytes",   "no-naked-new",       "no-raw-io",
      "no-direct-write", "header-guard",      "no-using-namespace",
      "no-catch-all",   "todo-issue",         "no-sto-ato",
  };
  return kRules;
}

std::vector<Finding> LintContent(const std::string& path,
                                 const std::string& contents) {
  return Linter(path, contents).Run();
}

bool LintPaths(const std::vector<std::string>& roots,
               std::vector<Finding>* findings, std::string* error) {
  std::vector<std::string> files;
  if (!ListSourceFiles(roots, &files, error)) return false;
  for (const std::string& file : files) {
    std::string contents;
    if (!ReadFileToString(file, &contents, error)) return false;
    std::vector<Finding> f = LintContent(file, contents);
    findings->insert(findings->end(), f.begin(), f.end());
  }
  return true;
}

std::string FindingsToJson(const std::vector<Finding>& findings) {
  auto escape = [](const std::string& s) {
    std::string out;
    for (char c : s) {
      switch (c) {
        case '"':
          out += "\\\"";
          break;
        case '\\':
          out += "\\\\";
          break;
        case '\n':
          out += "\\n";
          break;
        case '\t':
          out += "\\t";
          break;
        default:
          out += c;
      }
    }
    return out;
  };
  std::ostringstream out;
  out << "[";
  for (size_t i = 0; i < findings.size(); ++i) {
    if (i > 0) out << ",";
    out << "\n  {\"file\": \"" << escape(findings[i].file)
        << "\", \"line\": " << findings[i].line << ", \"rule\": \""
        << escape(findings[i].rule) << "\", \"message\": \""
        << escape(findings[i].message) << "\"}";
  }
  if (!findings.empty()) out << "\n";
  out << "]\n";
  return out.str();
}

}  // namespace xfraud::lint
