#include "analyze_core.h"

#include <algorithm>
#include <cctype>
#include <map>
#include <set>
#include <sstream>

namespace xfraud::analyze {

namespace {

bool IsWordChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

bool IsWordStart(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) != 0 || c == '_';
}

std::string Trim(const std::string& s) {
  size_t b = s.find_first_not_of(" \t\n\r");
  if (b == std::string::npos) return "";
  size_t e = s.find_last_not_of(" \t\n\r");
  return s.substr(b, e - b + 1);
}

/// One file plus everything the passes need: scanner halves, per-line allow
/// directives, and its place in the module tree.
struct ScannedFile {
  const SourceFile* src = nullptr;
  lint::SplitSource split;
  std::vector<std::string> raw_lines;
  std::vector<std::vector<std::string>> allows;
  std::vector<size_t> line_starts;  // byte offset of each line start
  std::string module;               // "" unless under src/xfraud/<module>/
  bool in_library = false;          // under src/xfraud/
};

int LineOf(const ScannedFile& f, size_t offset) {
  auto it = std::upper_bound(f.line_starts.begin(), f.line_starts.end(),
                             offset);
  return static_cast<int>(it - f.line_starts.begin());  // 1-based
}

bool AllowedAt(const ScannedFile& f, int line1, const std::string& rule) {
  size_t line0 = static_cast<size_t>(line1 - 1);
  for (size_t l = line0 > 0 ? line0 - 1 : 0; l <= line0; ++l) {
    if (l >= f.allows.size()) break;
    for (const std::string& r : f.allows[l]) {
      if (r == rule) return true;
    }
  }
  return false;
}

ScannedFile ScanFile(const SourceFile& src) {
  ScannedFile f;
  f.src = &src;
  f.split = lint::SplitCodeComments(src.contents);
  f.raw_lines = lint::SplitLines(src.contents);
  f.allows = lint::ParseAllowDirectives(
      lint::SplitLines(f.split.comments), "xfraud-analyze:");
  f.line_starts.push_back(0);
  for (size_t i = 0; i < src.contents.size(); ++i) {
    if (src.contents[i] == '\n') f.line_starts.push_back(i + 1);
  }
  std::string path = src.path;
  std::replace(path.begin(), path.end(), '\\', '/');
  size_t pos = path.find("src/xfraud/");
  if (pos != std::string::npos) {
    f.in_library = true;
    std::string rest = path.substr(pos + 11);
    size_t slash = rest.find('/');
    // Files directly in src/xfraud/ (the umbrella header) belong to no
    // module and are exempt from layering: aggregating everything is their
    // job.
    if (slash != std::string::npos) f.module = rest.substr(0, slash);
  }
  return f;
}

// --------------------------------------------------------------------------
// Pass 1: include graph — layering and cycles.
// --------------------------------------------------------------------------

struct IncludeEdge {
  std::string from;
  std::string to;
  const ScannedFile* file;
  int line;
  std::string target;  // the quoted include path
};

/// Pulls `#include "xfraud/<module>/..."` edges out of one module file.
/// The include path itself is a string literal (blanked in the code half),
/// so the directive is located in code and the target read from the raw
/// line at the same offsets.
void CollectEdges(const ScannedFile& f, std::vector<IncludeEdge>* edges) {
  if (f.module.empty()) return;
  std::vector<std::string> code_lines = lint::SplitLines(f.split.code);
  for (size_t i = 0; i < code_lines.size(); ++i) {
    if (code_lines[i].find("#include") == std::string::npos) continue;
    const std::string& raw = f.raw_lines[i];
    size_t open = raw.find('"');
    if (open == std::string::npos) continue;
    size_t close = raw.find('"', open + 1);
    if (close == std::string::npos) continue;
    std::string target = raw.substr(open + 1, close - open - 1);
    if (target.rfind("xfraud/", 0) != 0) continue;
    size_t slash = target.find('/', 7);
    if (slash == std::string::npos) continue;  // the umbrella header
    std::string to = target.substr(7, slash - 7);
    if (to == f.module) continue;
    edges->push_back({f.module, to, &f, static_cast<int>(i) + 1, target});
  }
}

void CheckLayering(const std::vector<IncludeEdge>& edges,
                   const LayeringConfig& config,
                   std::vector<Finding>* findings) {
  for (const IncludeEdge& e : edges) {
    int lf = ModuleLayer(e.from);
    int lt = ModuleLayer(e.to);
    std::string message;
    if (lf < 0) {
      message = "file belongs to module '" + e.from +
                "', which the declared module DAG does not know; add it to "
                "a layer in tools/analyze/analyze_core.cc";
    } else if (lt < 0) {
      message = "include \"" + e.target + "\" targets module '" + e.to +
                "', which the declared module DAG does not know";
    } else if (lt < lf) {
      continue;  // strictly downward: always fine
    } else if (config.IsBlessed(e.from, e.to)) {
      continue;
    } else {
      message = "include \"" + e.target + "\" makes module '" + e.from +
                "' (layer " + std::to_string(lf) + ") depend on '" + e.to +
                "' (layer " + std::to_string(lt) +
                "); only strictly lower layers may be included — invert "
                "the dependency or bless the edge in layering.conf "
                "(allow " + e.from + " -> " + e.to + ")";
    }
    if (AllowedAt(*e.file, e.line, "layering")) continue;
    findings->push_back({e.file->src->path, e.line, "layering", message});
  }
}

/// Tarjan SCC over the (tiny) module graph; every SCC with more than one
/// module is a cycle, reported once with the offending include chain.
/// Blessed edges still participate: a blessing exempts a layer rank check,
/// never a cycle.
class CycleFinder {
 public:
  explicit CycleFinder(const std::vector<IncludeEdge>& edges) {
    for (const IncludeEdge& e : edges) {
      adj_[e.from].emplace(e.to, &e);  // keeps the first (lowest-path) edge
      if (adj_.count(e.to) == 0) adj_[e.to] = {};
    }
  }

  void Report(std::vector<Finding>* findings) {
    for (const auto& [node, unused] : adj_) {
      if (index_.count(node) == 0) Strongconnect(node);
    }
    for (const std::vector<std::string>& scc : sccs_) {
      if (scc.size() < 2) continue;
      ReportCycle(scc, findings);
    }
  }

 private:
  void Strongconnect(const std::string& v) {
    index_[v] = low_[v] = next_index_++;
    stack_.push_back(v);
    on_stack_.insert(v);
    for (const auto& [w, edge] : adj_[v]) {
      if (index_.count(w) == 0) {
        Strongconnect(w);
        low_[v] = std::min(low_[v], low_[w]);
      } else if (on_stack_.count(w) != 0) {
        low_[v] = std::min(low_[v], index_[w]);
      }
    }
    if (low_[v] == index_[v]) {
      std::vector<std::string> scc;
      while (true) {
        std::string w = stack_.back();
        stack_.pop_back();
        on_stack_.erase(w);
        scc.push_back(w);
        if (w == v) break;
      }
      std::sort(scc.begin(), scc.end());
      sccs_.push_back(std::move(scc));
    }
  }

  /// Walks edges inside the SCC from its smallest module until the walk
  /// closes, producing `a -> b (file:line) -> ... -> a (file:line)` where
  /// each location is the include creating the next hop.
  void ReportCycle(const std::vector<std::string>& scc,
                   std::vector<Finding>* findings) {
    std::set<std::string> members(scc.begin(), scc.end());
    std::vector<const IncludeEdge*> chain;
    std::set<std::string> visited;
    std::string at = scc.front();
    while (visited.insert(at).second) {
      const IncludeEdge* next = nullptr;
      for (const auto& [w, edge] : adj_[at]) {
        if (members.count(w) != 0) {
          next = edge;
          break;
        }
      }
      if (next == nullptr) return;  // defensive: SCC must have an out-edge
      chain.push_back(next);
      at = next->to;
    }
    // Drop the lead-in: keep only the chain from the first repeated module.
    size_t start = 0;
    while (start < chain.size() && chain[start]->from != at) ++start;
    std::string message = "module include cycle: " + at;
    for (size_t i = start; i < chain.size(); ++i) {
      message += " -> " + chain[i]->to + " (" + chain[i]->file->src->path +
                 ":" + std::to_string(chain[i]->line) + ")";
    }
    const IncludeEdge* anchor = chain[start];
    findings->push_back({anchor->file->src->path, anchor->line,
                         "include-cycle", message});
  }

  std::map<std::string, std::map<std::string, const IncludeEdge*>> adj_;
  std::map<std::string, int> index_;
  std::map<std::string, int> low_;
  int next_index_ = 0;
  std::vector<std::string> stack_;
  std::set<std::string> on_stack_;
  std::vector<std::vector<std::string>> sccs_;
};

// --------------------------------------------------------------------------
// Pass 2: discarded Status/Result results.
// --------------------------------------------------------------------------

size_t SkipWs(const std::string& s, size_t i) {
  while (i < s.size() && (s[i] == ' ' || s[i] == '\t' || s[i] == '\n' ||
                          s[i] == '\r')) {
    ++i;
  }
  return i;
}

size_t SkipWsBack(const std::string& s, size_t i) {
  while (i > 0 && (s[i - 1] == ' ' || s[i - 1] == '\t' || s[i - 1] == '\n' ||
                   s[i - 1] == '\r')) {
    --i;
  }
  return i;
}

/// Balances from s[open] (a '<' or '(') to its closing bracket; returns the
/// index one past the close, or npos when unbalanced.
size_t BalanceFrom(const std::string& s, size_t open, char oc, char cc) {
  int depth = 0;
  for (size_t i = open; i < s.size(); ++i) {
    if (s[i] == oc) ++depth;
    if (s[i] == cc) {
      if (--depth == 0) return i + 1;
    }
  }
  return std::string::npos;
}

/// Parses `id` or `id::id::id` starting at i; returns one past the end and
/// stores the LAST component (the unqualified name), or npos when i does
/// not start an identifier.
size_t ParseQualifiedId(const std::string& s, size_t i, std::string* last) {
  if (i >= s.size() || !IsWordStart(s[i])) return std::string::npos;
  while (true) {
    size_t e = i;
    while (e < s.size() && IsWordChar(s[e])) ++e;
    *last = s.substr(i, e - i);
    if (e + 1 < s.size() && s[e] == ':' && s[e + 1] == ':' &&
        e + 2 < s.size() && IsWordStart(s[e + 2])) {
      i = e + 2;
      continue;
    }
    return e;
  }
}

/// Walks the code half and hands every identifier token to `fn(begin, end)`.
template <typename Fn>
void ForEachIdentifier(const std::string& code, Fn fn) {
  for (size_t i = 0; i < code.size(); ++i) {
    if (!IsWordStart(code[i]) || (i > 0 && IsWordChar(code[i - 1]))) continue;
    size_t e = i;
    while (e < code.size() && IsWordChar(code[e])) ++e;
    fn(i, e);
    i = e - 1;
  }
}

/// Textual index of functions declared to return Status or Result<...>.
/// Whole-program: built over every scanned file so headers inform call
/// sites anywhere. Names that are ALSO declared with a conflicting return
/// type somewhere are excluded from checking rather than guessed at.
struct StatusIndex {
  std::set<std::string> status_fns;
  std::set<std::string> ambiguous;
};

void IndexStatusFunctions(const ScannedFile& f, StatusIndex* index) {
  const std::string& code = f.split.code;
  ForEachIdentifier(code, [&](size_t b, size_t e) {
    std::string tok = code.substr(b, e - b);
    size_t j = SkipWs(code, e);
    if (tok == "Status") {
      // `Status Name(` / `Status Class::Name(` — a declaration. `Status::X`
      // factories and `Status s = ...` fall out of the shape.
      std::string name;
      size_t after = ParseQualifiedId(code, j, &name);
      if (after == std::string::npos) return;
      after = SkipWs(code, after);
      if (after < code.size() && code[after] == '(') {
        index->status_fns.insert(name);
      }
    } else if (tok == "Result") {
      if (j >= code.size() || code[j] != '<') return;
      size_t close = BalanceFrom(code, j, '<', '>');
      if (close == std::string::npos) return;
      std::string name;
      size_t after = ParseQualifiedId(code, SkipWs(code, close), &name);
      if (after == std::string::npos) return;
      after = SkipWs(code, after);
      if (after < code.size() && code[after] == '(') {
        index->status_fns.insert(name);
      }
    }
  });
}

/// Statement context of a call to an indexed function, derived by walking
/// backwards from the callee name over its receiver chain (`store->`,
/// `it->second.`) to the first interesting character.
enum class CallContext { kUsed, kDeclaration, kConflict, kStatement };

bool IsReceiverChar(char c) {
  return IsWordChar(c) || c == '.' || c == '-' || c == '>' || c == ':' ||
         c == '[' || c == ']';
}

CallContext ClassifyCallSite(const std::string& code, size_t name_begin) {
  size_t b = name_begin;
  while (b > 0 && IsReceiverChar(code[b - 1])) --b;
  size_t a = SkipWsBack(code, b);
  if (a == 0) return CallContext::kStatement;
  char c = code[a - 1];
  if (IsWordChar(c)) {
    size_t tb = a - 1;
    while (tb > 0 && (IsWordChar(code[tb - 1]) || code[tb - 1] == ':')) --tb;
    std::string tok = code.substr(tb, a - tb);
    if (tok.size() >= 6 && tok.compare(tok.size() - 6, 6, "Status") == 0) {
      return CallContext::kDeclaration;
    }
    if (tok == "return" || tok == "throw" || tok == "co_return" ||
        tok == "co_yield" || tok == "new" || tok == "case" || tok == "goto") {
      return CallContext::kUsed;
    }
    if (tok == "else" || tok == "do") return CallContext::kStatement;
    // Another type token in front: a declaration returning something that
    // is not Status — this name cannot be checked reliably.
    return CallContext::kConflict;
  }
  if (c == '>') return CallContext::kUsed;  // `Result<T> f(` or comparison
  if (c == '&' || c == '*') {
    // `Type& f(` / `Type* f(` is a conflicting declaration; `x && f()` and
    // `&f` are uses.
    bool after_type = a >= 2 && (IsWordChar(code[a - 2]) || code[a - 2] == '>');
    bool doubled = a >= 2 && code[a - 2] == c;
    if (after_type && !doubled) return CallContext::kConflict;
    return CallContext::kUsed;
  }
  if (c == ';' || c == '{' || c == '}') return CallContext::kStatement;
  if (c == ')') {
    // Either the sanctioned `(void)f(...)` discard, or a control clause
    // like `if (cond) f(...);` whose body is a bare statement.
    size_t open = code.rfind('(', a - 2);
    int depth = 1;
    size_t i = a - 1;
    while (i > 0) {
      --i;
      if (code[i] == ')') ++depth;
      if (code[i] == '(' && --depth == 0) break;
    }
    open = i;
    if (Trim(code.substr(open + 1, (a - 2) - open)) == "void") {
      return CallContext::kUsed;
    }
    size_t kb = SkipWsBack(code, open);
    size_t kt = kb;
    while (kt > 0 && IsWordChar(code[kt - 1])) --kt;
    std::string kw = code.substr(kt, kb - kt);
    if (kw == "if" || kw == "while" || kw == "for" || kw == "switch") {
      return CallContext::kStatement;
    }
    return CallContext::kUsed;
  }
  return CallContext::kUsed;  // '=', '(', ',', '!', '?', operators...
}

/// First pass over call sites only records conflicting declarations, so
/// that excludes apply no matter the file order.
void CollectConflicts(const ScannedFile& f, StatusIndex* index) {
  const std::string& code = f.split.code;
  ForEachIdentifier(code, [&](size_t b, size_t e) {
    std::string tok = code.substr(b, e - b);
    if (index->status_fns.count(tok) == 0) return;
    size_t j = SkipWs(code, e);
    if (j >= code.size() || code[j] != '(') return;
    if (ClassifyCallSite(code, b) == CallContext::kConflict) {
      index->ambiguous.insert(tok);
    }
  });
}

void CheckDiscardedStatus(const ScannedFile& f, const StatusIndex& index,
                          std::vector<Finding>* findings) {
  const std::string& code = f.split.code;
  ForEachIdentifier(code, [&](size_t b, size_t e) {
    std::string tok = code.substr(b, e - b);
    if (index.status_fns.count(tok) == 0 || index.ambiguous.count(tok) != 0) {
      return;
    }
    size_t j = SkipWs(code, e);
    if (j >= code.size() || code[j] != '(') return;
    if (ClassifyCallSite(code, b) != CallContext::kStatement) return;
    size_t close = BalanceFrom(code, j, '(', ')');
    if (close == std::string::npos) return;
    size_t k = SkipWs(code, close);
    if (k >= code.size() || code[k] != ';') return;  // e.g. `.ok()` chain
    int line = LineOf(f, b);
    if (AllowedAt(f, line, "discarded-status")) return;
    findings->push_back(
        {f.src->path, line, "discarded-status",
         "result of Status/Result-returning '" + tok +
             "' is discarded; check it, return it, or cast to (void) with "
             "a comment explaining why ignoring is safe"});
  });
}

// --------------------------------------------------------------------------
// Pass 3: determinism taint — unordered container iteration.
// --------------------------------------------------------------------------

/// Identifiers declared as unordered containers (`taint`) and as ordered
/// containers OF unordered containers (`element_taint`, e.g.
/// vector<unordered_map<...>> whose operator[] yields a tainted value).
/// Name-keyed and whole-program: a header member declaration informs the
/// .cc that iterates it.
struct TaintIndex {
  std::set<std::string> taint;
  std::set<std::string> element_taint;
};

void IndexUnorderedDecls(const ScannedFile& f, TaintIndex* index) {
  const std::string& code = f.split.code;
  ForEachIdentifier(code, [&](size_t b, size_t e) {
    std::string tok = code.substr(b, e - b);
    bool unordered = tok == "unordered_map" || tok == "unordered_set" ||
                     tok == "unordered_multimap" ||
                     tok == "unordered_multiset";
    bool wrapper = tok == "vector" || tok == "array" || tok == "deque";
    if (!unordered && !wrapper) return;
    size_t j = SkipWs(code, e);
    if (j >= code.size() || code[j] != '<') return;
    size_t close = BalanceFrom(code, j, '<', '>');
    if (close == std::string::npos) return;
    if (wrapper &&
        code.substr(j, close - j).find("unordered_") == std::string::npos) {
      return;
    }
    size_t k = SkipWs(code, close);
    while (k < code.size() && (code[k] == '&' || code[k] == '*')) {
      k = SkipWs(code, k + 1);
    }
    std::string name;
    size_t after = ParseQualifiedId(code, k, &name);
    if (after == std::string::npos) return;
    (unordered ? index->taint : index->element_taint).insert(name);
  });
}

/// `auto& x = y[i];` where y holds unordered elements, and `auto& x = y;`
/// where y is itself tainted, both taint x.
void PropagateAliases(const ScannedFile& f, TaintIndex* index) {
  const std::string& code = f.split.code;
  ForEachIdentifier(code, [&](size_t b, size_t e) {
    if (code.substr(b, e - b) != "auto") return;
    size_t j = SkipWs(code, e);
    if (j < code.size() && (code[j] == '&' || code[j] == '*')) {
      j = SkipWs(code, j + 1);
    }
    std::string alias;
    size_t after = ParseQualifiedId(code, j, &alias);
    if (after == std::string::npos) return;
    after = SkipWs(code, after);
    if (after >= code.size() || code[after] != '=') return;
    std::string base;
    size_t base_end = ParseQualifiedId(code, SkipWs(code, after + 1), &base);
    if (base_end == std::string::npos) return;
    if (base_end < code.size() && code[base_end] == '[' &&
        index->element_taint.count(base) != 0) {
      index->taint.insert(alias);
    } else if (base_end < code.size() && code[base_end] == ';' &&
               index->taint.count(base) != 0) {
      index->taint.insert(alias);
    }
  });
}

/// The last `.`/`->`/`::`-separated component of an expression like
/// `this->budget` or `sub.local_of` — the name the taint index knows.
std::string LastComponent(const std::string& expr) {
  size_t b = expr.size();
  while (b > 0 && IsWordChar(expr[b - 1])) --b;
  return expr.substr(b);
}

void ReportIteration(const ScannedFile& f, int line, const std::string& name,
                     const std::string& how,
                     std::vector<Finding>* findings) {
  if (AllowedAt(f, line, "unordered-iter")) return;
  findings->push_back(
      {f.src->path, line, "unordered-iter",
       how + " '" + name +
           "' iterates in hash order, which varies across standard "
           "libraries and can leak into results; iterate a sorted snapshot, "
           "or suppress with // xfraud-analyze: allow(unordered-iter) if "
           "the order provably never reaches an output"});
}

void CheckUnorderedIteration(const ScannedFile& f, const TaintIndex& index,
                             std::vector<Finding>* findings) {
  const std::string& code = f.split.code;
  std::set<std::pair<int, std::string>> seen;  // dedupe (line, name)
  auto report = [&](size_t offset, const std::string& name,
                    const std::string& how) {
    int line = LineOf(f, offset);
    if (!seen.insert({line, name}).second) return;
    ReportIteration(f, line, name, how, findings);
  };
  ForEachIdentifier(code, [&](size_t b, size_t e) {
    std::string tok = code.substr(b, e - b);
    if (tok == "for") {
      size_t j = SkipWs(code, e);
      if (j >= code.size() || code[j] != '(') return;
      size_t close = BalanceFrom(code, j, '(', ')');
      if (close == std::string::npos) return;
      std::string head = code.substr(j + 1, close - j - 2);
      size_t colon = std::string::npos;
      int depth = 0;
      for (size_t i = 0; i < head.size(); ++i) {
        if (head[i] == '(' || head[i] == '[') ++depth;
        if (head[i] == ')' || head[i] == ']') --depth;
        if (head[i] == ':' && depth == 0) {
          if (i + 1 < head.size() && head[i + 1] == ':') {
            ++i;
            continue;
          }
          if (i > 0 && head[i - 1] == ':') continue;
          colon = i;
          break;
        }
      }
      if (colon == std::string::npos) return;  // classic for loop
      std::string expr = Trim(head.substr(colon + 1));
      if (expr.empty()) return;
      if (expr.back() == ')') {
        // Range is a call: tainted when the CALLEE is a function declared
        // to return an unordered container.
        size_t open = expr.rfind('(');
        if (open == std::string::npos) return;
        std::string callee = LastComponent(Trim(expr.substr(0, open)));
        if (index.taint.count(callee) != 0) {
          report(b, callee, "range-for over unordered container from");
        }
        return;
      }
      if (expr.back() == ']') {
        size_t open = expr.rfind('[');
        if (open == std::string::npos) return;
        std::string base = LastComponent(Trim(expr.substr(0, open)));
        if (index.element_taint.count(base) != 0) {
          report(b, base + "[...]", "range-for over unordered element of");
        }
        return;
      }
      std::string name = LastComponent(expr);
      if (index.taint.count(name) != 0) {
        report(b, name, "range-for over unordered container");
      }
    } else if (tok == "begin" || tok == "cbegin") {
      // Iterator-pair traversal: `c.begin()` on a tainted container, e.g.
      // snapshotting `vec(c.begin(), c.end())` or a manual iterator loop.
      if (b < 1 || (code[b - 1] != '.' &&
                    !(b >= 2 && code[b - 2] == '-' && code[b - 1] == '>'))) {
        return;
      }
      size_t j = SkipWs(code, e);
      if (j >= code.size() || code[j] != '(') return;
      size_t rb = b - (code[b - 1] == '.' ? 1 : 2);
      size_t re = rb;
      while (re > 0 && IsWordChar(code[re - 1])) --re;
      std::string recv = code.substr(re, rb - re);
      if (!recv.empty() && index.taint.count(recv) != 0) {
        report(b, recv, "iterator traversal of unordered container");
      }
    }
  });
}

// --------------------------------------------------------------------------
// Pass 4: ingest bypass — direct store mutation outside the ingest tier.
// --------------------------------------------------------------------------

/// Identifiers declared with a KV-store type: the "KvStore"-suffixed
/// classes and FeatureStore, through pointer/reference declarators and
/// smart-pointer/container wrappers (`std::unique_ptr<LogKvStore> cell_;`).
/// Name-keyed and whole-program like the taint index: a header member
/// declaration informs call sites in any .cc.
struct IngestIndex {
  std::set<std::string> stores;
};

bool IsStoreTypeName(const std::string& tok) {
  if (tok == "FeatureStore") return true;
  return tok.size() >= 7 && tok.compare(tok.size() - 7, 7, "KvStore") == 0;
}

void IndexStoreDecls(const ScannedFile& f, IngestIndex* index) {
  const std::string& code = f.split.code;
  ForEachIdentifier(code, [&](size_t b, size_t e) {
    std::string tok = code.substr(b, e - b);
    size_t j = SkipWs(code, e);
    bool wrapper = tok == "unique_ptr" || tok == "shared_ptr" ||
                   tok == "vector" || tok == "array" || tok == "deque";
    if (wrapper) {
      if (j >= code.size() || code[j] != '<') return;
      size_t close = BalanceFrom(code, j, '<', '>');
      if (close == std::string::npos) return;
      std::string inner = code.substr(j, close - j);
      if (inner.find("KvStore") == std::string::npos &&
          inner.find("FeatureStore") == std::string::npos) {
        return;
      }
      j = SkipWs(code, close);
    } else if (!IsStoreTypeName(tok)) {
      return;
    }
    bool indirect = false;
    while (j < code.size() && (code[j] == '&' || code[j] == '*')) {
      indirect = true;
      j = SkipWs(code, j + 1);
    }
    std::string name;
    size_t after = ParseQualifiedId(code, j, &name);
    if (after == std::string::npos) return;
    after = SkipWs(code, after);
    // `KvStore* serving()` declares a function returning a store, not a
    // store variable (calls through accessors are out of scope); a value
    // type followed by '(' is ctor-argument initialization and counts.
    if (indirect && after < code.size() && code[after] == '(') return;
    index->stores.insert(name);
  });
}

/// Flags `x.Put(` / `x.PutBatch(` / `x->Delete(` / `x.Ingest(` where x was
/// declared as a store anywhere in the program. Only the kv/stream/fault
/// modules (the schema owners and the fault wrapper) may mutate stores
/// directly; everywhere else a raw write silently side-steps the
/// epoch/snapshot machinery and crash recovery of the ingest tier.
void CheckIngestBypass(const ScannedFile& f, const IngestIndex& index,
                       std::vector<Finding>* findings) {
  const std::string& code = f.split.code;
  ForEachIdentifier(code, [&](size_t b, size_t e) {
    std::string tok = code.substr(b, e - b);
    if (tok != "Put" && tok != "PutBatch" && tok != "Delete" &&
        tok != "Ingest") {
      return;
    }
    size_t j = SkipWs(code, e);
    if (j >= code.size() || code[j] != '(') return;
    bool dot = b >= 1 && code[b - 1] == '.';
    bool arrow = b >= 2 && code[b - 2] == '-' && code[b - 1] == '>';
    if (!dot && !arrow) return;
    // Walk back over the receiver, balancing over subscripts so
    // `cells_[i]->Put(...)` resolves to `cells_`.
    size_t rb = b - (dot ? 1 : 2);
    size_t re = rb;
    while (re > 0) {
      char c = code[re - 1];
      if (IsWordChar(c)) {
        --re;
        continue;
      }
      if (c == ']') {
        int depth = 0;
        size_t i = re;
        while (i > 0) {
          --i;
          if (code[i] == ']') ++depth;
          if (code[i] == '[' && --depth == 0) break;
        }
        if (depth != 0) return;  // unbalanced: not a plain receiver
        re = i;
        continue;
      }
      break;
    }
    size_t we = re;
    while (we < rb && IsWordChar(code[we])) ++we;
    std::string recv = code.substr(re, we - re);
    if (recv.empty() || index.stores.count(recv) == 0) return;
    int line = LineOf(f, b);
    if (AllowedAt(f, line, "ingest-bypass")) return;
    findings->push_back(
        {f.src->path, line, "ingest-bypass",
         "'" + recv + "." + tok +
             "' mutates a KV store directly from module '" + f.module +
             "'; route writes through the ingest tier "
             "(stream::GraphIngestor, or kv::FeatureStore::Ingest inside "
             "kv/stream) so epoch snapshots and crash recovery observe "
             "them — or suppress with // xfraud-analyze: "
             "allow(ingest-bypass) if this call IS a sanctioned bulk-load "
             "path"});
  });
}

}  // namespace

// --------------------------------------------------------------------------
// Public API.
// --------------------------------------------------------------------------

bool LayeringConfig::IsBlessed(const std::string& from,
                               const std::string& to) const {
  for (const BlessedEdge& edge : blessed) {
    if (edge.from == from && edge.to == to) return true;
  }
  return false;
}

bool ParseLayeringConfig(const std::string& text, LayeringConfig* config,
                         std::string* error) {
  std::vector<std::string> lines = lint::SplitLines(text);
  for (size_t i = 0; i < lines.size(); ++i) {
    std::string line = lines[i];
    std::string reason;
    size_t hash = line.find('#');
    if (hash != std::string::npos) {
      reason = Trim(line.substr(hash + 1));
      line = line.substr(0, hash);
    }
    line = Trim(line);
    if (line.empty()) continue;
    std::istringstream in(line);
    std::string kw;
    std::string from;
    std::string arrow;
    std::string to;
    std::string extra;
    in >> kw >> from >> arrow >> to;
    if (kw != "allow" || arrow != "->" || from.empty() || to.empty() ||
        (in >> extra)) {
      *error = "layering.conf line " + std::to_string(i + 1) +
               ": expected `allow <from> -> <to>  # reason`, got: " + line;
      return false;
    }
    config->blessed.push_back({from, to, reason});
  }
  return true;
}

bool LoadLayeringConfig(const std::string& path, LayeringConfig* config,
                        std::string* error) {
  std::string text;
  if (!lint::ReadFileToString(path, &text, error)) return false;
  return ParseLayeringConfig(text, config, error);
}

int ModuleLayer(const std::string& module) {
  static const std::map<std::string, int> kLayers = {
      {"common", 0},
      {"obs", 1},    {"graph", 1},     {"nn", 1},   {"la", 1},
      {"kv", 2},     {"sample", 2},    {"data", 2}, {"baselines", 2},
      {"core", 3},   {"fault", 3},
      {"train", 4},  {"explain", 4},   {"dist", 4}, {"serve", 4},
      {"stream", 4},
  };
  auto it = kLayers.find(module);
  return it == kLayers.end() ? -1 : it->second;
}

const std::vector<std::string>& RuleIds() {
  static const std::vector<std::string> kRules = {
      "layering", "include-cycle", "discarded-status", "unordered-iter",
      "ingest-bypass"};
  return kRules;
}

std::vector<Finding> AnalyzeTree(const std::vector<SourceFile>& files,
                                 const LayeringConfig& config) {
  std::vector<const SourceFile*> ordered;
  ordered.reserve(files.size());
  for (const SourceFile& f : files) ordered.push_back(&f);
  std::sort(ordered.begin(), ordered.end(),
            [](const SourceFile* a, const SourceFile* b) {
              return a->path < b->path;
            });
  std::vector<ScannedFile> scanned;
  scanned.reserve(ordered.size());
  for (const SourceFile* f : ordered) scanned.push_back(ScanFile(*f));

  std::vector<Finding> findings;

  // Pass 1: include graph.
  std::vector<IncludeEdge> edges;
  for (const ScannedFile& f : scanned) CollectEdges(f, &edges);
  CheckLayering(edges, config, &findings);
  CycleFinder(edges).Report(&findings);

  // Pass 2: discarded Status. Indexed over every file; checked in library
  // and tools code (tests assert through gtest and may ignore freely; the
  // class-level [[nodiscard]] makes the compiler cover them anyway).
  StatusIndex status_index;
  for (const ScannedFile& f : scanned) {
    IndexStatusFunctions(f, &status_index);
  }
  for (const ScannedFile& f : scanned) CollectConflicts(f, &status_index);
  for (const ScannedFile& f : scanned) {
    std::string path = f.src->path;
    bool in_tools = path.find("tools/") != std::string::npos ||
                    path.rfind("tools", 0) == 0;
    if (!f.in_library && !in_tools) continue;
    CheckDiscardedStatus(f, status_index, &findings);
  }

  // Pass 3: determinism taint, library-only (tools/tests/bench may iterate
  // however they like; they are not part of reproducible pipelines).
  TaintIndex taint_index;
  for (const ScannedFile& f : scanned) IndexUnorderedDecls(f, &taint_index);
  for (const ScannedFile& f : scanned) PropagateAliases(f, &taint_index);
  for (const ScannedFile& f : scanned) {
    if (!f.in_library) continue;
    CheckUnorderedIteration(f, taint_index, &findings);
  }

  // Pass 4: ingest bypass, library-only minus the store owners. kv and
  // stream define the serving schema and the ingest tier, fault wraps the
  // raw write path — everywhere else store mutation must go through them.
  IngestIndex ingest_index;
  for (const ScannedFile& f : scanned) IndexStoreDecls(f, &ingest_index);
  for (const ScannedFile& f : scanned) {
    if (!f.in_library) continue;
    if (f.module == "kv" || f.module == "stream" || f.module == "fault") {
      continue;
    }
    CheckIngestBypass(f, ingest_index, &findings);
  }

  // Deterministic order and at most one finding per site and rule.
  std::stable_sort(findings.begin(), findings.end(),
                   [](const Finding& a, const Finding& b) {
                     if (a.rule != b.rule) return a.rule < b.rule;
                     if (a.file != b.file) return a.file < b.file;
                     return a.line < b.line;
                   });
  findings.erase(std::unique(findings.begin(), findings.end(),
                             [](const Finding& a, const Finding& b) {
                               return a.file == b.file && a.line == b.line &&
                                      a.rule == b.rule;
                             }),
                 findings.end());
  return findings;
}

bool AnalyzePaths(const std::vector<std::string>& roots,
                  const LayeringConfig& config,
                  std::vector<Finding>* findings, std::string* error) {
  std::vector<std::string> paths;
  if (!lint::ListSourceFiles(roots, &paths, error)) return false;
  std::vector<SourceFile> files;
  files.reserve(paths.size());
  for (const std::string& path : paths) {
    std::string contents;
    if (!lint::ReadFileToString(path, &contents, error)) return false;
    files.push_back({path, std::move(contents)});
  }
  std::vector<Finding> found = AnalyzeTree(files, config);
  findings->insert(findings->end(), found.begin(), found.end());
  return true;
}

std::string BaselineKey(const Finding& finding) {
  return finding.file + ":" + std::to_string(finding.line) + ": " +
         finding.rule;
}

std::vector<std::string> ParseBaseline(const std::string& text) {
  std::vector<std::string> keys;
  for (const std::string& raw : lint::SplitLines(text)) {
    std::string line = raw;
    size_t hash = line.find('#');
    if (hash != std::string::npos) line = line.substr(0, hash);
    line = Trim(line);
    if (!line.empty()) keys.push_back(line);
  }
  return keys;
}

std::vector<Finding> ApplyBaseline(const std::vector<Finding>& findings,
                                   const std::vector<std::string>& baseline,
                                   std::vector<std::string>* stale) {
  std::set<std::string> keys(baseline.begin(), baseline.end());
  std::set<std::string> matched;
  std::vector<Finding> remaining;
  for (const Finding& f : findings) {
    std::string key = BaselineKey(f);
    if (keys.count(key) != 0) {
      matched.insert(key);
    } else {
      remaining.push_back(f);
    }
  }
  if (stale != nullptr) {
    for (const std::string& key : keys) {
      if (matched.count(key) == 0) stale->push_back(key);
    }
  }
  return remaining;
}

int ExitStatus(const std::vector<Finding>& remaining,
               const std::vector<std::string>& stale) {
  return remaining.empty() && stale.empty() ? 0 : 1;
}

std::string FindingsToBaseline(const std::vector<Finding>& findings) {
  std::string out;
  for (const Finding& f : findings) {
    out += BaselineKey(f);
    out += "\n";
  }
  return out;
}

}  // namespace xfraud::analyze
