#include "evc_lint/lint.h"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <regex>
#include <sstream>
#include <utility>

namespace evc {
namespace lint {

namespace {

constexpr const char* kWallClock = "wall-clock";
constexpr const char* kRawRandom = "raw-random";
constexpr const char* kUnorderedIteration = "unordered-iteration";
constexpr const char* kUnorderedSnapshot = "unordered-snapshot";
constexpr const char* kDiscardedStatus = "discarded-status";
constexpr const char* kCheckMacro = "check-macro";
constexpr const char* kPointerTaint = "pointer-taint";
constexpr const char* kThreadHostile = "thread-hostile";
constexpr const char* kLayering = "layering";
constexpr const char* kIncludeCycle = "include-cycle";
constexpr const char* kOrphanModule = "orphan-module";
constexpr const char* kBadSuppression = "bad-suppression";

bool IsIdentChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

bool IsIdentStart(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
}

std::string Trim(const std::string& s) {
  size_t b = s.find_first_not_of(" \t\r\n");
  if (b == std::string::npos) return "";
  size_t e = s.find_last_not_of(" \t\r\n");
  return s.substr(b, e - b + 1);
}

/// All identifiers in `s`, in order of appearance.
std::vector<std::string> IdentTokens(const std::string& s) {
  std::vector<std::string> out;
  size_t i = 0;
  while (i < s.size()) {
    if (IsIdentStart(s[i])) {
      size_t b = i;
      while (i < s.size() && IsIdentChar(s[i])) ++i;
      out.push_back(s.substr(b, i - b));
    } else {
      ++i;
    }
  }
  return out;
}

bool HasToken(const std::vector<std::string>& tokens, const char* t) {
  return std::find(tokens.begin(), tokens.end(), t) != tokens.end();
}

/// A suppression directive parsed from a comment.
struct Suppression {
  int line = 0;  ///< 1-based line the comment ends on; covers line and line+1.
  std::set<std::string> checks;
  bool used = false;
};

/// Per-file result of comment/string stripping.
struct Preprocessed {
  /// Source text with comments, string literals and char literals replaced by
  /// spaces (newlines preserved), so offsets and line numbers still map.
  std::string code;
  /// 1-based line number for each byte offset boundary: line_of[i] is the
  /// line containing code[i].
  std::vector<int> line_of;
  std::vector<Suppression> suppressions;
  std::vector<Finding> bad_suppressions;  ///< malformed directives
  /// Lines whose *string literals* contain the percent-p pointer conversion.
  /// Tracked during stripping because it is the one check that must look
  /// inside strings (format strings are where the bug lives).
  std::set<int> pointer_format_lines;
};

/// Parses an evc-lint directive out of one comment's text. Returns true if
/// the comment contains a directive at all (well-formed or not).
bool ParseDirective(const std::string& comment_text, int end_line,
                    const std::string& path, Preprocessed* out) {
  size_t pos = comment_text.find("evc-lint:");
  if (pos == std::string::npos) return false;
  std::string rest = Trim(comment_text.substr(pos + 9));

  auto bad = [&](const std::string& why) {
    out->bad_suppressions.push_back(
        {kBadSuppression, path, end_line, "malformed evc-lint directive: " + why});
  };

  if (rest.rfind("allow(", 0) != 0) {
    bad("expected 'allow(<check,...>) reason=...'");
    return true;
  }
  size_t close = rest.find(')');
  if (close == std::string::npos) {
    bad("missing ')' after allow(");
    return true;
  }
  std::string names = rest.substr(6, close - 6);
  std::string tail = Trim(rest.substr(close + 1));

  Suppression sup;
  sup.line = end_line;
  std::stringstream ss(names);
  std::string name;
  const auto& known = AllCheckNames();
  while (std::getline(ss, name, ',')) {
    name = Trim(name);
    if (name.empty()) continue;
    if (std::find(known.begin(), known.end(), name) == known.end()) {
      bad("unknown check '" + name + "'");
      return true;
    }
    sup.checks.insert(name);
  }
  if (sup.checks.empty()) {
    bad("allow() names no checks");
    return true;
  }
  if (tail.rfind("reason=", 0) != 0 || Trim(tail.substr(7)).empty()) {
    bad("suppression requires a non-empty 'reason=...'");
    return true;
  }
  out->suppressions.push_back(std::move(sup));
  return true;
}

/// Strips comments / string literals / char literals (including raw strings),
/// collecting evc-lint directives from the comments as it goes.
Preprocessed Preprocess(const std::string& path, const std::string& text) {
  Preprocessed out;
  out.code.reserve(text.size());
  out.line_of.reserve(text.size());

  enum class State { kCode, kLineComment, kBlockComment, kString, kChar, kRaw };
  State state = State::kCode;
  int line = 1;
  std::string comment_text;  // accumulates the current comment's contents
  std::string raw_delim;     // delimiter of the current raw string
  char prev_str = '\0';      // previous unescaped char inside a string literal

  auto emit = [&](char c) {
    out.code.push_back(c);
    out.line_of.push_back(line);
  };
  auto blank = [&](char c) { emit(c == '\n' ? '\n' : ' '); };

  for (size_t i = 0; i < text.size(); ++i) {
    char c = text[i];
    char next = (i + 1 < text.size()) ? text[i + 1] : '\0';
    switch (state) {
      case State::kCode:
        if (c == '/' && next == '/') {
          state = State::kLineComment;
          comment_text.clear();
          blank(c);
          blank(next);
          ++i;
        } else if (c == '/' && next == '*') {
          state = State::kBlockComment;
          comment_text.clear();
          blank(c);
          blank(next);
          ++i;
        } else if (c == '"') {
          // Raw string? Look back for R / u8R / LR / uR / UR prefix.
          bool raw = i > 0 && text[i - 1] == 'R' &&
                     (i < 2 || !IsIdentChar(text[i - 2]) ||
                      (i >= 2 && (text[i - 2] == 'u' || text[i - 2] == 'U' ||
                                  text[i - 2] == 'L' || text[i - 2] == '8')));
          if (raw) {
            size_t paren = text.find('(', i + 1);
            if (paren != std::string::npos) {
              raw_delim = ")" + text.substr(i + 1, paren - i - 1) + "\"";
              state = State::kRaw;
              prev_str = '\0';
              blank(c);
              break;
            }
          }
          state = State::kString;
          prev_str = '\0';
          blank(c);
        } else if (c == '\'') {
          // C++14 digit separator (1'000'000) stays in code; anything else
          // starts a char literal.
          bool digit_sep =
              i > 0 && std::isdigit(static_cast<unsigned char>(text[i - 1])) &&
              std::isxdigit(static_cast<unsigned char>(next));
          if (!digit_sep) state = State::kChar;
          blank(c);
        } else {
          emit(c);
        }
        break;
      case State::kLineComment:
        if (c == '\n') {
          ParseDirective(comment_text, line, path, &out);
          state = State::kCode;
          blank(c);
        } else {
          comment_text.push_back(c);
          blank(c);
        }
        break;
      case State::kBlockComment:
        if (c == '*' && next == '/') {
          ParseDirective(comment_text, line, path, &out);
          state = State::kCode;
          blank(c);
          blank(next);
          ++i;
        } else {
          comment_text.push_back(c);
          blank(c);
        }
        break;
      case State::kString:
        if (c == '\\' && next != '\0') {
          prev_str = '\0';
          blank(c);
          blank(next);
          ++i;
        } else if (c == '"') {
          state = State::kCode;
          blank(c);
        } else {
          if (prev_str == '%' && c == 'p') out.pointer_format_lines.insert(line);
          prev_str = c;
          blank(c);
        }
        break;
      case State::kChar:
        if (c == '\\' && next != '\0') {
          blank(c);
          blank(next);
          ++i;
        } else if (c == '\'') {
          state = State::kCode;
          blank(c);
        } else {
          blank(c);
        }
        break;
      case State::kRaw:
        if (text.compare(i, raw_delim.size(), raw_delim) == 0) {
          for (size_t k = 0; k < raw_delim.size(); ++k) blank(text[i + k]);
          i += raw_delim.size() - 1;
          state = State::kCode;
        } else {
          if (prev_str == '%' && c == 'p') out.pointer_format_lines.insert(line);
          prev_str = c;
          blank(c);
        }
        break;
    }
    if (c == '\n') ++line;
  }
  if (state == State::kLineComment) ParseDirective(comment_text, line, path, &out);
  return out;
}

/// Walks forward from the '<' at `pos`, returning the offset just past the
/// matching '>', or npos if unbalanced.
size_t BalanceAngles(const std::string& s, size_t pos) {
  int depth = 0;
  for (size_t i = pos; i < s.size(); ++i) {
    if (s[i] == '<') ++depth;
    else if (s[i] == '>') {
      if (--depth == 0) return i + 1;
    } else if (s[i] == ';' || s[i] == '{') {
      return std::string::npos;  // gave up: not a template argument list
    }
  }
  return std::string::npos;
}

/// Walks forward from the '(' at `pos`, returning the offset just past the
/// matching ')', or npos.
size_t BalanceParens(const std::string& s, size_t pos) {
  int depth = 0;
  for (size_t i = pos; i < s.size(); ++i) {
    if (s[i] == '(') ++depth;
    else if (s[i] == ')') {
      if (--depth == 0) return i + 1;
    }
  }
  return std::string::npos;
}

size_t SkipSpaces(const std::string& s, size_t pos) {
  while (pos < s.size() &&
         std::isspace(static_cast<unsigned char>(s[pos]))) {
    ++pos;
  }
  return pos;
}

/// Identifiers declared (variables/members) or returned (getters) with an
/// unordered associative container type, plus function names returning
/// Status/Result — collected across the whole file set.
struct SymbolTable {
  std::set<std::string> unordered_names;
  std::set<std::string> unordered_aliases;  ///< using X = std::unordered_...
  std::set<std::string> status_fns;
  /// Functions declared `void` somewhere in the set. A name in both sets is
  /// ambiguous (the table matches by name, not by receiver type), so the
  /// discarded-status check skips it — precision over recall; genuinely
  /// dropped values are still caught by [[nodiscard]] + -Werror.
  std::set<std::string> void_fns;
};

void CollectUnorderedNames(const std::string& code, SymbolTable* table) {
  static const char* kTypes[] = {"unordered_map<", "unordered_set<",
                                 "unordered_multimap<", "unordered_multiset<"};
  for (const char* type : kTypes) {
    size_t type_len = std::string(type).size();
    for (size_t pos = code.find(type); pos != std::string::npos;
         pos = code.find(type, pos + 1)) {
      // Require a non-identifier char before (avoids my_unordered_map<).
      if (pos > 0 && IsIdentChar(code[pos - 1]) && code[pos - 1] != ':') {
        continue;
      }
      size_t after = BalanceAngles(code, pos + type_len - 1);
      if (after == std::string::npos) continue;
      size_t p = SkipSpaces(code, after);
      while (p < code.size() && (code[p] == '&' || code[p] == '*')) {
        p = SkipSpaces(code, p + 1);
      }
      size_t name_start = p;
      while (p < code.size() && IsIdentChar(code[p])) ++p;
      if (p == name_start || !IsIdentStart(code[name_start])) continue;
      std::string name = code.substr(name_start, p - name_start);
      size_t q = SkipSpaces(code, p);
      // Variable/member declaration, getter declaration, or using-alias: all
      // mean "iterating <name> iterates a hash-ordered container".
      if (q < code.size() && (code[q] == ';' || code[q] == '{' ||
                              code[q] == '=' || code[q] == ',' ||
                              code[q] == ')' || code[q] == '(')) {
        table->unordered_names.insert(std::move(name));
      }
    }
  }
  // using Alias = std::unordered_map<...>;
  static const std::regex kAlias(
      "using\\s+([A-Za-z_]\\w*)\\s*=\\s*(std::)?unordered_(map|set|multimap|"
      "multiset)\\s*<");
  for (std::sregex_iterator it(code.begin(), code.end(), kAlias), end;
       it != end; ++it) {
    table->unordered_aliases.insert((*it)[1].str());
  }
}

/// Second collection pass (needs aliases from every file first): variables,
/// parameters and getters declared with an unordered alias type.
void CollectAliasDeclaredNames(const std::string& code, SymbolTable* table) {
  for (const std::string& alias : table->unordered_aliases) {
    for (size_t pos = code.find(alias); pos != std::string::npos;
         pos = code.find(alias, pos + 1)) {
      if (pos > 0 && (IsIdentChar(code[pos - 1]) || code[pos - 1] == ':')) {
        continue;
      }
      size_t after = pos + alias.size();
      if (after < code.size() && IsIdentChar(code[after])) continue;
      size_t p = SkipSpaces(code, after);
      while (p < code.size() && (code[p] == '&' || code[p] == '*')) {
        p = SkipSpaces(code, p + 1);
      }
      size_t name_start = p;
      while (p < code.size() && IsIdentChar(code[p])) ++p;
      if (p == name_start || !IsIdentStart(code[name_start])) continue;
      size_t q = SkipSpaces(code, p);
      if (q < code.size() && (code[q] == ';' || code[q] == '{' ||
                              code[q] == '=' || code[q] == ',' ||
                              code[q] == ')' || code[q] == '(' ||
                              code[q] == '[')) {
        table->unordered_names.insert(code.substr(name_start, p - name_start));
      }
    }
  }
}

void CollectStatusFns(const std::string& code, SymbolTable* table) {
  // Plain `Status Name(`-style declarations (with optional namespace
  // qualification of Status itself).
  static const std::regex kStatusFn(
      "(^|[^:\\w<,])(::)?(evc::)?Status\\s+([A-Za-z_]\\w*)\\s*\\(");
  for (std::sregex_iterator it(code.begin(), code.end(), kStatusFn), end;
       it != end; ++it) {
    table->status_fns.insert((*it)[4].str());
  }
  // `void Name(` declarations, for the ambiguity subtraction above.
  static const std::regex kVoidFn(
      "(^|[^:\\w<,])void\\s+([A-Za-z_]\\w*)\\s*\\(");
  for (std::sregex_iterator it(code.begin(), code.end(), kVoidFn), end;
       it != end; ++it) {
    table->void_fns.insert((*it)[2].str());
  }
  // `Result<...> Name(` declarations; angle brackets balanced manually.
  for (size_t pos = code.find("Result<"); pos != std::string::npos;
       pos = code.find("Result<", pos + 1)) {
    if (pos > 0 && IsIdentChar(code[pos - 1])) continue;
    size_t after = BalanceAngles(code, pos + 6);
    if (after == std::string::npos) continue;
    size_t p = SkipSpaces(code, after);
    size_t name_start = p;
    while (p < code.size() && IsIdentChar(code[p])) ++p;
    if (p == name_start || !IsIdentStart(code[name_start])) continue;
    size_t q = SkipSpaces(code, p);
    if (q < code.size() && code[q] == '(') {
      table->status_fns.insert(code.substr(name_start, p - name_start));
    }
  }
}

int LineAt(const Preprocessed& pre, size_t offset) {
  if (pre.line_of.empty()) return 1;
  if (offset >= pre.line_of.size()) return pre.line_of.back();
  return pre.line_of[offset];
}

/// Per-line regex checks: wall-clock, raw-random, check-macro, pointer-taint.
void RunLineChecks(const std::string& path, const Preprocessed& pre,
                   std::vector<Finding>* findings) {
  struct Rule {
    const char* check;
    std::regex pattern;
    const char* message;
  };
  // NOTE: patterns run on comment/string-stripped text, so prose mentioning a
  // banned symbol never trips a rule.
  static const std::vector<Rule>* rules = new std::vector<Rule>{
      {kWallClock,
       std::regex("system_clock|steady_clock|high_resolution_clock"),
       "wall/monotonic clock use; sim code must take time from "
       "sim::Simulator::Now() (bit-identical replay)"},
      {kWallClock,
       std::regex("\\b(gettimeofday|clock_gettime|timespec_get|localtime|"
                  "gmtime|mktime|strftime)\\b"),
       "OS clock API; sim code must take time from sim::Simulator::Now()"},
      {kWallClock, std::regex("(std::time|(^|[^\\w.:>])time)\\s*\\("),
       "time() reads the wall clock; use sim::Simulator::Now()"},
      {kWallClock, std::regex("(^|[^\\w.:>])clock\\s*\\(\\s*\\)"),
       "clock() reads a process clock; use sim::Simulator::Now()"},
      {kRawRandom,
       std::regex("(std::rand\\s*\\(|\\bsrand\\s*\\(|(^|[^\\w.:>])rand\\s*"
                  "\\()"),
       "rand()/srand() is global nondeterministic state; draw from "
       "common/rng.h (evc::Rng)"},
      {kRawRandom, std::regex("\\brandom_device\\b"),
       "std::random_device is nondeterministic by design; seed an evc::Rng "
       "from the experiment seed instead"},
      {kRawRandom, std::regex("\\bdefault_random_engine\\b"),
       "std::default_random_engine is implementation-defined; use evc::Rng"},
      {kRawRandom,
       std::regex("\\bmt19937(_64)?\\s+[A-Za-z_]\\w*\\s*(;|\\(\\s*\\)|\\{\\s*"
                  "\\})"),
       "unseeded std::mt19937; all randomness must flow through common/rng.h "
       "with an explicit seed"},
      {kCheckMacro, std::regex("(^|[^\\w])assert\\s*\\("),
       "bare assert() vanishes under NDEBUG (release/fuzz builds); use "
       "EVC_CHECK"},
      {kCheckMacro, std::regex("#\\s*include\\s*[<\"](cassert|assert\\.h)[>\"]"),
       "<cassert> include; use EVC_CHECK from common/status.h"},
      {kPointerTaint,
       std::regex("reinterpret_cast\\s*<\\s*(std::)?(u?intptr_t|size_t|"
                  "uint32_t|uint64_t|unsigned\\s+long(\\s+long)?|long\\s+"
                  "long)\\b"),
       "pointer-to-integer cast; addresses differ across runs (ASLR, "
       "allocator state) and must never reach exported or replay-visible "
       "state"},
      {kPointerTaint, std::regex("\\(\\s*(std::)?u?intptr_t\\s*\\)"),
       "C-style pointer-to-integer cast; addresses differ across runs and "
       "must never reach exported or replay-visible state"},
      {kPointerTaint, std::regex("\\bhash\\s*<\\s*[^<>;]*\\*\\s*>"),
       "std::hash over a pointer type hashes an address; hash a stable id "
       "(node name, key, sequence number) instead"},
  };

  // The obs exporter shim is the one place allowed to touch the real clock
  // (it stamps export metadata, never sim-visible state).
  bool wall_clock_exempt = path.find("obs/export") != std::string::npos;

  std::istringstream stream(pre.code);
  std::string line_text;
  int line_no = 0;
  while (std::getline(stream, line_text)) {
    ++line_no;
    for (const Rule& rule : *rules) {
      if (wall_clock_exempt && std::string(rule.check) == kWallClock) continue;
      if (std::regex_search(line_text, rule.pattern)) {
        findings->push_back({rule.check, path, line_no, rule.message});
        break;  // one finding per line is enough signal
      }
    }
  }
  // The one in-string pattern: percent-p format conversions, recorded during
  // stripping (see Preprocessed::pointer_format_lines).
  for (int ln : pre.pointer_format_lines) {
    findings->push_back(
        {kPointerTaint, path, ln,
         "format string contains the percent-p pointer conversion; addresses "
         "differ across runs and poison logged/exported state"});
  }
}

/// Strips trailing balanced (...) / [...] groups then returns the trailing
/// identifier of a range-for's range expression ("net.peers()" -> "peers").
std::string TrailingIdentifier(std::string expr) {
  expr = Trim(expr);
  while (!expr.empty() && (expr.back() == ')' || expr.back() == ']')) {
    char close = expr.back();
    char open = close == ')' ? '(' : '[';
    int depth = 0;
    size_t i = expr.size();
    while (i > 0) {
      --i;
      if (expr[i] == close) ++depth;
      else if (expr[i] == open && --depth == 0) break;
    }
    if (depth != 0) return "";
    expr = Trim(expr.substr(0, i));
  }
  size_t end = expr.size();
  size_t begin = end;
  while (begin > 0 && IsIdentChar(expr[begin - 1])) --begin;
  return expr.substr(begin, end - begin);
}

void RunUnorderedIterationCheck(const std::string& path,
                                const Preprocessed& pre,
                                const SymbolTable& table,
                                std::vector<Finding>* findings) {
  const std::string& code = pre.code;
  for (size_t pos = code.find("for"); pos != std::string::npos;
       pos = code.find("for", pos + 1)) {
    if (pos > 0 && IsIdentChar(code[pos - 1])) continue;
    if (pos + 3 < code.size() && IsIdentChar(code[pos + 3])) continue;
    size_t paren = SkipSpaces(code, pos + 3);
    if (paren >= code.size() || code[paren] != '(') continue;
    size_t close = BalanceParens(code, paren);
    if (close == std::string::npos) continue;
    std::string head = code.substr(paren + 1, close - paren - 2);
    // Find a top-level ':' (range-for separator); skip '::'.
    int depth = 0;
    size_t colon = std::string::npos;
    for (size_t i = 0; i < head.size(); ++i) {
      char c = head[i];
      if (c == '(' || c == '[' || c == '<' || c == '{') ++depth;
      else if (c == ')' || c == ']' || c == '>' || c == '}') --depth;
      else if (c == ':' && depth <= 0) {
        if ((i + 1 < head.size() && head[i + 1] == ':') ||
            (i > 0 && head[i - 1] == ':')) {
          continue;
        }
        colon = i;
        break;
      } else if (c == '?') {
        break;  // conditional expression, not a range-for
      }
    }
    if (colon == std::string::npos) continue;
    std::string ident = TrailingIdentifier(head.substr(colon + 1));
    if (!ident.empty() && table.unordered_names.count(ident) > 0) {
      findings->push_back(
          {kUnorderedIteration, path, LineAt(pre, paren),
           "range-for over hash-ordered container '" + ident +
               "'; iteration order depends on hashing/addresses and breaks "
               "same-seed replay — use std::map, a sorted-key snapshot, or a "
               "justified allow()"});
    }
  }
}

/// Walks the receiver chain (identifiers, '.', '->', '::') backwards from
/// `pos`, returning the chain's start offset.
size_t ChainStart(const std::string& code, size_t pos) {
  size_t chain_start = pos;
  while (chain_start > 0) {
    char c = code[chain_start - 1];
    if (IsIdentChar(c) || c == '.' || c == ':') {
      --chain_start;
    } else if (c == '>' && chain_start >= 2 && code[chain_start - 2] == '-') {
      chain_start -= 2;
    } else {
      break;
    }
  }
  return chain_start;
}

/// unordered-snapshot: contents of a hash-ordered container copied into
/// another container (iterator-pair constructor, assign(), insert(),
/// back_inserter copies) with no std::sort of the target anywhere after —
/// the classic laundering of hash-order nondeterminism past the
/// unordered-iteration check.
void RunUnorderedSnapshotCheck(const std::string& path, const Preprocessed& pre,
                               const SymbolTable& table,
                               std::vector<Finding>* findings) {
  const std::string& code = pre.code;

  // Is `target` ever passed to a sort call at or after `from`?
  auto sorted_later = [&](const std::string& target, size_t from) {
    for (size_t s = code.find("sort", from); s != std::string::npos;
         s = code.find("sort", s + 1)) {
      if (s > 0 && IsIdentChar(code[s - 1]) && code[s - 1] != ':') continue;
      size_t p = SkipSpaces(code, s + 4);
      if (p >= code.size() || code[p] != '(') continue;
      size_t end = BalanceParens(code, p);
      if (end == std::string::npos) continue;
      std::string args = code.substr(p, end - p);
      for (const std::string& tok : IdentTokens(args)) {
        if (tok == target) return true;
      }
    }
    return false;
  };

  for (size_t pos = code.find(".begin"); pos != std::string::npos;
       pos = code.find(".begin", pos + 1)) {
    size_t after = SkipSpaces(code, pos + 6);
    if (after >= code.size() || code[after] != '(') continue;
    size_t chain_start = ChainStart(code, pos);
    std::string ident =
        TrailingIdentifier(code.substr(chain_start, pos - chain_start));
    if (ident.empty() || table.unordered_names.count(ident) == 0) continue;

    // Enclosing statement: must be a whole-container copy (mentions .end too)
    // and not already sorted in the same statement.
    size_t stmt_begin = chain_start;
    while (stmt_begin > 0 && code[stmt_begin - 1] != ';' &&
           code[stmt_begin - 1] != '{' && code[stmt_begin - 1] != '}') {
      --stmt_begin;
    }
    size_t stmt_end = code.find(';', pos);
    if (stmt_end == std::string::npos) continue;
    std::string stmt = code.substr(stmt_begin, stmt_end - stmt_begin);
    if (stmt.find(".end") == std::string::npos) continue;
    std::vector<std::string> stmt_tokens = IdentTokens(stmt);
    if (!stmt_tokens.empty() && stmt_tokens.front() == "for") continue;
    if (HasToken(stmt_tokens, "sort")) continue;
    if (HasToken(stmt_tokens, "return")) continue;  // caller's problem to sort

    // Identify the copy target.
    std::string target;
    size_t before = chain_start;
    while (before > stmt_begin &&
           std::isspace(static_cast<unsigned char>(code[before - 1]))) {
      --before;
    }
    // assign()/insert() reached via '.' or '->'.
    auto member_call = [&](const char* name) -> size_t {
      for (size_t p = stmt.find(name); p != std::string::npos;
           p = stmt.find(name, p + 1)) {
        if (p > 0 && (stmt[p - 1] == '.' ||
                      (stmt[p - 1] == '>' && p > 1 && stmt[p - 2] == '-'))) {
          return p;
        }
      }
      return std::string::npos;
    };
    size_t assign_pos = member_call("assign");
    size_t insert_pos = member_call("insert");
    size_t call_pos = std::min(assign_pos, insert_pos);
    size_t back_ins = stmt.find("back_inserter");
    if (call_pos != std::string::npos) {
      size_t recv_end = stmt[call_pos - 1] == '.' ? call_pos - 1 : call_pos - 2;
      target = TrailingIdentifier(stmt.substr(0, recv_end));
    } else if (back_ins != std::string::npos) {
      size_t p = SkipSpaces(stmt, back_ins + 13);
      if (p < stmt.size() && stmt[p] == '(') {
        size_t e = BalanceParens(stmt, p);
        if (e != std::string::npos) {
          target = TrailingIdentifier(stmt.substr(p + 1, e - p - 2));
        }
      }
    } else if (before > stmt_begin && code[before - 1] == '(') {
      // Constructor / callable: identifier directly before the '('.
      size_t q = before - 1;
      while (q > stmt_begin &&
             std::isspace(static_cast<unsigned char>(code[q - 1]))) {
        --q;
      }
      size_t name_end = q;
      while (q > stmt_begin && IsIdentChar(code[q - 1])) --q;
      target = code.substr(q, name_end - q);
    }
    if (target.empty()) {
      // `auto v = std::vector<T>(m.begin(), m.end())` — declarator before '='.
      size_t eq = stmt.find('=');
      if (eq != std::string::npos) {
        target = TrailingIdentifier(stmt.substr(0, eq));
      }
    }
    if (target.empty() || target == ident) continue;
    if (sorted_later(target, stmt_end)) continue;

    findings->push_back(
        {kUnorderedSnapshot, path, LineAt(pre, pos),
         "contents of hash-ordered '" + ident + "' copied into '" + target +
             "' and never sorted; the copy launders hash-order "
             "nondeterminism past the iteration check — std::sort it (or "
             "allow() with the reason order is irrelevant downstream)"});
  }
}

void RunDiscardedStatusCheck(const std::string& path, const Preprocessed& pre,
                             const SymbolTable& table,
                             std::vector<Finding>* findings) {
  const std::string& code = pre.code;
  for (const std::string& fn : table.status_fns) {
    if (table.void_fns.count(fn) > 0) continue;  // ambiguous name, see above
    for (size_t pos = code.find(fn); pos != std::string::npos;
         pos = code.find(fn, pos + 1)) {
      if (pos > 0 && IsIdentChar(code[pos - 1])) continue;  // substring match
      size_t after_name = pos + fn.size();
      size_t paren = SkipSpaces(code, after_name);
      if (paren >= code.size() || code[paren] != '(') continue;
      // Walk back over the receiver chain: identifiers, '.', '->', '::'.
      size_t chain_start = ChainStart(code, pos);
      // The chain must begin a statement: preceded (ignoring whitespace) by
      // ';', '{', '}', or the start of the file. Anything else means the
      // value is consumed (assignment, return, argument, condition, decl).
      size_t before = chain_start;
      while (before > 0 &&
             std::isspace(static_cast<unsigned char>(code[before - 1]))) {
        --before;
      }
      if (before != 0 && code[before - 1] != ';' && code[before - 1] != '{' &&
          code[before - 1] != '}') {
        continue;
      }
      size_t call_end = BalanceParens(code, paren);
      if (call_end == std::string::npos) continue;
      size_t next = SkipSpaces(code, call_end);
      if (next < code.size() && code[next] == ';') {
        findings->push_back(
            {kDiscardedStatus, path, LineAt(pre, pos),
             "call to '" + fn +
                 "' discards its Status/Result; check it, propagate it "
                 "(EVC_RETURN_IF_ERROR), or EVC_CHECK_OK it"});
      }
    }
  }
}

// ---------------------------------------------------------------------------
// thread-hostility audit (src/ only)
// ---------------------------------------------------------------------------

/// Blanks preprocessor logical lines (including backslash continuations) so
/// macro bodies containing braces don't desync the scope scanner. Length and
/// newlines are preserved, so offsets still map to lines.
std::string WithoutPreprocessorLines(const std::string& code) {
  std::string out = code;
  size_t i = 0;
  while (i < out.size()) {
    size_t j = i;
    while (j < out.size() && (out[j] == ' ' || out[j] == '\t')) ++j;
    bool pp = j < out.size() && out[j] == '#';
    size_t end = i;
    for (;;) {
      size_t nl = out.find('\n', end);
      if (nl == std::string::npos) {
        end = out.size();
        break;
      }
      bool cont = false;
      if (nl > i) {
        size_t last = nl - 1;
        if (out[last] == '\r' && last > i) --last;
        cont = out[last] == '\\';
      }
      end = nl + 1;
      if (!(pp && cont)) break;
    }
    if (pp) {
      for (size_t k = i; k < end; ++k) {
        if (out[k] != '\n') out[k] = ' ';
      }
    }
    i = end;
  }
  return out;
}

/// Scope kinds tracked by the thread-hostility scanner.
///   'n' namespace (incl. top level, extern "C")
///   'c' class/struct/union/enum body
///   'b' function/lambda/control-flow block
///   'i' brace initializer
char ClassifyScope(const std::string& header_in, char parent) {
  std::string h = Trim(header_in);
  if (h.empty()) return parent == 'c' ? 'c' : 'b';
  std::vector<std::string> tokens = IdentTokens(h);
  if (HasToken(tokens, "namespace")) return 'n';
  bool paren = h.find('(') != std::string::npos;
  if (!paren && (HasToken(tokens, "class") || HasToken(tokens, "struct") ||
                 HasToken(tokens, "union") || HasToken(tokens, "enum"))) {
    return 'c';
  }
  if (h.back() == ')' || h.back() == ']') return 'b';
  if (!tokens.empty()) {
    const std::string& last = tokens.back();
    if (last == "try" || last == "else" || last == "do" || last == "const" ||
        last == "noexcept" || last == "override" || last == "final" ||
        last == "mutable" || last == "catch") {
      return 'b';
    }
  }
  if (paren) return 'b';
  if (tokens.size() == 1 && tokens[0] == "extern") return 'n';
  return 'i';
}

/// Statement-level classifier: flags mutable namespace-scope globals (scope
/// 'n') and mutable `static` function-locals (scope 'b'). Heuristic by
/// design: `const`/`constexpr`/`constinit` anywhere in the declaration makes
/// it clean (so `const char* p` — a mutable pointer to const — passes; the
/// audit targets the common shapes, DESIGN.md documents the limitation).
void MaybeFlagDeclaration(const std::string& stmt, char scope,
                          const std::string& path, int line,
                          std::vector<Finding>* findings) {
  std::string t = Trim(stmt);
  if (t.empty()) return;
  std::vector<std::string> tokens = IdentTokens(t);
  if (tokens.empty()) return;
  static const std::set<std::string>* skip_first = new std::set<std::string>{
      "using",   "typedef",  "template", "friend",   "static_assert",
      "extern",  "namespace", "return",  "if",       "for",
      "while",   "do",       "switch",   "case",     "default",
      "break",   "continue", "goto",     "public",   "private",
      "protected", "class",  "struct",   "enum",     "union",
      "throw",   "delete",   "new",      "else",     "try",
      "catch",   "co_return", "co_await", "asm"};
  if (skip_first->count(tokens[0]) > 0) return;
  if (tokens[0].rfind("EVC_", 0) == 0) return;  // macro invocation
  bool is_static = HasToken(tokens, "static");
  if (scope == 'b' && !is_static) return;  // plain locals are fine
  if (HasToken(tokens, "const") || HasToken(tokens, "constexpr") ||
      HasToken(tokens, "constinit") || HasToken(tokens, "thread_local")) {
    return;  // thread_local reported separately, with its own message
  }
  if (t.find("operator") != std::string::npos) return;
  size_t eq = t.find('=');
  size_t par = t.find('(');
  // '(' before any '=' means a parameter list: function decl/def, not data.
  if (par != std::string::npos &&
      (eq == std::string::npos || par < eq)) {
    return;
  }
  std::string head = eq == std::string::npos ? t : t.substr(0, eq);
  std::vector<std::string> decl;
  for (const std::string& tok : IdentTokens(head)) {
    if (tok != "static" && tok != "inline" && tok != "volatile") {
      decl.push_back(tok);
    }
  }
  if (decl.size() < 2) return;  // need at least <type> <name>
  const std::string& name = decl.back();
  if (!IsIdentStart(name[0])) return;
  std::string msg =
      scope == 'n'
          ? "mutable namespace-scope global '" + name +
                "'; shared state becomes a data race (and a cross-run "
                "divergence source) the day this code runs on the real "
                "Runtime threads (ROADMAP: threads/sockets runtime "
                "backend) — refactor into owned state or add a reasoned "
                "allow()"
          : "mutable function-local static '" + name +
                "'; hidden shared state across calls becomes a data race "
                "under the real Runtime threads (ROADMAP: threads/sockets "
                "runtime backend) — hoist it into owned state or add a "
                "reasoned allow()";
  findings->push_back({kThreadHostile, path, line, std::move(msg)});
}

bool PathIsInSrc(const std::string& path);  // fwd (defined with layer model)

void RunThreadHostileCheck(const std::string& path, const Preprocessed& pre,
                           std::vector<Finding>* findings) {
  if (!PathIsInSrc(path)) return;
  std::string code = WithoutPreprocessorLines(pre.code);

  // thread_local anywhere (any scope) is a per-thread divergence source.
  static const std::regex kThreadLocal("\\bthread_local\\b");
  for (std::sregex_iterator it(code.begin(), code.end(), kThreadLocal), end;
       it != end; ++it) {
    findings->push_back(
        {kThreadHostile, path, LineAt(pre, static_cast<size_t>(it->position())),
         "thread_local storage; per-thread state diverges between the "
         "single-threaded sim and the real Runtime (ROADMAP: "
         "threads/sockets runtime backend) — pass explicit per-worker state "
         "or add a reasoned allow()"});
  }

  // Scope-tracking statement scan.
  std::vector<char> scopes = {'n'};
  size_t stmt_start = 0;
  int paren_depth = 0;
  auto stmt_line = [&](size_t begin, size_t end) {
    size_t p = begin;
    while (p < end && std::isspace(static_cast<unsigned char>(code[p]))) ++p;
    return LineAt(pre, p);
  };
  for (size_t i = 0; i < code.size(); ++i) {
    char c = code[i];
    if (c == '(') {
      ++paren_depth;
    } else if (c == ')') {
      if (paren_depth > 0) --paren_depth;
    } else if (c == ';' && paren_depth == 0) {
      char cur = scopes.back();
      if (cur == 'n' || cur == 'b') {
        MaybeFlagDeclaration(code.substr(stmt_start, i - stmt_start), cur,
                             path, stmt_line(stmt_start, i), findings);
      }
      stmt_start = i + 1;
    } else if (c == '{' && paren_depth == 0) {
      std::string header = code.substr(stmt_start, i - stmt_start);
      char cur = scopes.back();
      char kind = ClassifyScope(header, cur);
      if (kind == 'i' && (cur == 'n' || cur == 'b')) {
        // `Type name{init};` — the header is itself the declaration.
        MaybeFlagDeclaration(header, cur, path, stmt_line(stmt_start, i),
                             findings);
      }
      scopes.push_back(kind);
      stmt_start = i + 1;
    } else if (c == '}' && paren_depth == 0) {
      if (scopes.size() > 1) scopes.pop_back();
      stmt_start = i + 1;
    }
  }
}

// ---------------------------------------------------------------------------
// Layer model + include-graph passes
// ---------------------------------------------------------------------------

/// The declared layer order. Rank N may include rank <= N; an include whose
/// target rank exceeds the includer's rank climbs the order and is a
/// layering finding. Same-rank edges are legal but cycle-checked.
const std::map<std::string, int>& LayerRanks() {
  static const std::map<std::string, int>* ranks =
      new std::map<std::string, int>{
          {"common", 0},
          {"clock", 1},
          {"obs", 1},  // owned by the Simulator (metrics/tracing), below sim
          {"sim", 2},
          {"net", 3},  // sim/network*, sim/nemesis*, sim/latency*
          {"rpc", 3},  // sim/rpc*
          {"storage", 4},
          {"crdt", 4},
          {"cache", 5},
          {"causal", 5},
          {"consensus", 5},
          {"core", 5},
          {"membership", 5},
          {"replication", 5},
          {"resilience", 5},
          {"session", 5},
          {"sla", 5},
          {"stale", 5},
          {"txn", 5},
          {"verify", 6},
          {"workload", 6},
          {"api", 7},  // src/evc.h umbrella header
          {"bench", 8},
          {"examples", 8},
          {"tests", 8},
          {"tools", 8},
      };
  return *ranks;
}

int RankOf(const std::string& layer) {
  auto it = LayerRanks().find(layer);
  return it == LayerRanks().end() ? -1 : it->second;
}

bool IsAnchorComponent(const std::string& c) {
  return c == "src" || c == "bench" || c == "tools" || c == "tests" ||
         c == "examples";
}

/// `path` split at its last src/bench/tools/tests/examples component.
struct PathAnchor {
  bool ok = false;
  std::string root;    ///< prefix before the anchor ("" or "/root/repo/")
  std::string anchor;  ///< the anchor component itself
  std::vector<std::string> rest;  ///< components after the anchor
};

PathAnchor SplitAnchor(const std::string& path) {
  std::vector<std::pair<std::string, size_t>> comps;  // (component, offset)
  size_t i = 0;
  while (i < path.size()) {
    if (path[i] == '/') {
      ++i;
      continue;
    }
    size_t b = i;
    while (i < path.size() && path[i] != '/') ++i;
    std::string comp = path.substr(b, i - b);
    if (comp != ".") comps.emplace_back(std::move(comp), b);
  }
  PathAnchor out;
  size_t anchor_idx = comps.size();
  for (size_t k = 0; k < comps.size(); ++k) {
    if (IsAnchorComponent(comps[k].first)) anchor_idx = k;
  }
  if (anchor_idx == comps.size()) return out;
  out.ok = true;
  out.anchor = comps[anchor_idx].first;
  out.root = path.substr(0, comps[anchor_idx].second);
  for (size_t k = anchor_idx + 1; k < comps.size(); ++k) {
    out.rest.push_back(comps[k].first);
  }
  return out;
}

bool PathIsInSrc(const std::string& path) {
  PathAnchor a = SplitAnchor(path);
  return a.ok && a.anchor == "src";
}

/// src/sim/ splits into three layers: the simulator core ("sim"), the
/// network/fault files layered on top of it ("net"), and the rpc stack on
/// top of those ("rpc").
std::string SimSubLayer(const std::string& basename) {
  if (basename.rfind("network", 0) == 0 || basename.rfind("nemesis", 0) == 0 ||
      basename.rfind("latency", 0) == 0) {
    return "net";
  }
  if (basename.rfind("rpc", 0) == 0) return "rpc";
  return "sim";
}

/// Layer inferred from an include string ("sim/rpc.h" -> "rpc") when the
/// include does not resolve to a scanned file. Unknown shapes -> "".
std::string LayerOfInclude(const std::string& inc) {
  if (inc == "evc.h") return "api";
  size_t slash = inc.find('/');
  if (slash == std::string::npos) return "";
  std::string first = inc.substr(0, slash);
  if (first == "sim") return SimSubLayer(inc.substr(inc.rfind('/') + 1));
  return LayerRanks().count(first) > 0 ? first : "";
}

std::string NormalizePath(const std::string& path) {
  return std::filesystem::path(path).lexically_normal().generic_string();
}

/// A quoted include extracted from raw text (the stripped code blanks string
/// literals, so the path only survives in the raw line; the stripped line is
/// consulted to drop includes that live inside comments).
struct IncludeRef {
  std::string inc;
  int line = 0;
};

std::vector<IncludeRef> ExtractIncludes(const std::string& raw,
                                        const std::string& stripped) {
  std::vector<IncludeRef> out;
  static const std::regex kInc(
      "^[ \\t]*#[ \\t]*include[ \\t]*\"([^\"]+)\"");
  std::istringstream rs(raw);
  std::istringstream cs(stripped);
  std::string rline;
  std::string cline;
  int line = 0;
  while (std::getline(rs, rline)) {
    ++line;
    if (!std::getline(cs, cline)) cline.clear();
    std::smatch m;
    if (std::regex_search(rline, m, kInc) &&
        cline.find('#') != std::string::npos) {
      out.push_back({m[1].str(), line});
    }
  }
  return out;
}

/// Resolves an include against the scanned file set: relative to the
/// includer's directory first, then against the repo roots the includer's
/// own path implies. Returns the file index or -1.
int ResolveInclude(const std::string& includer, const std::string& inc,
                   const std::map<std::string, int>& by_path) {
  namespace fs = std::filesystem;
  std::vector<std::string> candidates;
  candidates.push_back(
      (fs::path(includer).parent_path() / inc).lexically_normal()
          .generic_string());
  PathAnchor a = SplitAnchor(includer);
  if (a.ok) {
    for (const char* root_dir : {"src", "tools", "bench", "tests"}) {
      candidates.push_back(NormalizePath(a.root + root_dir + "/" + inc));
    }
  }
  candidates.push_back(NormalizePath(inc));
  for (const std::string& cand : candidates) {
    auto it = by_path.find(cand);
    if (it != by_path.end()) return it->second;
  }
  return -1;
}

/// One analyzed include edge.
struct IncludeEdge {
  std::string inc;           ///< as written in the #include
  int line = 0;              ///< 1-based line of the #include
  int target = -1;           ///< index into the file set, or -1
  std::string target_layer;  ///< resolved or inferred; may be ""
};

/// Whole-set include analysis shared by the layering/cycle checks and the
/// DOT export.
struct IncludeGraph {
  std::vector<std::string> layer;          ///< per file; may be ""
  std::vector<int> rank;                   ///< per file; -1 if unknown
  std::vector<std::vector<IncludeEdge>> edges;  ///< per file
};

IncludeGraph BuildIncludeGraph(const std::vector<SourceFile>& files,
                               const std::vector<Preprocessed>& pres) {
  IncludeGraph g;
  g.layer.resize(files.size());
  g.rank.resize(files.size(), -1);
  g.edges.resize(files.size());
  std::map<std::string, int> by_path;
  for (size_t i = 0; i < files.size(); ++i) {
    by_path.emplace(NormalizePath(files[i].path), static_cast<int>(i));
  }
  // Two passes: layers first, then edges — an edge's target layer must be
  // readable even when the target file sorts after the includer.
  for (size_t i = 0; i < files.size(); ++i) {
    g.layer[i] = LayerOfPath(files[i].path);
    g.rank[i] = RankOf(g.layer[i]);
  }
  for (size_t i = 0; i < files.size(); ++i) {
    for (IncludeRef& ref :
         ExtractIncludes(files[i].content, pres[i].code)) {
      IncludeEdge e;
      e.inc = ref.inc;
      e.line = ref.line;
      e.target = ResolveInclude(files[i].path, ref.inc, by_path);
      e.target_layer = e.target >= 0 ? g.layer[e.target]
                                     : LayerOfInclude(ref.inc);
      g.edges[i].push_back(std::move(e));
    }
  }
  return g;
}

/// Layering findings: files outside the declared layer map, and includes
/// that climb the layer order.
void RunLayeringChecks(const std::vector<SourceFile>& files,
                       const IncludeGraph& g,
                       std::map<std::string, std::vector<Finding>>* extra) {
  for (size_t i = 0; i < files.size(); ++i) {
    const std::string& path = files[i].path;
    if (!g.layer[i].empty() && g.rank[i] < 0) {
      (*extra)[path].push_back(
          {kLayering, path, 1,
           "directory '" + g.layer[i] +
               "' is not in the declared layer order; add it to kLayerRanks "
               "(tools/evc_lint/lint.cc) at the rank its dependencies "
               "justify"});
      continue;
    }
    if (g.rank[i] < 0) continue;  // outside the layer map entirely
    for (const IncludeEdge& e : g.edges[i]) {
      int target_rank = RankOf(e.target_layer);
      if (target_rank < 0) continue;
      if (target_rank > g.rank[i]) {
        (*extra)[path].push_back(
            {kLayering, path, e.line,
             "include of '" + e.inc + "' climbs the layer order: '" +
                 g.layer[i] + "' (rank " + std::to_string(g.rank[i]) +
                 ") may not depend on '" + e.target_layer + "' (rank " +
                 std::to_string(target_rank) +
                 "); invert the dependency or move the shared piece to a "
                 "lower layer"});
      }
    }
  }
}

/// include-cycle findings: cycles in the file-level include graph, plus
/// cycles between same-rank layers. Each distinct cycle is reported once,
/// anchored at its lexicographically-smallest member.
void RunCycleChecks(const std::vector<SourceFile>& files,
                    const IncludeGraph& g,
                    std::map<std::string, std::vector<Finding>>* extra) {
  size_t n = files.size();

  // --- file-level cycles ---
  std::vector<int> color(n, 0);  // 0 white, 1 on stack, 2 done
  std::vector<int> stack;
  std::set<std::string> seen_cycles;
  auto edge_line = [&](int from, int to) {
    for (const IncludeEdge& e : g.edges[from]) {
      if (e.target == to) return e.line;
    }
    return 1;
  };
  std::function<void(int)> dfs = [&](int u) {
    color[u] = 1;
    stack.push_back(u);
    for (const IncludeEdge& e : g.edges[u]) {
      int v = e.target;
      if (v < 0) continue;
      if (color[v] == 0) {
        dfs(v);
      } else if (color[v] == 1) {
        // Found a cycle: the stack suffix from v to u.
        size_t start = 0;
        for (size_t k = 0; k < stack.size(); ++k) {
          if (stack[k] == v) {
            start = k;
            break;
          }
        }
        std::vector<int> cycle(stack.begin() + start, stack.end());
        // Rotate so the smallest path leads, for stable dedup + reporting.
        size_t min_at = 0;
        for (size_t k = 1; k < cycle.size(); ++k) {
          if (files[cycle[k]].path < files[cycle[min_at]].path) min_at = k;
        }
        std::rotate(cycle.begin(), cycle.begin() + min_at, cycle.end());
        std::string chain;
        for (int idx : cycle) chain += files[idx].path + " -> ";
        chain += files[cycle[0]].path;
        if (seen_cycles.insert(chain).second) {
          const std::string& path = files[cycle[0]].path;
          int next = cycle.size() > 1 ? cycle[1] : cycle[0];
          (*extra)[path].push_back(
              {kIncludeCycle, path, edge_line(cycle[0], next),
               "include cycle: " + chain +
                   " (header guards only hide it; hoist the shared "
                   "declarations into a lower layer)"});
        }
      }
    }
    stack.pop_back();
    color[u] = 2;
  };
  for (size_t i = 0; i < n; ++i) {
    if (color[i] == 0) dfs(static_cast<int>(i));
  }

  // --- same-rank layer cycles ---
  // layer -> layer -> representative (file path, line)
  std::map<std::string, std::map<std::string, std::pair<std::string, int>>>
      ladj;
  for (size_t i = 0; i < n; ++i) {
    if (g.rank[i] < 0) continue;
    for (const IncludeEdge& e : g.edges[i]) {
      if (e.target_layer.empty() || e.target_layer == g.layer[i]) continue;
      if (RankOf(e.target_layer) != g.rank[i]) continue;
      auto& slot = ladj[g.layer[i]][e.target_layer];
      if (slot.first.empty()) slot = {files[i].path, e.line};
    }
  }
  std::map<std::string, int> lcolor;
  std::vector<std::string> lstack;
  std::set<std::string> seen_lcycles;
  std::function<void(const std::string&)> ldfs = [&](const std::string& u) {
    lcolor[u] = 1;
    lstack.push_back(u);
    for (const auto& [v, rep] : ladj[u]) {
      if (lcolor[v] == 0) {
        ldfs(v);
      } else if (lcolor[v] == 1) {
        size_t start = 0;
        for (size_t k = 0; k < lstack.size(); ++k) {
          if (lstack[k] == v) {
            start = k;
            break;
          }
        }
        std::vector<std::string> cycle(lstack.begin() + start, lstack.end());
        size_t min_at = 0;
        for (size_t k = 1; k < cycle.size(); ++k) {
          if (cycle[k] < cycle[min_at]) min_at = k;
        }
        std::rotate(cycle.begin(), cycle.begin() + min_at, cycle.end());
        std::string chain;
        for (const std::string& l : cycle) chain += l + " -> ";
        chain += cycle[0];
        if (seen_lcycles.insert(chain).second) {
          const auto& rep = ladj[cycle[0]].begin()->second;
          (*extra)[rep.first].push_back(
              {kIncludeCycle, rep.first, rep.second,
               "cycle between same-rank layers: " + chain +
                   " (same-rank includes are legal only while acyclic; split "
                   "the layers across ranks or break the back edge)"});
        }
      }
    }
    lstack.pop_back();
    lcolor[u] = 2;
  };
  std::vector<std::string> layer_nodes;
  for (const auto& [u, _] : ladj) layer_nodes.push_back(u);
  for (const std::string& u : layer_nodes) {
    if (lcolor[u] == 0) ldfs(u);
  }
}

/// True if `includer` is the .cc that implements `header` (same directory
/// and stem).
bool IsOwnSource(const std::string& includer, const std::string& header) {
  std::filesystem::path source(includer);
  if (source.extension() != ".cc") return false;
  return NormalizePath(source.replace_extension(".h").generic_string()) ==
         NormalizePath(header);
}

/// orphan-module findings: src/ headers that only the umbrella header, their
/// own .cc and tests/ include. Each is reported at its first line of code
/// (the include guard), so an allow() sits directly above the guard. Only a
/// scan that holds the umbrella header is judged: a scan of a few files
/// cannot see a module's users.
void RunOrphanChecks(const std::vector<SourceFile>& files,
                     const std::vector<Preprocessed>& pres,
                     const IncludeGraph& g,
                     std::map<std::string, std::vector<Finding>>* extra) {
  if (std::find(g.layer.begin(), g.layer.end(), "api") == g.layer.end()) {
    return;
  }
  std::vector<bool> used(files.size(), false);
  for (size_t i = 0; i < files.size(); ++i) {
    if (g.layer[i] == "api" || g.layer[i] == "tests") continue;
    for (const IncludeEdge& e : g.edges[i]) {
      if (e.target < 0) continue;
      if (IsOwnSource(files[i].path, files[e.target].path)) continue;
      used[e.target] = true;
    }
  }
  for (size_t i = 0; i < files.size(); ++i) {
    const std::string& path = files[i].path;
    if (used[i] || g.layer[i] == "api" || !PathIsInSrc(path) ||
        std::filesystem::path(path).extension() != ".h") {
      continue;
    }
    const size_t code_at = pres[i].code.find_first_not_of(" \t\r\n");
    (*extra)[path].push_back(
        {kOrphanModule, path,
         code_at == std::string::npos ? 1 : LineAt(pres[i], code_at),
         "only the umbrella header, its own .cc and tests/ include this "
         "header: no bench, example, tool or other module uses it, so it "
         "reports no number; give it a user or delete it"});
  }
}

bool IsSuppressed(std::vector<Suppression>& sups, const Finding& f) {
  for (Suppression& sup : sups) {
    if (sup.checks.count(f.check) > 0 &&
        (f.line == sup.line || f.line == sup.line + 1)) {
      sup.used = true;
      return true;
    }
  }
  return false;
}

}  // namespace

const std::vector<std::string>& AllCheckNames() {
  static const std::vector<std::string>* names = new std::vector<std::string>{
      kWallClock,        kRawRandom,     kUnorderedIteration,
      kUnorderedSnapshot, kDiscardedStatus, kCheckMacro,
      kPointerTaint,     kThreadHostile, kLayering,
      kIncludeCycle,     kOrphanModule};
  return *names;
}

std::string LayerOfPath(const std::string& path) {
  PathAnchor a = SplitAnchor(path);
  if (!a.ok) return "";
  if (a.anchor != "src") return a.anchor;
  if (a.rest.empty()) return "";
  if (a.rest.size() == 1) return "api";  // src/evc.h umbrella header
  const std::string& module = a.rest.front();
  if (module == "sim") return SimSubLayer(a.rest.back());
  return module;
}

std::vector<Finding> ScanFiles(const std::vector<SourceFile>& files,
                               const Options& options) {
  std::vector<Preprocessed> pres;
  pres.reserve(files.size());
  SymbolTable table;
  for (const SourceFile& file : files) {
    pres.push_back(Preprocess(file.path, file.content));
    CollectUnorderedNames(pres.back().code, &table);
    CollectStatusFns(pres.back().code, &table);
  }
  // Aliases can be declared in one file (a header) and used in another, so
  // alias-typed declarations are collected only once every file is parsed.
  for (const Preprocessed& pre : pres) {
    CollectAliasDeclaredNames(pre.code, &table);
  }

  auto enabled = [&](const char* check) {
    return options.only_checks.empty() || options.only_checks.count(check) > 0;
  };

  // Whole-set passes over the include graph; findings are attributed to the
  // file at fault (the includer, or the orphaned header) so its
  // suppressions apply.
  std::map<std::string, std::vector<Finding>> graph_findings;
  if (enabled(kLayering) || enabled(kIncludeCycle) ||
      enabled(kOrphanModule)) {
    IncludeGraph graph = BuildIncludeGraph(files, pres);
    if (enabled(kLayering)) RunLayeringChecks(files, graph, &graph_findings);
    if (enabled(kIncludeCycle)) RunCycleChecks(files, graph, &graph_findings);
    if (enabled(kOrphanModule)) {
      RunOrphanChecks(files, pres, graph, &graph_findings);
    }
  }

  std::vector<Finding> all;
  for (size_t i = 0; i < files.size(); ++i) {
    const std::string& path = files[i].path;
    Preprocessed& pre = pres[i];
    std::vector<Finding> raw;
    RunLineChecks(path, pre, &raw);
    if (enabled(kUnorderedIteration)) {
      RunUnorderedIterationCheck(path, pre, table, &raw);
    }
    if (enabled(kUnorderedSnapshot)) {
      RunUnorderedSnapshotCheck(path, pre, table, &raw);
    }
    if (enabled(kDiscardedStatus)) {
      RunDiscardedStatusCheck(path, pre, table, &raw);
    }
    if (enabled(kThreadHostile)) {
      RunThreadHostileCheck(path, pre, &raw);
    }
    auto git = graph_findings.find(path);
    if (git != graph_findings.end()) {
      for (Finding& f : git->second) raw.push_back(std::move(f));
      git->second.clear();
    }
    for (Finding& f : raw) {
      if (!enabled(f.check.c_str())) continue;
      if (IsSuppressed(pre.suppressions, f)) continue;
      all.push_back(std::move(f));
    }
    for (Finding& f : pre.bad_suppressions) all.push_back(std::move(f));
  }
  std::sort(all.begin(), all.end(), [](const Finding& a, const Finding& b) {
    if (a.file != b.file) return a.file < b.file;
    if (a.line != b.line) return a.line < b.line;
    return a.check < b.check;
  });
  return all;
}

std::vector<std::string> ListSourceFiles(const std::vector<std::string>& paths,
                                         std::vector<std::string>* errors) {
  namespace fs = std::filesystem;
  std::vector<std::string> out;
  // readdir order is filesystem-dependent; sorting each directory's entries
  // bytewise before recursing makes the walk (and so every downstream report)
  // byte-identical across machines.
  std::function<void(const fs::path&)> walk = [&](const fs::path& dir) {
    std::vector<fs::path> entries;
    std::error_code ec;
    for (auto it = fs::directory_iterator(dir, ec);
         !ec && it != fs::directory_iterator(); it.increment(ec)) {
      entries.push_back(it->path());
    }
    if (ec) {
      errors->push_back("cannot list " + dir.generic_string());
      return;
    }
    std::sort(entries.begin(), entries.end(),
              [](const fs::path& a, const fs::path& b) {
                return a.generic_string() < b.generic_string();
              });
    for (const fs::path& e : entries) {
      std::error_code ec2;
      if (fs::is_directory(e, ec2)) {
        walk(e);
      } else if (fs::is_regular_file(e, ec2)) {
        std::string ext = e.extension().string();
        if (ext == ".cc" || ext == ".cpp" || ext == ".h") {
          out.push_back(e.generic_string());
        }
      }
    }
  };
  for (const std::string& path : paths) {
    fs::path p(path);
    std::error_code ec;
    if (fs::is_directory(p, ec)) {
      walk(p);
    } else if (fs::is_regular_file(p, ec)) {
      out.push_back(p.generic_string());  // explicit files skip the ext filter
    } else {
      errors->push_back("no such file or directory: " + path);
    }
  }
  return out;
}

namespace {

bool Excluded(const std::string& path, const Options& options) {
  for (const std::string& sub : options.excludes) {
    if (!sub.empty() && path.find(sub) != std::string::npos) return true;
  }
  return false;
}

std::vector<SourceFile> LoadFiles(const std::vector<std::string>& paths,
                                  const Options& options,
                                  std::vector<std::string>* errors) {
  std::vector<SourceFile> files;
  for (const std::string& path : ListSourceFiles(paths, errors)) {
    if (Excluded(path, options)) continue;
    std::ifstream in(path, std::ios::binary);
    if (!in) {
      errors->push_back("cannot read " + path);
      continue;
    }
    std::ostringstream ss;
    ss << in.rdbuf();
    files.push_back({path, ss.str()});
  }
  return files;
}

/// Graphviz DOT render of the observed layer graph (see --layers=dot).
std::vector<std::string> RenderLayerDot(const std::vector<SourceFile>& files) {
  std::vector<Preprocessed> pres;
  pres.reserve(files.size());
  for (const SourceFile& f : files) pres.push_back(Preprocess(f.path, f.content));
  IncludeGraph g = BuildIncludeGraph(files, pres);

  std::set<std::string> layers;
  std::map<std::pair<std::string, std::string>, bool> edges;  // -> upward?
  for (size_t i = 0; i < files.size(); ++i) {
    if (g.rank[i] < 0) continue;
    layers.insert(g.layer[i]);
    for (const IncludeEdge& e : g.edges[i]) {
      int tr = RankOf(e.target_layer);
      if (tr < 0 || e.target_layer == g.layer[i]) continue;
      layers.insert(e.target_layer);
      edges[{g.layer[i], e.target_layer}] = tr > g.rank[i];
    }
  }

  std::vector<std::string> out;
  out.push_back("digraph evc_layers {");
  out.push_back("  rankdir=BT;  // arrows point at dependencies; low ranks sink");
  out.push_back("  node [shape=box, fontname=\"Helvetica\"];");
  std::map<int, std::vector<std::string>> by_rank;
  for (const std::string& l : layers) by_rank[RankOf(l)].push_back(l);
  for (const auto& [rank, names] : by_rank) {
    std::string line = "  { rank=same;";
    for (const std::string& l : names) line += " \"" + l + "\";";
    line += " }  // rank " + std::to_string(rank);
    out.push_back(line);
  }
  for (const auto& [pair, upward] : edges) {
    std::string line = "  \"" + pair.first + "\" -> \"" + pair.second + "\"";
    if (upward) line += " [color=red, penwidth=2, label=\"UPWARD\"]";
    line += ";";
    out.push_back(line);
  }
  out.push_back("}");
  return out;
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace

std::vector<Finding> ScanPaths(const std::vector<std::string>& paths,
                               const Options& options,
                               std::vector<std::string>* errors) {
  return ScanFiles(LoadFiles(paths, options, errors), options);
}

std::string FormatFinding(const Finding& finding) {
  return finding.file + ":" + std::to_string(finding.line) + ": [" +
         finding.check + "] " + finding.message;
}

std::string FindingsToJson(const std::vector<Finding>& findings) {
  std::ostringstream os;
  os << "[";
  for (size_t i = 0; i < findings.size(); ++i) {
    const Finding& f = findings[i];
    os << (i == 0 ? "" : ",") << "\n  {\"path\": \"" << JsonEscape(f.file)
       << "\", \"line\": " << f.line << ", \"check\": \""
       << JsonEscape(f.check) << "\", \"message\": \""
       << JsonEscape(f.message) << "\"}";
  }
  os << (findings.empty() ? "]" : "\n]");
  return os.str();
}

int RunCommandLine(const std::vector<std::string>& args,
                   std::vector<std::string>* out) {
  Options options;
  bool werror = false;
  bool json = false;
  bool layers_dot = false;
  std::vector<std::string> paths;
  for (const std::string& arg : args) {
    if (arg == "--werror") {
      werror = true;
    } else if (arg == "--list-checks") {
      for (const std::string& name : AllCheckNames()) out->push_back(name);
      return 0;
    } else if (arg.rfind("--check=", 0) == 0) {
      std::stringstream ss(arg.substr(8));
      std::string name;
      const auto& known = AllCheckNames();
      while (std::getline(ss, name, ',')) {
        name = Trim(name);
        if (name.empty()) continue;
        if (std::find(known.begin(), known.end(), name) == known.end()) {
          out->push_back("evc_lint: unknown check '" + name + "'");
          return 2;
        }
        options.only_checks.insert(name);
      }
    } else if (arg.rfind("--exclude=", 0) == 0) {
      std::stringstream ss(arg.substr(10));
      std::string sub;
      while (std::getline(ss, sub, ',')) {
        sub = Trim(sub);
        if (!sub.empty()) options.excludes.push_back(sub);
      }
    } else if (arg.rfind("--format=", 0) == 0) {
      std::string fmt = arg.substr(9);
      if (fmt == "json") {
        json = true;
      } else if (fmt != "text") {
        out->push_back("evc_lint: unknown format '" + fmt +
                       "' (expected text or json)");
        return 2;
      }
    } else if (arg.rfind("--layers=", 0) == 0) {
      if (arg.substr(9) != "dot") {
        out->push_back("evc_lint: unknown layers format '" + arg.substr(9) +
                       "' (expected dot)");
        return 2;
      }
      layers_dot = true;
    } else if (arg == "--help" || arg == "-h") {
      out->push_back(
          "usage: evc_lint [--werror] [--check=name,...] [--exclude=substr,"
          "...] [--format=text|json] [--layers=dot] [--list-checks] "
          "[paths...]");
      out->push_back(
          "scans .cc/.cpp/.h files (default paths: src bench tools "
          "examples) for determinism, layering, thread-readiness, "
          "error-discipline and orphan-module violations");
      out->push_back(
          "  --layers=dot         print the observed layer graph as "
          "Graphviz DOT and exit");
      return 0;
    } else if (arg.rfind("--", 0) == 0) {
      out->push_back("evc_lint: unknown flag '" + arg + "'");
      return 2;
    } else {
      paths.push_back(arg);
    }
  }
  if (paths.empty()) paths = {"src", "bench", "tools", "examples"};

  std::vector<std::string> errors;
  std::vector<SourceFile> files = LoadFiles(paths, options, &errors);
  for (const std::string& err : errors) out->push_back("evc_lint: " + err);
  if (!errors.empty()) return 2;

  if (layers_dot) {
    for (std::string& line : RenderLayerDot(files)) {
      out->push_back(std::move(line));
    }
    return 0;
  }

  std::vector<Finding> findings = ScanFiles(files, options);
  if (json) {
    out->push_back(FindingsToJson(findings));
    return findings.empty() ? 0 : (werror ? 1 : 0);
  }
  for (const Finding& f : findings) out->push_back(FormatFinding(f));
  if (findings.empty()) {
    out->push_back("evc_lint: clean");
    return 0;
  }
  out->push_back("evc_lint: " + std::to_string(findings.size()) +
                 " finding(s)");
  return werror ? 1 : 0;
}

}  // namespace lint
}  // namespace evc
