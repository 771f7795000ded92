#include "bench_util.h"

#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <thread>

namespace ft::bench {

Flags::Flags(int argc, char** argv) : prog_(argv[0]) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      help_requested_ = true;
      continue;
    }
    if (arg.rfind("--", 0) != 0) {
      std::fprintf(stderr, "unexpected argument: %s (try --help)\n",
                   arg.c_str());
      std::exit(2);
    }
    const auto eq = arg.find('=');
    Entry e;
    if (eq == std::string::npos) {
      e.name = arg.substr(2);
      e.value = "1";  // bare flag == boolean true
    } else {
      e.name = arg.substr(2, eq - 2);
      e.value = arg.substr(eq + 1);
    }
    entries_.push_back(std::move(e));
  }
}

const std::string* Flags::find(const std::string& name) {
  for (auto& e : entries_) {
    if (e.name == name) {
      e.used = true;
      return &e.value;
    }
  }
  return nullptr;
}

std::int64_t Flags::int_flag(const std::string& name, std::int64_t def,
                             const std::string& help) {
  help_.push_back({name, std::to_string(def), help});
  const std::string* v = find(name);
  return v ? std::strtoll(v->c_str(), nullptr, 10) : def;
}

double Flags::double_flag(const std::string& name, double def,
                          const std::string& help) {
  help_.push_back({name, fmt("%g", def), help});
  const std::string* v = find(name);
  return v ? std::strtod(v->c_str(), nullptr) : def;
}

bool Flags::bool_flag(const std::string& name, bool def,
                      const std::string& help) {
  help_.push_back({name, def ? "true" : "false", help});
  const std::string* v = find(name);
  if (!v) return def;
  return *v == "1" || *v == "true" || *v == "yes";
}

std::string Flags::string_flag(const std::string& name, std::string def,
                               const std::string& help) {
  help_.push_back({name, def, help});
  const std::string* v = find(name);
  return v ? *v : def;
}

void Flags::done(const char* description) {
  if (help_requested_) {
    std::printf("%s\n\n%s\n\nflags:\n", prog_.c_str(), description);
    for (const auto& h : help_) {
      std::printf("  --%-18s (default %s)  %s\n", h.name.c_str(),
                  h.def.c_str(), h.help.c_str());
    }
    std::exit(0);
  }
  for (const auto& e : entries_) {
    if (!e.used) {
      std::fprintf(stderr, "unknown flag: --%s (try --help)\n",
                   e.name.c_str());
      std::exit(2);
    }
  }
}

Table::Table(std::vector<std::string> headers)
    : headers_(std::move(headers)) {}

void Table::add_row(std::vector<std::string> cells) {
  rows_.push_back(std::move(cells));
}

void Table::print(std::FILE* out) const {
  std::vector<std::size_t> width(headers_.size());
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    width[c] = headers_[c].size();
  }
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size() && c < width.size(); ++c) {
      width[c] = std::max(width[c], row[c].size());
    }
  }
  const auto line = [&](const std::vector<std::string>& cells) {
    for (std::size_t c = 0; c < width.size(); ++c) {
      const std::string& s = c < cells.size() ? cells[c] : "";
      std::fprintf(out, "%-*s  ", static_cast<int>(width[c]), s.c_str());
    }
    std::fprintf(out, "\n");
  };
  line(headers_);
  std::size_t total = 0;
  for (auto w : width) total += w + 2;
  std::string sep(total, '-');
  std::fprintf(out, "%s\n", sep.c_str());
  for (const auto& row : rows_) line(row);
}

std::string fmt(const char* format, ...) {
  va_list args;
  va_start(args, format);
  char buf[512];
  std::vsnprintf(buf, sizeof buf, format, args);
  va_end(args);
  return buf;
}

void banner(const std::string& title, const std::string& paper_ref) {
  std::printf("\n=== %s ===\n", title.c_str());
  std::printf("[reproduces %s]\n\n", paper_ref.c_str());
}

namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (const char c : s) {
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
        if (static_cast<unsigned char>(c) < 0x20) {
          out += fmt("\\u%04x", c);
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace

Json::Entry& Json::slot(const std::string& key) {
  for (Entry& e : entries_) {
    if (e.key == key) return e;
  }
  entries_.push_back(Entry{});
  entries_.back().key = key;
  return entries_.back();
}

Json& Json::set(const std::string& key, double v) {
  Entry& e = slot(key);
  e.is_scalar = true;
  // %.17g round-trips doubles; trim the common integral case. The
  // range check must short-circuit the cast (UB for NaN/huge values),
  // and non-finite values have no JSON number form -- emit null.
  if (!std::isfinite(v)) {
    e.scalar = "null";
  } else if (std::abs(v) < 1e15 && v == static_cast<std::int64_t>(v)) {
    e.scalar = fmt("%lld", static_cast<long long>(v));
  } else {
    e.scalar = fmt("%.17g", v);
  }
  return *this;
}

Json& Json::set(const std::string& key, std::int64_t v) {
  Entry& e = slot(key);
  e.is_scalar = true;
  e.scalar = fmt("%lld", static_cast<long long>(v));
  return *this;
}

Json& Json::set(const std::string& key, bool v) {
  Entry& e = slot(key);
  e.is_scalar = true;
  e.scalar = v ? "true" : "false";
  return *this;
}

Json& Json::set(const std::string& key, const std::string& v) {
  Entry& e = slot(key);
  e.is_scalar = true;
  e.scalar = "\"" + json_escape(v) + "\"";
  return *this;
}

Json& Json::child(const std::string& key) {
  Entry& e = slot(key);
  if (!e.object) e.object = std::make_unique<Json>();
  return *e.object;
}

Json& Json::append(const std::string& key) {
  Entry& e = slot(key);
  e.array.push_back(std::make_unique<Json>());
  return *e.array.back();
}

std::string Json::dump(int indent) const {
  const std::string pad(static_cast<std::size_t>(indent) * 2, ' ');
  const std::string pad_in(static_cast<std::size_t>(indent + 1) * 2, ' ');
  std::string out = "{\n";
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    const Entry& e = entries_[i];
    out += pad_in + "\"" + json_escape(e.key) + "\": ";
    if (e.is_scalar) {
      out += e.scalar;
    } else if (e.object) {
      out += e.object->dump(indent + 1);
    } else {
      out += "[";
      for (std::size_t a = 0; a < e.array.size(); ++a) {
        out += "\n" + pad_in + "  " + e.array[a]->dump(indent + 2);
        if (a + 1 < e.array.size()) out += ",";
      }
      if (!e.array.empty()) out += "\n" + pad_in;
      out += "]";
    }
    if (i + 1 < entries_.size()) out += ",";
    out += "\n";
  }
  out += pad + "}";
  return out;
}

namespace {

// The first bytes of a shell command's stdout, trailing newlines
// stripped; "" if it printed nothing or could not run.
std::string command_output(const char* cmd) {
  std::string out;
  if (std::FILE* p = ::popen(cmd, "r")) {
    char buf[64] = {};
    const std::size_t n = std::fread(buf, 1, sizeof buf - 1, p);
    ::pclose(p);
    out.assign(buf, n);
  }
  while (!out.empty() && (out.back() == '\n' || out.back() == '\r')) {
    out.pop_back();
  }
  return out;
}

// HEAD of the working directory's checkout, with "-dirty" when tracked
// files differ from it: a run of uncommitted code must not pass for a
// run of the commit.
std::string git_sha() {
  std::string sha =
      command_output("git rev-parse --short=12 HEAD 2>/dev/null");
  if (!sha.empty()) {
    if (!command_output(
             "git status --porcelain --untracked-files=no 2>/dev/null")
             .empty()) {
      sha += "-dirty";
    }
    return sha;
  }
  for (const char* env : {"GITHUB_SHA", "GIT_SHA"}) {
    if (const char* v = std::getenv(env); v != nullptr && *v != '\0') {
      return v;
    }
  }
  return "unknown";
}

}  // namespace

Json& Json::add_run_metadata(const std::string& pinning,
                             const std::string& backend) {
  Json& run = child("run");
  run.set("git_sha", git_sha());
  run.set("hardware_concurrency",
          static_cast<std::int64_t>(std::thread::hardware_concurrency()));
#if defined(__VERSION__)
  run.set("compiler", __VERSION__);
#endif
#if defined(NDEBUG)
  run.set("assertions_disabled", true);
#else
  run.set("assertions_disabled", false);
#endif
  if (!pinning.empty()) run.set("pinning", pinning);
  if (!backend.empty()) run.set("backend", backend);
  return run;
}

bool Json::write_file(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  const std::string body = dump() + "\n";
  const bool ok = std::fwrite(body.data(), 1, body.size(), f) ==
                  body.size();
  std::fclose(f);
  if (ok) std::printf("results written to %s\n", path.c_str());
  return ok;
}

}  // namespace ft::bench
