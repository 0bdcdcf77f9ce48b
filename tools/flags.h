#ifndef SKETCHLINK_TOOLS_FLAGS_H_
#define SKETCHLINK_TOOLS_FLAGS_H_

// Strict --flag=value parsing for the command-line tools. Each command
// declares the flags it takes; anything else — an unknown flag, a stray
// non-flag argument, a value on a switch, a flag without its value, or an
// integer that is not all digits or falls outside the flag's range —
// prints usage to stderr and exits 2 before the command does any work.

#include <charconv>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace sketchlink::tools {

struct FlagSpec {
  const char* name;   // without the leading "--"
  const char* value;  // "N" for an integer, "" for a switch, else a
                      // placeholder for a string value ("PATH", "NAME")
  uint64_t min = 0;   // inclusive range of an N flag
  uint64_t max = UINT64_MAX;
};

class Flags {
 public:
  /// Parses argv[first, argc) against `specs`. `command` names the program
  /// (and subcommand) in the usage line.
  Flags(std::string command, std::vector<FlagSpec> specs, int argc,
        char** argv, int first)
      : command_(std::move(command)), specs_(std::move(specs)) {
    for (int i = first; i < argc; ++i) {
      const std::string_view arg = argv[i];
      if (arg.substr(0, 2) != "--") {
        Usage("unexpected argument '" + std::string(arg) + "'");
      }
      const size_t eq = arg.find('=');
      const std::string name(
          arg.substr(2, eq == std::string_view::npos ? eq : eq - 2));
      const FlagSpec* spec = Find(name);
      if (spec == nullptr) Usage("unknown flag --" + name);
      if (*spec->value == '\0') {
        if (eq != std::string_view::npos) {
          Usage("--" + name + " takes no value");
        }
        values_[name] = "";
        continue;
      }
      if (eq == std::string_view::npos) {
        Usage("--" + name + " needs a value (--" + name + "=" + spec->value +
              ")");
      }
      const std::string value(arg.substr(eq + 1));
      if (std::string_view(spec->value) == "N") CheckInteger(*spec, value);
      values_[name] = value;
    }
  }

  bool Has(const std::string& name) const { return values_.count(name) != 0; }

  /// A string flag's value, or `fallback` when the flag is absent.
  std::string Get(const std::string& name,
                  const std::string& fallback = "") const {
    const auto it = values_.find(name);
    return it == values_.end() ? fallback : it->second;
  }

  /// An N flag's value (range-checked at parse time), or `fallback`.
  uint64_t GetInt(const std::string& name, uint64_t fallback) const {
    const auto it = values_.find(name);
    return it == values_.end()
               ? fallback
               : std::strtoull(it->second.c_str(), nullptr, 10);
  }

 private:
  const FlagSpec* Find(const std::string& name) const {
    for (const FlagSpec& spec : specs_) {
      if (name == spec.name) return &spec;
    }
    return nullptr;
  }

  void CheckInteger(const FlagSpec& spec, const std::string& value) const {
    uint64_t parsed = 0;
    const char* end = value.data() + value.size();
    const auto [ptr, ec] = std::from_chars(value.data(), end, parsed);
    if (value.empty() || ec != std::errc() || ptr != end) {
      Usage("--" + std::string(spec.name) + " needs an integer, got '" +
            value + "'");
    }
    if (parsed < spec.min || parsed > spec.max) {
      const std::string range =
          spec.max == UINT64_MAX
              ? "at least " + std::to_string(spec.min)
              : "in [" + std::to_string(spec.min) + ", " +
                    std::to_string(spec.max) + "]";
      Usage("--" + std::string(spec.name) + "=" + value + " must be " + range);
    }
  }

  [[noreturn]] void Usage(const std::string& error) const {
    std::fprintf(stderr, "%s: %s\nusage: %s", command_.c_str(), error.c_str(),
                 command_.c_str());
    for (const FlagSpec& spec : specs_) {
      std::fprintf(stderr, " [--%s%s%s]", spec.name, *spec.value ? "=" : "",
                   spec.value);
    }
    std::fprintf(stderr, "\n");
    std::exit(2);
  }

  std::string command_;
  std::vector<FlagSpec> specs_;
  std::map<std::string, std::string> values_;
};

}  // namespace sketchlink::tools

#endif  // SKETCHLINK_TOOLS_FLAGS_H_
