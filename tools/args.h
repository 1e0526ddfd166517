// Command-line option parsing for the riskroute CLI.
//
// Args::Parse(argc, argv, first, registry) is the one entry point. Every
// flag must be declared in a FlagRegistry as either value-taking or
// boolean; unknown options, value flags with no value ("--metrics-out
// --json" used to record metrics-out=""), and boolean flags given an
// inline value are structured ParseResult errors. Supports both
// "--key value" and "--key=value".
#pragma once

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "util/error.h"
#include "util/parse_result.h"
#include "util/strings.h"

namespace riskroute::cli {

/// The set of declared flags: each is value-taking (--key value or
/// --key=value) or boolean (--key). Undeclared flags are parse errors.
class FlagRegistry {
 public:
  /// Declares a flag that takes a value.
  FlagRegistry& Value(const std::string& name) {
    takes_value_[name] = true;
    return *this;
  }
  /// Declares a boolean flag.
  FlagRegistry& Bool(const std::string& name) {
    takes_value_[name] = false;
    return *this;
  }

  /// nullptr when undeclared; otherwise whether the flag takes a value.
  [[nodiscard]] const bool* Find(const std::string& name) const {
    const auto it = takes_value_.find(name);
    return it == takes_value_.end() ? nullptr : &it->second;
  }

 private:
  std::map<std::string, bool> takes_value_;
};

/// Parsed "--key value" / "--key=value" pairs plus positional arguments.
class Args {
 public:
  /// Hardened parse against a declared-flag registry. Error kinds:
  /// kUnknownOption (typo'd flag), kMissingValue (value flag at argv end
  /// or followed by another option), kBadValue (boolean flag given
  /// "=value"). Rejects are counted under `ingest.args.rejects.*`.
  [[nodiscard]] static util::ParseResult<Args> Parse(
      int argc, char** argv, int first, const FlagRegistry& flags) {
    Args args;
    for (int i = first; i < argc; ++i) {
      const std::string token = argv[i];
      if (token.rfind("--", 0) != 0) {
        args.positional_.push_back(token);
        continue;
      }
      std::string key = token.substr(2);
      std::optional<std::string> inline_value;
      if (const auto eq = key.find('='); eq != std::string::npos) {
        inline_value = key.substr(eq + 1);
        key.resize(eq);
      }
      const bool* takes_value = flags.Find(key);
      if (takes_value == nullptr) {
        return Reject(util::ParseErrorKind::kUnknownOption,
                      "unknown option --" + key);
      }
      if (*takes_value) {
        if (inline_value) {
          args.options_[key] = std::move(*inline_value);
        } else if (i + 1 < argc &&
                   std::string_view(argv[i + 1]).substr(0, 2) != "--") {
          args.options_[key] = argv[++i];
        } else {
          return Reject(util::ParseErrorKind::kMissingValue,
                        "option --" + key + " requires a value" +
                            " (use --" + key + "=VALUE for values starting "
                            "with --)");
        }
      } else {
        if (inline_value) {
          return Reject(util::ParseErrorKind::kBadValue,
                        "flag --" + key + " does not take a value");
        }
        args.options_[key] = "";
      }
    }
    util::ingest::CountAccepted("args");
    return args;
  }

  [[nodiscard]] std::optional<std::string> Get(const std::string& key) const {
    const auto it = options_.find(key);
    if (it == options_.end()) return std::nullopt;
    return it->second;
  }

  [[nodiscard]] std::string GetOr(const std::string& key,
                                  const std::string& fallback) const {
    return Get(key).value_or(fallback);
  }

  [[nodiscard]] double GetDouble(const std::string& key, double fallback) const {
    const auto value = Get(key);
    if (!value) return fallback;
    const auto parsed = util::ParseDouble(*value);
    if (!parsed) {
      throw InvalidArgument("--" + key + " expects a number, got: " + *value);
    }
    return *parsed;
  }

  [[nodiscard]] std::size_t GetSize(const std::string& key,
                                    std::size_t fallback) const {
    const auto value = Get(key);
    if (!value) return fallback;
    const auto parsed = util::ParseInt(*value);
    if (!parsed || *parsed < 0) {
      throw InvalidArgument("--" + key + " expects a non-negative integer");
    }
    return static_cast<std::size_t>(*parsed);
  }

  [[nodiscard]] bool Has(const std::string& key) const {
    return options_.contains(key);
  }

  [[nodiscard]] const std::vector<std::string>& positional() const {
    return positional_;
  }

 private:
  Args() = default;

  static util::ParseResult<Args> Reject(util::ParseErrorKind kind,
                                        std::string message) {
    util::ingest::CountRejected("args", kind);
    return util::ParseResult<Args>::Failure(kind, std::move(message));
  }

  std::map<std::string, std::string> options_;
  std::vector<std::string> positional_;
};

}  // namespace riskroute::cli
