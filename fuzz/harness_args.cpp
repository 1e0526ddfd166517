#include <cstdlib>
#include <string>
#include <vector>

#include "fuzz/harness.h"
#include "tools/args.h"
#include "util/error.h"

namespace riskroute::fuzz {
namespace {

/// A registry shaped like the CLI's: a few value flags, a few booleans.
const cli::FlagRegistry& HarnessFlags() {
  static const cli::FlagRegistry flags = [] {
    cli::FlagRegistry f;
    f.Value("network").Value("seed").Value("metrics-out").Value("lambda-h");
    f.Bool("json").Bool("geojson");
    return f;
  }();
  return flags;
}

}  // namespace

int FuzzArgs(const std::uint8_t* data, std::size_t size) {
  // argv tokens are newline-separated input lines (bounded count/length).
  constexpr std::size_t kMaxTokens = 64;
  constexpr std::size_t kMaxTokenBytes = 4096;
  std::vector<std::string> tokens = {"riskroute"};
  std::string current;
  for (std::size_t i = 0; i < size && tokens.size() < kMaxTokens; ++i) {
    const char c = static_cast<char>(data[i]);
    if (c == '\n') {
      tokens.push_back(current);
      current.clear();
    } else if (current.size() < kMaxTokenBytes && c != '\0') {
      current.push_back(c);
    }
  }
  if (!current.empty() && tokens.size() < kMaxTokens) {
    tokens.push_back(current);
  }
  std::vector<char*> argv;
  argv.reserve(tokens.size());
  for (std::string& token : tokens) argv.push_back(token.data());
  const int argc = static_cast<int>(argv.size());

  const auto parsed = cli::Args::Parse(argc, argv.data(), 1, HarnessFlags());
  if (parsed.ok()) {
    const cli::Args& args = parsed.value();
    (void)args.Get("network");
    (void)args.GetOr("metrics-out", "");
    (void)args.Has("json");
    (void)args.positional();
    // Typed getters throw InvalidArgument on malformed numbers by
    // contract; anything else escaping is a harness failure.
    try {
      (void)args.GetDouble("lambda-h", 1.0);
    } catch (const InvalidArgument&) {
    }
    try {
      (void)args.GetSize("seed", 0);
    } catch (const InvalidArgument&) {
    }
  }
  return 0;
}

}  // namespace riskroute::fuzz

#ifdef RISKROUTE_LIBFUZZER
extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  return riskroute::fuzz::FuzzArgs(data, size);
}
#endif
