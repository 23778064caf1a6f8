#include "bench_util/options.hpp"

#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <stdexcept>

namespace la::bench {
namespace {

std::uint64_t parse_uint(const std::string& key, const std::string& text) {
  try {
    // std::stoull silently wraps a leading minus into a huge value.
    if (text.empty() || (text[0] < '0' || text[0] > '9')) {
      throw std::invalid_argument("not a digit");
    }
    std::size_t pos = 0;
    const std::uint64_t value = std::stoull(text, &pos);
    if (pos != text.size()) throw std::invalid_argument("trailing junk");
    return value;
  } catch (const std::exception&) {
    throw std::invalid_argument("--" + key + ": expected an unsigned integer, got \"" +
                                text + "\"");
  }
}

double parse_double(const std::string& key, const std::string& text) {
  try {
    std::size_t pos = 0;
    const double value = std::stod(text, &pos);
    if (pos != text.size()) throw std::invalid_argument("trailing junk");
    return value;
  } catch (const std::exception&) {
    throw std::invalid_argument("--" + key + ": expected a number, got \"" +
                                text + "\"");
  }
}

std::uint64_t parse_duration_ns(const std::string& key,
                                const std::string& text) {
  // Longest suffix first so "ms" is not read as "s" with trailing junk.
  static constexpr struct {
    const char* suffix;
    std::uint64_t scale;
  } kUnits[] = {
      {"ns", 1ull}, {"us", 1000ull}, {"ms", 1000000ull}, {"s", 1000000000ull}};
  for (const auto& unit : kUnits) {
    const std::string suffix(unit.suffix);
    if (text.size() > suffix.size() &&
        text.compare(text.size() - suffix.size(), suffix.size(), suffix) ==
            0) {
      const std::uint64_t value =
          parse_uint(key, text.substr(0, text.size() - suffix.size()));
      if (unit.scale != 0 &&
          value > ~std::uint64_t{0} / unit.scale) {
        throw std::invalid_argument("--" + key + ": duration overflows");
      }
      return value * unit.scale;
    }
  }
  return parse_uint(key, text);  // bare number = nanoseconds
}

std::vector<std::string> split_commas(const std::string& text) {
  std::vector<std::string> parts;
  std::size_t start = 0;
  while (start <= text.size()) {
    const std::size_t comma = text.find(',', start);
    if (comma == std::string::npos) {
      parts.push_back(text.substr(start));
      break;
    }
    parts.push_back(text.substr(start, comma - start));
    start = comma + 1;
  }
  return parts;
}

// A comma-separated list with empty parts dropped, each part parsed by
// `parse`. An explicitly passed but empty list (e.g. --n=$UNSET) must
// not silently fall back to the defaults.
template <typename T, typename Parse>
std::vector<T> parse_list(const std::string& key, const std::string& text,
                          Parse parse) {
  std::vector<T> out;
  for (const auto& part : split_commas(text)) {
    if (!part.empty()) out.push_back(parse(part));
  }
  if (out.empty()) {
    throw std::invalid_argument("--" + key + ": expected a non-empty list");
  }
  return out;
}

}  // namespace

Options::Options(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      throw std::invalid_argument("unexpected positional argument: " + arg);
    }
    arg = arg.substr(2);
    const std::size_t eq = arg.find('=');
    if (eq == std::string::npos) {
      values_[arg] = "";  // bare flag, e.g. --csv
    } else {
      values_[arg.substr(0, eq)] = arg.substr(eq + 1);
    }
  }
}

const std::string* Options::lookup(const std::string& key) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return nullptr;
  used_.insert(key);
  return &it->second;
}

bool Options::has(const std::string& key) const {
  return lookup(key) != nullptr;
}

std::uint64_t Options::get_uint(const std::string& key,
                                std::uint64_t def) const {
  const auto* value = lookup(key);
  return value == nullptr ? def : parse_uint(key, *value);
}

double Options::get_double(const std::string& key, double def) const {
  const auto* value = lookup(key);
  return value == nullptr ? def : parse_double(key, *value);
}

std::uint64_t Options::get_duration_ns(const std::string& key,
                                       std::uint64_t def) const {
  const auto* value = lookup(key);
  return value == nullptr ? def : parse_duration_ns(key, *value);
}

std::string Options::get_string(const std::string& key,
                                std::string def) const {
  const auto* value = lookup(key);
  return value == nullptr ? std::move(def) : *value;
}

std::vector<std::uint64_t> Options::get_uint_list(
    const std::string& key, std::vector<std::uint64_t> def) const {
  const auto* value = lookup(key);
  if (value == nullptr) return def;
  return parse_list<std::uint64_t>(key, *value, [&](const std::string& part) {
    return parse_uint(key, part);
  });
}

std::vector<double> Options::get_double_list(
    const std::string& key, std::vector<double> def) const {
  const auto* value = lookup(key);
  if (value == nullptr) return def;
  return parse_list<double>(key, *value, [&](const std::string& part) {
    return parse_double(key, part);
  });
}

std::vector<std::string> Options::get_string_list(
    const std::string& key, std::vector<std::string> def) const {
  const auto* value = lookup(key);
  if (value == nullptr) return def;
  return parse_list<std::string>(key, *value,
                                 [](const std::string& part) { return part; });
}

std::vector<std::string> Options::unused_keys() const {
  std::vector<std::string> out;
  for (const auto& [key, value] : values_) {
    if (used_.find(key) == used_.end()) out.push_back(key);
  }
  return out;
}

void Options::reject_unused() const {
  const auto unused = unused_keys();
  for (const auto& key : unused) {
    std::cerr << "error: unknown flag --" << key << " (see --help)\n";
  }
  if (unused.empty()) return;
  // Called before the driver measures anything, so there is no state
  // to unwind; _Exit (unlike exit) is thread-safe.
  std::cout.flush();
  std::fflush(nullptr);
  std::_Exit(2);
}

}  // namespace la::bench
