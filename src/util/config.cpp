#include "util/config.hpp"

#include <cctype>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <sstream>

namespace mnsim::util {

std::string trim(const std::string& s) {
  std::size_t b = 0;
  std::size_t e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

Config Config::parse(const std::string& text) {
  Config cfg;
  std::istringstream in(text);
  std::string line;
  std::string section;
  int line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    // Strip comments; '#' and ';' start a comment anywhere outside a value
    // list (we keep it simple: anywhere).
    auto cut = line.find_first_of("#;");
    if (cut != std::string::npos) line.erase(cut);
    line = trim(line);
    if (line.empty()) continue;
    if (line.front() == '[' && line.back() == ']') {
      section = trim(line.substr(1, line.size() - 2));
      continue;
    }
    auto eq = line.find('=');
    if (eq == std::string::npos) {
      throw ConfigError("config line " + std::to_string(line_no) +
                        ": expected 'key = value', got '" + line + "'");
    }
    std::string key = trim(line.substr(0, eq));
    std::string value = trim(line.substr(eq + 1));
    if (key.empty()) {
      throw ConfigError("config line " + std::to_string(line_no) +
                        ": empty key");
    }
    if (!section.empty()) key = section + "." + key;
    cfg.set(key, value);
    cfg.lines_[key] = line_no;
  }
  return cfg;
}

Config Config::load(const std::string& path) {
  std::ifstream f(path);
  if (!f) throw ConfigError("cannot open config file: " + path);
  std::ostringstream os;
  os << f.rdbuf();
  Config cfg = parse(os.str());
  cfg.source_ = path;
  return cfg;
}

void Config::set(const std::string& key, const std::string& value) {
  entries_[key] = value;
}

bool Config::has(const std::string& key) const {
  const bool present = entries_.count(key) != 0;
  if (present) read_.insert(key);
  return present;
}

int Config::line_of(const std::string& key) const {
  auto it = lines_.find(key);
  return it == lines_.end() ? 0 : it->second;
}

std::vector<std::string> Config::unread_keys() const {
  std::vector<std::string> out;
  for (const auto& [key, value] : entries_)
    if (read_.count(key) == 0) out.push_back(key);
  return out;
}

std::optional<std::string> Config::find(const std::string& key) const {
  auto it = entries_.find(key);
  if (it == entries_.end()) return std::nullopt;
  read_.insert(key);
  return it->second;
}

std::string Config::get_string(const std::string& key) const {
  auto v = find(key);
  if (!v) throw ConfigError("missing config key: " + key);
  return *v;
}

namespace {

double to_double(const std::string& key, const std::string& v) {
  const char* begin = v.c_str();
  char* end = nullptr;
  double d = std::strtod(begin, &end);
  if (end == begin || trim(end).size() != 0) {
    throw ConfigError("config key '" + key + "': '" + v +
                      "' is not a number");
  }
  return d;
}

}  // namespace

double Config::get_double(const std::string& key) const {
  return to_double(key, get_string(key));
}

long Config::get_int(const std::string& key) const {
  const double d = get_double(key);
  // Range first: outside [-2^63, 2^63), or NaN, the cast is undefined.
  // The comparisons are quiet: an ordered compare with NaN would raise
  // FE_INVALID (a trap under the MNSIM_FPE tripwire).
  if (!(std::isgreaterequal(d, -0x1p63) && std::isless(d, 0x1p63)) ||
      static_cast<double>(static_cast<long>(d)) != d)
    throw ConfigError("config key '" + key + "' is not an integer");
  return static_cast<long>(d);
}

bool Config::get_bool(const std::string& key) const {
  std::string v = get_string(key);
  for (auto& c : v) c = static_cast<char>(std::tolower(c));
  if (v == "true" || v == "1" || v == "yes" || v == "on") return true;
  if (v == "false" || v == "0" || v == "no" || v == "off") return false;
  throw ConfigError("config key '" + key + "': '" + v + "' is not a bool");
}

std::vector<double> Config::get_list(const std::string& key) const {
  std::string v = get_string(key);
  if (!v.empty() && v.front() == '[' && v.back() == ']')
    v = v.substr(1, v.size() - 2);
  std::vector<double> out;
  std::istringstream in(v);
  std::string item;
  while (std::getline(in, item, ',')) {
    item = trim(item);
    if (item.empty()) continue;
    out.push_back(to_double(key, item));
  }
  return out;
}

std::vector<long> Config::get_int_list(const std::string& key) const {
  std::vector<long> out;
  for (double d : get_list(key)) {
    long l = static_cast<long>(d);
    if (static_cast<double>(l) != d) {
      throw ConfigError("config key '" + key + "' has a non-integer element");
    }
    out.push_back(l);
  }
  return out;
}

}  // namespace mnsim::util
