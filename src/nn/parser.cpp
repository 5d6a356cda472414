#include "nn/parser.hpp"

#include <algorithm>
#include <cctype>
#include <map>
#include <set>
#include <sstream>

#include "check/config_check.hpp"

namespace mnsim::nn {

namespace {

using check::Severity;

// Spellings by enum value; the all-lower-case spelling reads too.
constexpr const char* kKindNames[] = {"fc", "conv", "pool"};
constexpr const char* kTypeNames[] = {"ANN", "SNN", "CNN"};
const char* const* spellings(LayerKind) { return kKindNames; }
const char* const* spellings(NetworkType) { return kTypeNames; }

unsigned scope_of(LayerKind kind) {
  return NetworkKey::kFc << static_cast<unsigned>(kind);
}

// The field `Member` names: the network's or the layer's.
template <auto Member>
auto& field(auto& n, auto& l) {
  if constexpr (requires { n.*Member; })
    return n.*Member;
  else
    return l.*Member;
}

// Reader and writer of a plain field, typed by the field: string, bool,
// enum (one of its three spellings) or integer. Integers are checked
// against the key's range as the parsed long, before they are narrowed.
template <auto Member>
void scalar(const NetworkKey& key, const util::Config& cfg,
            const std::string& qualified, Network& n, Layer& l) {
  auto& f = field<Member>(n, l);
  using T = std::remove_reference_t<decltype(f)>;
  if constexpr (std::is_same_v<T, std::string>) {
    f = cfg.get_string(qualified);
  } else if constexpr (std::is_same_v<T, bool>) {
    f = cfg.get_bool(qualified);
  } else if constexpr (std::is_enum_v<T>) {
    const std::string v = cfg.get_string(qualified);
    const char* const* names = spellings(T{});
    for (int i = 0; i < 3; ++i) {
      std::string lower = names[i];
      for (auto& c : lower) c = static_cast<char>(std::tolower(c));
      if (v == names[i] || v == lower) return void(f = static_cast<T>(i));
    }
    throw util::ConfigError("'" + qualified + "' must be " + names[0] + "/" +
                            names[1] + "/" + names[2] + ", got '" + v + "'");
  } else {
    const long v = cfg.get_int(qualified);
    const auto [min, max] = *key.range;
    if (v < min || v > max)
      throw util::ConfigError("'" + qualified + "' = " + std::to_string(v) +
                              " outside the supported range [" +
                              std::to_string(min) + ", " +
                              std::to_string(max) + "]");
    f = static_cast<T>(v);
  }
}

template <auto Member>
std::string text(const Network& n, const Layer& l) {
  const auto& f = field<Member>(n, l);
  using T = std::remove_cvref_t<decltype(f)>;
  if constexpr (std::is_same_v<T, std::string>)
    return f;
  else if constexpr (std::is_same_v<T, bool>)
    return f ? "true" : "false";
  else if constexpr (std::is_enum_v<T>)
    return spellings(f)[static_cast<int>(f)];
  else
    return std::to_string(f);
}

// N >= 1 of [layerN] (no leading zeros), 0 of [network], else -1.
int section_number(const std::string& section) {
  if (section == "network") return 0;
  const bool layer =
      section.size() > 5 && section.size() < 15 &&
      section.rfind("layer", 0) == 0 && section[5] != '0' &&
      std::all_of(section.begin() + 5, section.end(),
                  [](unsigned char c) { return std::isdigit(c) != 0; });
  return layer ? std::stoi(section.substr(5)) : -1;
}

// A table row over a plain field.
template <auto Member>
NetworkKey row(std::string name, unsigned scope,
               std::optional<NetworkKey::Range> range = {},
               bool required = false) {
  return {std::move(name), scope, scalar<Member>, text<Member>, range,
          required};
}

}  // namespace

const std::vector<NetworkKey>& network_keys() {
  using K = NetworkKey;
  using R = NetworkKey::Range;
  // Counts and spatial sizes: wide enough for any real network, narrow
  // enough that no derived size (matrix rows, output maps) overflows.
  constexpr long kCount = 1L << 24;
  constexpr long kSpan = 1L << 16;
  static const std::vector<NetworkKey> keys = {
      row<&Network::name>("name", K::kNetwork),
      row<&Network::type>("type", K::kNetwork),
      row<&Network::input_bits>("input_bits", K::kNetwork, R{1, 16}),
      row<&Network::weight_bits>("weight_bits", K::kNetwork, R{1, 16}),
      row<&Layer::name>("name", K::kLayer),
      row<&Layer::kind>("kind", K::kLayer, {}, true),
      row<&Layer::in_features>("in", K::kFc, R{1, kCount}, true),
      row<&Layer::out_features>("out", K::kFc, R{1, kCount}, true),
      row<&Layer::has_bias>("bias", K::kFc),
      row<&Layer::in_channels>("in_channels", K::kConv, R{1, kCount}, true),
      row<&Layer::out_channels>("out_channels", K::kConv, R{1, kCount}, true),
      row<&Layer::kernel>("kernel", K::kConv, R{1, kSpan}, true),
      row<&Layer::in_width>("in_width", K::kConv, R{1, kSpan}, true),
      row<&Layer::in_height>("in_height", K::kConv, R{1, kSpan}, true),
      row<&Layer::padding>("padding", K::kConv, R{0, kSpan}),
      row<&Layer::stride>("stride", K::kConv, R{1, kSpan}),
      row<&Layer::pool_size>("window", K::kPool, R{1, kSpan}, true),
  };
  return keys;
}

Network read_network(const util::Config& cfg, check::DiagnosticList& out) {
  using check::emit_at_key;
  const auto& keys = network_keys();

  // The keys of [network] (0) and of each [layerN] (N). Other sections
  // are someone else's: reported once each, never read.
  std::map<int, std::vector<std::string>> sections;
  std::set<std::string> foreign;
  for (const auto& [key, value] : cfg.entries()) {
    (void)value;
    const auto dot = key.find('.');
    const std::string section =
        dot == std::string::npos ? std::string() : key.substr(0, dot);
    if (const int number = section_number(section); number >= 0) {
      sections[number].push_back(key);
    } else if (section.empty() || foreign.insert(section).second) {
      auto& d = emit_at_key(
          out, cfg, "MN-CFG-002", Severity::kWarning,
          section.empty() ? "key '" + key + "' outside any section"
                          : "unknown section [" + section + "]",
          key);
      if (!section.empty()) d.location = "[" + section + "]";
      d.hint = "network descriptions use [network] and [layerN] sections";
    }
  }

  // One section: its unknown keys, then every row of `scope` it holds or
  // must hold (required, and of every kind in `scope`); an absent one
  // reports at `absent_line`.
  const auto read_section = [&](const std::string& name,
                                const std::vector<std::string>& present,
                                unsigned scope, const std::string& note,
                                int absent_line, Network& n, Layer& l) {
    std::vector<std::string> known;
    for (const auto& k : keys)
      if ((k.scope & scope) != 0) known.push_back(k.name);
    for (const auto& key : present) {
      const std::string bare = key.substr(name.size() + 1);
      if (std::find(known.begin(), known.end(), bare) != known.end()) continue;
      const std::string near = check::nearest_key(bare, known);
      emit_at_key(out, cfg, "MN-CFG-001", Severity::kError,
                  "unknown key '" + bare + "' in section [" + name + "]" +
                      note,
                  key)
          .hint = near.empty() ? near : "did you mean '" + near + "'?";
    }
    for (const auto& key : keys) {
      const std::string qualified = name + "." + key.name;
      const bool must = key.required && (key.scope & scope) == scope;
      if ((key.scope & scope) == 0 || !(must || cfg.has(qualified))) continue;
      try {
        key.read(key, cfg, qualified, n, l);
      } catch (const util::ConfigError& e) {
        auto& d = emit_at_key(out, cfg, "MN-CFG-003", Severity::kError,
                              e.what(), qualified);
        if (d.line == 0) d.line = absent_line;
        d.hint = e.hint();
      }
    }
  };

  Network net;
  net.name = "network";
  Layer unused;
  read_section("network", sections[0], NetworkKey::kNetwork, "", 0, net,
               unused);
  sections.erase(0);

  int expected = 1;
  for (const auto& [number, present] : sections) {
    const std::string name = "layer" + std::to_string(number);
    // Layers run [layer1] .. [layerN]: a gap would silently drop layers.
    if (number != expected)
      emit_at_key(out, cfg, "MN-CFG-003", Severity::kError,
                  "network layers must be contiguous: [layer" +
                      std::to_string(expected) + "] is missing but [" + name +
                      "] exists",
                  present.front())
          .location = "[" + name + "]";
    expected = number + 1;
    Layer layer;
    layer.name = name;
    // The kind decides which keys belong and which are required (those
    // missing report at the kind's line). With no readable kind, any
    // layer key belongs and only the kind is required.
    const std::string kind_key = name + ".kind";
    const auto names = std::begin(kKindNames);
    const auto kind =
        cfg.has(kind_key)
            ? std::find(names, names + 3, cfg.get_string(kind_key)) - names
            : 3;
    if (kind < 3) layer.kind = static_cast<LayerKind>(kind);
    read_section(name, present,
                 kind < 3 ? scope_of(layer.kind) : NetworkKey::kLayer,
                 kind < 3 ? std::string(" (layer kind '") + kKindNames[kind] +
                                "')"
                          : std::string(),
                 cfg.line_of(kind < 3 ? kind_key : present.front()), net,
                 layer);
    net.layers.push_back(std::move(layer));
  }
  return net;
}

Network parse_network(const util::Config& cfg) {
  check::DiagnosticList diags;
  Network net = read_network(cfg, diags);
  for (const auto& d : diags)
    if (d.severity == Severity::kError)
      throw util::ConfigError(d.message, d.hint);
  net.validate();
  return net;
}

Network parse_network_file(const std::string& path) {
  return parse_network(util::Config::load(path));
}

std::string write_network(const Network& net) {
  std::ostringstream os;
  const auto section = [&](unsigned scope, const Layer& l) {
    for (const auto& key : network_keys())
      if ((key.scope & scope) != 0)
        os << key.name << " = " << key.write(net, l) << "\n";
  };
  os << "[network]\n";
  section(NetworkKey::kNetwork, Layer{});
  int index = 0;
  for (const auto& l : net.layers) {
    os << "\n[layer" << ++index << "]\n";
    section(scope_of(l.kind), l);
  }
  return os.str();
}

}  // namespace mnsim::nn
