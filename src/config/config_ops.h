// Generic operations over reflected config structs (see reflect.h for the
// protocol and schema.h for the per-struct field lists).
//
//   set(cfg, "llc.ddio_ways", "4", &err)   dotted-path assignment with codec,
//                                          range check and unknown-key errors
//   get(cfg, "llc.ddio_ways", &out, &err)  read one field as text
//   print(cfg)                             full "key = value" listing
//   diff_from_default(cfg)                 only the keys that differ from T{}
//   validate(cfg, &errors)                 range violations over all fields
//   list_keys(cfg)                         every dotted path, in field order
//   apply_text(cfg, text, &err)            scenario file / multi-line form
//
// All operations run off the same visit_fields list, so they cannot drift
// from each other or from the struct definition.
#pragma once

#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "config/reflect.h"
#include "config/value_codec.h"

namespace ceio::config {

namespace ops_detail {

// ---- set -------------------------------------------------------------------

struct SetVisitor {
  SetVisitor(std::string_view path_in, std::string_view value_in)
      : path(path_in), value(value_in) {}

  std::string_view path;     // remaining dotted path at this nesting level
  std::string_view value;
  bool matched = false;
  bool failed = false;
  std::string error;

  template <class T>
  void field(const char* name, T& ref) {
    if (matched || failed) return;
    const PathSplit split = split_path(path);
    if (split.head != name || !split.tail.empty()) return;
    T parsed{};
    if (!decode_value(value, &parsed, &error)) {
      failed = true;
      return;
    }
    ref = parsed;
    matched = true;
  }

  template <class T>
  void field(const char* name, T& ref, T lo, T hi) {
    if (matched || failed) return;
    const PathSplit split = split_path(path);
    if (split.head != name || !split.tail.empty()) return;
    T parsed{};
    if (!decode_value(value, &parsed, &error)) {
      failed = true;
      return;
    }
    if (!(lo <= parsed && parsed <= hi)) {  // written so NaN is out of range
      error = "value " + encode_value(parsed) + " out of range [" + encode_value(lo) + ", " +
              encode_value(hi) + "]";
      failed = true;
      return;
    }
    ref = parsed;
    matched = true;
  }

  template <class T>
  void nested(const char* name, T& ref) {
    if (matched || failed) return;
    const PathSplit split = split_path(path);
    if (split.head != name || split.tail.empty()) return;
    SetVisitor sub{split.tail, value};
    visit_fields(ref, sub);
    matched = sub.matched;
    failed = sub.failed;
    error = std::move(sub.error);
  }
};

// ---- get / print -----------------------------------------------------------

struct GetVisitor {
  explicit GetVisitor(std::string_view path_in) : path(path_in) {}

  std::string_view path;
  bool matched = false;
  std::string out;

  template <class T>
  void field(const char* name, T& ref) {
    if (matched) return;
    const PathSplit split = split_path(path);
    if (split.head != name || !split.tail.empty()) return;
    out = encode_value(ref);
    matched = true;
  }

  template <class T>
  void field(const char* name, T& ref, T, T) {
    field(name, ref);
  }

  template <class T>
  void nested(const char* name, T& ref) {
    if (matched) return;
    const PathSplit split = split_path(path);
    if (split.head != name || split.tail.empty()) return;
    GetVisitor sub{split.tail};
    visit_fields(ref, sub);
    matched = sub.matched;
    out = std::move(sub.out);
  }
};

struct PrintVisitor {
  std::string prefix;
  std::vector<std::pair<std::string, std::string>>* entries;

  template <class T>
  void field(const char* name, T& ref) {
    entries->emplace_back(join_path(prefix, name), encode_value(ref));
  }

  template <class T>
  void field(const char* name, T& ref, T, T) {
    field(name, ref);
  }

  template <class T>
  void nested(const char* name, T& ref) {
    PrintVisitor sub{join_path(prefix, name), entries};
    visit_fields(ref, sub);
  }
};

// ---- validate --------------------------------------------------------------

struct ValidateVisitor {
  std::string prefix;
  std::vector<std::string>* errors;

  template <class T>
  void field(const char*, T&) {}  // unranged fields are always valid

  template <class T>
  void field(const char* name, T& ref, T lo, T hi) {
    if (!(lo <= ref && ref <= hi)) {  // written so NaN is out of range
      errors->push_back(join_path(prefix, name) + " = " + encode_value(ref) +
                        " out of range [" + encode_value(lo) + ", " + encode_value(hi) + "]");
    }
  }

  template <class T>
  void nested(const char* name, T& ref) {
    ValidateVisitor sub{join_path(prefix, name), errors};
    visit_fields(ref, sub);
  }
};

}  // namespace ops_detail

/// Sets one field by dotted path from its text form. Returns false and fills
/// *error on unknown key, parse failure or range violation (the config is
/// untouched in every failure case).
template <class Config>
bool set(Config& cfg, std::string_view key, std::string_view value, std::string* error) {
  ops_detail::SetVisitor v{codec_detail::trim(key), value};
  visit_fields(cfg, v);
  if (v.failed) {
    *error = std::string(key) + ": " + v.error;
    return false;
  }
  if (!v.matched) {
    *error = "unknown key '" + std::string(key) + "'";
    return false;
  }
  return true;
}

/// Reads one field by dotted path into its text form.
template <class Config>
bool get(const Config& cfg, std::string_view key, std::string* out, std::string* error) {
  ops_detail::GetVisitor v{codec_detail::trim(key)};
  visit_fields(const_cast<Config&>(cfg), v);  // read-only visitor
  if (!v.matched) {
    *error = "unknown key '" + std::string(key) + "'";
    return false;
  }
  *out = std::move(v.out);
  return true;
}

/// All fields as (dotted key, encoded value) pairs, in declaration order.
template <class Config>
std::vector<std::pair<std::string, std::string>> entries(const Config& cfg) {
  std::vector<std::pair<std::string, std::string>> out;
  ops_detail::PrintVisitor v{"", &out};
  visit_fields(const_cast<Config&>(cfg), v);  // read-only visitor
  return out;
}

/// Full "key = value" listing, one field per line.
template <class Config>
std::string print(const Config& cfg) {
  std::string out;
  for (const auto& [key, value] : entries(cfg)) {
    out += key;
    out += " = ";
    out += value;
    out += '\n';
  }
  return out;
}

/// Only the fields whose encoded value differs from a default-constructed
/// Config — the minimal scenario file that reproduces `cfg`.
template <class Config>
std::vector<std::pair<std::string, std::string>> diff_from_default(const Config& cfg) {
  const auto current = entries(cfg);
  const auto defaults = entries(Config{});
  std::vector<std::pair<std::string, std::string>> out;
  for (std::size_t i = 0; i < current.size(); ++i) {
    if (i >= defaults.size() || current[i] != defaults[i]) out.push_back(current[i]);
  }
  return out;
}

/// Checks every ranged field; appends one message per violation. Returns
/// true when the config is fully in range.
template <class Config>
bool validate(const Config& cfg, std::vector<std::string>* errors) {
  const std::size_t before = errors->size();
  ops_detail::ValidateVisitor v{"", errors};
  visit_fields(const_cast<Config&>(cfg), v);  // read-only visitor
  return errors->size() == before;
}

/// Every dotted key, in declaration order.
template <class Config>
std::vector<std::string> list_keys(const Config& cfg) {
  std::vector<std::string> keys;
  for (auto& [key, value] : entries(cfg)) keys.push_back(key);
  return keys;
}

/// Applies scenario-file text: one `key = value` (or `key=value`) per line,
/// `#` starts a comment, blank lines are skipped. Stops at the first bad
/// line; *error carries the 1-based line number.
template <class Config>
bool apply_text(Config& cfg, std::string_view text, std::string* error) {
  std::size_t line_no = 0;
  while (!text.empty()) {
    ++line_no;
    const std::size_t nl = text.find('\n');
    std::string_view line = nl == std::string_view::npos ? text : text.substr(0, nl);
    text = nl == std::string_view::npos ? std::string_view{} : text.substr(nl + 1);
    const std::size_t hash = line.find('#');
    if (hash != std::string_view::npos) line = line.substr(0, hash);
    line = codec_detail::trim(line);
    if (line.empty()) continue;
    const std::size_t eq = line.find('=');
    if (eq == std::string_view::npos) {
      *error = "line " + std::to_string(line_no) + ": expected 'key = value', got '" +
               std::string(line) + "'";
      return false;
    }
    std::string sub_error;
    if (!set(cfg, codec_detail::trim(line.substr(0, eq)), codec_detail::trim(line.substr(eq + 1)),
             &sub_error)) {
      *error = "line " + std::to_string(line_no) + ": " + sub_error;
      return false;
    }
  }
  return true;
}

}  // namespace ceio::config
