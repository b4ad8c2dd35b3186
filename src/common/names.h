// Enum names for the wire: each enum spells its names once, in one
// {kind, name} table, and both its name function and its from-name parser
// read that table.
#pragma once

#include <cstddef>
#include <stdexcept>
#include <string>

namespace custody {

template <class Kind>
struct KindName {
  Kind kind;
  const char* name;
};

/// `kind`'s name in `table` ("unknown" for a value the table lacks).
template <class Kind, std::size_t N>
[[nodiscard]] constexpr const char* NameIn(const KindName<Kind> (&table)[N],
                                           Kind kind) {
  for (const KindName<Kind>& entry : table) {
    if (entry.kind == kind) return entry.name;
  }
  return "unknown";
}

/// The kind `table` calls `name`.  Otherwise throws std::invalid_argument
/// leading with `field` and listing the accepted names.
template <class Kind, std::size_t N>
[[nodiscard]] Kind KindNamed(const KindName<Kind> (&table)[N],
                             const std::string& name,
                             const std::string& field) {
  std::string accepted;
  for (const KindName<Kind>& entry : table) {
    if (name == entry.name) return entry.kind;
    accepted += (accepted.empty() ? "" : "|") + std::string(entry.name);
  }
  throw std::invalid_argument(field + " must be one of " + accepted +
                              " (got \"" + name + "\")");
}

}  // namespace custody
