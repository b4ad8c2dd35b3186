// The outcome digest the golden tests pin.
//
// A digest is snap::Fnv1a over svc::ResultToJson of the result, after the
// cost counters are zeroed (manager_stats.executors_scanned,
// manager_stats.apps_considered and every field of net_stats) and the
// app_work object is cut from the JSON.  Those count work, not outcomes,
// so a change that does less work for the same simulation keeps its
// digests.  app_work is cut rather than zeroed so the digests recorded
// before the object existed still hold.  Every other deterministic field — JCT and
// locality summaries, grants, offers, round counts, bytes, launches,
// events, makespan — is covered.  Wall-clock fields are not in the JSON.
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>

#include "common/snapshot.h"
#include "svc/json_api.h"
#include "workload/experiment.h"

namespace custody::workload {

inline std::uint64_t OutcomeDigest(ExperimentResult result) {
  result.manager_stats.executors_scanned = 0;
  result.manager_stats.apps_considered = 0;
  result.net_stats = {};
  std::string json = svc::ResultToJson(result);
  // A flat object of counters, followed by a comma.
  const std::size_t work = json.find("\"app_work\":{");
  if (work != std::string::npos) {
    json.erase(work, json.find("},", work) + 2 - work);
  }
  return snap::Fnv1a(reinterpret_cast<const std::uint8_t*>(json.data()),
                     json.size());
}

/// `value` as a C++ literal, so a failure message can be pasted into a
/// digest table.
inline std::string Hex(std::uint64_t value) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "0x%016llxULL",
                static_cast<unsigned long long>(value));
  return buf;
}

}  // namespace custody::workload
