// The wire codec between control-plane JSON and the workload types.
//
// The config codec walks workload::Fields (workload/experiment.h), the one
// place a knob is declared with its JSON key, member and range.  To add a
// knob, add its member to ExperimentConfig, one line to Fields and a bump
// of ConfigHash's salt; the decoder, the encoder, ConfigHash and
// ValidateConfig all pick it up.
//
// Decoding is strict: unknown keys, wrong types and integers that do not
// fit their member's type (or lie beyond 2^53, where a JSON number stops
// being exact) all throw std::invalid_argument whose message LEADS WITH THE
// FIELD PATH ("trace.num_apps must be an integer in [...]"), which the
// router surfaces as the structured "field" member of its 400 response.
// ValidateConfig then range-checks the decoded config with the same
// convention.
//
// Encoding round-trips exactly: doubles are printed with %.17g and integers
// digit for digit, so ConfigFromJson(Parse(ConfigToJson(c))) == c
// field-for-field and an HTTP-submitted config runs bit-identically to the
// in-process one (the svc determinism contract, pinned in svc_test.cpp).
#pragma once

#include <string>

#include "common/json.h"
#include "workload/experiment.h"

namespace custody::svc {

/// A double as a JSON number that parses back to the identical bits
/// (%.17g; rejects non-finite values, which JSON cannot carry).
[[nodiscard]] std::string JsonNumber(double value);

/// Strict decode of an experiment config document (must be an object).
/// Unknown keys and the `checkpoint` block (server-side file I/O is not a
/// remote-configurable knob) are rejected.  Does NOT run ValidateConfig —
/// the services do, so the decode/validate split stays testable.
[[nodiscard]] workload::ExperimentConfig ConfigFromJson(
    const JsonValue& document);
/// Convenience: parse + decode.
[[nodiscard]] workload::ExperimentConfig ConfigFromJsonText(
    const std::string& text);

/// Every HTTP-settable knob, exactly (defaults included), in field-list
/// order.
[[nodiscard]] std::string ConfigToJson(
    const workload::ExperimentConfig& config);

[[nodiscard]] std::string SummaryToJson(const Summary& summary);

/// Every deterministic ExperimentResult field (the trace buffer is served
/// by its own endpoint, not inlined here).
[[nodiscard]] std::string ResultToJson(
    const workload::ExperimentResult& result);

}  // namespace custody::svc
