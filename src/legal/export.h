// Deterministic JSON export of engine outputs.
//
// Downstream tooling (case-management systems, review UIs) consumes
// determinations and suppression reports as data; this module renders
// them as stable, minified JSON with full string escaping.  No external
// JSON dependency: the subset needed here (objects, arrays, strings,
// numbers, booleans) is emitted directly.

#pragma once

#include <string>

#include "legal/analysis.h"
#include "legal/engine.h"
#include "legal/suppression.h"

namespace lexfor::legal {

// {"scenario":...,"verdict":...,"required_process":...,"statutes":[...],
//  "exceptions":[...],"rationale":[...],"citations":[...]}
[[nodiscard]] std::string to_json(const Determination& d);

// {"suppressed":N,"admissible":N,"findings":[{"id":..,"suppressed":..,
//  "reason":..},...]}
[[nodiscard]] std::string to_json(const SuppressionReport& r);

// {"technique":...,"feasibility":...,"bottleneck":...,"steps":[...]}
[[nodiscard]] std::string to_json(const FeasibilityReport& r);

}  // namespace lexfor::legal
