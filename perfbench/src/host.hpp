#pragma once

// Host and build fingerprint recorded with every result, so results from
// different hosts or builds are never compared as if they were a
// speed-up.

#include <map>
#include <string>

#include "plan.hpp"

namespace perfbench {

/// Field → value: cpu, isa, nproc, tig_backend and dag_backend (the
/// resolved `EvalBackend` of `BatchEvaluator` and `ScheduleEvaluator` on
/// the plan's instances), openmp, pool_threads, compiler, build_type and
/// git_sha.
std::map<std::string, std::string> host_fingerprint(const Plan& plan,
                                                     const std::string& git_sha);

/// Appends `text` as a JSON string literal.
void append_json_string(std::string& out, const std::string& text);

}  // namespace perfbench
