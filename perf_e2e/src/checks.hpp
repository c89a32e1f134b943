// Output checks.  Each returns an empty string when the output passes and
// a one-line reason when it does not, so the self-test can feed them
// perturbed outputs and see them fail.  None compares against a stored copy
// of an earlier output: every expectation comes from a property of the
// method or from an independent in-process computation.
#pragma once

#include <string>
#include <vector>

#include "machine/profile.hpp"
#include "service/protocol.hpp"
#include "trace/task_trace.hpp"

namespace pmacx::e2e {

/// |predicted - reference| / reference within `tolerance` (the paper's 5%).
std::string check_within(double predicted, double reference, double tolerance);
/// Every block's and instruction's hit rates lie in [0, 1] and do not
/// decrease from L1 to L3.
std::string check_hit_rates(const trace::TaskTrace& task);
/// Byte-identical bodies; names the first differing offset.
std::string check_identical(const std::string& got, const std::string& want);
/// A PREDICT_INTERVAL body decodes and every element has lo ≤ median ≤ hi.
std::string check_interval(const std::string& body);

/// The PREDICT answer computed in-process, without a server: cold fit of
/// `inputs` under `spec`, apply at `target`, the application model's comm
/// timelines, psins::predict and psins::render_prediction.
std::string expected_prediction(const std::vector<trace::TaskTrace>& inputs,
                                const service::FitSpec& spec, std::uint32_t target,
                                const std::string& app,
                                const machine::MachineProfile& profile);

}  // namespace pmacx::e2e
